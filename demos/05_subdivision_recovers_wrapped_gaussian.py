"""Long strongly-coupled chains substitute for wrapped-Gaussian edge weights.

Replacing a graph edge of coupling J_e by a path of n cosine-coupled edges
at inverse temperature n / J_e makes the effective edge weight between the
path ends converge to the wrapped Gaussian V(theta; J_e).  The hub weight
law of the subdivided model therefore approaches the wrapped-Gaussian-edge
law of the base graph as n (and the hub coupling) grows.

Desk-scale illustration on a single edge: the MGF gap between the
subdivided cosine model (hub coupling J) and the wrapped-Gaussian model
shrinks as n and then J increase.  Every vertex of the refined graph but
the two hubs has weight 0 and two edges, so the law builder sums it out,
and a chain of n = 256 edges builds as fast as one edge.
"""

import time

from leeyang import (EntireMGF, ModelSpec, mgf_eval, observable_distribution,
                     single_edge_graph, subdivide)

base = single_edge_graph(J=1.0)
reference = EntireMGF(observable_distribution(ModelSpec("villain", base), 64))
zs = (0.5, 1.0, 1.5j)

print("base graph: one edge (J = 1); subdivided model on the refined graph, N = 64")
for J_hub in (4.0, 64.0):
    for n in (1, 4, 16, 64, 256):
        t0 = time.perf_counter()
        sub = subdivide(base, n, J=J_hub)
        dist = observable_distribution(ModelSpec("xy", sub), N=64)
        f = EntireMGF(dist)
        gap = max(abs(mgf_eval(f, z) - mgf_eval(reference, z)) for z in zs)
        print(f"  hub J={J_hub:4.1f}  n={n:3d}  vertices={len(sub.vertices):3d}  "
              f"MGF gap={gap:.3e}  ({1e3 * (time.perf_counter() - t0):.0f} ms)")
