"""Finite graphs with edge couplings and vertex field weights.

A :class:`FiniteGraph` is the arena for every spin model in this package:
vertices carry non-negative field weights ``lam[v]`` and edges carry positive
couplings ``J[e]``.  :func:`subdivide` implements the star-and-path refinement
that replaces every vertex by a hub plus one spoke per incident edge, and
every edge by a path of ``n`` strongly coupled edges; it is the construction
used to approximate a periodized-Gaussian edge weight by long XY chains.

Graphs are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

Edge = tuple[str, str]


def _edge_key(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def edge_label(e: Edge) -> str:
    """Render an edge as the sorted endpoints joined by '|' (JSON key form)."""
    return f"{e[0]}|{e[1]}"


@dataclass(frozen=True)
class FiniteGraph:
    """Finite undirected graph with couplings J_e > 0 and weights lam_v >= 0.

    Use :func:`build_graph` to construct a validated instance.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    coupling: dict[Edge, float] = field(compare=False)
    weight: dict[str, float] = field(compare=False)

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def to_json(self) -> str:
        doc = {
            "vertices": list(self.vertices),
            "edges": [[u, v] for u, v in self.edges],
            "J": {edge_label(e): self.coupling[e] for e in self.edges},
            "lambda": {v: self.weight[v] for v in self.vertices},
        }
        return json.dumps(doc, sort_keys=True)


def build_graph(vertices, edges, couplings, weights) -> FiniteGraph:
    """Validate and freeze a graph description.

    ``couplings`` maps edges (any endpoint order) to J_e > 0; ``weights`` maps
    vertices to lam_v >= 0.  Missing couplings default to 1.0 and missing
    weights to 0.0.  Rejects self-loops, duplicate edges, dangling endpoints,
    non-positive J and negative lam, naming the offending element.
    """
    verts = tuple(str(v) for v in vertices)
    if len(set(verts)) != len(verts):
        dup = next(v for v in verts if verts.count(v) > 1)
        raise ValueError(f"duplicate vertex {dup!r}")
    vset = set(verts)

    norm_edges: list[Edge] = []
    seen: set[Edge] = set()
    for e in edges:
        u, v = (str(e[0]), str(e[1]))
        if u == v:
            raise ValueError(f"self-loop at vertex {u!r}")
        if u not in vset:
            raise ValueError(f"edge endpoint {u!r} is not a listed vertex")
        if v not in vset:
            raise ValueError(f"edge endpoint {v!r} is not a listed vertex")
        key = _edge_key(u, v)
        if key in seen:
            raise ValueError(f"duplicate edge {edge_label(key)!r}")
        seen.add(key)
        norm_edges.append(key)

    coup: dict[Edge, float] = {}
    if couplings is None:
        couplings = {}
    for e_raw, j in dict(couplings).items():
        key = _edge_key(str(e_raw[0]), str(e_raw[1]))
        if key not in seen:
            raise ValueError(f"coupling given for unknown edge {edge_label(key)!r}")
        coup[key] = float(j)
    for e in norm_edges:
        coup.setdefault(e, 1.0)
        if not coup[e] > 0.0:
            raise ValueError(f"non-positive coupling J={coup[e]} on edge {edge_label(e)!r}")

    lam: dict[str, float] = {}
    if weights is None:
        weights = {}
    for v_raw, w in dict(weights).items():
        v = str(v_raw)
        if v not in vset:
            raise ValueError(f"weight given for unknown vertex {v!r}")
        lam[v] = float(w)
    for v in verts:
        lam.setdefault(v, 0.0)
        if lam[v] < 0.0:
            raise ValueError(f"negative weight lambda={lam[v]} on vertex {v!r}")

    return FiniteGraph(verts, tuple(norm_edges), coup, lam)


def graph_from_json(text: str) -> FiniteGraph:
    """Parse the JSON graph document format (see FiniteGraph.to_json): an object
    with "vertices" and "edges" and optional "J" and "lambda", which default as
    in :func:`build_graph`.  A missing required key, "edges" that is not a list
    of two-element pairs, and "J" or "lambda" that is not an object raise
    ValueError naming the key."""
    doc = json.loads(text)
    for key in ("vertices", "edges"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"graph JSON: not an object with the key {key!r}")
    if not (isinstance(doc["edges"], list)
            and all(isinstance(e, list) and len(e) == 2 for e in doc["edges"])):
        raise ValueError(f"graph JSON: 'edges' {doc['edges']!r} is not a list of "
                         "two-element pairs")
    for key in ("J", "lambda"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"graph JSON: {key!r} {doc[key]!r} is not an object")
    couplings = {tuple(k.split("|")): v for k, v in doc.get("J", {}).items()}
    return build_graph(doc["vertices"], doc["edges"], couplings, doc.get("lambda", {}))


def path_graph(n_vertices: int, J: float = 1.0, lam: float = 1.0) -> FiniteGraph:
    """Path on ``n_vertices`` labelled v0..v{n-1}, uniform coupling and weight."""
    verts = [f"v{i}" for i in range(n_vertices)]
    edges = [(verts[i], verts[i + 1]) for i in range(n_vertices - 1)]
    return build_graph(verts, edges, {e: J for e in edges}, {v: lam for v in verts})


def single_edge_graph(J: float = 1.0, lam=(1.0, 1.0)) -> FiniteGraph:
    """Two vertices x, y joined by one edge."""
    return build_graph(["x", "y"], [("x", "y")], {("x", "y"): J}, {"x": lam[0], "y": lam[1]})


def star_label(v: str) -> str:
    return f"{v}*"


def chain_label(v: str, e: Edge, k: int) -> str:
    return f"{v}|{edge_label(e)}|{k}"


@dataclass(frozen=True)
class SubdividedGraph:
    """Star-and-path refinement of a base graph.

    Every vertex v of the base becomes a hub ``v*`` plus one spoke vertex
    ``(v,e,0)`` per incident edge e, joined to the hub by an edge of coupling
    ``star_coupling``.  Every base edge e={v,w} becomes a path of ``n`` edges
    through n-1 interior vertices, each path edge carrying the chain coupling
    n / J_e.  Interior labels are canonicalised from the smaller endpoint, so
    the identification (v,e,k) = (w,e,n-k) holds by construction.
    """

    base: FiniteGraph
    n: int
    star_coupling: float
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    coupling: dict[Edge, float] = field(compare=False)
    chain_coupling: dict[Edge, float] = field(compare=False)

    def interior_vertex(self, v: str, e: Edge, k: int) -> str:
        """Canonical label of (v, e, k); applies (v,e,k) = (w,e,n-k)."""
        u, w = e
        if v == u:
            a, b, kk = u, w, k
        elif v == w:
            a, b, kk = u, w, self.n - k
        else:
            raise ValueError(f"vertex {v!r} is not an endpoint of edge {edge_label(e)!r}")
        if not 0 <= kk <= self.n:
            raise ValueError(f"chain index {k} out of range for n={self.n}")
        if kk == self.n:
            # (u,e,n) is the spoke vertex attached to the far endpoint
            return chain_label(b, e, 0)
        return chain_label(a, e, kk)

    def as_finite_graph(self) -> FiniteGraph:
        """View as a FiniteGraph; base field weights sit on the hub vertices."""
        weights = {v: 0.0 for v in self.vertices}
        for v in self.base.vertices:
            weights[star_label(v)] = self.base.weight[v]
        return build_graph(self.vertices, self.edges, self.coupling, weights)


def subdivide(G: FiniteGraph, n: int, J: float) -> SubdividedGraph:
    """Build the star-and-path refinement with n path edges per base edge.

    The chain coupling on each replaced edge e is n / J_e, so that the long
    strongly-coupled path converges (as n grows) to a periodized-Gaussian
    effective edge weight with parameter J_e.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n}")
    if not J > 0:
        raise ValueError(f"star coupling must be positive, got {J}")

    verts: list[str] = []
    edges: list[Edge] = []
    coupling: dict[Edge, float] = {}

    for v in G.vertices:
        verts.append(star_label(v))
    for v in G.vertices:
        for e in G.edges:
            if v in e:
                spoke = chain_label(v, e, 0)
                verts.append(spoke)
                se = _edge_key(star_label(v), spoke)
                edges.append(se)
                coupling[se] = J

    chain_coupling: dict[Edge, float] = {}
    for e in G.edges:
        u, w = e
        b_e = n / G.coupling[e]
        chain_coupling[e] = b_e
        path = [chain_label(u, e, 0)]
        for k in range(1, n):
            lab = chain_label(u, e, k)
            verts.append(lab)
            path.append(lab)
        path.append(chain_label(w, e, 0))
        for a, b in zip(path[:-1], path[1:]):
            ce = _edge_key(a, b)
            edges.append(ce)
            coupling[ce] = b_e

    return SubdividedGraph(
        base=G, n=n, star_coupling=J,
        vertices=tuple(verts), edges=tuple(edges),
        coupling=coupling, chain_coupling=chain_coupling,
    )
