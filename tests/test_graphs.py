"""Graph construction, validation, and the star-and-path subdivision."""

import json
import math
import random
import re

import pytest

from leeyang.graphs import (build_graph, edge_label, graph_from_json, path_graph,
                            single_edge_graph, subdivide)


def test_single_edge_graph():
    g = single_edge_graph(J=1.0, lam=(1.0, 1.0))
    assert len(g.vertices) == 2
    assert len(g.edges) == 1
    assert g.coupling[("x", "y")] == 1.0
    assert g.weight["x"] == 1.0


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph(["x", "y"], [("x", "y"), ("y", "x")], {}, {})


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(["x"], [("x", "x")], {}, {})


def test_dangling_endpoint_rejected():
    with pytest.raises(ValueError, match="not a listed vertex"):
        build_graph(["x"], [("x", "z")], {}, {})


def test_bad_coupling_and_weight_rejected():
    with pytest.raises(ValueError, match="non-positive coupling"):
        build_graph(["x", "y"], [("x", "y")], {("x", "y"): 0.0}, {})
    with pytest.raises(ValueError, match="negative weight"):
        build_graph(["x", "y"], [("x", "y")], {}, {"x": -1.0})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_coupling_and_weight_rejected(value):
    # named before any law is built: an infinite J once spun the Villain image
    # loop to its cap, and an infinite lambda overflowed the law's weights
    with pytest.raises(ValueError, match=re.escape(f"non-finite coupling J={value} on edge 'x|y'")):
        build_graph(["x", "y"], [("x", "y")], {("x", "y"): value}, {})
    with pytest.raises(ValueError, match=re.escape(f"non-finite weight lambda={value} on vertex 'y'")):
        build_graph(["x", "y"], [("x", "y")], {}, {"y": value})
    doc = json.dumps({"vertices": ["x", "y"], "edges": [["x", "y"]], "J": {"x|y": value}})
    with pytest.raises(ValueError, match="non-finite coupling"):
        graph_from_json(doc)


def test_triangle():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")],
                    {("a", "b"): 0.5, ("b", "c"): 0.5, ("a", "c"): 0.5}, {})
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert all(j == 0.5 for j in g.coupling.values())


def graph_json(g):
    """The JSON graph document of g, with "J" keyed by edge_label."""
    return json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges],
                       "J": {edge_label(e): g.coupling[e] for e in g.edges},
                       "lambda": dict(g.weight)})


def degree(g, v):
    return sum(v in e for e in g.edges)


def test_json_roundtrip():
    g = path_graph(3, J=2.0, lam=0.5)
    doc = graph_json(g)
    assert "v0|v1" in json.loads(doc)["J"]
    g2 = graph_from_json(doc)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert g2.coupling == g.coupling
    assert g2.weight == g.weight


def test_json_roundtrip_with_bar_in_vertex_labels():
    # subdivided vertex labels contain '|', the separator of a "J" key
    g = subdivide(single_edge_graph(J=0.7), 2, 1.0)
    g2 = graph_from_json(graph_json(g))
    assert (g2.vertices, g2.edges) == (g.vertices, g.edges)
    assert g2.coupling == g.coupling
    assert g2.weight == g.weight


def test_json_coupling_key_in_either_endpoint_order():
    g = graph_from_json('{"vertices": ["x", "y"], "edges": [["y", "x"]], "J": {"y|x": 2.5}}')
    assert g.coupling == {("x", "y"): 2.5}


@pytest.mark.parametrize("edges,key,what", [
    ([["a|b", "c"], ["a", "b|c"]], "a|b|c", "more than one edge"),
    ([["a|b", "c"]], "a|b", "no edge")])
def test_json_coupling_key_must_name_one_edge(edges, key, what):
    doc = {"vertices": ["a", "b", "c", "a|b", "b|c"], "edges": edges, "J": {key: 1.0}}
    with pytest.raises(ValueError, match=f"'J' key '{re.escape(key)}' names {what}"):
        graph_from_json(json.dumps(doc))


def test_subdivide_single_edge_n4():
    # 2 hubs + 2 spoke copies + 3 interior = 7 vertices; 2 star + 4 chain edges
    g = single_edge_graph(J=1.0)
    s = subdivide(g, 4, J=10.0)
    assert len(s.vertices) == 7
    assert len(s.edges) == 6
    star = [e for e in s.edges if s.coupling[e] == 10.0]
    chain = [e for e in s.edges if s.coupling[e] == 4.0]  # n / J_e = 4
    assert len(star) == 2 and len(chain) == 4
    # the path runs from x's spoke through the interior vertices to y's spoke
    assert {"x|x|y|0", "y|x|y|0", "x|x|y|3"} <= set(s.vertices)
    assert s.coupling[("x|x|y|0", "x|x|y|1")] == 4.0
    assert s.coupling[("x|x|y|3", "y|x|y|0")] == 4.0


def test_subdivide_four_vertex_four_edge():
    # square graph: every edge gets n-1 = 3 interior vertices
    verts = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    g = build_graph(verts, edges, {e: 1.0 for e in edges}, {v: 1.0 for v in verts})
    s = subdivide(g, 4, J=5.0)
    interior = [v for v in s.vertices if "|" in v and not v.endswith("|0")]
    assert len(interior) == 4 * 3
    # counting identity: sum_v (1 + deg v) + sum_e (n - 1)
    assert len(s.vertices) == sum(1 + degree(g, v) for v in verts) + len(edges) * 3
    assert len(s.edges) == 2 * len(edges) + 4 * len(edges)


def test_subdivide_n1_degenerate():
    g = single_edge_graph(J=2.0)
    s = subdivide(g, 1, J=3.0)
    interior = [v for v in s.vertices if "|" in v and not v.endswith("|0")]
    assert interior == []
    assert s.coupling[("x|x|y|0", "y|x|y|0")] == 0.5  # 1 / J_e


def test_subdivide_rejects_bad_args():
    g = single_edge_graph()
    with pytest.raises(ValueError):
        subdivide(g, 0, 1.0)
    with pytest.raises(ValueError):
        subdivide(g, 2, 0.0)


def test_counting_formulas_randomized():
    rng = random.Random(7)
    for _ in range(25):
        nv = rng.randint(2, 6)
        verts = [f"v{i}" for i in range(nv)]
        pairs = [(verts[i], verts[j]) for i in range(nv) for j in range(i + 1, nv)]
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(1, len(pairs))]
        g = build_graph(verts, edges, {e: rng.uniform(0.5, 3.0) for e in edges},
                        {v: rng.uniform(0, 2) for v in verts})
        n = rng.randint(1, 5)
        s = subdivide(g, n, rng.uniform(0.5, 5.0))
        assert len(s.vertices) == sum(1 + degree(g, v) for v in verts) + len(edges) * (n - 1)
        assert len(s.edges) == 2 * len(edges) + n * len(edges)
        assert len(set(s.vertices)) == len(s.vertices)


def test_as_finite_graph_weights_on_hubs():
    g = single_edge_graph(J=1.0, lam=(0.7, 0.3))
    fg = subdivide(g, 3, 2.0)
    assert fg.weight["x*"] == 0.7
    assert fg.weight["y*"] == 0.3
    assert all(w == 0.0 for v, w in fg.weight.items() if not v.endswith("*"))

