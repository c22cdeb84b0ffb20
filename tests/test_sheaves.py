from __future__ import annotations

import itertools
import random

import pytest

from jacstab import (MarkedDualGraph, PreconditionError, SheafType,
                     ValidationError, d_of, deg_subcurve, is_simple, twist)
from jacstab.graphs import proper_subcurves
from jacstab.sheaves import require_simple

from conftest import bridge_g3, theta


def test_total_degree_line_bundle():
    g = bridge_g3()
    assert SheafType.build(g, {"v1": 1, "v2": 2}).total_degree == 3


def test_total_degree_counts_nonfree_nodes():
    g = theta()
    assert SheafType.build(g, {"v1": 0, "v2": 1}, [0]).total_degree == 2
    assert SheafType.build(g, {"v1": 0, "v2": 0}, [0, 1]).total_degree == 2


def test_deg_subcurve_line_bundle():
    g = theta()
    sheaf = SheafType.build(g, {"v1": 2, "v2": 5})
    assert deg_subcurve(g, sheaf, {"v1"}) == 2


def test_deg_subcurve_crossing_nonfree_contributes_nothing():
    g = theta()
    sheaf = SheafType.build(g, {"v1": 0, "v2": 1}, [0])
    assert deg_subcurve(g, sheaf, {"v1"}) == 0
    assert deg_subcurve(g, sheaf, {"v2"}) == 1


def test_deg_subcurve_counts_interior_loops():
    g = MarkedDualGraph.build([("a", 0), ("b", 1)],
                              [("a", "a"), ("a", "b")])
    sheaf = SheafType.build(g, {"a": 0, "b": 0}, [0])
    assert deg_subcurve(g, sheaf, {"a"}) == 1


def test_is_simple():
    bridge = bridge_g3()
    assert not is_simple(bridge, SheafType.build(bridge, {"v1": 0, "v2": 0}, [0]))
    g = theta()
    assert is_simple(g, SheafType.build(g, {"v1": 0, "v2": 0}, [0, 1]))
    assert is_simple(g, SheafType.build(g, {"v1": 0, "v2": 2}))
    for _ in range(2):  # the memoized false answer refuses the second call too
        with pytest.raises(PreconditionError, match="not simple"):
            require_simple(bridge, SheafType.build(bridge, {"v1": 0, "v2": 0}, [0]))
    assert bridge._simple == {frozenset([0]): False}


def test_d_of():
    g = theta()
    sheaf = SheafType.build(g, {"v1": 0, "v2": 1}, [0])
    assert d_of(g, sheaf, {"v1"}) == 1
    assert d_of(g, sheaf, {"v2"}) == 2
    line = SheafType.build(g, {"v1": 0, "v2": 1})
    assert d_of(g, line, {"v1"}) == deg_subcurve(g, line, {"v1"})


def test_d_of_exceptional_vertex():
    # degree-0 vertex with one incident non-free edge: d({v0}) = 1
    g = MarkedDualGraph.build(
        [("v1", 1), ("v0", 0), ("v2", 1)],
        [("v1", "v0"), ("v0", "v2"), ("v1", "v2")],
        markings={"x": "v0"})
    sheaf = SheafType.build(g, {"v1": 0, "v0": 0, "v2": 0}, [0])
    assert d_of(g, sheaf, {"v0"}) == 1


def test_twist():
    g = theta()
    sheaf = SheafType.build(g, {"v1": 0, "v2": 1}, [0])
    assert twist(sheaf, {}) == sheaf
    shifted = twist(sheaf, {"v1": 2, "v2": -1})
    assert shifted.degree_map == {"v1": 2, "v2": 0}
    assert twist(shifted, {"v1": -2, "v2": 1}) == sheaf
    assert shifted.total_degree == sheaf.total_degree + 1


def test_validation_rejects_bad_edge_index():
    g = theta()
    with pytest.raises(ValidationError):
        SheafType.build(g, {"v1": 0, "v2": 0}, [7])


def test_degree_identities(small_corpora):
    rng = random.Random(5)
    for _, _, graphs in small_corpora:
        for graph in graphs:
            edge_count = len(graph.edges)
            for _ in range(4):
                subsets = [S for S in itertools.combinations(
                    range(edge_count), rng.randrange(0, edge_count + 1))]
                S = rng.choice(subsets) if subsets else ()
                sheaf = SheafType.build(
                    graph, {v: rng.randrange(-3, 4) for v in graph.vertex_ids}, S)
                for Y in proper_subcurves(graph):
                    Yc = set(graph.vertex_ids) - Y
                    crossing = sum(
                        1 for e in sheaf.nonfree_edges
                        if (graph.edges[e][0] in Y) != (graph.edges[e][1] in Y))
                    assert (deg_subcurve(graph, sheaf, Y)
                            + deg_subcurve(graph, sheaf, Yc)
                            + crossing) == sheaf.total_degree
                    assert d_of(graph, sheaf, Y) \
                        + deg_subcurve(graph, sheaf, Yc) == sheaf.total_degree
                # simplicity is a property of S alone, so twisting keeps it
                assert is_simple(graph, sheaf) == is_simple(
                    graph, twist(sheaf, {v: 7 for v in graph.vertex_ids}))
