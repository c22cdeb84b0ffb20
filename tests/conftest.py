"""Shared builders for the standard small graphs used across the suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from jacstab import MarkedDualGraph, generate_corpus, make_profile


def bridge_g3() -> MarkedDualGraph:
    """Two components of genus 1 and 2 joined at one node; genus 3."""
    return MarkedDualGraph.build([("v1", 1), ("v2", 2)], [("v1", "v2")])


def theta() -> MarkedDualGraph:
    """Two rational components joined at three nodes; genus 2."""
    return MarkedDualGraph.build([("v1", 0), ("v2", 0)], [("v1", "v2")] * 3)


def dumbbell() -> MarkedDualGraph:
    """Two rational one-loop components joined by a bridge; genus 2."""
    return MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)],
        [("v1", "v1"), ("v1", "v2"), ("v2", "v2")])


def chain_111() -> MarkedDualGraph:
    """Genus-1 chain of three genus-1 components."""
    return MarkedDualGraph.build(
        [("v1", 1), ("v2", 1), ("v3", 1)],
        [("v1", "v2"), ("v2", "v3")])


def marked_chain() -> MarkedDualGraph:
    """v1(1, mk 1) - v0(0, mk x) - v2(1, mk 2); the contraction example."""
    return MarkedDualGraph.build(
        [("v1", 1), ("v0", 0), ("v2", 1)],
        [("v1", "v0"), ("v0", "v2")],
        markings={"1": "v1", "x": "v0", "2": "v2"})


def chorded_ring(n: int = 10, chord: int | None = None) -> MarkedDualGraph:
    """An n-cycle of genus-1 vertices with chords v0-v<chord> and
    v2-v<chord + 2>, ``chord`` defaulting to n // 2."""
    chord = n // 2 if chord is None else chord
    vertices = [(f"v{i}", 1) for i in range(n)]
    edges = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)] \
        + [("v0", f"v{chord}"), ("v2", f"v{chord + 2}")]
    return MarkedDualGraph.build(vertices, edges, markings={"1": "v0"})


def random_profile(graph, rng: random.Random, d_range=(-3, 6),
                   denominators=(1, 2, 3, 4, 5, 6, 8, 10)):
    """Random rational profile with integer total degree."""
    d = rng.randrange(*d_range)
    ids = graph.vertex_ids
    q = {}
    for v in ids[:-1]:
        q[v] = Fraction(rng.randrange(-12, 13), rng.choice(denominators))
    q[ids[-1]] = d - sum(q.values(), Fraction(0))
    return make_profile(graph, q, d)


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=10):
    """Connected multigraphs with loops and parallel edges, made stable by
    ``stabilized``."""
    n = draw(st.integers(1, max_vertices))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]  # a spanning tree
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=max_edges - len(edges)))
    return stabilized(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), edges)


def stabilized(genera, edges) -> MarkedDualGraph:
    """The graph on vertices v0, v1, ... of these genera, joined by ``edges`` (pairs
    of positions), with a marking on each vertex per unit its 2g - 2 + valence is below 1."""
    n = len(genera)
    valence = [0] * n
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
    markings, label = {}, 0
    for v in range(n):
        for _ in range(1 - (2 * genera[v] - 2 + valence[v])):
            label += 1
            markings[str(label)] = f"v{v}"
    return MarkedDualGraph.build([(f"v{v}", g) for v, g in enumerate(genera)],
                                 [(f"v{u}", f"v{v}") for u, v in edges], markings=markings)


@pytest.fixture(scope="session")
def small_corpora():
    """Deterministic list of (genus, markings, graphs) used by property tests."""
    specs = [(1, ("1",), 3), (2, (), 4), (2, ("1",), 3), (3, (), 4)]
    return [(g, labels, generate_corpus(g, labels, max_vertices))
            for g, labels, max_vertices in specs]


def check_forget_degree_law(graph, sheaf, new_graph, new_sheaf, report):
    """Subcurve-degree preservation law for one forgetting instance.

    For every proper subcurve Z of the stabilized graph, the pushforward
    degree equals the input degree on the preimage: the full preimage
    (strict transform plus the contracted vertex) when the fused node is
    interior to Z or no contraction happened, and the minimum of the
    strict-transform and full-preimage degrees when the fused node lies on
    the boundary of Z.  Verified case by case on the local model.
    """
    from jacstab import deg_subcurve
    from jacstab.graphs import proper_subcurves

    v0 = report.removed_vertex
    for Z in proper_subcurves(new_graph):
        out_deg = deg_subcurve(new_graph, new_sheaf, Z)
        if report.case is None:
            assert out_deg == deg_subcurve(graph, sheaf, Z)
            continue
        if report.case == "b":
            strict = frozenset(Z)
            full = strict | {v0} if report_attachment(report, graph) in Z else strict
            assert out_deg == deg_subcurve(graph, sheaf, full)
            continue
        u, w = new_graph.edges[report.new_edge_index]
        strict = frozenset(Z)
        full = strict | {v0}
        if u in Z and w in Z:
            assert out_deg == deg_subcurve(graph, sheaf, full)
        elif u in Z or w in Z:
            assert out_deg == min(deg_subcurve(graph, sheaf, strict),
                                  deg_subcurve(graph, sheaf, full))
        else:
            assert out_deg == deg_subcurve(graph, sheaf, strict)


def report_attachment(report, graph):
    """Attachment vertex of a case-(b) contraction."""
    (e1,) = report.removed_edges
    u, v = graph.edges[e1]
    return u if v == report.removed_vertex else v
