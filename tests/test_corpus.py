from __future__ import annotations

import itertools

import pytest

from jacstab import (MarkedDualGraph, ValidationError, are_isomorphic,
                     canonical_key, generate_corpus)

from conftest import dumbbell, theta


def brute_force_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Independent oracle: explicit search over decorated bijections."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    ids1, ids2 = g1.vertex_ids, g2.vertex_ids

    def multiset(graph, names):
        out = {}
        for u, v in graph.edges:
            key = tuple(sorted((names[u], names[v])))
            out[key] = out.get(key, 0) + 1
        return out

    base = multiset(g2, {v: v for v in ids2})
    marks2 = dict(g2.markings)
    for perm in itertools.permutations(ids2):
        names = dict(zip(ids1, perm))
        if any(g1.genus_map[v] != g2.genus_map[names[v]] for v in ids1):
            continue
        if any(names[v] != marks2.get(l) for l, v in g1.markings):
            continue
        if multiset(g1, names) == base:
            return True
    return False


def test_corpus_genus1_one_marking():
    graphs = generate_corpus(1, ["1"], 1)
    assert len(graphs) == 2
    shapes = {(len(g.edges), g.vertices[0][1]) for g in graphs}
    assert shapes == {(0, 1), (1, 0)}  # smooth torus and nodal rational


def test_corpus_genus0_three_markings():
    graphs = generate_corpus(0, ["1", "2", "3"], 1)
    assert len(graphs) == 1
    assert graphs[0].edges == ()


def test_corpus_genus2_matches_hand_count():
    graphs = generate_corpus(2, [], 2)
    # 3 one-vertex types (smooth, one loop, two loops) and 4 two-vertex
    # types (bridge of two genus-1, genus-1 bridged to a looped rational,
    # theta, dumbbell)
    assert len(graphs) == 7
    assert any(are_isomorphic(g, theta()) for g in graphs)
    assert any(are_isomorphic(g, dumbbell()) for g in graphs)
    bridge11 = MarkedDualGraph.build([("a", 1), ("b", 1)], [("a", "b")])
    assert any(are_isomorphic(g, bridge11) for g in graphs)


def test_corpus_genus2_full_is_stratum_count():
    # stable genus-2 graphs have at most 2 vertices; the classical count is 7
    assert len(generate_corpus(2, [], 5)) == 7


def test_corpus_no_isomorphic_pair_and_oracle_agrees():
    graphs = generate_corpus(2, ["1"], 2)
    for g1, g2 in itertools.combinations(graphs, 2):
        assert canonical_key(g1) != canonical_key(g2)
        assert not brute_force_isomorphic(g1, g2)
    for g in graphs:
        relabeled = MarkedDualGraph.build(
            [(f"w{i}", genus) for i, (_, genus) in enumerate(reversed(g.vertices))],
            [(f"w{len(g.vertices) - 1 - g.vertex_index[u]}",
              f"w{len(g.vertices) - 1 - g.vertex_index[v]}") for u, v in g.edges],
            markings={l: f"w{len(g.vertices) - 1 - g.vertex_index[v]}"
                      for l, v in g.markings})
        assert are_isomorphic(g, relabeled)
        assert brute_force_isomorphic(g, relabeled)


def test_corpus_determinism():
    a = generate_corpus(2, [], 4)
    b = generate_corpus(2, [], 4)
    assert a == b


def test_corpus_all_valid_and_stable(small_corpora):
    for genus, labels, graphs in small_corpora:
        for g in graphs:
            assert g.genus == genus
            assert g.marking_labels == labels
            g.validate()


def test_corpus_rejects_infeasible():
    with pytest.raises(ValidationError):
        generate_corpus(0, ["1"], 2)
    with pytest.raises(ValidationError):
        generate_corpus(1, [], 3)
    with pytest.raises(ValidationError):
        generate_corpus(2, [], 0)


def brute_force_corpus(genus: int, labels, max_vertices: int) -> list[MarkedDualGraph]:
    """Independent oracle: every multiplicity matrix (loops on the diagonal)
    on every labelled genus vector, kept when connected and stable, and
    deduplicated with ``brute_force_isomorphic``."""
    classes: list[MarkedDualGraph] = []
    for n in range(1, max_vertices + 1):
        ids = [f"u{i}" for i in range(n)]
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for genera in itertools.product(range(genus + 1), repeat=n):
            edge_count = genus - sum(genera) + n - 1
            if edge_count < 0:
                continue
            for mult in itertools.product(range(edge_count + 1), repeat=len(slots)):
                if sum(mult) != edge_count:
                    continue
                edges = [(ids[i], ids[j]) for (i, j), m in zip(slots, mult)
                         for _ in range(m)]
                reached, frontier = {ids[0]}, [ids[0]]
                while frontier:
                    w = frontier.pop()
                    for a, b in edges:
                        for x, y in ((a, b), (b, a)):
                            if x == w and y not in reached:
                                reached.add(y)
                                frontier.append(y)
                if len(reached) != n:
                    continue
                for placement in itertools.product(ids, repeat=len(labels)):
                    if any(2 * g - 2 + sum(e.count(v) for e in edges)
                           + placement.count(v) <= 0 for v, g in zip(ids, genera)):
                        continue
                    graph = MarkedDualGraph.build(list(zip(ids, genera)), edges,
                                                  markings=dict(zip(labels, placement)))
                    if not any(brute_force_isomorphic(graph, c) for c in classes):
                        classes.append(graph)
    return classes


@pytest.mark.parametrize("genus,labels", [
    (1, ("1",)), (1, ("1", "2")), (2, ()), (2, ("1",)), (2, ("1", "2"))])
def test_corpus_matches_brute_force_classes(genus, labels):
    corpus = generate_corpus(genus, labels, 3)
    classes = brute_force_corpus(genus, labels, 3)
    assert len(classes) == len(corpus)
    for graph in classes:
        assert sum(brute_force_isomorphic(graph, g) for g in corpus) == 1


def test_corpus_literature_counts():
    # boundary strata of M_{0,5}, M_{1,2} and M_3
    assert len(generate_corpus(0, ["1", "2", "3", "4", "5"], 3)) == 26
    assert len(generate_corpus(1, ["1", "2"], 2)) == 5
    assert len(generate_corpus(3, [], 4)) == 42


def test_corpus_vertex_bound_is_2g_minus_2_plus_n():
    assert generate_corpus(3, [], 5) == generate_corpus(3, [], 4)
