from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (MarkedDualGraph, PreconditionError, complexity,
                     multidegrees_equivalent)
from jacstab.lattice import _bareiss, laplacian

from conftest import bridge_g3, dumbbell, multigraphs, theta


def test_complexity_bridge_is_one():
    assert complexity(bridge_g3()) == 1


def test_complexity_theta_is_three():
    g = theta()
    assert laplacian(g) == [[3, -3], [-3, 3]]
    assert complexity(g) == 3


def test_complexity_loops_do_not_count():
    g = MarkedDualGraph.build([("a", 0)], [("a", "a"), ("a", "a")],
                              markings={"1": "a"})
    assert complexity(g) == 1
    assert complexity(dumbbell()) == 1


def test_complexity_complete_graph():
    # K4 with genus-1 decorations; Cayley: 4^{4-2} = 16 spanning trees
    vertices = [(f"v{i}", 1) for i in range(4)]
    edges = [(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)]
    g = MarkedDualGraph.build(vertices, edges)
    assert complexity(g) == 16


def test_det_bareiss_known_values():
    assert _bareiss([])[0] == 1
    assert _bareiss([[7]])[0] == 7
    assert _bareiss([[1, 2], [3, 4]])[0] == -2
    assert _bareiss([[0, 1], [1, 0]])[0] == -1
    assert _bareiss([[2, 4], [1, 2]])[0] == 0


def test_equivalence_theta_examples():
    g = theta()
    assert multidegrees_equivalent(g, {"v1": 0, "v2": 2}, {"v1": 3, "v2": -1})
    assert not multidegrees_equivalent(g, {"v1": 0, "v2": 2}, {"v1": 1, "v2": 1})
    assert multidegrees_equivalent(g, {"v1": 5, "v2": -2}, {"v1": 5, "v2": -2})


def test_equivalence_rejects_total_mismatch():
    with pytest.raises(PreconditionError, match="total degrees differ"):
        multidegrees_equivalent(theta(), {"v1": 0, "v2": 0}, {"v1": 0, "v2": 1})


def test_laplacian_moves_are_equivalent(small_corpora):
    rng = random.Random(11)
    for _, _, graphs in small_corpora:
        for graph in graphs:
            ids = graph.vertex_ids
            L = laplacian(graph)
            for _ in range(5):
                d = {v: rng.randrange(-4, 5) for v in ids}
                firing = [rng.randrange(-2, 3) for _ in ids]
                moved = {v: d[v] + sum(L[i][j] * firing[j]
                                       for j in range(len(ids)))
                         for i, v in enumerate(ids)}
                assert multidegrees_equivalent(graph, d, moved)


def test_equivalence_is_an_equivalence_relation():
    g = theta()
    rng = random.Random(3)
    vectors = []
    for _ in range(8):
        a = rng.randrange(-3, 4)
        vectors.append({"v1": a, "v2": 2 - a})
    for d1, d2 in itertools.combinations(vectors, 2):
        forward = multidegrees_equivalent(g, d1, d2)
        backward = multidegrees_equivalent(g, d2, d1)
        assert forward == backward
    for d1, d2, d3 in itertools.combinations(vectors, 3):
        if multidegrees_equivalent(g, d1, d2) and multidegrees_equivalent(g, d2, d3):
            assert multidegrees_equivalent(g, d1, d3)


def test_class_count_matches_complexity(small_corpora):
    # At any fixed total degree the number of classes equals the spanning
    # tree count.  Every class has a representative with first coordinates
    # in [0, kappa) (Hermite form of the image lattice has diagonal
    # entries at most kappa), so bucketing that box finds them all.
    seen = 0
    for _, _, graphs in small_corpora:
        for graph in graphs:
            ids = graph.vertex_ids
            n = len(ids)
            kappa = complexity(graph)
            if n == 1:
                assert kappa == 1
                continue
            if kappa ** (n - 1) > 400:
                continue
            representatives: list[dict[str, int]] = []
            for combo in itertools.product(range(kappa), repeat=n - 1):
                d = dict(zip(ids, combo + (0,)))
                d[ids[-1]] = kappa - sum(combo)
                if any(multidegrees_equivalent(graph, d, r)
                       for r in representatives):
                    continue
                representatives.append(d)
            assert len(representatives) == kappa
            seen += 1
    assert seen >= 20


def leibniz_det(matrix: list[list[int]]) -> int:
    """A determinant by the permutation expansion, sharing no code with the
    elimination."""
    n = len(matrix)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * math.prod(matrix[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def edge_laplacian(graph) -> list[list[int]]:
    """The loop-free Laplacian, built edge by edge from the vertex ids."""
    ids = graph.vertex_ids
    return [[sum((u == a) != (v == a) for u, v in graph.edges) if a == b
             else -sum({u, v} == {a, b} for u, v in graph.edges) for b in ids] for a in ids]


def cramer_equivalent(graph, d1: list[int], d2: list[int]) -> bool:
    """The Laplacian with its last row and column dropped solves x = d1 - d2
    (x last 0) by Cramer's rule: integral iff kappa divides every det_j."""
    reduced = [row[:-1] for row in edge_laplacian(graph)[:-1]]
    diff = [a - b for a, b in zip(d1, d2)]
    kappa = leibniz_det(reduced)
    return all(leibniz_det([row[:j] + [b] + row[j + 1:] for row, b in zip(reduced, diff)])
               % kappa == 0 for j in range(len(reduced)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(multigraphs(), st.data())
def test_equivalence_matches_cramer_oracle(graph, data):
    # loops, parallel edges and one-vertex graphs; half the pairs differ by
    # a Laplacian move, the others by a vector of total 0
    ids, n = graph.vertex_ids, len(graph.vertex_ids)
    vectors = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    d1, step = data.draw(vectors), data.draw(vectors)
    moved = data.draw(st.booleans())
    if moved:
        d2 = [a + sum(map(int.__mul__, row, step)) for a, row in zip(d1, edge_laplacian(graph))]
    else:
        d2 = step[:-1] + [step[-1] + sum(d1) - sum(step)]
    expected = cramer_equivalent(graph, d1, d2)
    assert expected or not moved
    first, second = dict(zip(ids, d1)), dict(zip(ids, d2))
    assert multidegrees_equivalent(graph, first, second) == expected
    assert multidegrees_equivalent(graph, second, first) == expected
