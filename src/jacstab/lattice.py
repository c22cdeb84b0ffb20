"""Exact integer linear algebra on graph Laplacians.

Used as independent oracles: the number of spanning trees (any cofactor of
the Laplacian, computed fraction-free) predicts how many multidegree
classes a fixed total degree splits into, and membership of a difference
vector in the integer column span of the Laplacian decides multidegree
equivalence (Cramer's rule over the same determinant, read modulo the
spanning-tree count).  Loops are excluded throughout; they contribute
neither to spanning trees nor to multidegree moves.
"""

from __future__ import annotations

from .errors import PreconditionError, require_int_map
from .graphs import MarkedDualGraph


def laplacian(graph: MarkedDualGraph) -> list[list[int]]:
    """Loop-free Laplacian: diagonal = non-loop valence, off-diagonal =
    minus edge multiplicity.  Rows and columns follow the vertex order."""
    n = len(graph.vertices)
    index = graph.vertex_index
    L = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        if u == v:
            continue
        i, j = index[u], index[v]
        L[i][j] -= 1
        L[j][i] -= 1
        L[i][i] += 1
        L[j][j] += 1
    return L


def _det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def complexity(graph: MarkedDualGraph) -> int:
    """Number of spanning trees, via a cofactor of the Laplacian."""
    L = laplacian(graph)
    reduced = [row[:-1] for row in L[:-1]]
    value = _det_bareiss(reduced)
    assert value > 0, "matrix-tree count must be positive on a connected graph"
    return value


def multidegrees_equivalent(graph: MarkedDualGraph,
                            d1: dict[str, int], d2: dict[str, int]) -> bool:
    """Whether two multidegrees differ by an integer Laplacian move.

    Decided by Cramer's rule in integers: on a connected graph the rational
    kernel of the Laplacian is spanned by the all-ones vector, so the
    difference lies in the integer column span iff the unique solution
    with last coordinate 0 is integral.  With kappa the determinant of the
    reduced Laplacian, that solution is x_j = det_j / kappa, where det_j
    replaces column j by the difference; so it is integral iff kappa
    divides every det_j.
    """
    first, second = (require_int_map(graph.vertex_index, d, "multidegree") for d in (d1, d2))
    if sum(first) != sum(second):
        raise PreconditionError(f"total degrees differ: {sum(first)} vs {sum(second)}")
    n = len(first)
    if n == 1:
        return True
    diff = [a - b for a, b in zip(first, second)]
    L = laplacian(graph)
    reduced = [row[:-1] for row in L[:-1]]
    kappa = _det_bareiss(reduced)  # positive: every graph is connected when built
    solution = []
    for j in range(n - 1):
        det_j = _det_bareiss([row[:j] + [b] + row[j + 1:]
                              for row, b in zip(reduced, diff[:-1])])
        if det_j % kappa:
            return False
        solution.append(det_j // kappa)
    # Consistency of the dropped row is automatic (all row sums are zero),
    # but check it anyway.
    last = sum(L[n - 1][j] * solution[j] for j in range(n - 1))
    return last == diff[n - 1]
