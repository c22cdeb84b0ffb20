"""Exact integer linear algebra on graph Laplacians.

Used as independent oracles: the number of spanning trees (any cofactor of
the Laplacian, computed fraction-free) predicts how many multidegree
classes a fixed total degree splits into, and membership of a difference
vector in the integer column span of the Laplacian decides multidegree
equivalence (one elimination of the same minor, the difference vector as
an extra column).  Loops are excluded throughout; they contribute
neither to spanning trees nor to multidegree moves.
"""

from __future__ import annotations

from operator import mul

from .errors import PreconditionError, clip, require_int_map
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


def _bareiss(matrix: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination of the leading square block of
    ``matrix``, carrying any further columns along.  Returns the block's
    exact determinant and the echelon rows, whose k-th pivot is the k-th
    leading minor of the row-swapped block."""
    n, m = len(matrix), [row[:] for row in matrix]
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0, m
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * prev, m


def complexity(graph: MarkedDualGraph) -> int:
    """Number of spanning trees, via a cofactor of the Laplacian."""
    value = _bareiss([row[:-1] for row in laplacian(graph)[:-1]])[0]
    assert value > 0, "matrix-tree count must be positive on a connected graph"
    return value


def multidegrees_equivalent(graph: MarkedDualGraph,
                            d1: dict[str, int], d2: dict[str, int]) -> bool:
    """Whether two multidegrees differ by an integer Laplacian move.

    On a connected graph the rational kernel of the Laplacian is spanned by
    the all-ones vector, so the difference lies in the integer column span
    iff the unique solution x with last coordinate 0 is integral.  One
    elimination of the reduced Laplacian, the difference as an extra
    column, gives its determinant kappa; back substitution finds kappa * x,
    integral by Cramer's rule, so every division is exact.
    """
    first, second = (require_int_map(graph.vertex_index, d, "multidegree") for d in (d1, d2))
    if (total := sum(first)) != (other := sum(second)):
        raise PreconditionError(f"total degrees differ: {clip(total, str)} vs {clip(other, str)}")
    diff = [a - b for a, b in zip(first, second)]
    L = laplacian(graph)
    kappa, rows = _bareiss([row[:-1] + [b] for row, b in zip(L[:-1], diff)])
    scaled = [0] * len(rows)  # kappa * x, from the last coordinate up
    for i in reversed(range(len(rows))):
        row = rows[i]
        scaled[i] = (kappa * row[-1] - sum(map(mul, row[i + 1:-1], scaled[i + 1:]))) // row[i]
    if any(v % kappa for v in scaled):
        return False
    # Consistency of the dropped row is automatic (all row sums are zero),
    # but check it anyway.
    return sum(map(mul, L[-1], (v // kappa for v in scaled))) == diff[-1]
