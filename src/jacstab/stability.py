"""Decide and enumerate (semi/quasi)stable sheaf types for a profile.

A sheaf type of total degree d is semistable for a profile when

    deg_Y >= q_Y - k_Y/2        for every proper subcurve Y,

stable when all inequalities are strict, and quasistable at a base vertex
when it is semistable with strict inequality whenever the base lies in Y.
Degrees, weights and cut counts are additive over connected components, so
checking the connected subcurves of the shared subcurve table against
integer thresholds suffices; the all-subsets check in rationals is kept as
an oracle.  Enumeration walks the degree box of the singleton subcurves
and their complements, testing each subcurve once its last vertex is set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ValidationError
from .graphs import MarkedDualGraph, proper_subcurves, subcurve_k, subcurve_table
from .polarization import QProfile, is_general
from .sheaves import SheafType, deg_subcurve, require_simple

MODES = ("semistable", "stable", "quasistable")


@dataclass(frozen=True)
class StabilityVerdict:
    """stable / strictly_semistable / unstable, plus a witness subcurve.

    The witness is the first violated subcurve (unstable) or the first
    equality subcurve (strictly semistable) in canonical order.
    """

    status: str
    quasistable_at_base: bool | None = None
    witness: tuple[str, ...] | None = None


def _require_profile(graph: MarkedDualGraph, profile: QProfile) -> None:
    if profile.graph != graph:
        raise ValidationError("profile belongs to a different graph")


def check(graph: MarkedDualGraph, profile: QProfile, sheaf: SheafType,
          base_vertex: str | None = None, all_subsets: bool = False
          ) -> StabilityVerdict:
    """Stability verdict of one sheaf type."""
    _require_profile(graph, profile)
    require_simple(graph, sheaf)
    if sheaf.total_degree != profile.d:
        raise PreconditionError(
            f"degree mismatch: sheaf has total degree {sheaf.total_degree}, "
            f"profile expects {profile.d}")
    base = base_vertex if base_vertex is not None else graph.base_vertex
    if base is not None and base not in graph.vertex_index:
        raise ValidationError(f"base vertex {base} is not a vertex")

    if all_subsets:  # the independent oracle, in rationals
        slacks = ((Y, deg_subcurve(graph, sheaf, Y) - profile.q_of(Y)
                   + Fraction(subcurve_k(graph, Y), 2))
                  for Y in proper_subcurves(graph, connected_only=False))
    else:
        slacks = _slack_signs(graph, profile, sheaf)
    first_equality: frozenset[str] | None = None
    quasi: bool | None = True if base is not None else None
    for Y, slack in slacks:
        if slack < 0:
            return StabilityVerdict(
                status="unstable",
                quasistable_at_base=False if base is not None else None,
                witness=tuple(sorted(Y)))
        if slack == 0:
            if first_equality is None:
                first_equality = Y
            if base is not None and base in Y:
                quasi = False
    if first_equality is None:
        return StabilityVerdict(status="stable", quasistable_at_base=quasi)
    return StabilityVerdict(status="strictly_semistable",
                            quasistable_at_base=quasi,
                            witness=tuple(sorted(first_equality)))


def _slack_signs(graph: MarkedDualGraph, profile: QProfile, sheaf: SheafType):
    """(Y, sign of the slack) for every connected subcurve, in integers."""
    table = subcurve_table(graph)
    degrees = [d for _, d in sheaf.degrees]
    nonfree = [table.edge_masks[e] for e in sheaf.nonfree_edges]
    for sub, (need, exact) in zip(table.subcurves, profile.thresholds):
        deg = sum(degrees[i] for i in sub.members) \
            + sum(1 for m in nonfree if m & sub.mask == m)
        yield sub.vertices, -1 if deg < need else int(deg > need or not exact)


def _nonfree_candidates(graph: MarkedDualGraph) -> list[frozenset[int]]:
    """Edge subsets whose removal keeps the graph connected."""
    m = len(graph.edges)
    out = []
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            S = frozenset(combo)
            if graph.is_connected(skip_edges=S):
                out.append(S)
    return out


def _walk(bounds: list[tuple[int, int]], total: int,
          tests: list[list[tuple[tuple[int, ...], int]]]) -> list[tuple[int, ...]]:
    """Vectors in the box ``bounds`` summing to ``total`` that pass ``tests``.

    ``tests[i]`` lists (other members, least degree) of the subcurves whose
    last vertex is i; each one bounds the value at i from below.
    """
    n = len(bounds)
    suffix_lo = [sum(lo for lo, _ in bounds[i:]) for i in range(n + 1)]
    suffix_hi = [sum(hi for _, hi in bounds[i:]) for i in range(n + 1)]
    vector = [0] * n
    at = vector.__getitem__
    out = []

    def rec(i: int, remaining: int) -> None:
        lo = max(bounds[i][0], remaining - suffix_hi[i + 1],
                 *[least - sum(map(at, head)) for head, least in tests[i]])
        for value in range(lo, min(bounds[i][1], remaining - suffix_lo[i + 1]) + 1):
            vector[i] = value
            if i + 1 < n:
                rec(i + 1, remaining - value)
            else:
                out.append(tuple(vector))

    rec(0, total)
    return out


def enumerate_sheaves(graph: MarkedDualGraph, profile: QProfile, mode: str,
                      base_vertex: str | None = None,
                      include_nonfree: bool = False) -> list[SheafType]:
    """All sheaf types passing ``check`` in the requested mode.

    Deterministic order: lexicographic in (sorted non-free edge indices,
    degree vector in vertex order).
    """
    _require_profile(graph, profile)
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    base = base_vertex if base_vertex is not None else graph.base_vertex
    if mode == "quasistable" and base is None:
        raise PreconditionError("quasistable enumeration needs a base vertex")
    if base is not None and base not in graph.vertex_index:
        raise ValidationError(f"base vertex {base} is not a vertex")

    table = subcurve_table(graph)
    base_mask = 1 << graph.vertex_index[base] if base is not None else 0
    results = []
    ids = graph.vertex_ids
    for S in _nonfree_candidates(graph) if include_nonfree else [frozenset()]:
        nonfree = [table.edge_masks[e] for e in S]
        total = profile.d - len(S)
        bounds = [(total, total)] * len(ids)  # kept only by a lone vertex
        tests: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in ids]
        for sub, (need, exact) in zip(table.subcurves, profile.thresholds):
            interior = sum(1 for m in nonfree if m & sub.mask == m)
            # an equality is rejected by raising the least degree by one
            least = need - interior + (exact and (mode == "stable" or (
                mode == "quasistable" and sub.mask & base_mask != 0)))
            if len(sub.members) > 1:
                tests[sub.members[-1]].append((sub.members[:-1], least))
            else:  # {v} and its complement bound the degree at v
                crossing = sum(1 for m in nonfree if m & sub.mask and m & ~sub.mask)
                most = need - (not exact) + sub.k - interior - crossing
                bounds[sub.members[0]] = (least, most)
        if all(lo <= hi for lo, hi in bounds):
            results.extend(SheafType(nonfree_edges=S, degrees=tuple(zip(ids, vector)))
                           for vector in _walk(bounds, total, tests))
    results.sort(key=lambda s: (tuple(sorted(s.nonfree_edges)),
                                tuple(d for _, d in s.degrees)))
    return results


def count_components(graph: MarkedDualGraph, profile: QProfile,
                     base_vertex: str | None = None) -> int:
    """Number of quasistable line-bundle types at the base vertex.

    Requires a general profile; for those the count matches the number of
    spanning trees of the graph.
    """
    general, witnesses = is_general(graph, profile)
    if not general:
        raise PreconditionError(
            f"profile is not general (integral at {sorted(map(sorted, witnesses))})")
    return len(enumerate_sheaves(graph, profile, "quasistable",
                                 base_vertex=base_vertex, include_nonfree=False))
