"""Decide and enumerate (semi/quasi)stable sheaf types for a profile.

A sheaf type of total degree d is semistable for a profile when

    deg_Y >= q_Y - k_Y/2        for every proper subcurve Y,

stable when all inequalities are strict, and quasistable at a base vertex
when it is semistable with strict inequality whenever the base lies in Y.
Degrees, weights and cut counts are additive over connected components, so
``check`` decides on the connected subcurves of the shared subcurve table,
against integer thresholds; the all-subsets check in rationals is kept as
an oracle.  Only the walls (connected, with connected complement) matter:
another subcurve's inequality is the sum of those of the walls Zᶜ, Z a
component of its complement.  Enumeration walks the degree box of the
singletons and their complements in lexicographic order, testing the walls
against degree sums carried down the walk, each node bounding its children.
It hands over runs of vectors equal but in their last two entries (summed
by ``count_components``, which keeps none); non-free sets come in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from operator import add, sub as minus

from .errors import PreconditionError, ValidationError
from .graphs import MarkedDualGraph, proper_subcurves, subcurve_k, subcurve_table
from .polarization import QProfile, _on_a_wall, require_profile
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


def _base_of(graph: MarkedDualGraph, profile: QProfile, base_vertex: str | None
             ) -> str | None:
    """The base vertex in use: the one given, else the graph's own, if any.
    Refuses a profile compiled for another graph and an unknown base."""
    require_profile(graph, profile)
    base = base_vertex if base_vertex is not None else graph.base_vertex
    if base is not None and base not in graph.vertex_index:
        raise ValidationError(f"base vertex {base} is not a vertex")
    return base


def check(graph: MarkedDualGraph, profile: QProfile, sheaf: SheafType,
          base_vertex: str | None = None, all_subsets: bool = False
          ) -> StabilityVerdict:
    """Stability verdict of one sheaf type."""
    base = _base_of(graph, profile, base_vertex)
    require_simple(graph, sheaf)
    if sheaf.total_degree != profile.d:
        raise PreconditionError(
            f"degree mismatch: sheaf has total degree {sheaf.total_degree}, "
            f"profile expects {profile.d}")

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
        deg = sum(map(degrees.__getitem__, sub.members))
        if nonfree:
            deg += sum(1 for m in nonfree if m & sub.mask == m)
        yield sub.vertices, -1 if deg < need else int(deg > need or not exact)


def _nonfree_candidates(graph: MarkedDualGraph) -> list[frozenset[int]]:
    """Edge subsets whose removal keeps the graph connected, depth first in
    the lexicographic order of their sorted indices.  Removing a superset
    of a disconnecting set disconnects too, so such a set ends its branch."""
    m, out, stack = len(graph.edges), [], [(frozenset(), 0)]
    while stack:
        S, start = stack.pop()
        out.append(S)
        stack.extend((S | {e}, e + 1) for e in reversed(range(start, m))
                     if graph.is_connected(skip_edges=S | {e}))
    return out


def _walk(bounds: list[tuple[int, int]], total: int,
          tests: list[tuple[tuple[int, ...], list[int], tuple[int, ...], list[int]]],
          prefix_parents: tuple[tuple[int, ...], ...], emit) -> None:
    """Call ``emit(prefix, lo, hi)`` on the vectors in the box ``bounds``
    summing to ``total`` that pass ``tests``, as runs in lexicographic
    order: prefix + (value, total - sum(prefix) - value) for lo <= value <=
    hi, cut to the box's length.

    ``tests[i]`` is (slots, least degrees, slots, greatest degrees): each
    bounds the value at vertex i by a degree less the running sum in a slot
    (see ``SubcurveTable``); setting vertex v sets the masks with top vertex
    v.  A node at vertex i bounds its children once: a and b from the box and
    the slots set before it, p and q from the slots it sets (parent plus
    value) and the sum left, so a child's range is max(a, p - value) ..
    min(b, q - value); only values leaving it nonempty are visited.  The
    last value is forced, so the runs come from the loop at vertex n - 3.
    """
    n = len(bounds)
    suffix_lo, suffix_hi = ([*accumulate(reversed(ends), initial=0)][::-1]
                            for ends in zip(*bounds))
    starts = list(accumulate(map(len, prefix_parents), initial=1))
    rest = starts[-1]  # a last slot holds minus the sum left to place
    sums = [0] * (rest + 1)
    get = sums.__getitem__

    def split(i: int, slots, ends, box: int, left: int):
        """Level i's tests on slots set before level i - 1, led by ``box`` on
        slot 0, then on the parents of those set at it, led by ``left``."""
        first, parent, out = starts[i - 1], prefix_parents[i - 1], ([0], [box], [rest], [left])
        for s, end in zip(slots, ends):
            out[2 * (s >= first)].append(s if s < first else parent[s - first])
            out[2 * (s >= first) + 1].append(end)
        return out
    levels = [(*split(i, *tests[i][:2], bounds[i][0], -suffix_hi[i + 1]),
               *split(i, *tests[i][2:], bounds[i][1], -suffix_lo[i + 1])) for i in range(1, n - 1)]

    def rec(i: int, remaining: int, lo: int, hi: int, prefix: tuple[int, ...]) -> None:
        sums[rest] = -remaining
        (low_slots, lows, low_parents, fresh_lows,
         high_slots, highs, high_parents, fresh_highs) = levels[i]
        a = max(map(minus, lows, map(get, low_slots)))
        b = min(map(minus, highs, map(get, high_slots)))
        p = max(map(minus, fresh_lows, map(get, low_parents)))
        q = min(map(minus, fresh_highs, map(get, high_parents)))
        values = range(max(lo, p - b), min(hi, q - a) + 1) if a <= b and p <= q else ()
        if i == n - 3:
            for value in values:
                emit(prefix + (value,), max(a, p - value), min(b, q - value))
            return
        parents = list(map(get, prefix_parents[i]))
        for value in values:
            sums[starts[i]:starts[i + 1]] = map(add, parents, repeat(value))
            rec(i + 1, remaining - value, max(a, p - value), min(b, q - value), prefix + (value,))

    lo = max(bounds[0][0], total - suffix_hi[1], *tests[0][1])  # on slot 0, which holds 0
    hi = min(bounds[0][1], total - suffix_lo[1], *tests[0][3])
    if lo <= hi and n > 2:
        rec(0, total, lo, hi, ())
    elif lo <= hi:
        emit((), lo, hi)


def _box_runs(graph: MarkedDualGraph, profile: QProfile, mode: str,
              base_vertex: str | None, include_nonfree: bool):
    """Refuse bad arguments, then yield (non-free set, total, walk) in output
    order: ``walk(emit)`` runs ``_walk`` on the types passing ``check``."""
    base = _base_of(graph, profile, base_vertex)
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "quasistable" and base is None:
        raise PreconditionError("quasistable enumeration needs a base vertex")

    table = subcurve_table(graph)
    n = len(graph.vertices)
    base_mask = 1 << graph.vertex_index[base] if base is not None else 0
    for S in _nonfree_candidates(graph) if include_nonfree else [frozenset()]:
        nonfree = [table.edge_masks[e] for e in S]
        total = profile.d - len(S)

        def least(j: int) -> int:  # one more where an equality is rejected
            mask, (need, exact) = table.subcurves[j].mask, profile.thresholds[j]
            return need - sum(1 for m in nonfree if m & mask == m) + (exact and (
                mode == "stable" or (mode == "quasistable" and mask & base_mask != 0)))
        bounds = [(total, total)] * n  # kept only by a lone vertex
        # the singletons lead the table; {v} and its complement bound the degree at v
        for j, (sub, (need, exact)) in enumerate(zip(table.subcurves[:n], profile.thresholds)):
            bounds[sub.members[0]] = (least(j), need - (not exact) + sub.k
                                      - sum(1 for m in nonfree if m & sub.mask))
        # a complement's degree total - deg(Y) is at most total - least
        tests = [(low_slots, [least(j) for j in lows], high_slots, [total - least(j) for j in highs])
                 for low_slots, lows, high_slots, highs in table.walk_tests]
        if all(lo <= hi for lo, hi in bounds):
            yield S, total, partial(_walk, bounds, total, tests, table.prefix_parents)


def enumerate_sheaves(graph: MarkedDualGraph, profile: QProfile, mode: str,
                      base_vertex: str | None = None,
                      include_nonfree: bool = False) -> list[SheafType]:
    """All sheaf types passing ``check`` in the requested mode.

    Deterministic order: lexicographic in (sorted non-free edge indices,
    degree vector in vertex order), the order they are found in.
    """
    ids, results = graph.vertex_ids, []

    def expand(prefix, lo, hi):  # reads the non-free set S and its total of the loop below
        rest = total - sum(prefix)  # zip cuts a one-vertex run to (total,)
        results.extend(SheafType(S, tuple(zip(ids, prefix + (value, rest - value))))
                       for value in range(lo, hi + 1))
    for S, total, walk in _box_runs(graph, profile, mode, base_vertex, include_nonfree):
        walk(expand)
    return results


def count_components(graph: MarkedDualGraph, profile: QProfile,
                     base_vertex: str | None = None) -> int:
    """Number of quasistable line-bundle types at the base vertex.

    Requires a general profile; for those the count matches the number of
    spanning trees of the graph.  It adds up the walk's runs' lengths.
    """
    if _on_a_wall(graph, profile):
        raise PreconditionError("profile is not general (see is-general for witnesses)")
    found = 0

    def add_run(prefix, lo, hi):
        nonlocal found
        found += hi - lo + 1
    for _, _, walk in _box_runs(graph, profile, "quasistable", base_vertex, False):
        walk(add_run)
    return found
