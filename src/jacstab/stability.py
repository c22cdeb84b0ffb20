"""Decide and enumerate (semi/quasi)stable sheaf types for a profile.

A sheaf type of total degree d is semistable for a profile when

    deg_Y >= q_Y - k_Y/2        for every proper subcurve Y,

stable when all inequalities are strict, and quasistable at a base vertex
when it is semistable with strict inequality whenever the base lies in Y.
deg_Y counts the non-free nodes inside Y: the popcount of the non-free edge
mask and Y's ``inner`` mask.  Degrees, weights and cut counts are additive
over connected components, and a connected subcurve's inequality is the sum
of those of the walls Zᶜ (connected, with connected complement), Z a component
of its complement, each containing it.  So ``check`` decides on the walls of
the shared table against integer thresholds and reads the others only to name
the witness; the all-subsets check in rationals is the oracle.  Enumeration
walks the degree box of the singletons and their complements in lexicographic
order, testing the walls against degree sums carried down the walk, each node
bounding its children, against bounds set once per call for the mode less each
non-free set's popcounts.  Runs of vectors equal but in their last two entries
go to one callback, non-free set by non-free set; ``count_components`` keeps none.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, repeat
from operator import add, sub as minus

from .errors import PreconditionError, ValidationError, clip
from .graphs import MarkedDualGraph, Record, proper_subcurves, subcurve_k, subcurve_table
from .polarization import QProfile, _on_a_wall, require_profile
from .sheaves import SheafType, deg_subcurve, require_simple


class StabilityVerdict(Record):
    """stable / strictly_semistable / unstable, plus a witness subcurve.

    The witness is the first violated subcurve (unstable) or the first
    equality subcurve (strictly semistable) in canonical order.
    """

    def __init__(self, status: str, quasistable_at_base: bool | None = None,
                 witness: tuple[str, ...] | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "quasistable_at_base", quasistable_at_base)
        object.__setattr__(self, "witness", witness)


MODES = ("semistable", "stable", "quasistable")
_STABLE = {quasi: StabilityVerdict("stable", quasi) for quasi in (None, True)}  # no base, a base


def _base_of(graph: MarkedDualGraph, profile: QProfile, base_vertex: str | None
             ) -> str | None:
    """The base vertex in use: the one given, else the graph's own, if any.
    Refuses a profile compiled for another graph and an unknown base."""
    require_profile(graph, profile)
    base = base_vertex if base_vertex is not None else graph.base_vertex
    if base is not None and base not in graph.vertex_index:
        raise ValidationError(f"base vertex {clip(base, str)} is not a vertex")
    return base


def check(graph: MarkedDualGraph, profile: QProfile, sheaf: SheafType,
          base_vertex: str | None = None, all_subsets: bool = False
          ) -> StabilityVerdict:
    """Stability verdict of one sheaf type."""
    base = _base_of(graph, profile, base_vertex)
    require_simple(graph, sheaf)
    degrees = [d for _, d in sheaf.degrees]
    if (total := sum(degrees) + len(sheaf.nonfree_edges)) != profile.d:
        raise PreconditionError(
            f"degree mismatch: sheaf has total degree {clip(total, str)}, "
            f"profile expects {clip(profile.d, str)}")
    quasi: bool | None = True if base is not None else None
    if all_subsets:  # the independent oracle, in rationals: the sign of twice the slack
        witness: tuple[str, ...] | None = None  # the sorted ids of the first equality
        for Y in proper_subcurves(graph):
            slack = 2 * (deg_subcurve(graph, sheaf, Y) - profile.q_of(Y)) + subcurve_k(graph, Y)
            if slack < 0:
                return StabilityVerdict("unstable", quasi and False, tuple(sorted(Y)))
            if slack == 0:  # the witness is the first, never empty
                witness, quasi = witness or tuple(sorted(Y)), quasi and base not in Y
        return StabilityVerdict("strictly_semistable" if witness else "stable", quasi, witness)
    table, thresholds, get = subcurve_table(graph), profile.thresholds, degrees.__getitem__
    subcurves, edges = table.subcurves, sum(1 << e for e in sheaf.nonfree_edges)
    first, violated = len(subcurves), False  # the first violated wall, else the first equality
    for j in table.walls:
        (names, members, _, _, inner), (need, exact) = subcurves[j], thresholds[j]
        deg = sum(map(get, members)) + (edges & inner).bit_count()
        if deg < need:
            first, violated = j, True
            break
        if deg == need and exact:
            first, quasi = first if first < j else j, quasi and base not in names
    if first == len(subcurves):  # no equality wall, so quasi is None or True: a shared verdict
        return _STABLE[quasi]
    # the witness may be another subcurve Y before it: each wall Zᶜ ⊋ Y is violated (tight) too
    for j in table.others[:first - table.walls.index(first)]:
        (_, members, _, _, inner), (need, exact) = subcurves[j], thresholds[j]
        deg = sum(map(get, members)) + (edges & inner).bit_count()
        if deg < need or not violated and deg == need and exact:
            first = j
            break
    return StabilityVerdict("unstable" if violated else "strictly_semistable",
                            quasi and not violated, subcurves[first].names)  # None, no base


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


def _walk(levels, spans, total: int, emit) -> None:
    """Call ``emit(prefix, lo, hi)`` on the vectors summing to ``total`` that
    pass the tests of ``levels``, as runs in lexicographic order: prefix +
    (value, total - sum(prefix) - value) for lo <= value <= hi, cut to the
    box's length.  ``levels`` and ``spans`` are a ``walk_layout`` with a
    degree for each table index, each list led by the box end or by minus
    the box sum over the later vertices.

    A node at vertex i reads level i + 1 once, before its loop: a and b from
    the slots set before it, p and q from the parents of those it sets plus
    the value, so a child's range is max(a, p - value) .. min(b, q - value)
    and only values leaving it nonempty are visited.  The root reads level 0
    as if at value 0, and the node reading the last level hands over runs.
    """
    last = len(levels) - 1
    sums = [0] * (spans[-1][0].stop + 1)
    get = sums.__getitem__

    def bound(i: int, remaining: int) -> tuple[int, int, int, int]:
        sums[-1] = -remaining
        ((low_slots, lows, low_parents, fresh_lows),
         (high_slots, highs, high_parents, fresh_highs)) = levels[i]
        return (max(map(minus, lows, map(get, low_slots))),
                min(map(minus, highs, map(get, high_slots))),
                max(map(minus, fresh_lows, map(get, low_parents))),
                min(map(minus, fresh_highs, map(get, high_parents))))

    def rec(i: int, remaining: int, prefix: tuple[int, ...], lo: int, hi: int) -> None:
        a, b, p, q = bound(i + 1, remaining)
        values = range(max(lo, p - b), min(hi, q - a) + 1) if a <= b and p <= q else ()
        if i + 1 == last:
            for value in values:
                emit(prefix + (value,), max(a, p - value), min(b, q - value))
            return
        span, parents = spans[i][0], [*map(get, spans[i][1])]
        for value in values:
            sums[span] = map(add, parents, repeat(value))
            rec(i + 1, remaining - value, prefix + (value,), max(a, p - value), min(b, q - value))

    a, b, p, q = bound(0, total)
    if max(a, p) <= min(b, q):  # the root's run, walked below unless it is the last
        (partial(rec, 0, total) if last else emit)((), max(a, p), min(b, q))


def _box_runs(graph: MarkedDualGraph, profile: QProfile, mode: str,
              base_vertex: str | None, include_nonfree: bool, emit) -> None:
    """Refuse bad arguments, then walk every non-free set S in output order,
    calling ``emit(S, total, prefix, lo, hi)`` on the runs of types passing
    ``check``."""
    base = _base_of(graph, profile, base_vertex)
    if mode not in MODES:
        raise ValidationError(f"unknown mode {clip(mode)}; expected one of {MODES}")
    if mode == "quasistable" and base is None:
        raise PreconditionError("quasistable enumeration needs a base vertex")

    table, thresholds, n = subcurve_table(graph), profile.thresholds, len(graph.vertices)
    base_mask = 1 << graph.vertex_index[base] if base is not None else 0

    def least(j: int) -> tuple[int, int]:  # at S = {}, one more where an equality is rejected
        sub, (need, exact) = table.subcurves[j], thresholds[j]
        return need + (exact and (mode == "stable" or (
            mode == "quasistable" and sub.mask & base_mask != 0))), sub.inner
    # (bound at S = {}, edges it falls by) of what is read: the walk's tests and, in vertex
    # order, the bounds at v from {v} (the table's first n) and Yᶜ, which falls by v's edges
    tests = [[(slots, [*map(least, js)], parents, [*map(least, fresh)])
              for slots, js, parents, fresh in level] for level in table.walk[0]]
    singles = sorted((sub.members, least(j), (need - (not exact) + sub.k, sum(
        1 << e for e, ends in enumerate(table.edge_masks) if ends & sub.mask)))
        for j, (sub, (need, exact)) in enumerate(zip(table.subcurves[:n], thresholds)))

    def fill(tests, box: int, later: int, end) -> tuple:  # (slots, ends, parents, ends)
        return tests[0], [box, *map(end, tests[1])], tests[2], [-later, *map(end, tests[3])]
    for S in _nonfree_candidates(graph) if include_nonfree else [frozenset()]:
        edges, total = sum(1 << e for e in S), profile.d - len(S)

        def low(pair: tuple[int, int]) -> int:  # the bound less S's edges among its edges
            return pair[0] - (edges & pair[1]).bit_count()
        bounds = [(low(lo), low(hi)) for _, lo, hi in singles] or [(total, total)]  # one vertex
        if all(lo <= hi for lo, hi in bounds):
            later_lo, later_hi = ([*accumulate(reversed(ends), initial=0)][-2::-1]
                                  for ends in zip(*bounds))
            # a complement's degree total - deg(Y) is at most total - least
            levels = [(fill(lows, lo, after_hi, low),
                       fill(highs, hi, after_lo, lambda pair: total - low(pair)))
                      for (lows, highs), (lo, hi), after_lo, after_hi
                      in zip(tests, bounds, later_lo, later_hi)]
            _walk(levels, table.walk[1], total, partial(emit, S, total))


def enumerate_sheaves(graph: MarkedDualGraph, profile: QProfile, mode: str,
                      base_vertex: str | None = None,
                      include_nonfree: bool = False) -> list[SheafType]:
    """All sheaf types passing ``check`` in the requested mode.

    Deterministic order: lexicographic in (sorted non-free edge indices,
    degree vector in vertex order), the order they are found in.
    """
    ids, results = graph.vertex_ids, []

    def expand(S, total, prefix, lo, hi):
        rest = total - sum(prefix)  # zip cuts a one-vertex run to (total,)
        results.extend(SheafType(S, tuple(zip(ids, prefix + (value, rest - value))))
                       for value in range(lo, hi + 1))
    _box_runs(graph, profile, mode, base_vertex, include_nonfree, expand)
    return results


def count_components(graph: MarkedDualGraph, profile: QProfile,
                     base_vertex: str | None = None) -> int:
    """Number of stable line-bundle types of a general profile: one per
    component, as many as the graph's spanning trees.  No wall is exact, so
    every mode and base agree; a given base is only validated.  It adds up
    the walk's runs' lengths."""
    if _on_a_wall(graph, profile):
        raise PreconditionError("profile is not general (see is-general for witnesses)")
    found = 0

    def add_run(S, total, prefix, lo, hi):
        nonlocal found
        found += hi - lo + 1
    _box_runs(graph, profile, "stable", base_vertex, False, add_run)
    return found
