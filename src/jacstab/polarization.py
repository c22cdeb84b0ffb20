"""Polarization recipes and their per-graph compilation to vertex weights.

A recipe assigns every graph of fixed genus and marking set a rational
weight q_v per vertex with sum equal to the target degree d.  The explicit
recipe combines a multiple of the dualizing degree, per-marking constants
and signed boundary coefficients indexed by separating-node types:

    q_v = (s*w_v + sum of a_i over markings on v
                 + sum of alpha * boundary_degree({v}, label)) / r + w_v / 2

The canonical recipe of degree d with weights a is the special case
s = d-g+1, a_i -> a_i*(d-g+1), r = 2g-2+sum(a), alpha = 0, reproducing the
classical basic inequality.  A profile is general when no proper subcurve
is "integral" (q_Z - k_Z/2 integer on every connected piece of the subcurve
and of its complement); general profiles are exactly those whose semistable
and stable sheaf types coincide.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_

from .errors import (PreconditionError, ValidationError, clip, parse_rational,
                     require_int, require_int_map, require_keys, require_name)
from .graphs import (MarkedDualGraph, NodeTypeLabel, Record, is_admissible, label_sort_key,
                     mask_vertices, separating_ends, subcurve_sort_key, subcurve_table,
                     vertex_subset)


def _marking_coefficients(a) -> tuple[tuple[str, Fraction], ...]:
    """A recipe's (label, rational coefficient) pairs in label order, each label once."""
    pairs = tuple(sorted(((require_name(l, "marking label"), parse_rational(c))
                          for l, c in dict(a or {}).items()), key=lambda p: label_sort_key(p[0])))
    if len(dict(pairs)) != len(pairs):  # two keys read as one label, such as 1 and "1"
        raise ValidationError("duplicate marking labels")
    return pairs


def label_coefficients(values, what: str) -> tuple[tuple[NodeTypeLabel, Fraction], ...]:
    """A map's (label, rational) pairs in label order, when every key is a ``NodeTypeLabel``."""
    values = dict(values or {})
    require_keys([k for k in values if type(k) is NodeTypeLabel], values, what, default=0)
    return tuple(sorted((label, parse_rational(c)) for label, c in values.items()))


class ExplicitPolarization(Record):
    """Family-level coefficient recipe (s, a_i, alpha_(b,B), r)."""

    def __init__(self, s: Fraction, r: Fraction, a: tuple[tuple[str, Fraction], ...] = (),
                 alpha: tuple[tuple[NodeTypeLabel, Fraction], ...] = ()):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def build(cls, s, r, a=None, alpha=None) -> "ExplicitPolarization":
        r = parse_rational(r)
        if r <= 0:
            raise ValidationError(f"rank coefficient r must be positive, got {clip(r, str)}")
        return cls(s=parse_rational(s), r=r, a=_marking_coefficients(a),
                   alpha=label_coefficients(alpha, "boundary coefficients"))

    @cached_property
    def a_map(self) -> dict[str, Fraction]:
        return dict(self.a)

    @cached_property
    def alpha_map(self) -> dict[NodeTypeLabel, Fraction]:
        return dict(self.alpha)

    def target_degree(self, genus: int) -> Fraction:
        return (self.s * (2 * genus - 2) + sum(self.a_map.values())) / self.r + genus - 1


class CanonicalPolarization(Record):
    """Degree-d canonical recipe with marking weights a (basic inequality)."""

    def __init__(self, d: int, a: tuple[tuple[str, Fraction], ...] = ()):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)

    @classmethod
    def build(cls, d, a=None) -> "CanonicalPolarization":
        return cls(d=require_int(d, "d"), a=_marking_coefficients(a))

    @cached_property
    def a_map(self) -> dict[str, Fraction]:
        return dict(self.a)

    def as_explicit(self, genus: int) -> ExplicitPolarization:
        weight_total = 2 * genus - 2 + sum(self.a_map.values())
        if weight_total <= 0:
            raise ValidationError(
                f"canonical recipe needs 2g-2+sum(a) > 0, got {clip(weight_total, str)}")
        lead = Fraction(self.d - genus + 1)
        return ExplicitPolarization.build(
            s=lead, r=weight_total, a={l: lead * c for l, c in self.a})


class QProfile(Record):
    """Compiled rational vertex weights for one graph; sum(q) = d."""

    def __init__(self, graph: MarkedDualGraph, q: tuple[tuple[str, Fraction], ...], d: int):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @cached_property
    def q_map(self) -> dict[str, Fraction]:
        return dict(self.q)

    def q_of(self, vertex_set) -> Fraction:
        Y = vertex_subset(self.graph, vertex_set)
        return sum((f for v, f in self.q if v in Y), Fraction(0))

    @cached_property
    def thresholds(self) -> tuple[tuple[int, bool], ...]:
        """(ceil(b_Y), b_Y is an integer) per subcurve of the graph's table,
        where b_Y = q_Y - k_Y/2, in integers after scaling by L = lcm(2,
        denominators of q).  deg_Y < ceil(b_Y) violates Y; deg_Y == b_Y is
        an equality."""
        scale = math.lcm(2, *(f.denominator for _, f in self.q))
        scaled = [f.numerator * (scale // f.denominator) for _, f in self.q]
        walls = (sum(map(scaled.__getitem__, sub.members)) - scale // 2 * sub.k
                 for sub in subcurve_table(self.graph).subcurves)
        return tuple((-(-b // scale), b % scale == 0) for b in walls)


def make_profile(graph: MarkedDualGraph, q: dict[str, Fraction], d: int) -> QProfile:
    weights = require_keys(graph.vertex_index, q, "profile weights")
    qs = tuple(zip(graph.vertex_ids, map(parse_rational, weights)))
    if (total := sum((f for _, f in qs), Fraction(0))) != require_int(d, "d"):
        raise ValidationError(
            f"profile weights sum to {clip(total, str)}, expected d = {clip(d, str)}")
    return QProfile(graph=graph, q=qs, d=d)


def require_profile(graph: MarkedDualGraph, profile: QProfile) -> QProfile:
    """``profile`` if it was compiled for ``graph``."""
    if profile.graph is not graph and profile.graph != graph:
        raise ValidationError("profile was compiled for a different graph")
    return profile


def compile_polarization(pol, graph: MarkedDualGraph) -> QProfile:
    """Compile a recipe into the rational vertex weights of one graph."""
    if isinstance(pol, QProfile):
        return require_profile(graph, pol)
    if isinstance(pol, CanonicalPolarization):
        pol = pol.as_explicit(graph.genus)
    if not isinstance(pol, ExplicitPolarization):
        raise ValidationError(f"unsupported polarization object {type(pol).__name__}")

    g = graph.genus
    d_frac = pol.target_degree(g)
    if d_frac.denominator != 1:
        raise ValidationError(
            f"target degree {clip(d_frac, str)} is not an integer for genus {clip(g, str)}")
    d = int(d_frac)

    if alpha := pol.alpha_map:
        require_keys([k for k in alpha if is_admissible(g, graph.marking_labels, k)], alpha,
                     "boundary coefficients", 0)
    a = require_keys(graph.marking_labels, pol.a_map, "marking coefficients", default=0)

    # per vertex: its marking coefficients and its signed boundary terms
    extra = dict.fromkeys(graph.vertex_ids, Fraction(0))
    for (_, v), c in zip(graph.markings, a):
        extra[v] += c
    for endpoint, label, sign in separating_ends(graph) if alpha else ():
        extra[endpoint] += sign * alpha.get(label, 0)
    q = {v: (pol.s * graph.w_of(v) + extra[v]) / pol.r + Fraction(graph.w_of(v), 2)
         for v in graph.vertex_ids}
    return make_profile(graph, q, d)


def _on_a_wall(graph: MarkedDualGraph, profile: QProfile) -> bool:
    """Some proper subcurve is integral: some wall is exact (b_{Yᶜ} = d - k_Y
    - b_Y then is an integer too; a piece of an integral subcurve or of its
    complement whose removal leaves the rest connected is such a wall)."""
    thresholds = require_profile(graph, profile).thresholds
    return any(thresholds[j][1] for j in subcurve_table(graph).walls)


def is_general(graph: MarkedDualGraph, profile: QProfile
               ) -> tuple[bool, tuple[frozenset[str], ...]]:
    """Generality test with witnesses.

    A proper subcurve Y is integral when q_Z - k_Z/2 is an integer for
    every connected component Z of Y and of its complement; the profile is
    general when no Y is integral.  Witnesses are the integral subcurves,
    one canonical representative per complementary pair: a split into exact
    table subcurves, no two on a side touching.  Each is found once, placing the
    lowest vertex left by each exact part it leads that fits, where it touches none.
    """
    if not _on_a_wall(graph, profile):
        return (True, ())
    table, ids = subcurve_table(graph), graph.vertex_ids
    parts = {}  # lowest member -> (mask, mask with its neighbours) of each exact part
    for sub, (_, exact) in zip(table.subcurves, profile.thresholds):
        if exact:
            parts.setdefault(sub.members[0], []).append(
                (sub.mask, reduce(or_, (e for e in table.edge_masks if e & sub.mask))))
    witnesses, stack = [], [(part, 0) for part, _ in parts[0]]  # v0's part on the low side
    while stack:
        low, high = stack.pop()
        if not (rest := (1 << len(ids)) - 1 ^ low ^ high):  # then parts.get(-1) is empty
            witnesses.append(min(mask_vertices(ids, low), mask_vertices(ids, high),
                                 key=subcurve_sort_key))
        for part, around in parts.get((rest & -rest).bit_length() - 1, ()):
            if part & rest == part:
                if not around & low:
                    stack.append((low | part, high))
                if not around & high:
                    stack.append((low, high | part))
    # an exact wall and its complement are a pair, so the witnesses are never empty here
    return (False, tuple(sorted(witnesses, key=subcurve_sort_key)))


def twist_profile(profile: QProfile, bundle: dict[str, int]) -> QProfile:
    """Shift the weights by an integer line-bundle multidegree."""
    shift = require_int_map(profile.graph.vertex_index, bundle, "twist", default=0)
    q = {v: f + c for (v, f), c in zip(profile.q, shift)}
    return make_profile(profile.graph, q, profile.d + sum(shift))


def perturb_general(graph: MarkedDualGraph, profile: QProfile,
                    seed: int) -> QProfile:
    """Nudge a profile off every integrality wall, deterministically.

    Identity on already-general profiles.  Offsets sum to zero so d is
    unchanged, and each vertex moves by less than 1/(2L) where L is the
    least common multiple of the weight denominators (and 2).  The walls
    are finitely many rational hyperplanes, so the seeded retry terminates.
    """
    if not _on_a_wall(graph, profile):
        return profile
    n = len(graph.vertex_ids)  # at least 2: one vertex is always general
    lcm = math.lcm(2, *(f.denominator for _, f in profile.q))
    rng = random.Random(seed)
    for attempt in range(1, 10001):
        scale = 2 * lcm * (n + 1) * attempt
        offsets = [rng.randint(-attempt, attempt) for _ in range(n - 1)]
        offsets.append(-sum(offsets))
        q = {v: f + Fraction(t, scale)
             for (v, f), t in zip(profile.q, offsets)}
        candidate = make_profile(graph, q, profile.d)
        if not _on_a_wall(graph, candidate):
            return candidate
    raise PreconditionError("perturbation failed to leave the walls")  # pragma: no cover
