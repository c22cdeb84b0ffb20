"""Acceptance suite: one test per criterion, each printing a pass line.

The corpora below (ACC_SPECS and friends) fix the concrete graph families
the criteria quantify over; every tolerance is exact rational equality and
every criterion carries the stated wall-clock budget.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from jacstab import (CanonicalPolarization, ExplicitPolarization,
                     MarkedDualGraph, PreconditionError, SheafType,
                     abel_jacobi, admissible_labels, check, check_star,
                     clutch_irr, clutch_irr_polarization, clutch_sep,
                     clutch_sep_polarization, compile_polarization,
                     complexity, count_components, enumerate_sheaves,
                     forget_point, forget_polarization, generate_corpus,
                     is_general, is_simple, kp_translate,
                     multidegrees_equivalent, perturb_general,
                     stabilize_forgetting, twist, twist_profile,
                     two_component_graph)
from jacstab.graphs import (NodeTypeLabel, label_sort_key,
                            proper_subcurves, subcurve_k)
from jacstab.maps import PhiTable
from jacstab.sheaves import d_of

from conftest import check_forget_degree_law, random_profile

# graph families the acceptance criteria quantify over
ACC_SPECS = [
    (0, ("1", "2", "3"), 3),
    (1, ("1",), 3),
    (1, ("1", "2"), 2),
    (2, (), 4),
    (2, ("1",), 3),
    (3, (), 4),
]

_CORPora_CACHE: dict = {}


def corpus(genus, labels, max_vertices):
    key = (genus, tuple(labels), max_vertices)
    if key not in _CORPora_CACHE:
        _CORPora_CACHE[key] = generate_corpus(genus, labels, max_vertices)
    return _CORPora_CACHE[key]


def acc_corpus():
    return [(g, labels, corpus(g, labels, maxv))
            for g, labels, maxv in ACC_SPECS]


class budget:
    """Context manager asserting a wall-clock budget and printing the line."""

    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"[PASS] criterion {self.number}: {self.description} "
                  f"({elapsed:.2f}s < {self.seconds:.0f}s)")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)")
        else:
            print(f"[FAIL] criterion {self.number}: {self.description} "
                  f"({elapsed:.2f}s)")
        return False


def degree_maps(sheaves):
    return [s.degree_map for s in sheaves]


def test_criterion_1_two_component_example():
    with budget(1, "two-component worked example", 1.0):
        g = MarkedDualGraph.build([("v1", 1), ("v2", 2)], [("v1", "v2")])
        canonical = compile_polarization(CanonicalPolarization.build(2), g)
        ss = enumerate_sheaves(g, canonical, "semistable")
        assert degree_maps(ss) == [{"v1": 0, "v2": 2}, {"v1": 1, "v2": 1}]

        twisted = compile_polarization(
            ExplicitPolarization.build(
                s=0, r=4, alpha={admissible_labels(3, [])[0]: 1}), g)
        assert twisted.q_map == {"v1": Fraction(3, 4), "v2": Fraction(5, 4)}
        only = enumerate_sheaves(g, twisted, "semistable")
        assert degree_maps(only) == [{"v1": 1, "v2": 1}]


def test_criterion_2_canonical_generality_vs_gcd():
    with budget(2, "canonical generality iff gcd(d-g+1, 2g-2) = 1", 30.0):
        for genus in (2, 3):
            graphs = corpus(genus, (), 5)
            assert len(graphs) == {2: 7, 3: 42}[genus]
            for d in range(genus - 1, genus + 5):
                expected = math.gcd(d - genus + 1, 2 * genus - 2) == 1
                general_everywhere = True
                for graph in graphs:
                    profile = compile_polarization(
                        CanonicalPolarization.build(d), graph)
                    if not is_general(graph, profile)[0]:
                        general_everywhere = False
                        break
                assert general_everywhere == expected, (genus, d)


def test_criterion_3_nondegeneracy_fact():
    with budget(3, "general iff semistable = stable (incl. non-free)", 120.0):
        rng = random.Random(30003)
        profiles = 0
        while profiles < 200:
            for _, _, graphs in acc_corpus():
                for graph in graphs:
                    profile = random_profile(graph, rng)
                    general, _ = is_general(graph, profile)
                    ss = enumerate_sheaves(graph, profile, "semistable",
                                           include_nonfree=True)
                    stable = enumerate_sheaves(graph, profile, "stable",
                                               include_nonfree=True)
                    assert general == (ss == stable), (graph, profile.q)
                    profiles += 1
        assert profiles >= 200


def test_criterion_4_component_count():
    with budget(4, "quasistable count = spanning trees, complete class reps", 120.0):
        rng = random.Random(40004)
        for _, _, graphs in acc_corpus():
            for graph in graphs:
                kappa = complexity(graph)
                for trial in range(20):
                    profile = perturb_general(
                        graph, random_profile(graph, rng),
                        seed=rng.randrange(10 ** 6))
                    assert is_general(graph, profile)[0]
                    counts = {count_components(graph, profile, base)
                              for base in graph.vertex_ids}
                    assert counts == {kappa}, (graph, profile.q)
                    if trial == 0:
                        base = graph.vertex_ids[0]
                        reps = enumerate_sheaves(graph, profile, "quasistable",
                                                 base_vertex=base)
                        assert len(reps) == kappa
                        for s1, s2 in itertools.combinations(reps, 2):
                            assert not multidegrees_equivalent(
                                graph, s1.degree_map, s2.degree_map)
                        # completeness: an arbitrary vector of the right
                        # total degree matches exactly one representative
                        for _ in range(3):
                            vector = {v: rng.randrange(-6, 7)
                                      for v in graph.vertex_ids}
                            vector[graph.vertex_ids[0]] += \
                                profile.d - sum(vector.values())
                            hits = sum(multidegrees_equivalent(
                                graph, vector, rep.degree_map) for rep in reps)
                            assert hits == 1


def test_criterion_5_invariance_suite():
    with budget(5, "twist equivariance, scaling identity, q_Y + q_Yc = d", 60.0):
        rng = random.Random(50005)
        for genus, labels, graphs in acc_corpus():
            for graph in graphs:
                profile = random_profile(graph, rng)
                # complement identity over every proper subcurve
                ids = set(graph.vertex_ids)
                for Y in proper_subcurves(graph):
                    assert profile.q_of(Y) + profile.q_of(ids - Y) == profile.d
                # twist equivariance of the stability sets
                bundle = {v: rng.randrange(-2, 3) for v in graph.vertex_ids}
                shifted = twist_profile(profile, bundle)
                base = graph.vertex_ids[0]
                for mode in ("semistable", "stable", "quasistable"):
                    direct = enumerate_sheaves(graph, shifted, mode,
                                               base_vertex=base,
                                               include_nonfree=True)
                    moved = sorted(
                        (twist(s, bundle) for s in enumerate_sheaves(
                            graph, profile, mode, base_vertex=base,
                            include_nonfree=True)),
                        key=lambda s: (tuple(sorted(s.nonfree_edges)),
                                       tuple(d for _, d in s.degrees)))
                    assert direct == moved
                # scaling invariance of explicit recipes
                pol = ExplicitPolarization.build(
                    s=rng.randrange(-2, 3), r=rng.choice([1, 2]),
                    a={l: Fraction(rng.randrange(-2, 3)) for l in labels})
                if pol.target_degree(genus).denominator != 1:
                    continue
                base_profile = compile_polarization(pol, graph)
                for m in range(2, 6):
                    scaled = ExplicitPolarization.build(
                        s=pol.s * m, r=pol.r * m,
                        a={l: c * m for l, c in pol.a})
                    assert compile_polarization(scaled, graph) == base_profile


def _clutch_irr_instances(rng):
    specs = [(0, ("1", "x", "y"), 2), (0, ("1", "2", "x", "y"), 2),
             (1, ("x", "y"), 2), (1, ("1", "x", "y"), 2)]
    for genus, labels, maxv in specs:
        for graph in corpus(genus, labels, maxv):
            for _ in range(2):
                s = Fraction(rng.randrange(-2, 3))
                a = {l: Fraction(rng.randrange(-2, 3)) for l in labels}
                a["x"] = s
                a["y"] = s
                yield graph, ExplicitPolarization.build(s=s, r=1, a=a)


def test_criterion_6_clutching():
    with budget(6, "clutching identities and verdict transport", 60.0):
        rng = random.Random(60006)
        instances = 0

        # one-graph clutching: exact slack correspondence, so verdicts and
        # quasistable flags transport verbatim
        for graph, pol in _clutch_irr_instances(rng):
            instances += 1
            profile = compile_polarization(pol, graph)
            pol_bar = clutch_irr_polarization(pol, "x", "y")
            vx, vy = graph.marking_map["x"], graph.marking_map["y"]
            sheaves = enumerate_sheaves(graph, profile, "semistable",
                                        include_nonfree=True)
            for _ in range(4):
                degrees = {v: rng.randrange(-2, 3) for v in graph.vertex_ids}
                degrees[graph.vertex_ids[0]] += profile.d - sum(degrees.values())
                sheaves.append(SheafType.build(graph, degrees))
            glued_cache = None
            for sheaf in sheaves:
                out, pushed = clutch_irr(graph, "x", "y", sheaf)
                assert out.genus == graph.genus + 1
                assert pushed.total_degree == sheaf.total_degree + 1
                profile_bar = compile_polarization(pol_bar, out)
                assert profile_bar.d == profile.d + 1
                if glued_cache is None:
                    glued_cache = (out, profile_bar)
                    for Y in proper_subcurves(graph):
                        m = (vx in Y) + (vy in Y)
                        assert profile_bar.q_of(Y) == profile.q_of(Y) + Fraction(m, 2)
                        assert subcurve_k(out, Y) == subcurve_k(graph, Y) \
                            + (1 if m == 1 else 0)
                for base in graph.vertex_ids:
                    before = check(graph, profile, sheaf, base_vertex=base)
                    after = check(out, profile_bar, pushed, base_vertex=base)
                    assert before.status == after.status
                    assert before.quasistable_at_base == after.quasistable_at_base

        # two-graph clutching: q-identities, ss x ss -> strictly semistable,
        # qs(b) x qs(at y) -> qs(b), glued qs -> qs(at y)
        side1 = [(1, ("x",), 2), (1, ("1", "x"), 2), (0, ("1", "2", "x"), 2)]
        side2 = [(1, ("y",), 2), (1, ("3", "y"), 2), (0, ("3", "4", "y"), 2)]
        for (g1, l1, m1), (g2, l2, m2) in zip(side1, side2):
            for ga in corpus(g1, l1, m1)[:3]:
                for gb in corpus(g2, l2, m2)[:3]:
                    s = Fraction(rng.randrange(-2, 3))
                    a1 = {l: Fraction(rng.randrange(-2, 3)) for l in l1}
                    a2 = {l: Fraction(rng.randrange(-2, 3)) for l in l2}
                    a1["x"] = s
                    a2["y"] = s
                    p1 = ExplicitPolarization.build(s=s, r=1, a=a1)
                    p2 = ExplicitPolarization.build(s=s, r=1, a=a2)
                    pr1 = compile_polarization(p1, ga)
                    pr2 = compile_polarization(p2, gb)
                    merged = clutch_sep_polarization(p1, "x", p2, "y")
                    instances += 1
                    vy = gb.marking_map["y"]
                    for s1 in enumerate_sheaves(ga, pr1, "semistable",
                                                include_nonfree=True)[:4]:
                        for s2 in enumerate_sheaves(gb, pr2, "semistable",
                                                    include_nonfree=True)[:4]:
                            out, glued = clutch_sep(ga, "x", s1, gb, "y", s2)
                            profile = compile_polarization(merged, out)
                            assert profile.d == pr1.d + pr2.d + 1
                            assert glued.total_degree == \
                                s1.total_degree + s2.total_degree + 1
                            assert out.genus == ga.genus + gb.genus
                            vx_id = "1:" + ga.marking_map["x"]
                            vy_id = "2:" + vy
                            for Y in proper_subcurves(out):
                                y1 = frozenset(v[2:] for v in Y if v[0] == "1")
                                y2 = frozenset(v[2:] for v in Y if v[0] == "2")
                                expected = Fraction((vx_id in Y) + (vy_id in Y), 2)
                                if y1:
                                    expected += pr1.q_of(y1) \
                                        if len(y1) < len(ga.vertex_ids) \
                                        else Fraction(pr1.d)
                                if y2:
                                    expected += pr2.q_of(y2) \
                                        if len(y2) < len(gb.vertex_ids) \
                                        else Fraction(pr2.d)
                                assert profile.q_of(Y) == expected
                            verdict = check(out, profile, glued)
                            assert verdict.status == "strictly_semistable"
                            qs2_at_y = check(gb, pr2, s2,
                                             base_vertex=vy).quasistable_at_base
                            for b in ga.vertex_ids:
                                qs1 = check(ga, pr1, s1,
                                            base_vertex=b).quasistable_at_base
                                glued_qs = check(out, profile, glued,
                                                 base_vertex="1:" + b
                                                 ).quasistable_at_base
                                if qs1 and qs2_at_y:
                                    assert glued_qs
                                if glued_qs:
                                    assert qs2_at_y
        assert instances >= 50, instances


FORGET_SPECS = [(1, ("1", "x"), 3), (1, ("1", "2", "x"), 3),
                (2, ("x",), 3), (2, ("1", "x"), 3),
                (2, ("1", "2", "x"), 2), (3, ("x",), 3)]


def _star_profiles(graph, report, rng, count=3):
    """Deterministic recipes with weight 0 on the contraction candidate.

    The last draw also carries paired boundary coefficients (equal on each
    (b, B) / (b, B + {x}) pair) when the graph admits any.
    """
    out = []
    v0 = report.removed_vertex
    genus = graph.genus
    carried = [l for l, v in graph.markings if v == v0 and l != "x"]
    downstairs = admissible_labels(
        genus, tuple(l for l in graph.marking_labels if l != "x"))
    smallest = min(graph.marking_labels,
                   key=label_sort_key) if graph.markings else None
    for attempt_index in range(count):
        alpha = {}
        if attempt_index == count - 1 and downstairs and smallest != "x":
            for label in downstairs:
                c = Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3]))
                alpha[label] = c
                alpha[NodeTypeLabel.of(label.side_genus,
                                       label.side_markings + ("x",))] = c
        for _attempt in range(80):
            if report.case == "a":
                s, r = Fraction(rng.randrange(-2, 3)), Fraction(1)
                a = {l: Fraction(rng.randrange(-2, 3)) for l, _ in graph.markings}
                a["x"] = Fraction(0)
            else:
                s, r = Fraction(rng.randrange(-2, 3)), Fraction(2)
                a = {l: Fraction(rng.randrange(-2, 3)) for l, _ in graph.markings}
                a["x"] = Fraction(0)
                if not alpha:
                    a[carried[0]] = s + 1  # forces weight 0 on the tail
            pol = ExplicitPolarization.build(s=s, r=r, a=a, alpha=alpha)
            if pol.target_degree(graph.genus).denominator != 1:
                continue
            if check_star(pol, graph, "x"):
                out.append(pol)
                break
    return out


def test_criterion_7_forgetful():
    with budget(7, "forgetful admissibility, degrees, verdict transport", 60.0):
        rng = random.Random(70007)
        instances = 0
        for genus, labels, maxv in FORGET_SPECS:
            for graph in corpus(genus, labels, maxv):
                _, _, report = stabilize_forgetting(graph, "x")
                if report.case is None:
                    continue
                instances += 1
                v0 = report.removed_vertex
                bases = [v for v in graph.vertex_ids if v != v0]
                evaporating = {frozenset([v0]),
                               frozenset(graph.vertex_ids) - {v0}}
                for pol in _star_profiles(graph, report, rng):
                    profile = compile_polarization(pol, graph)
                    assert profile.q_map[v0] == 0
                    pol_bar = forget_polarization(
                        pol, "x", genus=genus,
                        marking_labels=graph.marking_labels)
                    sheaves = enumerate_sheaves(graph, profile, "semistable",
                                                include_nonfree=True)
                    semistable_count = len(sheaves)
                    for _ in range(6):
                        degrees = {v: rng.randrange(-2, 3)
                                   for v in graph.vertex_ids}
                        S = frozenset(i for i in range(len(graph.edges))
                                      if rng.random() < 0.3)
                        if not graph.is_connected(skip_edges=S):
                            continue
                        degrees[graph.vertex_ids[0]] += profile.d - (
                            sum(degrees.values()) + len(S))
                        sheaves.append(SheafType.build(graph, degrees, S))
                    for index, sheaf in enumerate(sheaves):
                        verdict = check(graph, profile, sheaf)
                        if index < semistable_count:
                            # Lemma classification: semistable sheaves are
                            # always admissible for the pushforward
                            t = d_of(graph, sheaf, {v0})
                            assert -1 <= t <= 1
                            assert sheaf.degree_map[v0] >= -1
                            if report.case == "b":
                                assert t == 0 and sheaf.degree_map[v0] == 0
                        try:
                            out, pushed, rep = forget_point(graph, "x", sheaf)
                        except PreconditionError:
                            assert verdict.status == "unstable"
                            continue
                        assert pushed.total_degree == sheaf.total_degree
                        check_forget_degree_law(graph, sheaf, out, pushed, rep)
                        profile_bar = compile_polarization(pol_bar, out)
                        assert profile_bar.q_map == {
                            v: profile.q_map[v] for v in out.vertex_ids}
                        if not is_simple(out, pushed):
                            assert verdict.status != "stable"
                            for b in bases:
                                assert not check(
                                    graph, profile, sheaf,
                                    base_vertex=b).quasistable_at_base
                            continue
                        after = check(out, profile_bar, pushed)
                        assert (verdict.status != "unstable") == \
                            (after.status != "unstable")
                        if verdict.status == "stable":
                            assert after.status == "stable"
                        if after.status == "stable" and verdict.status != "stable":
                            assert verdict.status == "strictly_semistable"
                            assert frozenset(verdict.witness) in evaporating
                        for b in bases:
                            qs_before = check(graph, profile, sheaf,
                                              base_vertex=b).quasistable_at_base
                            qs_after = check(out, profile_bar, pushed,
                                             base_vertex=b).quasistable_at_base
                            if qs_before:
                                assert qs_after
                            elif qs_after:
                                assert d_of(graph, sheaf, {v0}) == 1
        assert instances >= 20, instances


def test_criterion_8_abel_jacobi():
    with budget(8, "section recipes are stable with q_Y = sum of weights", 60.0):
        rng = random.Random(80008)
        for genus, labels, graphs in acc_corpus():
            if not labels:
                continue
            for graph in graphs:
                for _ in range(100):
                    weights = {l: rng.randrange(-5, 6) for l in labels}
                    pol, sheaf, verdict = abel_jacobi(graph, weights)
                    assert verdict.status == "stable"
                    profile = compile_polarization(pol, graph)
                    marks_at = graph.markings_by_vertex
                    for Y in proper_subcurves(graph):
                        expected = sum(weights[l] for v in Y
                                       for l in marks_at.get(v, ()))
                        assert profile.q_of(Y) == expected


def test_criterion_9_phi_translation():
    with budget(9, "phi-table translation reproduces phi exactly", 10.0):
        rng = random.Random(90009)
        labels = ("1", "2")
        for genus in (2, 3, 4):
            admissible = admissible_labels(genus, labels)
            assert admissible
            for _ in range(20):
                table = PhiTable.build({
                    lab: Fraction(rng.randrange(-30, 31),
                                  rng.choice([1, 2, 3, 5, 7, 10]))
                    for lab in admissible})
                pol = kp_translate(table, genus, labels)
                for lab in admissible:
                    graph = two_component_graph(genus, labels, lab)
                    profile = compile_polarization(pol, graph)
                    assert profile.d == genus - 1
                    assert profile.q_map["side"] == table.value_map[lab]


def test_criterion_10_oracle_reductions():
    with budget(10, "connected-subcurve check = all-subsets check", 120.0):
        rng = random.Random(100010)
        compared = 0
        for _, _, graphs in acc_corpus():
            for graph in graphs:
                if len(graph.vertices) > 5:
                    continue
                profile = random_profile(graph, rng)
                sheaves = enumerate_sheaves(graph, profile, "semistable",
                                            include_nonfree=True)[:20]
                for _ in range(5):
                    degrees = {v: rng.randrange(-3, 4) for v in graph.vertex_ids}
                    degrees[graph.vertex_ids[0]] += profile.d - sum(degrees.values())
                    sheaves.append(SheafType.build(graph, degrees))
                for sheaf in sheaves:
                    base = graph.vertex_ids[0]
                    fast = check(graph, profile, sheaf, base_vertex=base)
                    slow = check(graph, profile, sheaf, base_vertex=base,
                                 all_subsets=True)
                    assert fast.status == slow.status
                    assert fast.quasistable_at_base == slow.quasistable_at_base
                    compared += 1
        assert compared >= 200
