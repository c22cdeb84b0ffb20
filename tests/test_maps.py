from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (ContractionReport, ExplicitPolarization, MarkedDualGraph,
                     NodeTypeLabel, PhiTable, PreconditionError, SheafType,
                     ValidationError, abel_jacobi, admissible_labels, boundary_degree, check,
                     check_star, clutch_irr, clutch_irr_polarization,
                     clutch_sep, clutch_sep_polarization, compile_polarization,
                     forget_point, forget_polarization, generate_corpus,
                     is_simple, kp_translate, stabilize_forgetting,
                     two_component_graph)
from jacstab.errors import require_keys, require_name
from jacstab.graphs import require_genus, sorted_labels
from jacstab.io import polarization_document
from jacstab.sheaves import require_simple

from conftest import check_forget_degree_law, marked_chain


# -- clutching within one graph ----------------------------------------------

def test_clutch_irr_loop_case():
    g = MarkedDualGraph.build([("v", 0)], [],
                              markings={"1": "v", "x": "v", "y": "v"})
    sheaf = SheafType.build(g, {"v": 0})
    out, pushed = clutch_irr(g, "x", "y", sheaf)
    assert out.edges == (("v", "v"),)
    assert out.marking_labels == ("1",)
    assert out.genus == g.genus + 1
    assert pushed.nonfree_edges == frozenset({0})
    assert pushed.total_degree == sheaf.total_degree + 1


def test_clutch_irr_two_vertex_case():
    g = MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)], [("v1", "v2")],
        markings={"1": "v1", "x": "v1", "2": "v2", "y": "v2"})
    sheaf = SheafType.build(g, {"v1": 0, "v2": 0})
    out, pushed = clutch_irr(g, "x", "y", sheaf)
    assert out.genus == 1 and g.genus == 0
    assert len(out.edges) == 2
    assert pushed.nonfree_edges == frozenset({1})
    assert is_simple(out, pushed)


def test_clutch_irr_preserves_simplicity(small_corpora):
    # gluing adds a non-free edge, which can never disconnect the free part
    rng = random.Random(2)
    for genus, labels, graphs in small_corpora:
        if not labels:
            continue
        for graph in graphs[:4]:
            extended = graph.replace(markings=graph.markings + (
                ("x", graph.vertex_ids[0]),
                ("y", graph.vertex_ids[-1]))).validate()
            sheaf = SheafType.build(
                extended, {v: rng.randrange(-2, 3) for v in extended.vertex_ids})
            out, pushed = clutch_irr(extended, "x", "y", sheaf)
            assert is_simple(out, pushed)
            assert out.genus == extended.genus + 1


def test_clutch_irr_polarization_q_identities():
    g = MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)], [("v1", "v2")],
        markings={"1": "v1", "x": "v1", "2": "v2", "y": "v2"})
    pol = ExplicitPolarization.build(s=1, r=1, a={"1": 0, "2": 0, "x": 1, "y": 1})
    prof = compile_polarization(pol, g)
    assert prof.d == -1
    assert prof.q_map["v1"] == Fraction(-1, 2)

    out, _ = clutch_irr(g, "x", "y", SheafType.build(g, {"v1": 0, "v2": -1}))
    pol_bar = clutch_irr_polarization(pol, "x", "y")
    prof_bar = compile_polarization(pol_bar, out)
    assert prof_bar.d == prof.d + 1
    # v1 holds x only: one-point identity
    assert prof_bar.q_map["v1"] == prof.q_map["v1"] + Fraction(1, 2)
    assert prof_bar.q_map["v2"] == prof.q_map["v2"] + Fraction(1, 2)


def test_clutch_irr_polarization_both_points_identity():
    g = MarkedDualGraph.build(
        [("u", 1), ("w", 1)], [("u", "w")],
        markings={"1": "u", "x": "u", "y": "u"})
    pol = ExplicitPolarization.build(s=2, r=1, a={"1": 1, "x": 2, "y": 2})
    prof = compile_polarization(pol, g)
    out, _ = clutch_irr(g, "x", "y", SheafType.build(
        g, {"u": prof.d - 2, "w": 1}))
    prof_bar = compile_polarization(clutch_irr_polarization(pol, "x", "y"), out)
    # u holds both x and y: the fused edge is a loop at u
    assert prof_bar.q_map["u"] == prof.q_map["u"] + 1
    assert prof_bar.q_map["w"] == prof.q_map["w"]


def test_clutch_irr_polarization_preconditions():
    pol = ExplicitPolarization.build(s=1, r=1, a={"x": 0, "y": 1})
    with pytest.raises(PreconditionError, match="a_x = s"):
        clutch_irr_polarization(pol, "x", "y")
    pol2 = ExplicitPolarization.build(
        s=0, r=1, a={"x": 0, "y": 0},
        alpha={NodeTypeLabel.of(1, ["x"]): 1})
    with pytest.raises(PreconditionError, match="alpha"):
        clutch_irr_polarization(pol2, "x", "y")


def test_clutch_irr_verdict_transport():
    g = MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)], [("v1", "v2")],
        markings={"1": "v1", "x": "v1", "2": "v2", "y": "v2"})
    pol = ExplicitPolarization.build(s=1, r=1, a={"1": 0, "2": 0, "x": 1, "y": 1})
    prof = compile_polarization(pol, g)
    pol_bar = clutch_irr_polarization(pol, "x", "y")
    for d1 in range(-3, 3):
        sheaf = SheafType.build(g, {"v1": d1, "v2": prof.d - d1})
        before = check(g, prof, sheaf)
        out, pushed = clutch_irr(g, "x", "y", sheaf)
        after = check(out, compile_polarization(pol_bar, out), pushed)
        assert before.status == after.status


# -- clutching across two graphs ----------------------------------------------

def test_clutch_sep_two_tori():
    a = MarkedDualGraph.build([("a", 1)], [], markings={"1": "a", "x": "a"})
    b = MarkedDualGraph.build([("b", 1)], [], markings={"2": "b", "y": "b"})
    out, glued = clutch_sep(a, "x", SheafType.build(a, {"a": 0}),
                            b, "y", SheafType.build(b, {"b": 0}))
    assert out.genus == 2
    assert glued.degree_map == {"1:a": 1, "2:b": 0}
    assert glued.nonfree_edges == frozenset()
    assert glued.total_degree == 1
    assert is_simple(out, glued)


def test_clutch_sep_polarization_and_membership():
    a = MarkedDualGraph.build([("a", 1)], [], markings={"1": "a", "x": "a"})
    b = MarkedDualGraph.build([("b", 1)], [], markings={"2": "b", "y": "b"})
    p1 = ExplicitPolarization.build(s=1, r=1, a={"1": 1, "x": 1})
    p2 = ExplicitPolarization.build(s=1, r=1, a={"2": 1, "y": 1})
    merged = clutch_sep_polarization(p1, "x", p2, "y")
    prof1 = compile_polarization(p1, a)
    prof2 = compile_polarization(p2, b)
    sheaf1 = SheafType.build(a, {"a": prof1.d})
    sheaf2 = SheafType.build(b, {"b": prof2.d})
    assert check(a, prof1, sheaf1).status == "stable"
    assert check(b, prof2, sheaf2).status == "stable"
    out, glued = clutch_sep(a, "x", sheaf1, b, "y", sheaf2)
    prof = compile_polarization(merged, out)
    assert prof.d == prof1.d + prof2.d + 1
    # the image of a whole factor always meets its bound with equality
    # (q - k/2 = d2 on the y side), so glued sheaves are semistable but
    # never stable; quasistability holds for a base on the x side
    verdict = check(out, prof, glued, base_vertex="1:a")
    assert verdict.status == "strictly_semistable"
    assert verdict.quasistable_at_base is True
    # one-point identity: the x side gains 1/2
    assert prof.q_map["1:a"] == prof1.q_map["a"] + Fraction(1, 2)


def test_clutch_sep_rejects_label_collision():
    a = MarkedDualGraph.build([("a", 1)], [], markings={"1": "a", "x": "a"})
    b = MarkedDualGraph.build([("b", 1)], [], markings={"1": "b", "y": "b"})
    with pytest.raises(ValidationError, match="collide"):
        clutch_sep(a, "x", SheafType.build(a, {"a": 0}),
                   b, "y", SheafType.build(b, {"b": 0}))


# -- condition on contracted components ----------------------------------------

def test_check_star_examples():
    g = marked_chain()
    good = ExplicitPolarization.build(s=1, r=1, a={"1": 1, "2": 1, "x": 0})
    assert check_star(good, g, "x") is True
    bad = ExplicitPolarization.build(s=1, r=1, a={"1": 1, "2": 1, "x": 1})
    assert check_star(bad, g, "x") is False
    stable_vertex = MarkedDualGraph.build(
        [("v", 1)], [], markings={"x": "v", "1": "v"})
    assert check_star(bad.build(s=1, r=1, a={"1": 1, "x": 1}), stable_vertex, "x")


def test_check_star_type_b():
    g = MarkedDualGraph.build([("v1", 2), ("v0", 0)], [("v1", "v0")],
                              markings={"x": "v0", "1": "v0"})
    # w(v0) = -1, so q(v0) = (-s + a_1)/r - 1/2: zero iff a_1 = s + r/2
    good = ExplicitPolarization.build(s=Fraction(1, 2), r=1, a={"1": 1, "x": 0})
    assert check_star(good, g, "x") is True
    bad = ExplicitPolarization.build(s=1, r=1, a={"1": 1, "x": 0})
    assert check_star(bad, g, "x") is False


# -- forgetting a point ---------------------------------------------------------

def triangle():
    """v1(1) - v0(0, x) - v2(1) with a direct v1-v2 edge; genus 3."""
    return MarkedDualGraph.build(
        [("v1", 1), ("v0", 0), ("v2", 1)],
        [("v1", "v0"), ("v0", "v2"), ("v1", "v2")],
        markings={"x": "v0"})


def test_forget_free_chain_t0():
    g = marked_chain()
    out, pushed, report = forget_point(
        g, "x", SheafType.build(g, {"v1": 1, "v0": 0, "v2": 1}))
    assert report.case == "a"
    assert pushed.degree_map == {"v1": 1, "v2": 1}
    assert pushed.nonfree_edges == frozenset()
    assert pushed.total_degree == 2
    check_forget_degree_law(g, SheafType.build(g, {"v1": 1, "v0": 0, "v2": 1}),
                            out, pushed, report)


def test_forget_chain_t_plus_one():
    g = marked_chain()
    sheaf = SheafType.build(g, {"v1": 1, "v0": 1, "v2": 1})
    out, pushed, report = forget_point(g, "x", sheaf)
    assert pushed.degree_map == {"v1": 1, "v2": 1}
    assert pushed.nonfree_edges == {report.new_edge_index}
    assert pushed.total_degree == 3
    check_forget_degree_law(g, sheaf, out, pushed, report)


def test_forget_chain_t_minus_one():
    g = marked_chain()
    sheaf = SheafType.build(g, {"v1": 1, "v0": -1, "v2": 1})
    out, pushed, report = forget_point(g, "x", sheaf)
    assert pushed.degree_map == {"v1": 0, "v2": 0}
    assert pushed.nonfree_edges == {report.new_edge_index}
    assert pushed.total_degree == 1
    # the fused node separates the target, so this pushforward decomposes
    assert not is_simple(out, pushed)
    check_forget_degree_law(g, sheaf, out, pushed, report)


def test_forget_asymmetric_nonfree_t0():
    # one incident non-free edge and deg(v0) = -1: the local model forces a
    # non-free fused node and drops one degree on the free-edge side
    g = triangle()
    sheaf = SheafType.build(g, {"v1": 1, "v0": -1, "v2": 1}, [0])
    out, pushed, report = forget_point(g, "x", sheaf)
    assert pushed.degree_map == {"v1": 1, "v2": 0}
    assert pushed.nonfree_edges == {report.new_edge_index}
    assert pushed.total_degree == sheaf.total_degree == 2
    check_forget_degree_law(g, sheaf, out, pushed, report)


def test_forget_nonfree_t_plus_one():
    g = triangle()
    sheaf = SheafType.build(g, {"v1": 1, "v0": 0, "v2": 1}, [1])
    out, pushed, report = forget_point(g, "x", sheaf)
    assert pushed.degree_map == {"v1": 1, "v2": 1}
    assert pushed.nonfree_edges == {report.new_edge_index}
    check_forget_degree_law(g, sheaf, out, pushed, report)


def test_forget_loop_contraction():
    g = MarkedDualGraph.build([("u", 1), ("v0", 0)],
                              [("u", "v0"), ("u", "v0")],
                              markings={"x": "v0", "1": "u"})
    for degs, S, want_deg, want_nonfree in [
            ({"u": 1, "v0": 0}, (), {"u": 1}, False),
            ({"u": 1, "v0": 1}, (), {"u": 1}, True),
            ({"u": 1, "v0": -1}, (), {"u": -1}, True),
            ({"u": 1, "v0": -1}, (0,), {"u": 0}, True)]:
        sheaf = SheafType.build(g, degs, S)
        out, pushed, report = forget_point(g, "x", sheaf)
        assert out.edges == (("u", "u"),)
        assert pushed.degree_map == want_deg
        assert bool(pushed.nonfree_edges) == want_nonfree
        assert pushed.total_degree == sheaf.total_degree
        check_forget_degree_law(g, sheaf, out, pushed, report)


def test_forget_type_b():
    g = MarkedDualGraph.build([("v1", 2), ("v0", 0)], [("v1", "v0")],
                              markings={"x": "v0", "1": "v0"})
    sheaf = SheafType.build(g, {"v1": 3, "v0": 0})
    out, pushed, report = forget_point(g, "x", sheaf)
    assert report.case == "b"
    assert pushed.degree_map == {"v1": 3}
    assert out.marking_map["1"] == "v1"
    check_forget_degree_law(g, sheaf, out, pushed, report)
    with pytest.raises(PreconditionError, match="degree 0"):
        forget_point(g, "x", SheafType.build(g, {"v1": 2, "v0": 1}))


def test_forget_no_contraction():
    g = MarkedDualGraph.build([("v", 1)], [], markings={"x": "v", "1": "v"})
    sheaf = SheafType.build(g, {"v": 4})
    out, pushed, report = forget_point(g, "x", sheaf)
    assert report.case is None
    assert pushed.degree_map == {"v": 4}


def test_forget_rejects_inadmissible():
    g = triangle()
    with pytest.raises(PreconditionError, match="not admissible"):
        forget_point(g, "x", SheafType.build(g, {"v1": 1, "v0": 2, "v2": 1}))
    with pytest.raises(PreconditionError, match="not admissible"):
        forget_point(g, "x", SheafType.build(g, {"v1": 1, "v0": -2, "v2": 1}))
    with pytest.raises(PreconditionError, match="not admissible"):
        forget_point(g, "x", SheafType.build(g, {"v1": 1, "v0": -2, "v2": 1}, [0]))


def forget_point_oracle(graph: MarkedDualGraph, x: str, sheaf: SheafType
                        ) -> tuple[MarkedDualGraph, SheafType, ContractionReport]:
    """``forget_point`` as a ladder on t = deg(v0) + #(non-free incident
    edges), one branch per local model, kept as the differential oracle."""
    require_simple(graph, sheaf)
    new_graph, _, report = stabilize_forgetting(graph, str(x))
    degree_map = sheaf.degree_map

    if report.case is None:
        new_sheaf = SheafType(nonfree_edges=sheaf.nonfree_edges,
                              degrees=sheaf.degrees)
        return new_graph, new_sheaf, report

    edge_map = dict(report.edge_map)
    v0 = report.removed_vertex

    if report.case == "b":
        (e1,) = report.removed_edges
        if e1 in sheaf.nonfree_edges:
            raise PreconditionError(
                "tail edge is non-free; sheaf would not be simple")
        if degree_map[v0] != 0:
            raise PreconditionError(
                f"tail vertex must carry degree 0, got {degree_map[v0]}")
        nonfree = frozenset(edge_map[e] for e in sheaf.nonfree_edges)
        degrees = tuple((v, d) for v, d in sheaf.degrees if v != v0)
        new_sheaf = SheafType(nonfree_edges=nonfree, degrees=degrees)
        return new_graph, new_sheaf, report

    # case (a)
    e1, e2 = report.removed_edges
    delta = degree_map[v0]
    in_s = [e for e in (e1, e2) if e in sheaf.nonfree_edges]
    if len(in_s) == 2:
        raise PreconditionError(
            "both incident edges non-free; sheaf would not be simple")
    t = delta + len(in_s)
    if delta < -1 or not -1 <= t <= 1:
        raise PreconditionError(
            f"contracted vertex not admissible for pushforward: "
            f"deg = {delta}, d({{v0}}) = {t}")

    adjust: dict[str, int] = {}
    ends = dict(report.fused_ends)
    if t == 1:
        new_nonfree = True
    elif t == 0 and not in_s:
        new_nonfree = False
    elif t == 0:
        # one non-free incident edge, deg(v0) = -1: the free-edge endpoint
        # loses the degree that cannot extend across the contracted chain
        new_nonfree = True
        free_edge = e2 if in_s[0] == e1 else e1
        far = ends[free_edge]
        adjust[far] = adjust.get(far, 0) - 1
    else:  # t == -1, both edges free
        new_nonfree = True
        for e in (e1, e2):
            far = ends[e]
            adjust[far] = adjust.get(far, 0) - 1

    nonfree = frozenset(edge_map[e] for e in sheaf.nonfree_edges
                        if e not in (e1, e2))
    if new_nonfree:
        nonfree |= {report.new_edge_index}
    degrees = tuple((v, d + adjust.get(v, 0))
                    for v, d in sheaf.degrees if v != v0)
    new_sheaf = SheafType(nonfree_edges=nonfree, degrees=degrees)
    assert new_sheaf.total_degree == sheaf.total_degree
    return new_graph, new_sheaf, report


def test_forget_point_matches_case_ladder():
    """Every graph of four marked corpora, every edge subset as S and every
    degree vector in [-2, 1]^n: the result, or the refusal, is the ladder's."""
    def outcome(transport, graph, sheaf):
        try:
            return transport(graph, "x", sheaf)
        except (PreconditionError, ValidationError) as exc:
            return type(exc), str(exc)

    cases = Counter()
    for spec in ((1, ("1", "x"), 3), (0, ("1", "2", "3", "x"), 3),
                 (2, ("x",), 3), (1, ("x", "1", "2"), 3)):
        for graph in generate_corpus(*spec):
            ids, m = graph.vertex_ids, len(graph.edges)
            for S, degrees in itertools.product(
                    range(1 << m), itertools.product(range(-2, 2), repeat=len(ids))):
                sheaf = SheafType(
                    nonfree_edges=frozenset(e for e in range(m) if S >> e & 1),
                    degrees=tuple(zip(ids, degrees)))
                got = outcome(forget_point, graph, sheaf)
                assert got == outcome(forget_point_oracle, graph, sheaf), (graph, sheaf)
                cases[got[2].case if len(got) == 3 else got[0]] += 1
    assert sum(cases.values()) == 10_200
    assert (cases[None], cases["a"], cases["b"]) == (504, 1612, 240)


def test_forget_polarization():
    pol = ExplicitPolarization.build(s=1, r=1, a={"1": 1, "2": 1, "x": 0})
    out = forget_polarization(pol, "x", genus=2, marking_labels=("1", "2", "x"))
    assert out.a_map == {"1": 1, "2": 1}
    assert out.s == 1 and out.r == 1
    with pytest.raises(PreconditionError, match="a_x = 0"):
        forget_polarization(ExplicitPolarization.build(s=1, r=1, a={"x": 1}), "x",
                            genus=2, marking_labels=("1", "2", "x"))


def test_forget_polarization_with_alpha():
    # contraction turns type (b, B+{x}) nodes into type (b, B) ones, so a
    # coefficient transports only when given equally to both labels
    label = NodeTypeLabel.of(1, ["1"])
    with_x = NodeTypeLabel.of(1, ["1", "x"])
    pol = ExplicitPolarization.build(
        s=0, r=1, a={"1": 0, "2": 0, "x": 0},
        alpha={label: Fraction(1, 3), with_x: Fraction(1, 3)})
    out = forget_polarization(pol, "x", genus=2,
                              marking_labels=("1", "2", "x"))
    assert out.alpha_map == {label: Fraction(1, 3)}

    unpaired = ExplicitPolarization.build(
        s=0, r=1, a={"1": 0, "2": 0, "x": 0},
        alpha={label: Fraction(1, 3)})
    with pytest.raises(PreconditionError, match="agree on the pair"):
        forget_polarization(unpaired, "x", genus=2,
                            marking_labels=("1", "2", "x"))

    # (0, {1, x}) has no admissible downstairs partner: it names exactly
    # the rational tails the contraction deletes
    vanishing = ExplicitPolarization.build(
        s=0, r=1, a={"1": 0, "2": 0, "x": 0},
        alpha={NodeTypeLabel.of(0, ["1", "x"]): 1})
    with pytest.raises(PreconditionError, match="vanishes"):
        forget_polarization(vanishing, "x", genus=2,
                            marking_labels=("1", "2", "x"))

    smallest = ExplicitPolarization.build(
        s=0, r=1, a={"x": 0, "y": 0},
        alpha={NodeTypeLabel.of(1, ["x"]): 0})
    with pytest.raises(PreconditionError, match="smallest"):
        forget_polarization(smallest, "x", genus=2,
                            marking_labels=("x", "y"))


def test_forget_polarization_alpha_q_identity():
    # paired coefficients reproduce the downstairs weights exactly
    g = MarkedDualGraph.build(
        [("v0", 0), ("v1", 0), ("v2", 0)],
        [("v0", "v1"), ("v0", "v1"), ("v0", "v2"), ("v2", "v2")],
        markings={"1": "v0", "2": "v0", "x": "v1"})
    label = NodeTypeLabel.of(1, ["1", "2"])
    with_x = NodeTypeLabel.of(1, ["1", "2", "x"])
    pol = ExplicitPolarization.build(
        s=1, r=2, a={"1": 2, "2": 0, "x": 0},
        alpha={label: Fraction(2, 3), with_x: Fraction(2, 3)})
    assert check_star(pol, g, "x")
    prof = compile_polarization(pol, g)
    out, _, _ = forget_point(g, "x", SheafType.build(
        g, {"v0": prof.d, "v1": 0, "v2": 0}))
    pol_bar = forget_polarization(pol, "x", genus=2,
                                  marking_labels=("1", "2", "x"))
    prof_bar = compile_polarization(pol_bar, out)
    assert prof_bar.q_map == {v: prof.q_map[v] for v in out.vertex_ids}


def parent_forget_polarization(pol: ExplicitPolarization, x: str, *, genus: int,
                               marking_labels) -> ExplicitPolarization:
    """Reference: ``forget_polarization`` when it listed the admissible labels
    upstairs and downstairs, copied verbatim."""
    x, labels = require_name(x, "marking label"), sorted_labels(marking_labels)
    genus = require_genus(genus)
    if x not in labels:
        raise ValidationError(f"marking {x} not present")
    if pol.a_map.get(x, Fraction(0)) != 0:
        raise PreconditionError(f"forgetting {x} needs a_{x} = 0, got {pol.a_map[x]}")
    new_alpha: dict[NodeTypeLabel, Fraction] = {}
    if pol.alpha:
        upstairs = admissible_labels(genus, labels)
        values = dict(zip(upstairs, require_keys(
            upstairs, pol.alpha_map, "boundary coefficients", default=Fraction(0))))
        if labels[:1] == (x,):
            raise PreconditionError(
                f"cannot transport boundary coefficients: {x} is the "
                f"smallest label, so canonical sides would flip")
        remaining = tuple(l for l in labels if l != x)
        paired: set[NodeTypeLabel] = set()
        for label in admissible_labels(genus, remaining):
            with_x = NodeTypeLabel.of(label.side_genus,
                                      label.side_markings + (x,))
            paired |= {label, with_x}
            plain_c = values[label]
            with_x_c = values[with_x]
            if plain_c != with_x_c:
                raise PreconditionError(
                    f"boundary coefficients must agree on the pair "
                    f"{label} / {with_x}: got {plain_c} and {with_x_c}")
            if plain_c:
                new_alpha[label] = plain_c
        for label, coefficient in values.items():
            if label not in paired and coefficient != 0:
                raise PreconditionError(
                    f"node type {label} vanishes under the contraction; "
                    f"its coefficient must be 0, got {coefficient}")
    return ExplicitPolarization.build(
        s=pol.s, r=pol.r,
        a={l: c for l, c in pol.a if l != x},
        alpha=new_alpha)


def with_marking(label: NodeTypeLabel, x: str) -> NodeTypeLabel:
    return NodeTypeLabel.of(label.side_genus, label.side_markings + (x,))


@st.composite
def forget_tables(draw):
    """(genus, labels, x, alpha): a marking x of (g, A) with g <= 3 and
    |A| <= 4, and boundary coefficients that often give (b, B) and
    (b, B + {x}) one value, at times on a label that vanishes, is not
    admissible or has a bool side genus."""
    genus = draw(st.integers(0, 3))
    labels = ("1", "2", "3", "x")[:draw(st.integers(max(1, 4 - 2 * genus), 4))]
    x = draw(st.sampled_from(labels[:1] + labels[1:] * 3))  # the smallest flips every side
    values = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-1)))
    alpha, down = {}, admissible_labels(genus, [l for l in labels if l != x])
    for label in draw(st.lists(st.sampled_from(down), max_size=3)) if down and x > "1" else ():
        alpha[label] = alpha[with_marking(label, x)] = draw(values)
    upstairs = admissible_labels(genus, labels)
    alpha.update(draw(st.dictionaries(st.sampled_from(upstairs), values, max_size=2)))
    if draw(st.integers(0, 5)) == 0:  # a label of any genus and markings, seldom admissible
        alpha[draw(st.builds(NodeTypeLabel.of, st.integers(0, genus + 1), st.lists(
            st.sampled_from(labels), unique=True)))] = draw(values)
    flip = draw(st.booleans())  # a side genus 1 given as True names the same label
    return genus, labels, x, {NodeTypeLabel(True, k.side_markings)
                              if flip and k.side_genus == 1 else k: c for k, c in alpha.items()}


def transport_faults(genus, labels, x, alpha) -> int:
    """Pairs that disagree plus vanishing labels with a coefficient."""
    pairs = [(label, with_marking(label, x))
             for label in admissible_labels(genus, [l for l in labels if l != x])]
    paired = {label for pair in pairs for label in pair}
    return (sum(alpha.get(a, 0) != alpha.get(b, 0) for a, b in pairs)
            + sum(1 for l in admissible_labels(genus, labels) if l not in paired and alpha.get(l)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(forget_tables())
def test_forget_polarization_matches_parent(case):
    """Walking the given coefficients transports what listing both label
    sets did, byte for byte, and refuses what it refused with the same
    class; with one fault, in the same words."""
    genus, labels, x, alpha = case
    pol = ExplicitPolarization.build(s=0, r=1, alpha=alpha)
    outcomes = []
    for forget in (forget_polarization, parent_forget_polarization):
        try:
            outcomes.append(json.dumps(polarization_document(
                forget(pol, x, genus=genus, marking_labels=labels)), indent=2))
        except (ValidationError, PreconditionError) as error:
            outcomes.append(error)
    new, old = outcomes
    if isinstance(old, str):
        assert new == old
    else:
        assert type(new) is type(old)
        if transport_faults(genus, labels, x, alpha) <= 1 or type(old) is ValidationError:
            assert str(new) == str(old)


def test_label_readers_list_no_labels():
    """compile_polarization, forget_polarization, boundary_degree and
    two_component_graph test only the labels they are given: on a genus-2
    two-vertex graph with 19 markings the full list has 2^19 labels."""
    marks = [str(i) for i in range(1, 19)]
    graph = MarkedDualGraph.build([("v0", 1), ("v1", 1)], [("v0", "v1")],
                                  {**dict.fromkeys(marks, "v0"), "x": "v1"})
    label = NodeTypeLabel.of(1, marks)
    pol = ExplicitPolarization.build(s=0, r=1, alpha={label: Fraction(1, 3)})
    paired = ExplicitPolarization.build(
        s=0, r=1, alpha={label: Fraction(1, 3), with_marking(label, "x"): Fraction(1, 3)})
    listing = AssertionError("a reader listed every admissible label")
    with mock.patch("jacstab.graphs.admissible_labels", side_effect=listing), \
            mock.patch("jacstab.maps.admissible_labels", side_effect=listing), \
            mock.patch("jacstab.polarization.admissible_labels", side_effect=listing,
                       create=True):
        assert compile_polarization(pol, graph).q == (("v0", Fraction(5, 6)),
                                                      ("v1", Fraction(1, 6)))
        assert boundary_degree(graph, {"v0"}, label) == 1
        assert two_component_graph(2, graph.marking_labels, label).markings_by_vertex \
            == {"side": tuple(marks), "rest": ("x",)}
        with pytest.raises(PreconditionError, match="agree on the pair"):
            forget_polarization(pol, "x", genus=2, marking_labels=graph.marking_labels)
        assert forget_polarization(paired, "x", genus=2, marking_labels=graph.marking_labels
                                   ).alpha_map == {label: Fraction(1, 3)}


def test_forget_verdict_transport_instance():
    # (*) profile on the marked chain: q(v0) = 0 and a_x = 0
    g = marked_chain()
    pol = ExplicitPolarization.build(s=0, r=1, a={"1": 1, "2": 1, "x": 0})
    assert check_star(pol, g, "x")
    prof = compile_polarization(pol, g)
    pol_bar = forget_polarization(pol, "x", genus=g.genus, marking_labels=g.marking_labels)
    for degs in [{"v1": 2, "v0": 0, "v2": 1}, {"v1": 1, "v0": 0, "v2": 2},
                 {"v1": 3, "v0": 0, "v2": 0}, {"v1": 2, "v0": 1, "v2": 0}]:
        sheaf = SheafType.build(g, degs)
        before = check(g, prof, sheaf)
        out, pushed, _ = forget_point(g, "x", sheaf)
        if not is_simple(out, pushed):
            assert before.status != "stable"
            continue
        after = check(out, compile_polarization(pol_bar, out), pushed)
        assert (before.status == "unstable") == (after.status == "unstable")
        assert (before.status == "stable") <= (after.status == "stable")


# -- sections -------------------------------------------------------------------

def test_abel_jacobi_example():
    g = MarkedDualGraph.build([("v1", 1), ("v2", 1)], [("v1", "v2")],
                              markings={"1": "v1", "2": "v1", "3": "v2"})
    pol, sheaf, verdict = abel_jacobi(g, {"1": 2, "2": -1, "3": -1})
    prof = compile_polarization(pol, g)
    assert prof.q_map == {"v1": 1, "v2": -1}
    assert sheaf.degree_map == {"v1": 1, "v2": -1}
    assert verdict.status == "stable"


def test_abel_jacobi_zero_tuple():
    g = MarkedDualGraph.build([("v1", 1), ("v2", 2)], [("v1", "v2")],
                              markings={"1": "v1"})
    pol, sheaf, verdict = abel_jacobi(g, {"1": 0})
    prof = compile_polarization(pol, g)
    assert all(q == 0 for q in prof.q_map.values())
    assert verdict.status == "stable"


def test_abel_jacobi_needs_markings():
    with pytest.raises(PreconditionError, match="marking"):
        abel_jacobi(MarkedDualGraph.build([("v", 2)], []), {})


# -- phi translation --------------------------------------------------------------

def test_kp_translate_worked_example():
    label = NodeTypeLabel.of(1, ["1"])
    labels = admissible_labels(2, ["1", "2"])
    table = {lab: lab.side_genus - Fraction(1, 2) for lab in labels}
    table[label] = Fraction(3, 10)
    pol = kp_translate(PhiTable.build(table), 2, ["1", "2"])
    assert pol.alpha_map[label] == Fraction(-1, 5)
    g = two_component_graph(2, ["1", "2"], label)
    assert compile_polarization(pol, g).q_map["side"] == Fraction(3, 10)


def test_kp_translate_symmetric_table_recovers_plain_profile():
    labels = admissible_labels(3, ["1"])
    table = {lab: lab.side_genus - Fraction(1, 2) for lab in labels}
    pol = kp_translate(PhiTable.build(table), 3, ["1"])
    assert all(c == 0 for c in pol.alpha_map.values())


def test_kp_translate_exact_on_all_labels():
    rng = random.Random(7)
    for genus, labels in [(2, ("1", "2")), (3, ("1",)), (4, ("1", "2"))]:
        admissible = admissible_labels(genus, labels)
        table = {lab: Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 3, 7]))
                 for lab in admissible}
        pol = kp_translate(PhiTable.build(table), genus, labels)
        for lab in admissible:
            g = two_component_graph(genus, labels, lab)
            prof = compile_polarization(pol, g)
            assert prof.d == genus - 1
            assert prof.q_map["side"] == table[lab]


def test_kp_translate_off_wall_tables_are_general():
    # the wall for a two-vertex graph is phi - 1/2 in Z; any table avoiding
    # half-integers compiles to a general profile on every such graph
    from jacstab import is_general
    rng = random.Random(13)
    genus, labels = 3, ("1", "2")
    admissible = admissible_labels(genus, labels)
    table = {lab: Fraction(rng.randrange(-9, 10), 5) for lab in admissible}
    pol = kp_translate(PhiTable.build(table), genus, labels)
    for lab in admissible:
        g = two_component_graph(genus, labels, lab)
        assert is_general(g, compile_polarization(pol, g))[0]


def test_kp_translate_requires_complete_table():
    with pytest.raises(ValidationError, match="missing"):
        kp_translate(PhiTable.build({}), 2, ["1", "2"])
    with pytest.raises(PreconditionError, match="nonempty"):
        kp_translate(PhiTable.build({}), 2, [])
