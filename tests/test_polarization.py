from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacstab import (CanonicalPolarization, ExplicitPolarization,
                     MarkedDualGraph, NodeTypeLabel, ValidationError,
                     compile_polarization, is_general, make_profile,
                     perturb_general, twist_profile)
from jacstab.graphs import proper_subcurves
from jacstab.polarization import _on_a_wall

from conftest import bridge_g3, random_profile, theta


def test_compile_canonical_bridge():
    prof = compile_polarization(CanonicalPolarization.build(2), bridge_g3())
    assert prof.q_map == {"v1": Fraction(1, 2), "v2": Fraction(3, 2)}
    assert prof.d == 2


def test_compile_boundary_twisted_bridge():
    pol = ExplicitPolarization.build(
        s=0, r=4, alpha={NodeTypeLabel.of(1, []): 1})
    prof = compile_polarization(pol, bridge_g3())
    assert prof.q_map == {"v1": Fraction(3, 4), "v2": Fraction(5, 4)}
    assert prof.d == 2


def test_compile_marked_boundary_coefficient():
    g = MarkedDualGraph.build([("v1", 1), ("v2", 1)], [("v1", "v2")],
                              markings={"1": "v1", "2": "v2"})
    pol = ExplicitPolarization.build(
        s=0, r=1, alpha={NodeTypeLabel.of(1, ["1"]): Fraction(-1, 5)})
    prof = compile_polarization(pol, g)
    assert prof.q_map == {"v1": Fraction(3, 10), "v2": Fraction(7, 10)}
    assert prof.d == 1


def test_compile_rejects_non_integral_degree():
    pol = ExplicitPolarization.build(s=Fraction(1, 3), r=1)
    with pytest.raises(ValidationError, match="not an integer"):
        compile_polarization(pol, bridge_g3())


def test_compile_rejects_inadmissible_alpha():
    pol = ExplicitPolarization.build(s=0, r=1,
                                     alpha={NodeTypeLabel.of(1, []): 1})
    with pytest.raises(ValidationError, match="boundary coefficients mismatch"):
        compile_polarization(pol, theta())  # self-symmetric for genus 2


def test_compile_canonical_with_marking_weights():
    # marked variant: weights shift the canonical profile
    g = MarkedDualGraph.build([("v1", 1), ("v2", 2)], [("v1", "v2")],
                              markings={"1": "v1"})
    prof = compile_polarization(CanonicalPolarization.build(3, {"1": 1}), g)
    assert sum(prof.q_map.values()) == 3
    # q_v = (d-g+1)(w_v + a_v) / (2g-2+sum a) + w_v/2 with d-g+1 = 1
    assert prof.q_map["v1"] == Fraction(1 * (1 + 1), 5) + Fraction(1, 2)


def test_q_subcurve_additive():
    prof = compile_polarization(CanonicalPolarization.build(2), bridge_g3())
    assert prof.q_of({"v1"}) == Fraction(1, 2)
    total = sum(prof.q_map.values())
    assert total == prof.d
    assert prof.q_of(["v1", "v2"]) == prof.d and prof.q_of([]) == 0  # any set of vertices


def test_scaling_invariance(small_corpora):
    rng = random.Random(17)
    for genus, labels, graphs in small_corpora:
        for graph in graphs[:5]:
            a = {l: Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                 for l in labels}
            pol = ExplicitPolarization.build(s=Fraction(1, 2), r=1, a=a)
            if pol.target_degree(genus).denominator != 1:
                continue
            base = compile_polarization(pol, graph)
            for m in range(2, 6):
                scaled = ExplicitPolarization.build(
                    s=pol.s * m, r=pol.r * m,
                    a={l: c * m for l, c in pol.a})
                assert compile_polarization(scaled, graph) == base


def test_is_general_bridge_canonical():
    g = bridge_g3()
    general, witnesses = is_general(
        g, compile_polarization(CanonicalPolarization.build(2), g))
    assert not general
    assert witnesses == (frozenset({"v1"}),)
    general, witnesses = is_general(
        g, compile_polarization(CanonicalPolarization.build(3), g))
    assert general and witnesses == ()


def test_is_general_theta():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    assert is_general(g, prof) == (True, ())


def test_is_general_needs_all_components():
    # four-cycle: the split into opposite pairs is integral only if every
    # connected piece is, exercising the component decomposition
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    prof = make_profile(
        g, {"a": Fraction(1), "b": Fraction(3, 2), "c": Fraction(1),
            "d": Fraction(3, 2)}, 5)
    general, witnesses = is_general(g, prof)
    assert not general
    # {a} and {c} are integral: the piece itself and the connected
    # complement both land in Z.  {a, c} is NOT integral even though both
    # of its pieces are: the complement splits into {b} and {d} with
    # q - k/2 = 1/2, so the component rule rejects it.
    assert witnesses == (frozenset({"a"}), frozenset({"c"}))


def test_twist_profile():
    g = bridge_g3()
    prof = compile_polarization(CanonicalPolarization.build(2), g)
    shifted = twist_profile(prof, {"v1": 1})
    assert shifted.q_map == {"v1": Fraction(3, 2), "v2": Fraction(3, 2)}
    assert shifted.d == 3
    assert twist_profile(shifted, {"v1": -1}) == prof


def test_perturb_identity_when_general():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    assert perturb_general(g, prof, seed=42) is prof


def test_perturb_leaves_walls():
    g = bridge_g3()
    prof = compile_polarization(CanonicalPolarization.build(2), g)
    out = perturb_general(g, prof, seed=1)
    assert is_general(g, out)[0]
    assert out.d == prof.d
    assert out == perturb_general(g, prof, seed=1)  # deterministic
    other = perturb_general(g, prof, seed=2)
    assert is_general(g, other)[0]


def test_perturb_theta_on_wall():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(3, 2), "v2": Fraction(5, 2)}, 4)
    out = perturb_general(g, prof, seed=9)
    assert is_general(g, out)[0]
    assert out.d == 4


def test_wall_predicate_is_not_general(small_corpora):
    rng = random.Random(29)
    walled = general = 0
    for genus, labels, graphs in small_corpora:
        for graph in graphs:
            profiles = [random_profile(graph, rng, denominators=denominators)
                        for denominators in ((1, 2), (1, 2, 3, 4, 6))]
            profiles += [compile_polarization(CanonicalPolarization.build(
                d, {l: 1 for l in labels}), graph) for d in (genus - 1, genus)]
            for profile in profiles:
                on_wall = _on_a_wall(graph, profile)
                general_flag, witnesses = is_general(graph, profile)
                assert on_wall == (not general_flag) == bool(witnesses)
                walled += on_wall
                general += not on_wall
    assert walled >= 100 and general >= 100, (walled, general)


def test_profile_sums_to_degree(small_corpora):
    rng = random.Random(23)
    for genus, labels, graphs in small_corpora:
        for graph in graphs:
            prof = random_profile(graph, rng)
            assert sum(prof.q_map.values()) == prof.d
            for Y in proper_subcurves(graph):
                Yc = set(graph.vertex_ids) - Y
                assert prof.q_of(Y) + prof.q_of(Yc) == prof.d
