from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacstab import (CanonicalPolarization, ExplicitPolarization,
                     MarkedDualGraph, NodeTypeLabel, PreconditionError,
                     SheafType, check, compile_polarization, complexity,
                     count_components, enumerate_sheaves, make_profile,
                     perturb_general, twist, twist_profile)

from conftest import bridge_g3, chorded_ring, dumbbell, random_profile, theta


def canonical_d2():
    return compile_polarization(CanonicalPolarization.build(2), bridge_g3())


def twisted_profile():
    pol = ExplicitPolarization.build(s=0, r=4, alpha={NodeTypeLabel.of(1, []): 1})
    return compile_polarization(pol, bridge_g3())


def test_check_bridge_canonical_two_multidegrees():
    g = bridge_g3()
    prof = canonical_d2()
    v02 = check(g, prof, SheafType.build(g, {"v1": 0, "v2": 2}))
    assert v02.status == "strictly_semistable"
    assert v02.witness == ("v1",)
    v11 = check(g, prof, SheafType.build(g, {"v1": 1, "v2": 1}))
    assert v11.status == "strictly_semistable"
    assert v11.witness == ("v2",)


def test_check_bridge_twisted_unique_multidegree():
    g = bridge_g3()
    prof = twisted_profile()
    assert check(g, prof, SheafType.build(g, {"v1": 1, "v2": 1})).status == "stable"
    bad = check(g, prof, SheafType.build(g, {"v1": 0, "v2": 2}))
    assert bad.status == "unstable"
    assert bad.witness == ("v1",)


def test_check_single_vertex_everything_stable():
    g = MarkedDualGraph.build([("v", 1)], [], markings={"1": "v"})
    prof = make_profile(g, {"v": Fraction(5)}, 5)
    verdict = check(g, prof, SheafType.build(g, {"v": 5}))
    assert verdict.status == "stable"
    assert verdict.witness is None


def test_check_quasistable_flag():
    g = bridge_g3()
    prof = canonical_d2()
    v = check(g, prof, SheafType.build(g, {"v1": 1, "v2": 1}), base_vertex="v1")
    assert v.status == "strictly_semistable"
    assert v.quasistable_at_base is True  # equality only at {v2}
    v = check(g, prof, SheafType.build(g, {"v1": 0, "v2": 2}), base_vertex="v1")
    assert v.quasistable_at_base is False


def test_check_rejects_degree_mismatch():
    g = bridge_g3()
    with pytest.raises(PreconditionError, match="degree mismatch"):
        check(g, canonical_d2(), SheafType.build(g, {"v1": 0, "v2": 0}))


def test_check_rejects_non_simple():
    g = bridge_g3()
    sheaf = SheafType.build(g, {"v1": 0, "v2": 1}, [0])
    with pytest.raises(PreconditionError, match="not simple"):
        check(g, canonical_d2(), sheaf)


def test_enumerate_theta_stable():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    out = enumerate_sheaves(g, prof, "stable")
    assert [s.degree_map for s in out] == [
        {"v1": 0, "v2": 2}, {"v1": 1, "v2": 1}, {"v1": 2, "v2": 0}]


def test_enumerate_bridge_semistable_and_quasistable():
    g = bridge_g3()
    prof = canonical_d2()
    ss = enumerate_sheaves(g, prof, "semistable")
    assert [s.degree_map for s in ss] == [{"v1": 0, "v2": 2}, {"v1": 1, "v2": 1}]
    qs = enumerate_sheaves(g, prof, "quasistable", base_vertex="v1")
    assert [s.degree_map for s in qs] == [{"v1": 1, "v2": 1}]


def test_enumerate_includes_nonfree_types():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    out = enumerate_sheaves(g, prof, "semistable", include_nonfree=True)
    assert any(s.nonfree_edges for s in out)
    for sheaf in out:
        assert sheaf.total_degree == 2
        assert check(g, prof, sheaf).status in ("stable", "strictly_semistable")


def test_enumerate_needs_base_for_quasistable():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    with pytest.raises(PreconditionError, match="base"):
        enumerate_sheaves(g, prof, "quasistable")


def test_count_components_examples():
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    assert count_components(g, prof, "v1") == 3 == complexity(g)

    tree = bridge_g3()
    tprof = compile_polarization(CanonicalPolarization.build(3), tree)
    assert count_components(tree, tprof, "v1") == 1 == complexity(tree)

    db = dumbbell()
    dprof = perturb_general(
        db, make_profile(db, {"v1": Fraction(1, 2), "v2": Fraction(3, 2)}, 2), 3)
    assert count_components(db, dprof, "v2") == 1 == complexity(db)


def test_count_components_rejects_non_general():
    g = bridge_g3()
    with pytest.raises(PreconditionError, match="not general"):
        count_components(g, canonical_d2(), "v1")


def test_count_refusal_is_short():
    # the refusal is decided on the walls and lists no subcurve: the old
    # message named every integral subcurve of this ring, 12,661 bytes
    ring = chorded_ring()
    profile = compile_polarization(CanonicalPolarization.build(ring.genus - 1), ring)
    with pytest.raises(PreconditionError, match="not general") as caught:
        count_components(ring, profile, "v0")
    assert len(str(caught.value)) < 200


def test_connected_check_equals_all_subsets(small_corpora):
    rng = random.Random(31)
    for _, _, graphs in small_corpora:
        for graph in graphs:
            prof = random_profile(graph, rng)
            for sheaf in enumerate_sheaves(graph, prof, "semistable",
                                           include_nonfree=True):
                fast = check(graph, prof, sheaf, base_vertex=graph.vertex_ids[0])
                slow = check(graph, prof, sheaf, base_vertex=graph.vertex_ids[0],
                             all_subsets=True)
                assert fast.status == slow.status
                assert fast.quasistable_at_base == slow.quasistable_at_base


def test_equality_complement_symmetry(small_corpora):
    # for line bundles, equality at Y means the complement overshoots its
    # bound by exactly k
    from fractions import Fraction as F
    from jacstab import deg_subcurve
    from jacstab.graphs import proper_subcurves, subcurve_k

    rng = random.Random(37)
    for _, _, graphs in small_corpora:
        for graph in graphs[:5]:
            prof = random_profile(graph, rng)
            for sheaf in enumerate_sheaves(graph, prof, "semistable")[:6]:
                for Y in proper_subcurves(graph):
                    Yc = set(graph.vertex_ids) - Y
                    k = subcurve_k(graph, Y)
                    slack = deg_subcurve(graph, sheaf, Y) - prof.q_of(Y) + F(k, 2)
                    co_slack = deg_subcurve(graph, sheaf, Yc) \
                        - prof.q_of(Yc) + F(k, 2)
                    assert (slack == 0) == (co_slack == k)


def test_enumeration_box_is_complete(small_corpora):
    # oracle: rescan a degree window strictly wider than anything a
    # semistable type could use and keep whatever passes check(); the
    # derived per-vertex box must not lose a single sheaf type
    import itertools as it

    rng = random.Random(47)
    compared = 0
    for _, _, graphs in small_corpora:
        for graph in graphs:
            if len(graph.vertices) > 3 or len(graph.edges) > 3:
                continue
            q = {v: Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                 for v in graph.vertex_ids}
            total = sum(q.values())
            d = total.numerator // total.denominator
            q[graph.vertex_ids[-1]] -= total - d
            prof = make_profile(graph, q, d)
            spread = max(abs(f) for f in q.values()) + len(graph.edges) + 1
            window = range(-int(spread) - 2, int(spread) + 3)
            ids = graph.vertex_ids
            wide = {"semistable": [], "stable": []}
            for r in range(len(graph.edges) + 1):
                for S in it.combinations(range(len(graph.edges)), r):
                    S = frozenset(S)
                    if not graph.is_connected(skip_edges=S):
                        continue
                    for combo in it.product(window, repeat=len(ids) - 1):
                        last = d - len(S) - sum(combo)
                        if last not in window:
                            continue
                        sheaf = SheafType(
                            nonfree_edges=S,
                            degrees=tuple(zip(ids, combo + (last,))))
                        verdict = check(graph, prof, sheaf)
                        if verdict.status == "unstable":
                            continue
                        wide["semistable"].append(sheaf)
                        if verdict.status == "stable":
                            wide["stable"].append(sheaf)
            for mode in ("semistable", "stable"):
                got = enumerate_sheaves(graph, prof, mode, include_nonfree=True)
                expected = sorted(
                    wide[mode],
                    key=lambda s: (tuple(sorted(s.nonfree_edges)),
                                   tuple(x for _, x in s.degrees)))
                assert expected == got
                compared += 1
            if compared >= 24:
                return
    assert compared >= 24


def test_count_matches_complexity_at_scale():
    # 10-vertex ring with chords: 120 spanning trees, well beyond the
    # acceptance corpus sizes
    n = 10
    vertices = [(f"v{i}", 1) for i in range(n)]
    edges = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)] \
        + [("v0", "v5"), ("v2", "v7")]
    g = MarkedDualGraph.build(vertices, edges, markings={"1": "v0"})
    prof = perturb_general(
        g, compile_polarization(CanonicalPolarization.build(g.genus - 1), g),
        seed=3)
    kappa = complexity(g)
    assert kappa == 120
    assert count_components(g, prof, "v0") == kappa


def test_twist_equivariance_of_enumeration():
    rng = random.Random(41)
    g = theta()
    prof = make_profile(g, {"v1": Fraction(11, 10), "v2": Fraction(9, 10)}, 2)
    bundle = {"v1": 2, "v2": -1}
    shifted = twist_profile(prof, bundle)
    for mode in ("semistable", "stable"):
        direct = enumerate_sheaves(g, shifted, mode, include_nonfree=True)
        moved = sorted(
            (twist(s, bundle) for s in enumerate_sheaves(
                g, prof, mode, include_nonfree=True)),
            key=lambda s: (tuple(sorted(s.nonfree_edges)),
                           tuple(d for _, d in s.degrees)))
        assert direct == moved
