"""Differential tests of the shared subcurve table and the integer kernel.

Each fast path is compared with a slow oracle written here in exact
rationals over all vertex subsets: the connected-subcurve list, the
enumeration in all three modes, the generality test and the witness of
``check``.  Connectivity (``is_connected``, ``is_simple``,
``subcurve_invariants`` and the sides of separating edges) is compared with
a set-based search written here, which shares no code with the bitmask
search of ``jacstab.graphs``; the answers ``is_simple`` keeps per graph
object are compared with the uncached ``is_connected``.  The depth-first
non-free search is compared with the filter over all edge subsets.  The walk's layout is checked
against the masks its slots hold; the walk that tests only walls is
compared with the same walk placing every connected subcurve, and
``count_components`` with the enumeration and the spanning-tree count, at
every base and at none.
The walk's shortcuts (runs from the root or its child, leaf-heavy complete
graphs, a box empty at the root) are compared with the scan of the box
filtered by ``check``.  The popcount of a non-free set against a
subcurve's ``inner`` mask is compared with a set count, and ``check``,
``enumerate_sheaves`` and ``count_components`` with verbatim copies of the
kernel that counted non-free edges by their end masks; ``check``, which
decides on the walls, equals that copy and the all-subsets check in full,
witness included, on generated trees and multigraphs.  The generality
test, a search over the exact subcurves, meets the oracle on generated
multigraphs with random and canonical profiles and on a canonical ring where
every pair is a witness; on a ring of 22 vertices with one exact wall, too
large for the oracle, it names that wall.  Inputs are the small corpora,
chorded rings, K5, K6 and generated multigraphs with loops and parallel edges.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (CanonicalPolarization, MarkedDualGraph, PreconditionError, SheafType,
                     StabilityVerdict, ValidationError, check, compile_polarization,
                     complexity, count_components, enumerate_sheaves, is_general,
                     is_simple, make_profile, node_type, perturb_general,
                     subcurve_invariants)
from jacstab.graphs import (designated_side, mask_vertices, proper_subcurves, subcurve_k,
                            subcurve_sort_key, subcurve_table, walk_layout)
from jacstab.sheaves import require_simple
from jacstab.stability import MODES, _base_of, _box_runs, _nonfree_candidates, _walk

from conftest import chorded_ring, multigraphs, random_profile, stabilized


def complete_graph(n: int) -> MarkedDualGraph:
    """K_n on rational vertices: every vertex subset is connected."""
    vertices = [(f"v{i}", 0) for i in range(n)]
    edges = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)]
    return MarkedDualGraph.build(vertices, edges)


@pytest.fixture(scope="module")
def graphs(small_corpora):
    return [g for _, _, gs in small_corpora for g in gs] + [chorded_ring()]


def components(graph, subset: frozenset[str],
               skip_edges: frozenset[int] = frozenset()) -> tuple[frozenset[str], ...]:
    """Connected components of the subgraph induced on ``subset``."""
    adj: dict[str, set[str]] = {v: set() for v in subset}
    for i, (u, v) in enumerate(graph.edges):
        if i in skip_edges or u == v:
            continue
        if u in subset and v in subset:
            adj[u].add(v)
            adj[v].add(u)
    seen: set[str] = set()
    comps = []
    for start in graph.vertex_ids:
        if start not in subset or start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            stack.extend(adj[w] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def connected_oracle(graph):
    return [Y for Y in proper_subcurves(graph)
            if len(components(graph, Y)) == 1]


def fraction_oracle(graph, profile, subcurves):
    """check() from the rational slacks deg_Y - q_Y + k_Y/2 of ``subcurves``.
    Each wall q_Y - k_Y/2 = num/den is read once per graph, with Y's vertex
    ids and inner edges, and deg_Y is compared with it as deg_Y * den vs num."""
    walls = []
    for Y in subcurves:
        wall = profile.q_of(Y) - Fraction(subcurve_k(graph, Y), 2)
        inner = frozenset(e for e, (u, v) in enumerate(graph.edges) if u in Y and v in Y)
        walls.append((Y, tuple(Y), inner, wall.numerator, wall.denominator))

    def verdict(sheaf, base):
        degrees, nonfree = sheaf.degree_map, sheaf.nonfree_edges
        equal = []
        for Y, vertices, inner, num, den in walls:
            deg = (sum(map(degrees.__getitem__, vertices)) + len(nonfree & inner)) * den
            if deg < num:
                return StabilityVerdict("unstable", None if base is None
                                        else False, tuple(sorted(Y)))
            if deg == num:
                equal.append(Y)
        return StabilityVerdict(
            "strictly_semistable" if equal else "stable",
            None if base is None else not any(base in Y for Y in equal),
            tuple(sorted(equal[0])) if equal else None)

    return verdict


def general_oracle(graph, profile):
    everything = frozenset(graph.vertex_ids)
    witnesses = set()
    for Y in proper_subcurves(graph):
        Yc = everything - Y
        pieces = components(graph, Y) + components(graph, Yc)
        if all((profile.q_of(Z) - Fraction(subcurve_k(graph, Z), 2))
               .denominator == 1 for Z in pieces):
            witnesses.add(min((Y, Yc), key=subcurve_sort_key))
    ordered = tuple(sorted(witnesses, key=subcurve_sort_key))
    return (not ordered, ordered)


def nonfree_filter(graph: MarkedDualGraph) -> list[frozenset[int]]:
    """Edge subsets whose removal keeps the graph connected (all 2^m tried)."""
    m = len(graph.edges)
    out = []
    for r in range(m + 1):
        for combo in itertools.combinations(range(m), r):
            S = frozenset(combo)
            if graph.is_connected(skip_edges=S):
                out.append(S)
    return out


def emitted_order(nonfree_sets):
    """The filter lists by size; types are emitted by sorted edge indices."""
    return sorted(nonfree_sets, key=lambda S: tuple(sorted(S)))


def vectors(window, total):
    """Integer vectors with entries in the per-vertex windows and the sum."""
    lo_tail = [sum(lo for lo, _ in window[i:]) for i in range(len(window) + 1)]
    hi_tail = [sum(hi for _, hi in window[i:]) for i in range(len(window) + 1)]

    def rec(i, remaining, prefix):
        if i == len(window):
            if remaining == 0:
                yield prefix
            return
        lo = max(window[i][0], remaining - hi_tail[i + 1])
        hi = min(window[i][1], remaining - lo_tail[i + 1])
        for value in range(lo, hi + 1):
            yield from rec(i + 1, remaining - value, prefix + (value,))

    return rec(0, total, ())


def scan(graph, verdict, base, window, nonfree_sets, total):
    """Every type in the window accepted by ``verdict``, per mode."""
    found = {mode: [] for mode in MODES}
    for S in nonfree_sets:
        for vec in vectors(window, total - len(S)):
            sheaf = SheafType(nonfree_edges=S,
                              degrees=tuple(zip(graph.vertex_ids, vec)))
            result = verdict(sheaf, base)
            if result.status == "unstable":
                continue
            found["semistable"].append(sheaf)
            if result.status == "stable":
                found["stable"].append(sheaf)
            if result.quasistable_at_base:
                found["quasistable"].append(sheaf)
    return found


def ordered(types):
    return sorted(types, key=lambda s: (tuple(sorted(s.nonfree_edges)),
                                        tuple(d for _, d in s.degrees)))


def test_connectivity_matches_set_search(graphs):
    rng = random.Random(113)
    for graph in graphs:
        everything = frozenset(graph.vertex_ids)
        m = len(graph.edges)
        edge_sets = [frozenset(c) for r in range(m + 1)
                     for c in itertools.combinations(range(m), r)]
        if len(edge_sets) > 1024:  # the ring's 4,096 subsets
            edge_sets = rng.sample(edge_sets, 1024)
        zero = tuple((v, 0) for v in graph.vertex_ids)
        for S in edge_sets:  # S = {} too, except where the ring is sampled
            assert graph.is_connected(skip_edges=S) \
                == (len(components(graph, everything, S)) == 1), (graph, S)
            assert is_simple(graph, SheafType(S, zero)) \
                == (len(components(graph, everything, S)) == 1), (graph, S)
        for Y in proper_subcurves(graph):
            assert subcurve_invariants(graph, Y).components \
                == tuple(sorted(components(graph, Y), key=sorted)), (graph, Y)
        for e, (u, v) in enumerate(graph.edges):
            sides = components(graph, everything, frozenset([e]))
            separating = u != v and len(sides) == 2
            assert (node_type(graph, e) is not None) == separating, (graph, e)
            side = designated_side(graph, e)
            assert side is None or separating and side in sides, (graph, e)


def test_connected_subcurves_match_filtered_subsets(graphs):
    for graph in graphs:
        assert [set(s.names) for s in subcurve_table(graph).subcurves] \
            == connected_oracle(graph)


def test_enumeration_matches_wide_scan(small_corpora):
    # the window is wider than any semistable degree: q_v moved by the
    # valence plus one either way
    rng = random.Random(101)
    compared = 0
    for _, _, graphs in small_corpora:
        for graph in graphs:
            if len(graph.edges) > 5:
                continue
            profile = random_profile(graph, rng, denominators=(1, 2, 3, 4))
            valence = graph.valence_map
            window = [(math.floor(profile.q_map[v]) - valence[v] - 1,
                       math.ceil(profile.q_map[v]) + valence[v] + 1)
                      for v in graph.vertex_ids]
            base = rng.choice(graph.vertex_ids)
            found = scan(graph, lambda sheaf, base: check(
                graph, profile, sheaf, base_vertex=base, all_subsets=True),
                base, window, nonfree_filter(graph), profile.d)
            for mode in MODES:
                got = enumerate_sheaves(graph, profile, mode, base_vertex=base,
                                        include_nonfree=True)
                assert got == ordered(found[mode]), (graph, profile, mode)
            compared += 1
    assert compared >= 40


def test_ring_enumeration_matches_scan():
    # ten vertices are too many for a wide window and for the all-subsets
    # check: scan the singleton bounds q_v -/+ valence/2, which every
    # semistable line bundle meets, against the connected-subset oracle
    graph = chorded_ring()
    verdicts = 0
    rng = random.Random(103)
    for denominators in ((1, 2), (3, 7)):
        profile = random_profile(graph, rng, d_range=(0, 12),
                                 denominators=denominators)
        window = [(math.ceil(profile.q_map[v] - Fraction(graph.valence_map[v], 2)),
                   math.floor(profile.q_map[v] + Fraction(graph.valence_map[v], 2)))
                  for v in graph.vertex_ids]
        oracle = fraction_oracle(graph, profile, connected_oracle(graph))
        found = scan(graph, oracle, "v3", window, [frozenset()], profile.d)
        for mode in MODES:
            got = enumerate_sheaves(graph, profile, mode, base_vertex="v3")
            assert got == ordered(found[mode]), mode
        verdicts += len(found["semistable"])
    assert verdicts > 100


def test_is_general_matches_all_subsets_definition(graphs):
    rng = random.Random(107)
    walls = 0
    exact_but_general = 0  # general, though some table subcurve is exact
    for graph in graphs:
        for denominators in ((1, 2), (1, 2, 3, 4, 6), (5, 7, 9)):
            profile = random_profile(graph, rng, denominators=denominators)
            expected = general_oracle(graph, profile)
            assert is_general(graph, profile) == expected
            walls += not expected[0]
            exact_but_general += expected[0] and any(
                exact for _, exact in profile.thresholds)
    assert walls > 20
    assert exact_but_general >= 10, exact_but_general


def test_is_general_matches_all_subsets_definition_on_multigraphs():
    # random profiles and the canonical ones of degree g - 1 and g, with weight 1 per
    # marking; some witnesses have a part (a component of one side) that is not a wall
    seen = Counter()

    @settings(derandomize=True, database=None, max_examples=70, deadline=None)
    @given(multigraphs(), st.randoms(use_true_random=False))
    def cases(graph, rng):
        weights = dict.fromkeys(graph.marking_labels, 1)
        profiles = [random_profile(graph, rng, denominators=rng.choice(((1, 2), (1, 2, 3))))]
        profiles += [compile_polarization(CanonicalPolarization.build(d, weights), graph)
                     for d in (graph.genus - 1, graph.genus)]
        table, everything = subcurve_table(graph), frozenset(graph.vertex_ids)
        walls = {frozenset(table.subcurves[j].names) for j in table.walls}
        for profile in profiles:
            expected = general_oracle(graph, profile)
            assert is_general(graph, profile) == expected, (graph, profile)
            seen["cases"] += 1
            for Y in expected[1]:
                seen["witnesses"] += 1
                seen["not walls"] += any(Z not in walls for W in (Y, everything - Y)
                                         for Z in components(graph, W))

    cases()
    assert seen["cases"] >= 200 and seen["not walls"] >= 20, seen


def ring(n: int) -> MarkedDualGraph:
    """The n-cycle of genus-1 vertices v0, ..., v(n-1): every arc is a wall."""
    return MarkedDualGraph.build([(f"v{i}", 1) for i in range(n)],
                                 [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


def test_is_general_on_a_ring_with_one_exact_wall():
    # q_v = 1 + c_v/10007 with c_0 = -c_1 and every other arc sum nonzero and far
    # below 10007: the arc {v0, v1} and its complement are the only exact subcurves
    n = 22
    graph = ring(n)
    c = [3, -3, *range(2, n - 1)]
    c.append(-sum(c))
    profile = make_profile(graph, {v: 1 + Fraction(x, 10007) for v, x in zip(graph.vertex_ids, c)},
                           n)
    assert sum(exact for _, exact in profile.thresholds) == 2
    assert is_general(graph, profile) == (False, (frozenset({"v0", "v1"}),))


def test_is_general_on_a_canonical_ring_names_every_pair():
    # degree g - 1: q_v = 1, so every arc is exact and every one of the 2^(n-1) - 1
    # complementary pairs is a witness, each side a union of arcs
    graph = ring(11)
    profile = compile_polarization(CanonicalPolarization.build(graph.genus - 1), graph)
    general, witnesses = is_general(graph, profile)
    assert (general, len(witnesses)) == (False, 2 ** 10 - 1)
    assert (general, witnesses) == general_oracle(graph, profile)


def test_check_witness_is_first_connected_violation_or_equality(graphs):
    rng = random.Random(109)
    for graph in graphs:
        subcurves = connected_oracle(graph)
        nonfree_sets = nonfree_filter(graph)[:64]
        for _ in range(6):
            profile = random_profile(graph, rng, denominators=(1, 2, 3))
            S = rng.choice(nonfree_sets)
            vec = [math.floor(profile.q_map[v]) + rng.randrange(-1, 2)
                   for v in graph.vertex_ids]
            vec[-1] += profile.d - len(S) - sum(vec)
            sheaf = SheafType(nonfree_edges=S,
                              degrees=tuple(zip(graph.vertex_ids, vec)))
            base = rng.choice((None,) + graph.vertex_ids)
            assert check(graph, profile, sheaf, base_vertex=base) \
                == fraction_oracle(graph, profile, subcurves)(sheaf, base)


def test_nonfree_search_matches_subset_filter(graphs):
    for graph in graphs:
        assert _nonfree_candidates(graph) == emitted_order(nonfree_filter(graph)), graph
    ring = chorded_ring(14, chord=5)
    got = _nonfree_candidates(ring)
    assert len(got) == 339
    assert got == emitted_order(nonfree_filter(ring))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_simplicity_memo_matches_uncached_search(graph, rng):
    """``is_simple`` keeps its answers per graph object, by non-free set.  Each
    edge subset (a sample of 256 on larger graphs) is asked twice in shuffled
    order, once as a frozenset and once as a tuple, on the graph and on a
    ``replace`` copy with its own empty memo; every answer, false ones
    included, equals the uncached ``is_connected``."""
    m = len(graph.edges)
    edge_sets = [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)]
    if len(edge_sets) > 256:
        edge_sets = rng.sample(edge_sets, 256)
    asked = edge_sets + [tuple(sorted(S)) for S in edge_sets]
    zero = tuple((v, 0) for v in graph.vertex_ids)
    copy = graph.replace()
    assert copy == graph and copy._simple == {} and copy._simple is not graph._simple
    for target in (graph, copy):
        rng.shuffle(asked)
        for S in asked:
            assert is_simple(target, SheafType(S, zero)) \
                == target.is_connected(skip_edges=frozenset(S)), (graph, S)
        assert target._simple.keys() == set(edge_sets)
        assert all(simple == target.is_connected(skip_edges=S)
                   for S, simple in target._simple.items())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(multigraphs())
def test_nonfree_search_matches_subset_filter_on_multigraphs(graph):
    assert _nonfree_candidates(graph) == emitted_order(nonfree_filter(graph))


def test_enumeration_is_emitted_sorted_and_checked(small_corpora):
    # the wide scan skips graphs with more than 5 edges; this covers all of
    # them, in the order the types are emitted without a final sort
    rng = random.Random(127)
    for _, _, graphs in small_corpora:
        for graph in graphs:
            profile = random_profile(graph, rng, denominators=(1, 2, 3, 4))
            base = rng.choice(graph.vertex_ids)
            for mode, include_nonfree in itertools.product(MODES, (False, True)):
                got = enumerate_sheaves(graph, profile, mode, base_vertex=base,
                                        include_nonfree=include_nonfree)
                assert len(set(got)) == len(got), (graph, mode)
                assert got == ordered(got), (graph, mode)
                for sheaf in got:
                    verdict = check(graph, profile, sheaf, base_vertex=base)
                    assert include_nonfree or not sheaf.nonfree_edges
                    assert {"semistable": verdict.status != "unstable",
                            "stable": verdict.status == "stable",
                            "quasistable": verdict.quasistable_at_base}[mode], \
                        (graph, sheaf, mode)


def test_complete_graph_enumeration_matches_scan():
    # on K5 every vertex subset is a subcurve, so every subset of the first
    # four vertices is a head or a prefix of one in the walk's running sums
    graph = complete_graph(5)
    oracle_subcurves = connected_oracle(graph)
    verdicts = 0
    rng = random.Random(131)
    for denominators in ((1, 2), (3, 7)):
        profile = random_profile(graph, rng, d_range=(0, 8),
                                 denominators=denominators)
        window = [(math.ceil(profile.q_map[v] - Fraction(graph.valence_map[v], 2)),
                   math.floor(profile.q_map[v] + Fraction(graph.valence_map[v], 2)))
                  for v in graph.vertex_ids]
        oracle = fraction_oracle(graph, profile, oracle_subcurves)
        found = scan(graph, oracle, "v3", window, [frozenset()], profile.d)
        for mode in MODES:
            got = enumerate_sheaves(graph, profile, mode, base_vertex="v3")
            assert got == ordered(found[mode]), mode
        verdicts += len(found["semistable"])
    assert verdicts > 100


def full_table(graph):
    """The subcurve table with every connected subcurve of two or more
    vertices placed in the walk, walls or not."""
    table = subcurve_table(graph)
    return table._replace(walk=walk_layout(len(graph.vertices), table.subcurves, [
        j for j, sub in enumerate(table.subcurves) if len(sub.members) > 1]))


def test_walk_tests_exactly_the_walls(graphs):
    dropped = 0
    for graph in graphs:  # the small corpora and the ten-vertex ring
        table = subcurve_table(graph)
        everything = frozenset(graph.vertex_ids)
        connected_rest = [len(components(graph, everything - set(sub.names))) == 1
                          for sub in table.subcurves]
        assert [*table.walls, *table.others] == sorted(table.walls) + sorted(table.others)
        assert sorted(table.walls + table.others) == list(range(len(table.subcurves)))
        assert [j in table.walls for j in range(len(table.subcurves))] == connected_rest, graph
        tested = sorted(j for level in table.walk[0] for _, js, _, parent_js in level
                        for j in js + parent_js)
        walls = [j for j, sub in enumerate(table.subcurves)
                 if len(sub.names) > 1 and connected_rest[j]]
        assert tested == walls, graph
        dropped += sum(len(sub.names) > 1 for sub in table.subcurves) - len(walls)
    assert dropped > 50, dropped


def assert_walk_layout_contract(graph):
    """The node at v - 1 reads level v: each slot it reads as set before it
    (slot 0, the box, aside) holds a mask with top vertex below v - 1, each
    parent slot the parent of a mask with top vertex v - 1, and the mask
    with what the walk adds is the side tested.  Every wall of two or more
    vertices is tested once.  The masks are rebuilt from ``spans``."""
    table = subcurve_table(graph)
    levels, spans = table.walk
    n, masks, tested = len(graph.vertices), [0], []
    for v, (span, parents) in enumerate(spans):
        assert span.start == len(masks) and len(parents) == span.stop - span.start
        assert all(parent < span.start for parent in parents), (graph, v)
        masks += [masks[parent] | 1 << v for parent in parents]
    for v, halves in enumerate(levels):
        for high, (slots, js, parents, parent_js) in enumerate(halves):
            assert slots[0] == 0 and parents[0] == -1, (graph, v)
            sides = [table.subcurves[j].mask ^ ((1 << n) - 1) * high for j in js + parent_js]
            assert all(table.subcurves[j].mask >> n - 1 == high for j in js + parent_js)
            for s, side in zip(slots[1:], sides):
                assert s == 0 or masks[s] < 1 << v >> 1, (graph, v, s)
                assert masks[s] | 1 << v == side, (graph, v, s)
            for s, side in zip(parents[1:], sides[len(js):]):
                assert 0 < v and masks[s] < 1 << v >> 1, (graph, v, s)
                assert masks[s] | 1 << v - 1 | 1 << v == side, (graph, v, s)
            tested += js + parent_js
    assert sorted(tested) == [j for j in table.walls if len(table.subcurves[j].members) > 1], graph


def test_walk_layout_contract(graphs):
    for graph in graphs + [complete_graph(6)]:
        assert_walk_layout_contract(graph)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(multigraphs(max_vertices=7))
def test_walk_layout_contract_on_multigraphs(graph):
    assert_walk_layout_contract(graph)


def test_singletons_lead_the_table(graphs):
    # the box set-up reads the degree bounds from the first n entries
    for graph in graphs + [chorded_ring(12), MarkedDualGraph.build([("v0", 2)], [])]:
        n = len(graph.vertex_ids)
        table = subcurve_table(graph)
        singletons = sorted((frozenset([v]) for v in graph.vertex_ids), key=subcurve_sort_key)
        assert [set(sub.names) for sub in table.subcurves[:n]] == singletons[:len(table.subcurves)]
        assert all(len(sub.members) > 1 for sub in table.subcurves[n:]), graph


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(multigraphs(max_vertices=7), st.data())
def test_table_names_and_shared_tables(graph, data):
    # each subcurve's names are its mask's ids, sorted; the table reads no genus
    # or marking, so a graph that differs only in those gets the same table object
    table = subcurve_table(graph)
    for sub in table.subcurves:
        assert sub.names == tuple(sorted(mask_vertices(graph.vertex_ids, sub.mask))), graph
    genera = data.draw(st.lists(st.integers(2, 4), min_size=len(graph.vertices),
                                max_size=len(graph.vertices)))
    marks = data.draw(st.dictionaries(st.sampled_from(["p", "q", "r"]),
                                      st.sampled_from(graph.vertex_ids)))
    other = MarkedDualGraph.build(zip(graph.vertex_ids, genera), graph.edges, marks)
    assert subcurve_table(other) is table, (graph, other)


def assert_walls_walk_matches_full_walk(graph, profile, base):
    walls = [enumerate_sheaves(graph, profile, mode, base_vertex=base,
                               include_nonfree=True) for mode in MODES]
    with mock.patch("jacstab.stability.subcurve_table", full_table):
        assert walls == [enumerate_sheaves(graph, profile, mode, base_vertex=base,
                                           include_nonfree=True) for mode in MODES]


def test_walls_walk_matches_full_walk_on_corpora(graphs):
    rng = random.Random(137)
    for graph in graphs[:-1]:  # the ring (191 non-free sets, 2 s) is left out
        profile = random_profile(graph, rng, denominators=(1, 2, 3))
        assert_walls_walk_matches_full_walk(graph, profile, rng.choice(graph.vertex_ids))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(multigraphs(max_vertices=7, max_edges=8), st.randoms(use_true_random=False))
def test_walls_walk_matches_full_walk_on_sparse_multigraphs(graph, rng):
    # few cycles leave many connected subcurves with a disconnected complement
    profile = random_profile(graph, rng, denominators=(1, 2, 3))
    assert_walls_walk_matches_full_walk(graph, profile, rng.choice(graph.vertex_ids))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_count_sums_the_quasistable_enumeration(graph, rng):
    profile = perturb_general(graph, random_profile(graph, rng), seed=rng.randrange(100))
    base = rng.choice(graph.vertex_ids)
    count = count_components(graph, profile, base_vertex=base)
    assert count == len(enumerate_sheaves(graph, profile, "quasistable", base_vertex=base))
    assert count == complexity(graph)
    # no wall is exact on a general profile: every base, and none, counts kappa
    assert {count_components(graph, profile, base_vertex=other)
            for other in (None,) + graph.vertex_ids} == {count}


def test_walk_matches_box_scan_where_it_cuts_short():
    # one to three vertices (the last, K3 of genus-1 vertices): the runs come
    # from the root or its child; on complete graphs most nodes are leaves
    rng = random.Random(139)
    small = [MarkedDualGraph.build([("v0", 0)], [("v0", "v0")] * 2),
             MarkedDualGraph.build([("v0", 0), ("v1", 0)], [("v0", "v1")] * 3),
             MarkedDualGraph.build([(f"v{i}", 1) for i in range(3)],
                                   [("v0", "v1"), ("v1", "v2"), ("v0", "v2")])]
    for graph in small + [complete_graph(n) for n in range(4, 7)]:
        profile = random_profile(graph, rng, d_range=(0, 6), denominators=(1, 2, 3))
        general = perturb_general(graph, profile, seed=rng.randrange(100))
        base = rng.choice(graph.vertex_ids)
        for q in (profile, general) if graph in small else (general,):
            if graph in small:  # wide enough for every non-free set
                window = [(math.floor(q.q_map[v]) - graph.valence_map[v] - 1,
                           math.ceil(q.q_map[v]) + graph.valence_map[v] + 1)
                          for v in graph.vertex_ids]
                nonfree_sets = emitted_order(nonfree_filter(graph))
            else:  # the singleton bounds of the free types
                window = [(math.ceil(q.q_map[v] - Fraction(graph.valence_map[v], 2)),
                           math.floor(q.q_map[v] + Fraction(graph.valence_map[v], 2)))
                          for v in graph.vertex_ids]
                nonfree_sets = [frozenset()]
            found = scan(graph, lambda sheaf, base: check(graph, q, sheaf, base_vertex=base),
                         base, window, nonfree_sets, q.d)
            for mode in MODES:
                assert enumerate_sheaves(graph, q, mode, base_vertex=base,
                                         include_nonfree=graph in small) \
                    == ordered(found[mode]), (graph, q, mode)
        assert count_components(graph, general, base_vertex=base) == complexity(graph)

    # S = {0, 1} leaves the stable degrees 5 at v0 and -5 at v1, which sum
    # to 0, not to the total -1: the box is empty at the root
    theta = small[1]
    profile = make_profile(theta, {"v0": Fraction(11, 2), "v1": Fraction(-9, 2)}, 1)
    runs = []
    with mock.patch("jacstab.stability._walk", wraps=_walk) as walk:
        _box_runs(theta, profile, "stable", None, True,
                  lambda S, total, prefix, lo, hi: runs.append((S, lo, hi)))
    walked = [call.args[-1].args[0] for call in walk.call_args_list]  # emit's bound S
    assert frozenset({0, 1}) in walked
    assert runs and all(lo <= hi and S != {0, 1} for S, lo, hi in runs)


def edge_subsets(graph):
    """Any set of edge indices, simple or not."""
    return st.lists(st.booleans(), min_size=len(graph.edges), max_size=len(graph.edges)).map(
        lambda bits: frozenset(e for e, bit in enumerate(bits) if bit))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(multigraphs(max_vertices=6), st.data())
def test_inner_masks_count_the_edges_inside(graph, data):
    for _ in range(4):
        S = data.draw(edge_subsets(graph))
        mask = sum(1 << e for e in S)
        for sub in subcurve_table(graph).subcurves:
            inside = {e for e in S if set(graph.edges[e]) <= set(sub.names)}
            assert (mask & sub.inner).bit_count() == len(inside), (graph, S, sub.names)


def end_mask_slack_signs(graph, profile, sheaf):
    """(Y, sign of the slack) for every connected subcurve, in integers."""
    table = subcurve_table(graph)
    degrees = [d for _, d in sheaf.degrees]
    nonfree = [table.edge_masks[e] for e in sheaf.nonfree_edges]
    for sub, (need, exact) in zip(table.subcurves, profile.thresholds):
        deg = sum(map(degrees.__getitem__, sub.members))
        if nonfree:
            deg += sum(1 for m in nonfree if m & sub.mask == m)
        yield sub.names, -1 if deg < need else int(deg > need or not exact)


def end_mask_check(graph, profile, sheaf, base_vertex=None):
    """``check`` as it was when each non-free edge was tested against every
    subcurve by its end mask: ``end_mask_slack_signs`` and its consumer,
    copied verbatim."""
    base = _base_of(graph, profile, base_vertex)
    require_simple(graph, sheaf)
    if sheaf.total_degree != profile.d:
        raise PreconditionError(
            f"degree mismatch: sheaf has total degree {sheaf.total_degree}, "
            f"profile expects {profile.d}")
    slacks = end_mask_slack_signs(graph, profile, sheaf)
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


def refusal(call):
    """(class, message) of what ``call`` raises, or None."""
    try:
        call()
    except (PreconditionError, ValidationError) as error:
        return type(error), str(error)
    return None


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False), st.data())
def test_check_matches_all_subsets_check(graph, rng, data):
    # the all-subsets oracle's witness may differ (its first subset may be
    # disconnected); the end-mask kernel's verdict is equal in full.  A set
    # S that disconnects the graph is refused alike by all three.
    profile = random_profile(graph, rng, denominators=(1, 2, 3))
    S = data.draw(st.one_of(st.sampled_from(_nonfree_candidates(graph)), edge_subsets(graph)))
    base = data.draw(st.sampled_from((None,) + graph.vertex_ids))
    degrees = [math.floor(f) + rng.randrange(-1, 2) for _, f in profile.q]
    degrees[-1] += profile.d - len(S) - sum(degrees)
    sheaf = SheafType(S, tuple(zip(graph.vertex_ids, degrees)))
    calls = [partial(check, graph, profile, sheaf, base_vertex=base),
             partial(end_mask_check, graph, profile, sheaf, base_vertex=base),
             partial(check, graph, profile, sheaf, base_vertex=base, all_subsets=True)]
    if not is_simple(graph, sheaf):
        message = (PreconditionError, f"sheaf type is not simple: removing non-free nodes "
                   f"{sorted(S)} disconnects the graph")
        assert [refusal(call) for call in calls] == [message] * 3
        return
    fast, listed, oracle = (call() for call in calls)
    assert fast == listed
    assert (fast.status, fast.quasistable_at_base) == \
        (oracle.status, oracle.quasistable_at_base)


def test_walls_first_check_matches_full_scans():
    # check decides on the walls and reads the other subcurves only for the
    # witness; end_mask_check scans every connected subcurve and the all-subsets
    # check every vertex subset.  The first violated subset is connected, as one
    # of its components, which sort before it, is violated too; so is the first
    # equality, all of whose components are equalities.  So the three agree in full.
    # Every other case checks a semistable type, so that equalities are common.
    rng = random.Random(29)
    seen, not_walls = Counter(), Counter()
    for case in range(300):
        n = rng.randrange(1, 7)
        edges = [(rng.randrange(i), i) for i in range(1, n)]  # a tree: cut vertices, bridges
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        graph = stabilized([rng.randrange(3) for _ in range(n)], edges)
        profile = random_profile(graph, rng, denominators=(1, 2))
        base = rng.choice((None,) + graph.vertex_ids)
        semistable = enumerate_sheaves(graph, profile, "semistable", include_nonfree=True) \
            if case % 2 else []
        if semistable:
            sheaf = rng.choice(semistable)
        else:
            S = rng.choice(_nonfree_candidates(graph))
            degrees = [math.floor(f) + rng.randrange(-1, 2) for _, f in profile.q]
            degrees[-1] += profile.d - len(S) - sum(degrees)
            sheaf = SheafType(S, tuple(zip(graph.vertex_ids, degrees)))
        fast = check(graph, profile, sheaf, base_vertex=base)
        assert fast == end_mask_check(graph, profile, sheaf, base_vertex=base) \
            == check(graph, profile, sheaf, base_vertex=base, all_subsets=True), (graph, sheaf)
        table = subcurve_table(graph)
        seen.update([fast.status, fast.quasistable_at_base, ("nonfree", bool(sheaf.nonfree_edges)),
                     ("loop", any(u == v for u, v in graph.edges))])
        not_walls[fast.status] += fast.witness is not None and fast.witness not in {
            table.subcurves[j].names for j in table.walls}
    assert all(seen[key] >= 50 for key in ("stable", "strictly_semistable", "unstable", None,
                                           True, False, ("nonfree", True), ("loop", True))), seen
    assert not_walls["unstable"] >= 8 and not_walls["strictly_semistable"] >= 5, not_walls


def end_mask_box_runs(graph: MarkedDualGraph, profile, mode: str,
                      base_vertex: str | None, include_nonfree: bool, emit) -> None:
    """``_box_runs`` as it was when each non-free set recomputed ``least(j)``
    from the end masks of its edges, copied verbatim."""
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

        def fill(tests, box: int, later: int, end) -> tuple:  # (slots, ends, parents, ends)
            return tests[0], [box, *map(end, tests[1])], tests[2], [-later, *map(end, tests[3])]
        bounds = [(total, total)] * n  # kept only by a lone vertex
        # the singletons lead the table; {v} and its complement bound the degree at v
        for j, (sub, (need, exact)) in enumerate(zip(table.subcurves[:n], profile.thresholds)):
            bounds[sub.members[0]] = (least(j), need - (not exact) + sub.k
                                      - sum(1 for m in nonfree if m & sub.mask))
        if all(lo <= hi for lo, hi in bounds):
            later_lo, later_hi = ([*accumulate(reversed(ends), initial=0)][-2::-1]
                                  for ends in zip(*bounds))
            # a complement's degree total - deg(Y) is at most total - least
            levels = [(fill(lows, lo, after_hi, least),
                       fill(highs, hi, after_lo, lambda j: total - least(j)))
                      for (lows, highs), (lo, hi), after_lo, after_hi
                      in zip(table.walk[0], bounds, later_lo, later_hi)]
            _walk(levels, table.walk[1], total, partial(emit, S, total))


def test_box_runs_match_end_mask_box_runs(small_corpora):
    # profiles with halves and thirds put many walls on equalities, which the
    # stable and quasistable thresholds reject; perturbed ones are counted
    rng = random.Random(149)
    compared = 0
    for _, _, graphs in small_corpora:
        for graph in graphs:
            profile = random_profile(graph, rng, denominators=(1, 2, 3))
            general = perturb_general(graph, profile, seed=rng.randrange(100))
            base = rng.choice(graph.vertex_ids)

            def results():
                return [enumerate_sheaves(graph, q, mode, base_vertex=base,
                                          include_nonfree=include_nonfree)
                        for q in (profile, general) for mode in MODES
                        for include_nonfree in (False, True)] + [
                    count_components(graph, general, base_vertex=other)
                    for other in (None, base)]
            got = results()
            with mock.patch("jacstab.stability._box_runs", end_mask_box_runs):
                assert got == results(), graph
            compared += any(any(sheaf.nonfree_edges for sheaf in found) for found in got[:-2])
    assert compared >= 30, compared
