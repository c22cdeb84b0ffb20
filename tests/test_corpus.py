from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (MarkedDualGraph, ValidationError, are_isomorphic,
                     canonical_key, generate_corpus)
from jacstab.corpus import (_canonical_form, _children, _degenerations, _ends, corpus_keys,
                            graph_from_key)
from jacstab.graphs import (adjacency_masks, label_sort_key, mask_components,
                            stabilize_forgetting)

from conftest import dumbbell, multigraphs, theta


def brute_force_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Independent oracle: explicit search over decorated bijections."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    ids1, ids2 = g1.vertex_ids, g2.vertex_ids

    def multiset(graph, names):
        out = {}
        for u, v in graph.edges:
            key = tuple(sorted((names[u], names[v])))
            out[key] = out.get(key, 0) + 1
        return out

    base = multiset(g2, {v: v for v in ids2})
    marks2 = dict(g2.markings)
    for perm in itertools.permutations(ids2):
        names = dict(zip(ids1, perm))
        if any(g1.genus_map[v] != g2.genus_map[names[v]] for v in ids1):
            continue
        if any(names[v] != marks2.get(l) for l, v in g1.markings):
            continue
        if multiset(g1, names) == base:
            return True
    return False


def test_corpus_genus1_one_marking():
    graphs = generate_corpus(1, ["1"], 1)
    assert len(graphs) == 2
    shapes = {(len(g.edges), g.vertices[0][1]) for g in graphs}
    assert shapes == {(0, 1), (1, 0)}  # smooth torus and nodal rational


def test_corpus_genus0_three_markings():
    graphs = generate_corpus(0, ["1", "2", "3"], 1)
    assert len(graphs) == 1
    assert graphs[0].edges == ()


def test_corpus_genus2_matches_hand_count():
    graphs = generate_corpus(2, [], 2)
    # 3 one-vertex types (smooth, one loop, two loops) and 4 two-vertex
    # types (bridge of two genus-1, genus-1 bridged to a looped rational,
    # theta, dumbbell)
    assert len(graphs) == 7
    assert any(are_isomorphic(g, theta()) for g in graphs)
    assert any(are_isomorphic(g, dumbbell()) for g in graphs)
    bridge11 = MarkedDualGraph.build([("a", 1), ("b", 1)], [("a", "b")])
    assert any(are_isomorphic(g, bridge11) for g in graphs)


def test_corpus_genus2_full_is_stratum_count():
    # stable genus-2 graphs have at most 2 vertices; the classical count is 7
    assert len(generate_corpus(2, [], 5)) == 7


def test_corpus_no_isomorphic_pair_and_oracle_agrees():
    graphs = generate_corpus(2, ["1"], 2)
    for g1, g2 in itertools.combinations(graphs, 2):
        assert canonical_key(g1) != canonical_key(g2)
        assert not brute_force_isomorphic(g1, g2)
    for g in graphs:
        relabeled = MarkedDualGraph.build(
            [(f"w{i}", genus) for i, (_, genus) in enumerate(reversed(g.vertices))],
            [(f"w{len(g.vertices) - 1 - g.vertex_index[u]}",
              f"w{len(g.vertices) - 1 - g.vertex_index[v]}") for u, v in g.edges],
            markings={l: f"w{len(g.vertices) - 1 - g.vertex_index[v]}"
                      for l, v in g.markings})
        assert are_isomorphic(g, relabeled)
        assert brute_force_isomorphic(g, relabeled)


def test_corpus_determinism():
    a = generate_corpus(2, [], 4)
    b = generate_corpus(2, [], 4)
    assert a == b


def test_corpus_all_valid_and_stable(small_corpora):
    for genus, labels, graphs in small_corpora:
        for g in graphs:
            assert g.genus == genus
            assert g.marking_labels == labels
            g.validate()


def test_corpus_rejects_infeasible():
    with pytest.raises(ValidationError):
        generate_corpus(0, ["1"], 2)
    with pytest.raises(ValidationError):
        generate_corpus(1, [], 3)
    with pytest.raises(ValidationError):
        generate_corpus(2, [], 0)


def brute_force_corpus(genus: int, labels, max_vertices: int) -> list[MarkedDualGraph]:
    """Independent oracle: every multiplicity matrix (loops on the diagonal)
    on every labelled genus vector, kept when connected and stable, and
    deduplicated with ``brute_force_isomorphic``."""
    classes: list[MarkedDualGraph] = []
    for n in range(1, max_vertices + 1):
        ids = [f"u{i}" for i in range(n)]
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for genera in itertools.product(range(genus + 1), repeat=n):
            edge_count = genus - sum(genera) + n - 1
            if edge_count < 0:
                continue
            for mult in itertools.product(range(edge_count + 1), repeat=len(slots)):
                if sum(mult) != edge_count:
                    continue
                edges = [(ids[i], ids[j]) for (i, j), m in zip(slots, mult)
                         for _ in range(m)]
                reached, frontier = {ids[0]}, [ids[0]]
                while frontier:
                    w = frontier.pop()
                    for a, b in edges:
                        for x, y in ((a, b), (b, a)):
                            if x == w and y not in reached:
                                reached.add(y)
                                frontier.append(y)
                if len(reached) != n:
                    continue
                for placement in itertools.product(ids, repeat=len(labels)):
                    if any(2 * g - 2 + sum(e.count(v) for e in edges)
                           + placement.count(v) <= 0 for v, g in zip(ids, genera)):
                        continue
                    graph = MarkedDualGraph.build(list(zip(ids, genera)), edges,
                                                  markings=dict(zip(labels, placement)))
                    if not any(brute_force_isomorphic(graph, c) for c in classes):
                        classes.append(graph)
    return classes


@pytest.mark.parametrize("genus,labels", [
    (1, ("1",)), (1, ("1", "2")), (2, ()), (2, ("1",)), (2, ("1", "2"))])
def test_corpus_matches_brute_force_classes(genus, labels):
    corpus = generate_corpus(genus, labels, 3)
    classes = brute_force_corpus(genus, labels, 3)
    assert len(classes) == len(corpus)
    for graph in classes:
        assert sum(brute_force_isomorphic(graph, g) for g in corpus) == 1


def test_corpus_literature_counts():
    # boundary strata of M_{0,5}, M_{1,2}, M_3 and M_4
    assert len(generate_corpus(0, ["1", "2", "3", "4", "5"], 3)) == 26
    assert len(generate_corpus(1, ["1", "2"], 2)) == 5
    assert len(generate_corpus(3, [], 4)) == 42
    assert len(generate_corpus(4, [], 6)) == 379


def test_corpus_vertex_bound_is_2g_minus_2_plus_n():
    assert generate_corpus(3, [], 5) == generate_corpus(3, [], 4)


def parent_canonical_form(genus, pairs, marks) -> tuple:
    """Reference: the all-permutations canonical form that generated corpora
    before colour refinement, copied verbatim."""
    n = len(genus)
    mult = [[0] * n for _ in range(n)]
    for i, j in pairs:
        mult[min(i, j)][max(i, j)] += 1

    best = None
    for perm in itertools.permutations(range(n)):
        position = {old: new for new, old in enumerate(perm)}
        genus_t = tuple(genus[old] for old in perm)
        if best is not None and (genus_t,) > best[:1]:
            continue
        mark_t = tuple((l, position[i]) for l, i in marks)
        adj = tuple(mult[min(perm[i], perm[j])][max(perm[i], perm[j])]
                    for i in range(n) for j in range(i, n))
        key = (genus_t, mark_t, adj)
        if best is None or key < best:
            best = key
    return (n,) + best


def parent_generate_corpus(genus, marking_labels, max_vertices):
    """Reference: the candidate loop that kept every stable candidate's
    all-permutations form, copied verbatim after the input checks."""
    labels = tuple(sorted(map(str, marking_labels), key=label_sort_key))
    seen: set[tuple] = set()
    for n in range(1, min(max_vertices, 2 * genus - 2 + len(labels)) + 1):
        everyone = (1 << n) - 1
        links = list(itertools.combinations(range(n), 2))
        for genus_vec in itertools.combinations_with_replacement(range(genus + 1), n):
            edges_total = genus - sum(genus_vec) + n - 1
            for c in range(n - 1, edges_total + 1):
                for connect in itertools.combinations_with_replacement(links, c):
                    adjacency = adjacency_masks(n, connect)
                    if next(mask_components(adjacency, everyone)) != everyone:
                        continue
                    for loops in itertools.combinations_with_replacement(
                            range(n), edges_total - c):
                        edges = connect + tuple((i, i) for i in loops)
                        for placement in itertools.product(range(n), repeat=len(labels)):
                            margin = [2 * g - 2 for g in genus_vec]
                            for i in itertools.chain(*edges, placement):
                                margin[i] += 1
                            if min(margin) <= 0:
                                continue
                            seen.add(parent_canonical_form(
                                genus_vec, edges, tuple(zip(labels, placement))))
    return [graph_from_key(key) for key in sorted(seen)]


def index_encoding(graph: MarkedDualGraph):
    """Vertex genera, edge index pairs and (label, vertex index) marks sorted
    by label: the input of ``parent_canonical_form``."""
    index = graph.vertex_index
    return ([g for _, g in graph.vertices],
            [(index[u], index[v]) for u, v in graph.edges],
            [(l, index[v]) for l, v in sorted(graph.markings,
                                              key=lambda p: label_sort_key(p[0]))])


def relabeled(graph: MarkedDualGraph, rng: random.Random) -> MarkedDualGraph:
    """The same decorated graph with shuffled vertex names, vertex order,
    edge order and edge orientations."""
    order = list(graph.vertex_ids)
    rng.shuffle(order)
    names = {v: f"w{k}" for k, v in enumerate(order)}
    edges = [(names[u], names[v]) if rng.random() < 0.5 else (names[v], names[u])
             for u, v in graph.edges]
    rng.shuffle(edges)
    return MarkedDualGraph.build([(names[v], graph.genus_map[v]) for v in order], edges,
                                 markings={l: names[v] for l, v in graph.markings})


SIX = tuple(str(i) for i in range(1, 7))


# 4 >= 2g-2+n vertices: all of M_{2,2}, M_3, M_{1,3} and M_{0,6}
@pytest.mark.parametrize("genus,labels,count", [
    (2, ("1", "2"), 75), (3, (), 42), (1, ("1", "2", "3"), 23), (0, SIX, 236)])
def test_corpus_equals_all_permutations_oracle(genus, labels, count):
    graphs = generate_corpus(genus, labels, 4)
    assert len(graphs) == count
    assert graphs == parent_generate_corpus(genus, labels, 4)


def test_complete_corpus_m23():
    graphs = generate_corpus(2, ("1", "2", "3"), 5)
    assert len(graphs) == 555
    # the oracle loop takes about 16 s on M_{2,3}, so check that each printed key
    # is the all-permutations form of its graph, and so that no two agree
    for graph in graphs:
        assert canonical_key(graph) == parent_canonical_form(*index_encoding(graph))
    assert_keys_build_their_graphs(graphs)
    assert graphs == level_oracle(2, ("1", "2", "3"), 5)


def test_key_survives_relabeling(small_corpora):
    rng = random.Random(0)
    for _, _, graphs in small_corpora:
        for graph in graphs:
            key = canonical_key(graph)
            for _ in range(3):
                other = relabeled(graph, rng)
                assert canonical_key(other) == key
                assert canonical_key(other) == parent_canonical_form(*index_encoding(other))
                assert are_isomorphic(graph, other)


def test_corpus_counts_beyond_the_oracles():
    # boundary strata of M_{0,7} (Schroeder's fourth problem, OEIS A000311)
    # and of M_{1,4}; 2g-2+n = 5 vertices reach all of both
    m07, m14 = generate_corpus(0, [str(i) for i in range(1, 8)], 5), \
        generate_corpus(1, ("1", "2", "3", "4"), 5)
    assert (len(m07), len(m14)) == (2752, 163)
    assert_keys_build_their_graphs(m07 + m14)
    assert m07 == level_oracle(0, [str(i) for i in range(1, 8)], 5)
    assert m14 == level_oracle(1, ("1", "2", "3", "4"), 5)


def assert_keys_build_their_graphs(graphs) -> None:
    """Each graph's key k gives it back, ``canonical_key(graph_from_key(k)) == k``,
    and construction keeps the edges and markings that ``graph_from_key``
    passes it, so the normal form changes nothing on corpus output."""
    passed, construct = [], MarkedDualGraph.__init__

    def recording(graph, vertices, edges, markings=(), base_vertex=None):
        passed.append((edges, markings))
        construct(graph, vertices, edges, markings, base_vertex)

    with mock.patch.object(MarkedDualGraph, "__init__", recording):
        for graph in graphs:
            key = canonical_key(graph)
            built = graph_from_key(key)
            assert built == graph and canonical_key(built) == key
            assert (built.edges, built.markings) == passed[-1]


# the largest vertex bound of every (genus, markings) of this file but
# M_{2,3}, M_{0,7} and M_{1,4}, which their own tests check
SPECS = [(0, ("1", "2", "3"), 1), (0, ("1", "2", "3", "4", "5"), 3), (0, SIX, 4),
         (1, ("1",), 3), (1, ("1", "2"), 3), (1, ("1", "2", "3"), 4), (2, (), 5),
         (2, ("1",), 3), (2, ("1", "2"), 4), (3, (), 5)]


def parent_degenerations(key: tuple, bound: int):
    """Reference: every degeneration, before the rank rule, copied verbatim."""
    n, genus, marks, adj = key
    mult = [[0] * n for _ in range(n)]
    for (i, j), m in zip(itertools.combinations_with_replacement(range(n), 2), adj):
        mult[i][j] = mult[j][i] = m
    for v in range(n):
        if genus[v]:
            looped = [row.copy() for row in mult]
            looped[v][v] += 1
            yield genus[:v] + (genus[v] - 1,) + genus[v + 1:], tuple(map(tuple, looped)), marks
    if n == bound:
        return
    labels = [l for l, _ in marks]
    for v in range(n):
        # the new vertex n takes a share of v's genus, markings, edges to each
        # neighbour and loops; a loop kept by neither half joins the two
        links = [u for u in range(n) if u != v and mult[v][u]]
        loops, degree = mult[v][v], sum(mult[v][u] for u in links)
        for gw, places, shares, (stay, move) in itertools.product(
                range(genus[v] + 1),
                itertools.product(*((v, n) if u == v else (u,) for _, u in marks)),
                itertools.product(*(range(mult[v][u] + 1) for u in links)),
                [(a, b) for a in range(loops + 1) for b in range(loops + 1 - a)]):
            join = 1 + loops - stay - move
            # each half is stable: 2 * genus + valence + markings > 2
            if min(2 * (genus[v] - gw + stay) + degree - sum(shares) + places.count(v),
                   2 * (gw + move) + sum(shares) + places.count(n)) + join <= 2:
                continue
            split = [row + [0] for row in mult] + [[0] * (n + 1)]
            for u, s in zip(links, shares):
                split[v][u] = split[u][v] = mult[v][u] - s
                split[n][u] = split[u][n] = s
            split[v][v], split[n][n] = stay, move
            split[v][n] = split[n][v] = join
            yield (genus[:v] + (genus[v] - gw,) + genus[v + 1:] + (gw,),
                   tuple(map(tuple, split)), tuple(zip(labels, places)))


def level_oracle(genus, marking_labels, max_vertices) -> list[MarkedDualGraph]:
    """Reference: the level loop that put every distinct degeneration in
    canonical form, as it stood before the rank rule, after the input checks."""
    labels = tuple(sorted(marking_labels, key=label_sort_key))
    keys, level = [], {_canonical_form([genus], [[0]], [(l, 0) for l in labels])}
    while level:
        keys += level
        level = {_canonical_form(*encoding) for encoding in
                 {encoding for key in level
                  for encoding in parent_degenerations(key, max_vertices)}}
    return [graph_from_key(key) for key in sorted(keys)]


# SPECS and M_4; M_{2,3}, M_{0,7} and M_{1,4} in their own tests
@pytest.mark.parametrize("spec", SPECS + [(4, (), 6)])
def test_corpus_equals_level_oracle(spec):
    """Keeping a degeneration only when its new edge ranks first loses no graph."""
    assert generate_corpus(*spec) == level_oracle(*spec)


def encoding(graph: MarkedDualGraph) -> tuple:
    """Vertex genera, edge multiplicity rows and (label, vertex index) marks:
    the input of ``_canonical_form`` and ``_ends``."""
    index, n = graph.vertex_index, len(graph.vertices)
    mult = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        mult[index[u]][index[v]] += 1
        if u != v:
            mult[index[v]][index[u]] += 1
    return [g for _, g in graph.vertices], mult, [(l, index[v]) for l, v in graph.markings]


def edge_ranks(genus, mult, marks) -> dict:
    """{(u, w): rank} over the vertex pairs u <= w joined by an edge."""
    ends = _ends(genus, mult)
    return {(u, w): (u == w, sorted((ends[u], ends[w])), mult[u][w])
            for u in range(len(genus)) for w in range(u, len(genus)) if mult[u][w]}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_edge_ranks_survive_relabeling(graph, rng):
    """The rank rule rests on this: isomorphic graphs have the same edge ranks."""
    assert sorted(edge_ranks(*encoding(relabeled(graph, rng))).values()) \
        == sorted(edge_ranks(*encoding(graph)).values())


def contracted(genus, mult, marks, a: int, b: int) -> tuple:
    """The canonical form of the encoding with one edge joining a <= b contracted."""
    n = len(genus)
    keep = [u for u in range(n) if u != b or a == b]
    where = [keep.index(a if u == b else u) for u in range(n)]
    new = [[0] * len(keep) for _ in keep]
    for u in range(n):
        for w in range(u, n):
            x, y = where[u], where[w]
            new[x][y] += mult[u][w]
            if x != y:
                new[y][x] += mult[u][w]
    new[where[a]][where[a]] -= 1
    merged = [genus[u] for u in keep]
    merged[where[a]] += 1 if a == b else genus[b]
    return _canonical_form(merged, new, [(l, where[w]) for l, w in marks])


# what the degeneration search serves: the unmarked specs, and the bases of the
# marked ones, which carry the first max(0, 3 - 2g) labels
BASES = sorted({(g, labels[:max(0, 3 - 2 * g)], bound) for g, labels, bound in SPECS})


def test_kept_degenerations_have_a_top_edge_that_undoes_them():
    """From each parent, the kept children are, up to isomorphism, the
    degenerations with an edge of highest rank whose contraction gives the
    parent back: the in-place rank comparisons agree with ``edge_ranks``.  M_5 within 4
    vertices adds new loops whose end ties another looped vertex in genus and valence,
    which only the loop count in ``_ends`` orders."""
    for genus, labels, bound in BASES + [(5, (), 4)]:
        for graph in generate_corpus(genus, labels, bound):
            key = canonical_key(graph)
            want = set()
            for child in parent_degenerations(key, bound):
                ranks = edge_ranks(*child)
                top = max(ranks.values())
                if any(contracted(*child, *pair) == key for pair, r in ranks.items() if r == top):
                    want.add(_canonical_form(*child))
            assert {_canonical_form(*child) for child in _degenerations(key, bound)} == want


@pytest.mark.parametrize("genus,labels,bound", [s for s in SPECS if s not in BASES])
def test_marking_step_inverts_the_forgetful_map(genus, labels, bound):
    """Forgetting the last label maps the corpus onto the smaller one, and each
    graph is among the children of its image, by ``graphs.stabilize_forgetting``."""
    *rest, last = labels
    images = {}
    for graph in generate_corpus(genus, labels, bound):
        image = canonical_key(stabilize_forgetting(graph, last)[0])
        images.setdefault(image, set()).add(canonical_key(graph))
    assert sorted(images) == corpus_keys(genus, rest, bound)
    for image, keys in images.items():
        assert keys <= {_canonical_form(*child) for child in _children(image, last)}


def test_genus0_counts_are_schroeder_numbers():
    """M_{0,n} has A000311(n - 1) strata; a tree of M_{0,n} has at most n - 2 vertices."""
    for n, count in zip(range(3, 8), (1, 4, 26, 236, 2752)):
        labels = [str(i) for i in range(1, n + 1)]
        assert len(corpus_keys(0, labels, n - 2)) == len(corpus_keys(0, labels, n + 3)) == count


def test_keys_build_their_graphs(small_corpora):
    assert_keys_build_their_graphs([g for _, _, gs in small_corpora for g in gs])
    for spec in SPECS:
        assert_keys_build_their_graphs(generate_corpus(*spec))


def star(k: int, marked: bool = False) -> MarkedDualGraph:
    """A rational centre with k genus-1 tails, the first tail marked or not:
    k twins (k - 1 when marked)."""
    return MarkedDualGraph.build([("c", 0)] + [(f"t{i}", 1) for i in range(k)],
                                 [("c", f"t{i}") for i in range(k)],
                                 markings={"1": "t0"} if marked else {})


def banana(m: int, petals: int = 0) -> MarkedDualGraph:
    """Two rational vertices joined by m edges, the second with ``petals``
    genus-1 petals, each joined to it by a double edge."""
    return MarkedDualGraph.build(
        [("a", 0), ("b", 0)] + [(f"p{i}", 1) for i in range(petals)],
        [("a", "b")] * m + [("b", f"p{i}") for i in range(petals) for _ in range(2)])


def cycle_with_tails(tails) -> MarkedDualGraph:
    """A cycle of rational vertices, the i-th with tails[i] genus-1 tails."""
    n = len(tails)
    cycle = [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    ends = [(f"c{i}", f"t{i}_{j}") for i, count in enumerate(tails) for j in range(count)]
    return MarkedDualGraph.build([(f"c{i}", 0) for i in range(n)] + [(t, 1) for _, t in ends],
                                 cycle + ends)


TWIN_HEAVY = [star(3), star(5), star(6), star(6, marked=True), banana(3), banana(5),
              banana(3, petals=2), banana(3, petals=4), cycle_with_tails((1, 1, 1)),
              cycle_with_tails((2, 2)), cycle_with_tails((2, 1, 1))]


def test_twin_heavy_keys_match_all_permutations_oracle():
    """The twin-pruned search keeps the least key where interchangeable
    tails, parallel edges and petals tie, and so does every relabelling."""
    rng = random.Random(5)
    for graph in TWIN_HEAVY:
        key = canonical_key(graph)
        assert key == parent_canonical_form(*index_encoding(graph)), graph
        for _ in range(3):
            assert canonical_key(relabeled(graph, rng)) == key, graph
    assert len({canonical_key(graph) for graph in TWIN_HEAVY}) == len(TWIN_HEAVY)


# rational cycles with unequal multiplicities and loops: vertices that tie
# for the least row in one cell without being twins, in some vertex order
TIED_NOT_TWINS = [
    MarkedDualGraph.build([(v, 0) for v in "abcd"], [
        ("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d"), ("d", "a"), ("c", "c")]),
    MarkedDualGraph.build([(v, 0) for v in "abcde"], [
        ("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e"), ("c", "c"),
        ("e", "e")])]


def test_tied_vertices_that_are_not_twins_all_branch():
    for graph in TIED_NOT_TWINS:
        key = parent_canonical_form(*index_encoding(graph))
        for order in itertools.permutations(graph.vertices):
            assert canonical_key(graph.replace(vertices=order)) == key, order
