from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (ContractionReport, MarkedDualGraph, NodeTypeLabel, PreconditionError,
                     SheafType, ValidationError, admissible_labels, are_isomorphic,
                     boundary_degree, canonical_key, clutch_irr, clutch_sep, generate_corpus,
                     is_simple, node_type, stabilize_forgetting, subcurve_invariants,
                     two_component_graph)
from jacstab.corpus import graph_from_key
from jacstab.errors import parse_int
from jacstab.graphs import (_stabilize_forgetting, designated_side, is_admissible,
                            label_sort_key, proper_subcurves, sorted_labels)
from jacstab.io import graph_document, parse_graph_document

from conftest import bridge_g3, chain_111, marked_chain, multigraphs, theta


# -- validation --------------------------------------------------------------

def test_validate_two_vertex_genus_2():
    g = MarkedDualGraph.build([("a", 1), ("b", 1)], [("a", "b")])
    assert g.genus == 2


def test_validate_rejects_unstable_point():
    with pytest.raises(ValidationError, match="unstable"):
        MarkedDualGraph.build([("a", 0)], [])


def test_validate_theta_is_stable():
    g = theta()
    assert g.genus == 2
    assert all(g.vertex_stability_margin(v) == 1 for v in g.vertex_ids)


def test_validate_rejects_disconnected():
    with pytest.raises(ValidationError, match="disconnected"):
        MarkedDualGraph.build([("a", 1), ("b", 1)], [],
                              markings={"1": "a", "2": "b"})


def test_validate_rejects_empty_graph():
    with pytest.raises(ValidationError, match="disconnected"):
        MarkedDualGraph.build([], [])


def test_validate_rejects_duplicate_marking():
    with pytest.raises(ValidationError, match="duplicate"):
        MarkedDualGraph(vertices=(("a", 1),), edges=(),
                        markings=(("1", "a"), ("1", "a"))).validate()


def test_validate_rejects_duplicate_vertex_ids():
    with pytest.raises(ValidationError) as info:
        MarkedDualGraph(vertices=(("a", 1), ("a", 1)), edges=(("a", "a"),))
    assert str(info.value) == "duplicate vertex ids"


def test_validate_reports_every_violation():
    with pytest.raises(ValidationError) as info:
        MarkedDualGraph(vertices=(("a", -1), ("a", 2)), edges=(("a", "zz"),))
    message = str(info.value)
    assert "duplicate vertex ids" in message
    assert "negative genus" in message
    assert "unknown vertex" in message


def parent_validate(self) -> "MarkedDualGraph":
    """Reference: ``MarkedDualGraph.validate`` before it became one pass,
    copied verbatim."""
    problems: list[str] = []
    ids = [v for v, _ in self.vertices]
    if not ids:
        problems.append("disconnected: graph has no vertices")
    if len(set(ids)) != len(ids):
        problems.append("duplicate vertex ids")
    known = set(ids)
    for v, g in self.vertices:
        if g < 0:
            problems.append(f"vertex {v} has negative genus {g}")
    for i, (u, v) in enumerate(self.edges):
        if u not in known or v not in known:
            problems.append(f"edge {i} references unknown vertex")
    labels = [l for l, _ in self.markings]
    if len(set(labels)) != len(labels):
        problems.append("duplicate marking label")
    for l, v in self.markings:
        if v not in known:
            problems.append(f"marking {l} placed on unknown vertex {v}")
    if self.base_vertex is not None and self.base_vertex not in known:
        problems.append(f"base vertex {self.base_vertex} is not a vertex")
    if ids and not set(u for e in self.edges for u in e) - known and not self.is_connected():
        problems.append("disconnected graph")
    if ids and self.genus < 0:
        problems.append(f"total genus {self.genus} is negative")
    if not problems:
        for v in self.vertex_ids:
            m = self.vertex_stability_margin(v)
            if m <= 0:
                problems.append(
                    f"unstable vertex {v}: 2g-2+valence+markings = {m} <= 0")
    if problems:
        raise ValidationError("; ".join(problems))
    return self


def refusal(vertices, edges, markings, base_vertex, validate=MarkedDualGraph.validate):
    """The message with which construction refuses the graph, or None."""
    with mock.patch.object(MarkedDualGraph, "validate", validate):
        try:
            MarkedDualGraph(vertices, edges, markings, base_vertex)
        except ValidationError as error:
            return str(error)
    return None


IDS, GENERA = ("a", "b", "c", "d"), (0, 1, 2, 0, 1, 0, 1, -1)


def raw_graph(b: bytes) -> tuple:
    """Fields of a graph on up to four vertices read off 19 bytes, often
    disconnected or unstable, at times with a duplicate vertex id, a negative
    genus, a duplicate label, or an edge end, a marking or a base vertex that
    is not a vertex."""
    n = b[0] % 5
    known = IDS[:n] or ("z",)
    ends = known + ("z",) if b[1] % 4 == 0 else known
    vertices = [(v, GENERA[g % 8]) for v, g in zip(IDS[:n], b[2:6])]
    if n and b[6] % 4 == 0:
        vertices.append((IDS[b[6] // 4 % n], 0))
    edges = [(ends[x % len(ends)], ends[x // 16 % len(ends)]) for x in b[8:8 + b[7] % 7]]
    markings = [("123"[x % 3], ends[x // 4 % len(ends)]) for x in b[15:15 + b[14] % 4]]
    base = None if b[18] % 4 else ends[b[18] // 4 % len(ends)]
    return tuple(vertices), tuple(edges), tuple(markings), base


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.binary(min_size=19, max_size=19).map(raw_graph))
def test_one_pass_validate_matches_parent(fields):
    assert refusal(*fields) == refusal(*fields, validate=parent_validate)


@pytest.mark.parametrize("fields,reason", [
    (((), (), (), None), "disconnected: graph has no vertices"),
    (((("a", 1), ("a", 0)), (), (), None), "duplicate vertex ids"),
    (((("a", -1), ("b", 2)), (("a", "b"),), (), None), "vertex a has negative genus -1"),
    (((("a", 1),), (("a", "z"), ("z", "a")), (), None), "edge 0 references unknown vertex; edge 1"),
    (((("a", 1),), (), (("1", "a"), ("1", "a")), None), "duplicate marking label"),
    (((("a", 1),), (), (("2", "z"), ("1", "y")), None), "marking 1 placed on unknown vertex y; marking 2"),
    (((("a", 1),), (), (), "z"), "base vertex z is not a vertex"),
    (((("a", 1), ("b", 1)), (), (), None), "disconnected graph"),
    (((("a", 0), ("b", 0), ("c", 0)), (), (), None), "total genus -2 is negative"),
    (((("a", 0), ("b", 1)), (("a", "b"),), (), None), "unstable vertex a"),
    (((("a", 1), ("b", 1)), (("b", "a"),), (("1", "b"),), "a"), None)])
def test_every_refusal_matches_parent(fields, reason):
    message = refusal(*fields)
    assert message == refusal(*fields, validate=parent_validate)
    assert message is None if reason is None else reason in message


# -- subcurve invariants ------------------------------------------------------

def test_subcurve_bridge():
    inv = subcurve_invariants(bridge_g3(), {"v1"})
    assert (inv.k, inv.w, inv.genus) == (1, 1, 1)


def test_subcurve_theta():
    inv = subcurve_invariants(theta(), {"v1"})
    assert (inv.k, inv.w, inv.genus) == (3, 1, 0)


def test_subcurve_disconnected_additive():
    inv = subcurve_invariants(chain_111(), {"v1", "v3"})
    assert inv.k == 2
    assert inv.w == 2
    assert len(inv.components) == 2


def test_subcurve_rejects_improper():
    with pytest.raises(ValidationError):
        subcurve_invariants(theta(), set())
    with pytest.raises(ValidationError):
        subcurve_invariants(theta(), {"v1", "v2"})


def test_subcurve_complement_identities(small_corpora):
    for _, _, graphs in small_corpora:
        for graph in graphs:
            two_g = 2 * graph.genus - 2
            ids = set(graph.vertex_ids)
            for Y in proper_subcurves(graph):
                a = subcurve_invariants(graph, Y)
                b = subcurve_invariants(graph, ids - Y)
                assert a.k == b.k
                assert a.w + b.w == two_g
                # additivity over components (no edge joins two components
                # of the same subset, so k splits exactly)
                parts = [subcurve_invariants(graph, c) for c in a.components]
                assert sum(p.k for p in parts) == a.k
                assert sum(p.w for p in parts) == a.w
                for p in parts:
                    assert p.w == 2 * p.genus - 2 + p.k


# -- node types ---------------------------------------------------------------

def test_node_type_theta_nonseparating():
    assert node_type(theta(), 0) is None
    assert node_type(theta(), 2) is None


def test_node_type_marked_bridge():
    g = MarkedDualGraph.build([("v1", 1), ("v2", 1)], [("v1", "v2")],
                              markings={"1": "v1", "2": "v2"})
    label = node_type(g, 0)
    assert label == NodeTypeLabel.of(1, ["1"])
    assert designated_side(g, 0) == frozenset({"v1"})


def test_node_type_smaller_genus_side():
    label = node_type(chain_111(), 1)  # edge v2-v3
    assert label == NodeTypeLabel.of(1, [])
    assert designated_side(chain_111(), 1) == frozenset({"v3"})


def test_node_type_unknown_edge():
    with pytest.raises(ValidationError, match="unknown edge"):
        node_type(theta(), 5)


@pytest.mark.parametrize("function", [node_type, designated_side])
def test_edge_index_out_of_range_is_refused(function):
    g = bridge_g3()  # one bridge: index -1 would wrap to edge 0
    for index in (-1, len(g.edges)):
        with pytest.raises(ValidationError, match=f"^unknown edge index {index}$"):
            function(g, index)


def test_node_type_self_symmetric_has_no_side():
    g = MarkedDualGraph.build([("a", 1), ("b", 1)], [("a", "b")])
    assert node_type(g, 0) == NodeTypeLabel.of(1, [])
    assert designated_side(g, 0) is None


def test_admissible_labels_exclude_unstable_and_symmetric():
    # genus 2, no markings: only the (1, {}) split would be admissible but
    # it is self-symmetric, so nothing remains
    assert admissible_labels(2, []) == ()
    # genus 3, no markings: exactly (1, {})
    assert admissible_labels(3, []) == (NodeTypeLabel.of(1, []),)
    # genus 2 with two markings: (0,{1,2}), (1,{1}), (1,{1,2})
    assert admissible_labels(2, ["1", "2"]) == (
        NodeTypeLabel.of(0, ["1", "2"]),
        NodeTypeLabel.of(1, ["1"]),
        NodeTypeLabel.of(1, ["1", "2"]),
    )


def test_admissible_labels_come_in_label_order():
    """The labels are generated in order: they equal the admissible candidates sorted
    as records, for genus <= 4 and |A| <= 5, labels of one number included."""
    for genus, n in itertools.product(range(5), range(6)):
        labels = sorted_labels(["1", "2", "10", "x", "b"][:n])
        candidates = (NodeTypeLabel(b, B) for b in range(genus + 1)
                      for size in range(n + 1) for B in itertools.combinations(labels, size))
        assert admissible_labels(genus, labels) == tuple(sorted(
            l for l in candidates if is_admissible(genus, labels, l))), (genus, labels)


class LabelSubclass(NodeTypeLabel):
    """Equal fields, another class: never equal to a label."""


def test_is_admissible_is_membership():
    """The one-label rule says what membership in the full list says, for
    every (b, B) candidate with genus <= 4 and |A| <= 5 and for keys a caller
    can build: unsorted, repeated or foreign side markings, a bool, negative,
    too large or non-int side genus (a float, a Fraction, NaN), the self-symmetric label, a list of
    markings, another class and keys that are not labels."""
    for genus, n in itertools.product(range(5), range(6)):
        labels = sorted_labels(["1", "2", "10", "x", "b"][:n])
        listed = admissible_labels(genus, labels)
        keys = [(1, labels[:1]), None, "1", LabelSubclass(1, labels[:1]),
                NodeTypeLabel(genus // 2, ()), NodeTypeLabel(1, list(labels[:1]))]
        for b in (-1, *range(genus + 2), True, False, 1.0, Fraction(1), 0.5, float("nan"), "1"):
            for size in range(n + 2):
                for B in itertools.combinations(labels + ("z",), size):
                    keys += [NodeTypeLabel(b, B), NodeTypeLabel(b, B[::-1]),
                             NodeTypeLabel(b, B + B[-1:])]
        for key in keys:
            assert is_admissible(genus, labels, key) == (key in listed), (genus, labels, key)


class CountingFloat(float):
    """A float that counts the calls of its ``__eq__``."""

    calls = 0

    def __eq__(self, other):
        CountingFloat.calls += 1
        return float.__eq__(self, other)

    __hash__ = float.__hash__


def test_is_admissible_compares_the_side_genus_once():
    """The side genus is compared with one integer at most, whatever the genus: a
    genus of 10**7 does not make it scan ``range(genus + 1)``."""
    labels = ("1", "2")
    for genus, b in itertools.product((2, 10**7), (0.5, 1.0, -1.0, 1e300, float("inf"))):
        CountingFloat.calls = 0
        answer = is_admissible(genus, labels, NodeTypeLabel(CountingFloat(b), labels))
        assert CountingFloat.calls <= 1 and answer == (b == 1.0), (genus, b)
    CountingFloat.calls = 0
    with pytest.raises(ValidationError, match="^node type label mismatch"):
        two_component_graph(10**7, labels, NodeTypeLabel(CountingFloat(0.5), labels))
    assert CountingFloat.calls <= 1


# -- boundary degrees ----------------------------------------------------------

def test_boundary_degree_single_node():
    label = NodeTypeLabel.of(1, [])
    g = bridge_g3()
    assert boundary_degree(g, {"v1"}, label) == 1
    assert boundary_degree(g, {"v2"}, label) == -1


def test_boundary_degree_chain_both_edges():
    # chain of three genus-1 vertices, no markings, total genus 3:
    # both edges are separating of type (1, {}); middle vertex sits on the
    # large side of each.
    g = chain_111()
    label = NodeTypeLabel.of(1, [])
    degrees = {v: boundary_degree(g, {v}, label) for v in g.vertex_ids}
    assert degrees == {"v1": 1, "v2": -2, "v3": 1}
    assert sum(degrees.values()) == 0


def test_boundary_degree_absent_type_is_zero():
    g = bridge_g3()
    # genus 3 admits only (1, {}) among separating types on this graph;
    # a different admissible label never occurs as an edge type
    label = NodeTypeLabel.of(1, [])
    g2 = MarkedDualGraph.build([("v1", 1), ("v2", 2)], [("v1", "v2")] * 2)
    # two parallel edges: no separating nodes at all
    assert boundary_degree(g2, {"v1"}, label) == 0
    assert boundary_degree(g, {"v1", "v2"} - {"v2"}, label) == 1


def test_boundary_degree_rejects_inadmissible():
    with pytest.raises(ValidationError, match="node type label mismatch"):
        boundary_degree(theta(), {"v1"}, NodeTypeLabel.of(1, []))  # self-symmetric for g=2


def test_boundary_degree_total_zero(small_corpora):
    for genus, labels, graphs in small_corpora:
        for graph in graphs:
            for label in admissible_labels(genus, labels):
                total = sum(boundary_degree(graph, {v}, label)
                            for v in graph.vertex_ids)
                assert total == 0


# -- forgetting a marking -------------------------------------------------------

def test_stabilize_case_a():
    g = marked_chain()
    out, vmap, report = stabilize_forgetting(g, "x")
    assert report.case == "a"
    assert vmap["v0"] is None
    assert out.vertex_ids == ("v1", "v2")
    assert out.edges[report.new_edge_index] == ("v1", "v2")
    assert out.genus == g.genus


def test_stabilize_case_a_loop():
    g = MarkedDualGraph.build(
        [("u", 1), ("v0", 0)], [("u", "v0"), ("u", "v0")],
        markings={"x": "v0"})
    out, vmap, report = stabilize_forgetting(g, "x")
    assert report.case == "a"
    assert out.edges == (("u", "u"),)
    assert out.genus == g.genus == 2


def test_stabilize_case_b():
    g = MarkedDualGraph.build([("v1", 2), ("v0", 0)], [("v1", "v0")],
                              markings={"x": "v0", "1": "v0"})
    out, vmap, report = stabilize_forgetting(g, "x")
    assert report.case == "b"
    assert report.transferred_marking == "1"
    assert vmap["v0"] == "v1"
    assert out.marking_map["1"] == "v1"
    assert out.genus == g.genus


def test_stabilize_no_contraction():
    g = MarkedDualGraph.build([("v1", 1)], [], markings={"x": "v1", "1": "v1"})
    out, vmap, report = stabilize_forgetting(g, "x")
    assert report.case is None
    assert out.marking_labels == ("1",)


def test_stabilize_rejects_missing_marking():
    with pytest.raises(ValidationError):
        stabilize_forgetting(theta(), "x")


def test_stabilize_rejects_unstable_target():
    g = MarkedDualGraph.build([("v1", 1)], [], markings={"x": "v1"})
    with pytest.raises(PreconditionError):
        stabilize_forgetting(g, "x")


def test_stabilize_preserves_genus_and_stability(small_corpora):
    for genus, labels, graphs in small_corpora:
        if not labels or 2 * genus - 2 + len(labels) - 1 <= 0:
            continue
        for graph in graphs:
            for mark in labels:
                out, _, _ = stabilize_forgetting(graph, mark)
                assert out.genus == graph.genus
                out.validate()


def test_stabilize_forgetting_is_memoized_per_graph(small_corpora):
    graphs = [g for _, _, gs in small_corpora for g in gs] \
        + [marked_chain().replace(base_vertex=v) for v in ("v0", "v1")]
    refused = 0
    for graph in graphs:
        for mark in graph.marking_labels + ("absent",):
            fresh = MarkedDualGraph(graph.vertices, graph.edges,
                                    graph.markings, graph.base_vertex)
            try:
                expected = stabilize_forgetting(fresh, mark)
            except (ValidationError, PreconditionError) as error:
                refused += 1
                for _ in range(2):  # a refusal is not remembered
                    with pytest.raises(type(error), match=re.escape(str(error))):
                        stabilize_forgetting(graph, mark)
                continue
            first = stabilize_forgetting(graph, mark)
            assert first == expected, (graph, mark)
            first[1].update(dict.fromkeys(first[1], "changed by a caller"))
            assert stabilize_forgetting(graph, mark) == expected, (graph, mark)
    assert refused > len(graphs)  # every "absent", and some 2g-2+n <= 0


def parent_stabilize_forgetting(graph: MarkedDualGraph, marking: str) -> tuple:
    """Reference: ``_stabilize_forgetting`` before it kept only its two
    contraction shapes, copied verbatim."""
    if marking not in graph.marking_map:
        raise ValidationError(f"marking {marking} not present")
    rest = [(l, v) for l, v in graph.markings if l != marking]
    if 2 * graph.genus - 2 + len(rest) <= 0:
        raise PreconditionError(
            f"forgetting {marking} leaves 2g-2+n = {2 * graph.genus - 2 + len(rest)} <= 0")
    v0 = graph.marking_map[marking]
    identity_map: dict[str, str | None] = {v: v for v in graph.vertex_ids}

    margin = graph.vertex_stability_margin(v0) - 1  # without the forgotten marking
    if margin > 0:
        return graph.replace(markings=tuple(rest)), identity_map, ContractionReport(
            case=None, edge_map=tuple((i, i) for i in range(len(graph.edges))))

    g0 = graph.genus_map[v0]
    incident = tuple(i for i, ends in enumerate(graph.edges) if v0 in ends)
    other_marks = [l for l in graph.markings_by_vertex[v0] if l != marking]
    if g0 == 0 and graph.valence_map[v0] == 2 and not other_marks:
        # case (a): fuse the two edge ends into one new edge
        ends = [next(w for w in graph.edges[e] if w != v0) for e in incident]
        target, fused, markings = None, (tuple(ends),), tuple(rest)
        report = dict(case="a", new_edge_index=len(graph.edges) - 2,
                      fused_ends=tuple(zip(incident, ends)))
    elif g0 == 0 and graph.valence_map[v0] == 1 and len(other_marks) == 1:
        # case (b): delete the tail, transfer its marking to the attachment
        target = next(w for w in graph.edges[incident[0]] if w != v0)
        fused, transferred = (), other_marks[0]
        markings = tuple((l, target if l == transferred else v) for l, v in rest)
        report = dict(case="b", transferred_marking=transferred)
    else:
        raise PreconditionError(
            f"vertex {v0} became unstable in an unexpected way (genus {g0}, "
            f"valence {graph.valence_map[v0]}, markings {other_marks})")

    # both cases delete v0 and its edges; v0 maps to the new node or the attachment
    survivors = [i for i in range(len(graph.edges)) if i not in incident]
    vmap = {**identity_map, v0: target}
    new_graph = MarkedDualGraph(
        vertices=tuple(p for p in graph.vertices if p[0] != v0),
        edges=tuple(graph.edges[i] for i in survivors) + fused, markings=markings,
        base_vertex=graph.base_vertex if graph.base_vertex != v0 else target)
    return new_graph, vmap, ContractionReport(
        removed_vertex=v0, removed_edges=incident,
        edge_map=tuple((old, new) for new, old in enumerate(survivors)), **report)


def forgettings_match_parent(graph: MarkedDualGraph) -> list:
    """Assert that the two-shape contraction and the parent's agree on every
    marking of ``graph`` and on one absent marking: the same (graph, vertex
    map, report), or the same exception class and message.  Returns the
    outcomes, each a contraction case or an exception class."""
    cases = []
    for mark in graph.marking_labels + ("absent",):
        outcomes = []
        for stabilize in (_stabilize_forgetting, parent_stabilize_forgetting):
            try:
                outcomes.append(stabilize(graph, mark))
            except Exception as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], (graph, mark)
        cases.append(outcomes[0][2].case if len(outcomes[0]) == 3 else outcomes[0][0])
    return cases


def test_two_shape_forgetting_matches_parent_on_corpora(small_corpora):
    graphs = [g for _, _, gs in small_corpora for g in gs] \
        + generate_corpus(1, ("1", "2"), 3) + generate_corpus(0, ("1", "2", "3", "4"), 3)
    cases = {case for graph in graphs for case in forgettings_match_parent(graph)}
    assert cases == {None, "a", "b", ValidationError, PreconditionError}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(multigraphs())
def test_two_shape_forgetting_matches_parent_on_multigraphs(graph):
    forgettings_match_parent(graph)


# -- the normal form -------------------------------------------------------------

def scrambled(graph: MarkedDualGraph, rng: random.Random, prefix: str = "w"
              ) -> tuple[list, list, list]:
    """Vertices, edges and markings of the graph in its vertex order, renamed
    to seeded ids whose string order differs from that order (when there are
    two vertices or more), with edge ends reversed at random and the
    markings shuffled."""
    names = [f"{prefix}{k}" for k in range(len(graph.vertices))]
    while len(names) > 1 and names == sorted(names):
        rng.shuffle(names)
    rename = dict(zip(graph.vertex_ids, names))
    edges = [(rename[u], rename[v])[::rng.choice((1, -1))] for u, v in graph.edges]
    markings = [(l, rename[v]) for l, v in graph.markings]
    rng.shuffle(markings)
    return [(rename[v], g) for v, g in graph.vertices], edges, markings


def assert_round_trip(graph: MarkedDualGraph) -> None:
    assert parse_graph_document(graph_document(graph)) == graph


def simple_types(graph: MarkedDualGraph) -> list[SheafType]:
    """The degree-0 line bundle and the simple types with one non-free edge."""
    line = SheafType.build(graph, dict.fromkeys(graph.vertex_ids, 0))
    return [sheaf for sheaf in [line] + [SheafType.build(graph, line.degrees, [e])
                                         for e in range(len(graph.edges))]
            if is_simple(graph, sheaf)]


@pytest.fixture(scope="module")
def scrambled_corpora(small_corpora):
    rng = random.Random(0)
    graphs = [g for _, _, gs in small_corpora for g in gs] \
        + generate_corpus(1, ("2", "10", "x"), 3)  # numeric and string labels
    return [MarkedDualGraph.build(*scrambled(g, rng)) for g in graphs]


def test_construction_puts_the_graph_in_normal_form(scrambled_corpora):
    rng = random.Random(1)
    for graph in scrambled_corpora:
        vertices, edges, markings = scrambled(graph, rng, prefix="u")
        built = MarkedDualGraph.build(vertices, edges, markings)
        direct = MarkedDualGraph(tuple(vertices), tuple(edges), tuple(markings))
        assert direct == built and hash(direct) == hash(built)
        order = built.vertex_index
        assert all(order[u] <= order[v] for u, v in built.edges)
        keys = [label_sort_key(l) for l in built.marking_labels]
        assert keys == sorted(keys)


def test_labels_of_one_number_sort_by_their_text():
    # parse_int reads "1", "01" and "+1" as 1 and "10" as 10; " 1" and "1_0" are text
    assert sorted_labels(["1", "01", "+1", " 1", "1_0", "10"]) \
        == ("+1", "01", "1", "10", " 1", "1_0")
    # int() reads "\u0663" as 3; parse_int does not
    assert sorted_labels(["2", "1_0", "\u0663", "9"]) == ("2", "9", "1_0", "\u0663")
    vertices, edges = [("v0", 1), ("v1", 1)], [("v0", "v1")]
    for labels in (["1", "01"], ["1_0", "10"]):
        markings = list(zip(labels, ("v0", "v1")))
        first, second = (MarkedDualGraph.build(vertices, edges, dict(items))
                         for items in (markings, markings[::-1]))
        assert first == second and are_isomorphic(first, second)
        assert node_type(first, 0) == node_type(second, 0)
        assert generate_corpus(1, labels, 2) == generate_corpus(1, labels[::-1], 2)


# signs, digits (ASCII, Arabic-Indic, fullwidth), an underscore, a space and a letter
LABEL_TEXT = st.text(st.sampled_from("+-019\u0663\uff17_ a"), min_size=1, max_size=4)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(LABEL_TEXT, unique=True, max_size=8))
def test_labels_parse_int_reads_come_first_in_numeric_order(labels):
    def number(label):
        try:
            return parse_int(label)
        except ValidationError:
            return None

    out = sorted_labels(labels)
    read = [l for l in out if number(l) is not None]
    assert out[:len(read)] == tuple(sorted(read, key=lambda l: (number(l), l)))
    assert out[len(read):] == tuple(sorted(l for l in labels if number(l) is None))


def test_forgetting_output_is_in_normal_form(scrambled_corpora):
    forgotten = 0
    for graph in scrambled_corpora:
        for mark in graph.marking_labels:
            try:
                out, _, _ = stabilize_forgetting(graph, mark)
            except PreconditionError:
                continue
            assert_round_trip(out)
            forgotten += 1
    assert forgotten > 50


def test_clutching_output_is_in_normal_form_and_simple(scrambled_corpora):
    marked = [g for g in scrambled_corpora if g.markings]
    for graph in marked:
        for sheaf in simple_types(graph):
            for x, y in itertools.permutations(graph.marking_labels, 2):
                out, pushed = clutch_irr(graph, x, y, sheaf)
                assert_round_trip(out)
                assert is_simple(out, pushed)
    rng = random.Random(2)
    for first, second in itertools.product(marked, marked[::5]):
        vertices, edges, markings = scrambled(second, rng, prefix="t")
        second = MarkedDualGraph.build(vertices, edges, [("y" + l, v) for l, v in markings])
        sheaf1, sheaf2 = simple_types(first)[-1], simple_types(second)[-1]
        for x, y in itertools.product(first.marking_labels, second.marking_labels):
            out, pushed = clutch_sep(first, x, sheaf1, second, y, sheaf2)
            assert_round_trip(out)
            assert is_simple(out, pushed)


def test_graph_from_key_is_in_normal_form(scrambled_corpora):
    for graph in scrambled_corpora:
        assert_round_trip(graph_from_key(canonical_key(graph)))
