from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import MarkedDualGraph, NodeTypeLabel, ValidationError, canonical_key
from jacstab.corpus import corpus_keys, graph_from_key
from jacstab.graphs import sorted_labels
from jacstab.io import (Text, format_rational, graph_document, key_graph_text,
                        loads_document, parse_graph_document, parse_polarization_document,
                        parse_phi_document, parse_rational,
                        parse_sheaf_document, polarization_document,
                        profile_document, sheaf_document, write_document)
from jacstab.polarization import (CanonicalPolarization, ExplicitPolarization,
                                  compile_polarization)

from conftest import bridge_g3, theta


BRIDGE_DOC = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 2}],
    "edges": [["v1", "v2"]],
    "markings": {},
}


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-1/5") == Fraction(-1, 5)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(7) == 7
    for bad in ("1/0", "a", "1.5", 2.5, True, None, [1]):
        with pytest.raises(ValidationError):
            parse_rational(bad)


def test_format_rational_reduced():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_loads_document_rejects_floats():
    with pytest.raises(ValidationError, match="floating point"):
        loads_document('{"q": 1.5}')


def test_graph_roundtrip():
    graph = parse_graph_document(BRIDGE_DOC)
    assert graph == bridge_g3()
    doc = graph_document(graph)
    assert doc["expected_genus"] == 3
    assert parse_graph_document(doc) == graph


def test_graph_document_checks_expected_genus():
    doc = dict(BRIDGE_DOC, expected_genus=5)
    with pytest.raises(ValidationError, match="expected_genus"):
        parse_graph_document(doc)


def test_graph_document_rejects_float_genus():
    doc = {"vertices": [{"id": "a", "genus": True}], "edges": []}
    with pytest.raises(ValidationError, match="integer"):
        parse_graph_document(doc)


def test_polarization_documents_roundtrip():
    graph = bridge_g3()
    explicit = ExplicitPolarization.build(
        s=Fraction(1, 2), r=3, a={},
        alpha={NodeTypeLabel.of(1, []): Fraction(-2, 7)})
    doc = polarization_document(explicit)
    assert doc["kind"] == "explicit"
    assert doc["alpha"] == [{"b": 1, "B": [], "value": "-2/7"}]
    assert parse_polarization_document(doc) == explicit

    canonical = CanonicalPolarization.build(2, {})
    cdoc = polarization_document(canonical)
    assert parse_polarization_document(cdoc) == canonical

    profile = compile_polarization(canonical, graph)
    pdoc = profile_document(profile)
    assert pdoc == {"kind": "profile", "q": {"v1": "1/2", "v2": "3/2"}, "d": 2}
    assert parse_polarization_document(pdoc, graph) == profile


def test_profile_document_needs_graph():
    with pytest.raises(ValidationError, match="graph"):
        parse_polarization_document({"kind": "profile", "q": {}, "d": 0})


def test_polarization_document_unknown_kind():
    with pytest.raises(ValidationError, match="kind"):
        parse_polarization_document({"kind": "mystery"})


def test_sheaf_document_roundtrip():
    graph = theta()
    doc = {"nonfree": [0, 2], "degrees": {"v1": 0, "v2": 0}}
    sheaf = parse_sheaf_document(doc, graph)
    assert sheaf.total_degree == 2
    assert sheaf_document(sheaf) == doc
    assert parse_sheaf_document(sheaf_document(sheaf), graph) == sheaf


def test_sheaf_document_rejects_mismatched_vertices():
    with pytest.raises(ValidationError, match="mismatch"):
        parse_sheaf_document({"degrees": {"v1": 0}}, theta())
    with pytest.raises(ValidationError, match="out of range"):
        parse_sheaf_document({"degrees": {"v1": 0, "v2": 0}, "nonfree": [9]},
                             theta())


def test_phi_document():
    table, genus, labels = parse_phi_document({
        "genus": 2,
        "markings": ["1", "2"],
        "phi": [{"b": 1, "B": ["1"], "value": "3/10"},
                {"b": 1, "B": ["1", "2"], "value": "1/2"},
                {"b": 0, "B": ["1", "2"], "value": "-1/2"}],
    })
    assert genus == 2
    assert labels == ("1", "2")
    assert table.value_map[NodeTypeLabel.of(1, ["1"])] == Fraction(3, 10)
    with pytest.raises(ValidationError, match="duplicate"):
        parse_phi_document({"genus": 2, "markings": ["1"],
                            "phi": [{"b": 1, "B": ["1"], "value": "0"},
                                    {"b": 1, "B": ["1"], "value": "1"}]})


# what the CLI writes: nested dicts with str keys, lists, tuples, strings
# (non-ASCII and control characters too), ints of any size, bools and None
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | st.text(st.characters(max_codepoint=0x1F600), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def dumped(value) -> str:
    """What ``write_document`` puts for ``value``, gathered through a list's ``append``."""
    chunks: list[str] = []
    write_document(value, chunks.append)
    return "".join(chunks)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(documents)
def test_dumps_document_is_indented_json(value):
    want = json.dumps(value, indent=2)
    assert dumped(value) == want
    # a list given as a map is read once; a Text is put as it is, here the value
    # rendered at the indentation of a list's item and of a field's list's item
    assert dumped(map(lambda item: item, [value, value])) == json.dumps([value] * 2, indent=2)
    item, field_item = (Text(want.replace("\n", "\n" + indent)) for indent in ("  ", "    "))
    assert dumped([item, 0, item]) == json.dumps([value, 0, value], indent=2)
    assert dumped({"k": map(Text, [field_item])}) == json.dumps({"k": [value]}, indent=2)
    assert dumped(map(Text, [])) == "[]"
    assert dumped({"k": map(Text, [])}) == json.dumps({"k": []}, indent=2)


def test_dumps_document_edge_cases():
    for value in ({}, [], (), "", {"a": {}, "b": [[]], "c": ()}, "\x00\n\"é😀\u2028",
                  -10 ** 30, [True, False, None, 0]):
        assert dumped(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1: "one"}, [1.5], {"a": {None: 0}},
                                   {"a": {1, 2}}])
def test_dumps_document_refuses_other_values(value):
    with pytest.raises(TypeError):
        write_document(value, [].append)


# -- graph documents written from canonical keys ------------------------------

SIX = tuple(str(i) for i in range(1, 7))
ESCAPED = ("\u00e9", 'a"b', "\\", "1", "01")  # é, a quote, a backslash, one number twice


def assert_key_texts_match(genus, labels, keys) -> None:
    """Each key's text is its graph's document as ``json.dumps(indent=2)`` writes it,
    at the top level and nested in the corpus document's list."""
    labels = sorted_labels(labels)
    for key in keys:
        want = json.dumps(graph_document(graph_from_key(key)), indent=2)
        assert key_graph_text(key, genus, labels, "\n") == want
        assert key_graph_text(key, genus, labels, "\n    ") == want.replace("\n", "\n    ")


def test_key_texts_of_the_small_corpora(small_corpora):
    for genus, labels, graphs in small_corpora:
        assert_key_texts_match(genus, labels, [canonical_key(g) for g in graphs])


# M_{0,6} and M_{2,3}; edgeless roots with and without markings; labels to escape
@pytest.mark.parametrize("genus,labels,bound", [
    (0, SIX, 4), (2, ("1", "2", "3"), 5), (3, (), 1), (0, ("1", "2", "3"), 1),
    (1, ESCAPED, 1), (1, ESCAPED, 3), (0, ESCAPED, 3)])
def test_key_texts_equal_graph_documents(genus, labels, bound):
    assert_key_texts_match(genus, labels, corpus_keys(genus, labels, bound))


def test_escaped_labels_are_written_as_json_reads_them():
    labels = sorted_labels(ESCAPED)
    root = (1, (1,), tuple((l, 0) for l in labels), (0,))  # the smooth curve
    assert root in corpus_keys(1, ESCAPED, 1)
    assert json.loads(key_graph_text(root, 1, labels, "\n")) == {
        "vertices": [{"id": "v0", "genus": 1}], "edges": [],
        "markings": dict.fromkeys(labels, "v0"), "expected_genus": 1}


# hand-made keys (vertex count, genera, marks, adjacency upper triangle) of
# graphs that are not stable, or not of the genus and markings asked for
BAD_GRAPH_KEYS = {
    "unstable-vertex": ((2, (0, 1), (), (0, 1, 0)), "unstable vertex v0: 2g-2+valence+markings"),
    "disconnected": ((2, (1, 1), (), (0, 0, 0)), "disconnected graph"),
    "negative-genus": ((1, (-1,), (), (3,)), "vertex v0 has negative genus -1"),
}


@pytest.mark.parametrize("key, message", BAD_GRAPH_KEYS.values(), ids=BAD_GRAPH_KEYS)
def test_bad_keys_are_refused_by_the_shared_rule(key, message):
    genus = sum(key[1]) + sum(key[3]) - key[0] + 1
    with pytest.raises(ValidationError, match=re.escape(message)) as caught:
        key_graph_text(key, genus, (), "\n")
    with pytest.raises(ValidationError) as built:  # validate says the same
        graph_from_key(key)
    assert str(built.value) == str(caught.value)


def test_keys_not_asked_for_are_refused():
    key = (1, (1,), (("1", 0),), (0,))
    assert isinstance(graph_from_key(key), MarkedDualGraph)
    with pytest.raises(ValidationError, match="is not of genus 2 with markings"):
        key_graph_text(key, 2, ("1",), "\n")
    with pytest.raises(ValidationError, match=re.escape("with markings ('2',)")):
        key_graph_text(key, 1, ("2",), "\n")

