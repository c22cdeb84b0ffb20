"""Every refusal, from the CLI and from the library.

Each input rule has one function: ``require_int``, ``parse_int`` and
``parse_rational`` for numbers, ``require_name`` for vertex ids and marking
labels and ``require_keys`` for maps keyed by a fixed set of ids (all in
``jacstab.errors``), ``sorted_labels`` for a collection of marking labels,
``require_marking`` for a marking looked up and ``vertex_subset`` for a set
of vertex ids (in ``jacstab.graphs``), and ``require_profile`` for a profile
paired with its graph and ``label_coefficients`` for a map keyed by node
type labels (in ``jacstab.polarization``).  The tables below run every
``raise`` the other tests leave alone.  A CLI case ends with exit 2 or 3,
one ``error:`` or ``precondition failed:`` line and empty stdout; a library
case raises the named class with the named message.  A property test
checks that the five readers of label-keyed input accept and refuse the
same labels, with one wording.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacstab import (CanonicalPolarization, ExplicitPolarization,
                     MarkedDualGraph, NodeTypeLabel, PreconditionError,
                     SheafType, ValidationError, abel_jacobi,
                     admissible_labels, boundary_degree, check, check_star,
                     clutch_irr, clutch_irr_polarization,
                     clutch_sep_polarization, compile_polarization,
                     count_components, enumerate_sheaves, forget_point,
                     forget_polarization, generate_corpus, is_general,
                     kp_translate, make_profile, maps,
                     multidegrees_equivalent, node_type, perturb_general,
                     stabilize_forgetting, subcurve_invariants, twist,
                     twist_profile, two_component_graph)
from jacstab.cli import main
from jacstab.errors import parse_int, parse_rational, require_int, require_keys
from jacstab.graphs import designated_side, require_genus
from jacstab import io as docio
from jacstab.io import polarization_document
from jacstab.maps import PhiTable

from conftest import chain_111, marked_chain, theta

THETA = {
    "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
    "edges": [["v1", "v2"], ["v1", "v2"], ["v1", "v2"]],
}
THETA_SHEAF = {"nonfree": [], "degrees": {"v1": 1, "v2": 1}}
CANONICAL_D2 = {"kind": "canonical", "d": 2, "a": {}}
# v1(1, mk 1) - v0(0, mk x) - v2(1, mk 2); genus 2
CHAIN = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v0", "genus": 0},
                 {"id": "v2", "genus": 1}],
    "edges": [["v1", "v0"], ["v0", "v2"]],
    "markings": {"1": "v1", "x": "v0", "2": "v2"},
}
CHAIN_SHEAF = {"nonfree": [], "degrees": {"v1": 1, "v0": 0, "v2": 1}}
TAIL = {"vertices": [{"id": "a", "genus": 1}], "markings": {"y": "a"}}
TAIL_SHEAF = {"degrees": {"a": 0}}
THREE_POINTED_LINE = {"vertices": [{"id": "a", "genus": 0}],
                      "markings": {"1": "a", "2": "a", "3": "a"}}


def explicit(s="1", r="1", a=None, alpha=()):
    return {"kind": "explicit", "s": s, "r": r, "a": a or {}, "alpha": list(alpha)}


def graph_doc(**fields):
    return {"vertices": [{"id": "a", "genus": 1}], **fields}


def phi_doc(phi, markings=("1", "2")):
    return {"genus": 1, "markings": list(markings), "phi": phi}


def qprofile(graph, pol):
    return ["qprofile", "--graph", graph, "--pol", pol]


def theta_check(sheaf, *extra):
    return ["check", "--graph", THETA, "--pol", CANONICAL_D2, "--sheaf", sheaf, *extra]


def clutch_sep(x, y, *pols):
    return ["clutch-sep", "--graph1", CHAIN, "--sheaf1", CHAIN_SHEAF, "--x", x,
            "--graph2", TAIL, "--sheaf2", TAIL_SHEAF, "--y", y, *pols]


def forget_with_alpha(marking):
    """Forget a marking of the chain with the inadmissible alpha label (0, {2, x})."""
    return ["forget", "--graph", CHAIN, "--sheaf", CHAIN_SHEAF, "--marking", marking,
            "--pol", explicit(s="0", alpha=[{"b": 0, "B": ["2", "x"], "value": "1"}])]


KEYS = [f"k{i:02}" for i in range(25)]  # ids whose text order is their list order
INADMISSIBLE_ALPHA = ("boundary coefficients mismatch: missing [], "
                      "unknown [NodeTypeLabel(side_genus=0, side_markings=('2', 'x'))]")

# (argv, with a JSON document in place of each file; exit code; message)
CLI_REFUSALS = {
    "graph-not-object": (["validate", "--graph", []], 2,
                         "graph document must be a JSON object"),
    "graph-no-vertices": (["validate", "--graph", {"edges": []}], 2,
                          'graph document needs a "vertices" array'),
    "vertex-no-genus": (["validate", "--graph", {"vertices": [{"id": "a"}]}], 2,
                        'each vertex needs "id" and "genus"'),
    "vertex-genus-string": (["validate", "--graph",
                             {"vertices": [{"id": "a", "genus": "1"}]}], 2,
                            "genus must be an integer, got '1'"),
    "edges-not-array": (["validate", "--graph", graph_doc(edges={})], 2,
                        '"edges" must be an array of id pairs'),
    "edge-not-pair": (["validate", "--graph", graph_doc(edges=[["a"]])], 2,
                      "edge ['a'] must be a pair of vertex ids"),
    "markings-not-object": (["validate", "--graph", graph_doc(markings=[])], 2,
                            '"markings" must map labels to vertex ids'),
    "subcurve-unknown-vertex": (["invariants", "--graph", THETA, "--subcurve", "zz"], 2,
                                "subcurve references unknown vertices: ['zz']"),
    "subcurve-repeated-vertex": (["invariants", "--graph", THETA, "--subcurve", "v1,v1"], 2,
                                 "subcurve vertex v1 repeated"),
    "pol-not-object": (qprofile(THETA, []), 2,
                       "polarization document must be a JSON object"),
    "profile-sum": (qprofile(THETA, {"kind": "profile", "q": {"v1": "1", "v2": "1"},
                                     "d": 3}), 2,
                    "profile weights sum to 2, expected d = 3"),
    "profile-unknown-vertex": (qprofile(THETA, {"kind": "profile", "d": 2,
                                                "q": {"v1": "1", "v2": "1", "v9": "0"}}),
                               2, "profile weights mismatch: missing [], unknown ['v9']"),
    "profile-float": (qprofile(THETA, {"kind": "profile", "q": {"v1": 1.5, "v2": "1/2"},
                                       "d": 2}), 2,
                      "floating point is not accepted"),
    "rank-not-positive": (qprofile(CHAIN, explicit(r="0")), 2,
                          "rank coefficient r must be positive, got 0"),
    "canonical-weight-total": (qprofile(THREE_POINTED_LINE, {"kind": "canonical", "d": -1}),
                               2, "canonical recipe needs 2g-2+sum(a) > 0, got -2"),
    "coefficient-unknown-label": (qprofile(CHAIN, explicit(a={"z": "1"})), 2,
                                  "marking coefficients mismatch: missing [], unknown ['z']"),
    "sheaf-not-object": (theta_check([]), 2, "sheaf document must be a JSON object"),
    "sheaf-no-degrees": (theta_check({"nonfree": []}), 2,
                         'sheaf document needs a "degrees" object'),
    "sheaf-nonfree-not-array": (theta_check({"degrees": {"v1": 1, "v2": 1},
                                             "nonfree": {}}), 2,
                                '"nonfree" must be an array of edge indices'),
    "sheaf-unknown-vertex": (theta_check({"degrees": {"v1": 1, "v2": 1, "v3": 0}}), 2,
                             "sheaf degrees mismatch: missing [], unknown ['v3']"),
    "sheaf-nonfree-repeated": (theta_check({"degrees": {"v1": 1, "v2": 0}, "nonfree": [0, 0]}),
                               2, "non-free edge index 0 repeated"),
    # distinct indices are told apart in one pass, so a long list is refused at once
    "sheaf-nonfree-200000": (theta_check({"degrees": {"v1": 1, "v2": 0},
                                          "nonfree": list(range(200_000))}),
                             2, "non-free edge index 3 out of range"),
    "base-not-a-vertex": (theta_check(THETA_SHEAF, "--base", "zz"), 2,
                          "base vertex zz is not a vertex"),
    "clutch-irr-unknown-marking": (["clutch-irr", "--graph", CHAIN, "--sheaf", CHAIN_SHEAF,
                                    "--x", "zz", "--y", "1"], 2, "marking zz not present"),
    "clutch-irr-same-marking": (["clutch-irr", "--graph", CHAIN, "--sheaf", CHAIN_SHEAF,
                                 "--x", "1", "--y", "1"], 2,
                                "clutching needs two distinct markings"),
    "clutch-sep-first-marking": (clutch_sep("zz", "y"), 2,
                                 "marking zz not present in the first graph"),
    "clutch-sep-second-marking": (clutch_sep("1", "zz"), 2,
                                  "marking zz not present in the second graph"),
    "clutch-sep-s-and-r": (clutch_sep("1", "y", "--pol1", explicit(a={"1": "1"}),
                                      "--pol2", explicit(r="2", a={"y": "1"})), 3,
                           "both recipes must share s and r"),
    "clutch-sep-coefficient-twice": (
        clutch_sep("1", "y", "--pol1", explicit(a={"1": "1", "z": "0"}),
                   "--pol2", explicit(a={"y": "1", "z": "0"})), 3,
        "marking coefficient z defined twice"),
    "forget-inadmissible-alpha": (forget_with_alpha("2"), 2, INADMISSIBLE_ALPHA),
    # forgetting x contracts v0, so compile_polarization reads the recipe first
    "forget-contracted-inadmissible-alpha": (forget_with_alpha("x"), 2, INADMISSIBLE_ALPHA),
    "phi-not-object": (["kp-translate", "--phi", []], 2, "phi document must be a JSON object"),
    "phi-no-markings": (["kp-translate", "--phi", phi_doc([], markings=())], 2,
                        'phi document needs a nonempty "markings" array'),
    "phi-entry-without-B": (["kp-translate", "--phi", phi_doc([{"b": 0}])], 2,
                            'node type entries need "b" and "B"'),
    "phi-B-not-array": (["kp-translate", "--phi", phi_doc([{"b": 0, "B": "12"}])], 2,
                        '"B" must be an array of marking labels'),
    # a vertex id or a marking label is a string or an integer, nothing else
    "vertex-id-null": (["validate", "--graph", {"vertices": [
        {"id": None, "genus": 1}, {"id": True, "genus": 1}, {"id": ["a"], "genus": 1}],
        "edges": [[None, True], [True, ["a"]]], "markings": {"1": ["a"]}}], 2,
        "vertex id must be a string or an integer, got None"),
    "vertex-id-bool": (["validate", "--graph", {"vertices": [{"id": True, "genus": 2}]}], 2,
                       "vertex id must be a string or an integer, got True"),
    "edge-end-list": (["validate", "--graph", graph_doc(edges=[["a", ["a"]]])], 2,
                      "edge end must be a string or an integer, got ['a']"),
    "marking-vertex-null": (["validate", "--graph", graph_doc(markings={"1": None})], 2,
                            "marking vertex must be a string or an integer, got None"),
    "base-vertex-bool": (["validate", "--graph", graph_doc(base_vertex=False)], 2,
                         "base vertex must be a string or an integer, got False"),
    "phi-marking-null": (["kp-translate", "--phi", phi_doc([], markings=(None, "1"))], 2,
                         "marking label must be a string or an integer, got None"),
    "phi-B-null": (["kp-translate", "--phi", phi_doc([{"b": 0, "B": [None], "value": "0"}])],
                   2, "marking label must be a string or an integer, got None"),
    "phi-inadmissible-entry": (
        ["kp-translate", "--phi", phi_doc([{"b": 0, "B": ["1", "2"], "value": "0"},
                                           {"b": 1, "B": ["1"], "value": "0"}])], 2,
        "phi table mismatch: missing [], "
        "unknown [NodeTypeLabel(side_genus=1, side_markings=('1',))]"),
    # 19,999 labels are missing; the one line names the first ten
    "phi-genus-10000": (["kp-translate", "--phi", {**phi_doc([]), "genus": 10000}], 2,
                        "phi table mismatch: missing 19999 keys, first 10 "
                        "[NodeTypeLabel(side_genus=0, side_markings=('1', '2')), "),
    # an integer flag is ASCII digits with an optional sign, nothing else int() reads
    "corpus-genus-arabic-digit": (["corpus", "--genus", "\u0662", "--max-vertices", "3"], 2,
                                  "malformed integer '\u0662'"),
    "corpus-max-vertices-underscore": (["corpus", "--genus", "2", "--max-vertices", "1_0"], 2,
                                       "malformed integer '1_0'"),
    "corpus-genus-space": (["corpus", "--genus", " 2", "--max-vertices", "3"], 2,
                           "malformed integer ' 2'"),
    "perturb-seed-underscore": (["perturb", "--graph", THETA, "--pol", CANONICAL_D2,
                                 "--seed", "1_0"], 2, "malformed integer '1_0'"),
    "perturb-seed-fullwidth-digit": (["perturb", "--graph", THETA, "--pol", CANONICAL_D2,
                                      "--seed", "\uff17"], 2, "malformed integer '\uff17'"),
    # and so is each side of a rational
    "profile-weight-underscore": (qprofile(THETA, {"kind": "profile", "d": 2,
                                                   "q": {"v1": "1_0", "v2": "-8"}}), 2,
                                  "malformed rational '1_0'"),
    "recipe-s-arabic-digit": (qprofile(CHAIN, explicit(s="\u0663")), 2,
                              "malformed rational '\u0663'"),
    "recipe-r-denominator-underscore": (qprofile(CHAIN, explicit(r="1/1_0")), 2,
                                        "malformed rational '1/1_0'"),
    # a refusal quotes a long value by its first 60 characters and its length
    "profile-weight-5000-digits": (qprofile(THETA, {"kind": "profile", "d": 2,
                                                    "q": {"v1": "9" * 5000, "v2": "1"}}), 2,
                                   f"malformed rational '{'9' * 59}... (5002 characters)"),
    "corpus-genus-5000-digits": (["corpus", "--genus", "9" * 5000, "--max-vertices", "1"], 2,
                                 f"malformed integer '{'9' * 59}... (5002 characters): use"),
    # 4,000 digits parse: a negative genus is refused before any graph is built
    "corpus-genus-4000-digits-negative": (["corpus", "--genus", "-" + "9" * 4000,
                                           "--max-vertices", "1"], 2,
                                          f"genus must be nonnegative, got -{'9' * 59}... "
                                          "(4001 characters)"),
    "graph-edge-long": (["validate", "--graph", graph_doc(edges=[["a"] * 1000])], 2,
                        f"edge {str(['a'] * 1000)[:60]}... (5000 characters) must be a pair"),
    # a refusal that shows a value's text, or names a key, cuts it the same way
    "recipe-r-4000-digits-negative": (qprofile(CHAIN, explicit(r="-" + "9" * 4000)), 2,
                                      f"rank coefficient r must be positive, got -{'9' * 59}... "
                                      "(4001 characters)"),
    "profile-unknown-5000-character-id": (
        qprofile(THETA, {"kind": "profile", "d": 2, "q": {"v1": "1", "v2": "1", "x" * 5000: "0"}}),
        2, f"profile weights mismatch: missing [], unknown ['{'x' * 59}... (5002 characters)]"),
    # a graph refusal quotes a vertex id or a marking label the same way, without quotes
    "graph-5000-character-id-unstable": (
        ["validate", "--graph", {"vertices": [{"id": "y" * 5000, "genus": 0}], "edges": []}], 2,
        f"unstable vertex {'y' * 60}... (5000 characters): 2g-2+valence+markings = -2 <= 0"),
    "graph-5000-character-id-negative-genus": (
        ["validate", "--graph", {"vertices": [{"id": "y" * 5000, "genus": -1}]}], 2,
        f"vertex {'y' * 60}... (5000 characters) has negative genus -1"),
    "graph-4000-digit-negative-genus": (
        ["validate", "--graph", {"vertices": [{"id": "a", "genus": -10**3999}]}], 2,
        f"vertex a has negative genus -1{'0' * 58}... (4001 characters); total genus "
        f"-1{'0' * 58}... (4001 characters) is negative"),
    "graph-marking-on-5000-character-vertex": (
        ["validate", "--graph", graph_doc(markings={"m" * 5000: "z" * 5000})], 2,
        f"marking {'m' * 60}... (5000 characters) placed on unknown vertex "
        f"{'z' * 60}... (5000 characters)"),
    "graph-5000-character-base-vertex": (
        ["validate", "--graph", graph_doc(base_vertex="b" * 5000)], 2,
        f"base vertex {'b' * 60}... (5000 characters) is not a vertex"),
    "check-5000-character-base": (theta_check(THETA_SHEAF, "--base", "b" * 5000), 2,
                                  f"base vertex {'b' * 60}... (5000 characters) is not a vertex"),
    # a key that is not a name is cut at 120 characters
    "alpha-5000-character-marking": (
        qprofile(CHAIN, explicit(s="0", alpha=[{"b": 0, "B": ["1", "x" * 5000], "value": "1"}])),
        2, "boundary coefficients mismatch: missing [], unknown [NodeTypeLabel(side_genus=0, "
        "side_markings=('1', 'xxxx"),
    # a number that a refusal computes from the caller's, a looked-up name and a repeated
    # label are cut the same way
    "check-4000-digit-degree": (
        theta_check({"degrees": {"v1": 10**3999, "v2": 1}}), 3,
        f"degree mismatch: sheaf has total degree 1{'0' * 59}... (4000 characters), "
        "profile expects 2"),
    "profile-sum-4000-digit-weight": (
        qprofile(THETA, {"kind": "profile", "d": 2, "q": {"v1": "9" * 4000, "v2": "1"}}), 2,
        f"profile weights sum to 1{'0' * 59}... (4001 characters), expected d = 2"),
    "target-degree-4000-digit-s": (
        qprofile(CHAIN, explicit(s="1" + "0" * 3999, r="3")), 2,
        f"target degree 2{'0' * 59}... (4002 characters) is not an integer for genus 2"),
    "canonical-weight-total-4000-digit-weight": (
        qprofile(THREE_POINTED_LINE, {"kind": "canonical", "d": 0, "a": {"1": "-" + "9" * 4000}}),
        2, f"canonical recipe needs 2g-2+sum(a) > 0, got -1{'0' * 58}... (4002 characters)"),
    "equiv-4000-digit-entry": (
        ["equiv", "--graph", THETA, "--d1", {"v1": 10**3999, "v2": 0},
         "--d2", {"v1": 1, "v2": 0}], 3,
        f"total degrees differ: 1{'0' * 59}... (4000 characters) vs 1"),
    "phi-repeated-label-5000-character-marking": (
        ["kp-translate", "--phi", phi_doc([{"b": 0, "B": ["1", "x" * 5000], "value": "0"}] * 2)],
        2, "duplicate phi label NodeTypeLabel(side_genus=0, side_markings=('1', "
        f"'{'x' * 71}... (5052 characters)"),
    "subcurve-unknown-5000-character-id": (
        ["invariants", "--graph", THETA, "--subcurve", "z" * 5000], 2,
        f"subcurve references unknown vertices: ['{'z' * 59}... (5002 characters)]"),
    "forget-unknown-5000-character-marking": (
        ["forget", "--graph", CHAIN, "--sheaf", CHAIN_SHEAF, "--marking", "m" * 5000], 2,
        f"marking {'m' * 60}... (5000 characters) not present"),
}


@pytest.mark.parametrize("argv, code, message", CLI_REFUSALS.values(), ids=CLI_REFUSALS)
def test_cli_refusal(tmp_path, capsys, argv, code, message):
    args = []
    for i, item in enumerate(argv):
        if not isinstance(item, str):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(item), encoding="utf-8")
            item = str(path)
        args.append(item)
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: " if code == 2 else "precondition failed: "
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 2000
    assert captured.err.startswith(prefix) and message in captured.err


def ring_111() -> MarkedDualGraph:
    """``chain_111`` closed into a triangle: same vertex ids, another graph."""
    chain = chain_111()
    return chain.replace(edges=chain.edges + (("v1", "v3"),))


def chain_profile():
    return compile_polarization(CanonicalPolarization.build(2), chain_111())


def theta_line_bundle(degrees=(1, 1)):
    return SheafType.build(theta(), dict(zip(("v1", "v2"), degrees)))


def theta_profile():
    return compile_polarization(CanonicalPolarization.build(2), theta())


def named() -> MarkedDualGraph:
    """A vertex "None" and a marking "True": what ``str(None)`` and
    ``str(True)`` would name."""
    return MarkedDualGraph.build([("None", 1), ("a", 1)], [("None", "a")],
                                 markings={"True": "a", "1": "None"})


def named_sheaf():
    return SheafType.build(named(), {"None": 0, "a": 0})


def tail_graph() -> MarkedDualGraph:
    """A rational tail v0 with markings x and 1 on a genus-1 vertex: forgetting x
    deletes the tail."""
    return MarkedDualGraph.build([("v0", 0), ("v1", 1)], [("v0", "v1")],
                                 markings={"x": "v0", "1": "v0"})


CHAIN_LABEL = admissible_labels(2, ["1", "2", "x"])[0]
CHAIN_ALPHA = ExplicitPolarization.build(s=0, r=1, alpha={CHAIN_LABEL: 1})

# (call, exception class, message)
LIBRARY_REFUSALS = {
    # a profile compiled for another graph with the same vertex ids
    "is-general-other-graph": (lambda: is_general(ring_111(), chain_profile()),
                               ValidationError, "profile was compiled for a different graph"),
    "perturb-other-graph": (lambda: perturb_general(ring_111(), chain_profile(), 0),
                            ValidationError, "profile was compiled for a different graph"),
    "count-other-graph": (lambda: count_components(ring_111(), chain_profile(), "v1"),
                          ValidationError, "profile was compiled for a different graph"),
    "check-other-graph": (lambda: check(ring_111(), chain_profile(), SheafType.build(
        ring_111(), {"v1": 1, "v2": 1, "v3": 0})), ValidationError,
        "profile was compiled for a different graph"),
    "compile-other-graph": (lambda: compile_polarization(chain_profile(), ring_111()),
                            ValidationError, "profile was compiled for a different graph"),
    # integers
    "graph-genus-fraction": (lambda: MarkedDualGraph.build([("a", 1.5)], [("a", "a")]),
                             ValidationError, "genus must be an integer, got 1.5"),
    "graph-genus-bool": (lambda: MarkedDualGraph.build([("a", True)], [("a", "a")]),
                         ValidationError, "genus must be an integer, got True"),
    "label-genus-fraction": (lambda: NodeTypeLabel.of(0.5, ["1"]), ValidationError,
                             "side genus must be an integer, got 0.5"),
    "sheaf-degree-fraction": (lambda: theta_line_bundle((0.9, 1)), ValidationError,
                              "sheaf degrees at v1 must be an integer, got 0.9"),
    "sheaf-edge-string": (lambda: SheafType.build(theta(), {"v1": 1, "v2": 0}, ["0"]),
                          ValidationError, "edge index must be an integer, got '0'"),
    "sheaf-edge-repeated": (lambda: SheafType.build(theta(), {"v1": 1, "v2": 0}, [1, 0, 1]),
                            ValidationError, "non-free edge index 1 repeated"),
    "canonical-d-fraction": (lambda: CanonicalPolarization.build(2.9), ValidationError,
                             "d must be an integer, got 2.9"),
    "profile-d-fraction": (lambda: make_profile(theta(), {"v1": 1, "v2": 1}, Fraction(2)),
                           ValidationError, "d must be an integer, got Fraction(2, 1)"),
    "twist-fraction": (lambda: twist(theta_line_bundle(), {"v1": 1.5}), ValidationError,
                       "twist at v1 must be an integer, got 1.5"),
    "twist-profile-fraction": (lambda: twist_profile(theta_profile(), {"v2": 1.5}),
                               ValidationError, "twist at v2 must be an integer, got 1.5"),
    "abel-jacobi-fraction": (lambda: abel_jacobi(marked_chain(), {"1": 1.5}),
                             ValidationError,
                             "marking weights at 1 must be an integer, got 1.5"),
    "equiv-fraction": (lambda: multidegrees_equivalent(
        theta(), {"v1": 1.5, "v2": 0}, {"v1": 1, "v2": 0}), ValidationError,
        "multidegree at v1 must be an integer, got 1.5"),
    "require-int-string": (lambda: require_int("3", "n"), ValidationError,
                           "n must be an integer, got '3'"),
    # names
    "graph-vertex-id-none": (lambda: MarkedDualGraph.build([(None, 1)], []), ValidationError,
                             "vertex id must be a string or an integer, got None"),
    "graph-edge-end-bool": (lambda: MarkedDualGraph.build([("a", 1)], [("a", True)]),
                            ValidationError, "edge end must be a string or an integer, got True"),
    "graph-marking-label-none": (lambda: MarkedDualGraph.build([("a", 1)], [], {None: "a"}),
                                 ValidationError,
                                 "marking label must be a string or an integer, got None"),
    "graph-marking-vertex-tuple": (lambda: MarkedDualGraph.build([("a", 1)], [], {"1": ("a",)}),
                                   ValidationError,
                                   "marking vertex must be a string or an integer, got ('a',)"),
    "graph-base-vertex-float": (lambda: MarkedDualGraph.build([("a", 1)], [], base_vertex=1.0),
                                ValidationError,
                                "base vertex must be a string or an integer, got 1.0"),
    "label-marking-bool": (lambda: NodeTypeLabel.of(0, ["1", True]), ValidationError,
                           "marking label must be a string or an integer, got True"),
    "admissible-marking-none": (lambda: admissible_labels(1, [None, "1"]), ValidationError,
                                "marking label must be a string or an integer, got None"),
    "corpus-marking-none": (lambda: generate_corpus(1, ["1", None], 2), ValidationError,
                            "marking label must be a string or an integer, got None"),
    "forget-marking-label-none": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), "x", genus=1, marking_labels=["x", None]),
        ValidationError, "marking label must be a string or an integer, got None"),
    # a name argument that looks something up follows the same rule
    "subcurve-vertex-none": (lambda: subcurve_invariants(named(), [None]), ValidationError,
                             "vertex id must be a string or an integer, got None"),
    "q-of-vertex-none": (lambda: make_profile(named(), {"None": 1, "a": 0}, 1).q_of([None]),
                         ValidationError, "vertex id must be a string or an integer, got None"),
    "stabilize-marking-bool": (lambda: stabilize_forgetting(named(), True), ValidationError,
                               "marking label must be a string or an integer, got True"),
    "forget-point-marking-bool": (lambda: forget_point(named(), True, named_sheaf()),
                                  ValidationError,
                                  "marking label must be a string or an integer, got True"),
    "check-star-marking-bool": (lambda: check_star(CanonicalPolarization.build(1), named(), True),
                                ValidationError,
                                "marking label must be a string or an integer, got True"),
    "forget-pol-marking-bool": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), True, genus=2, marking_labels=["True", "1"]),
        ValidationError, "marking label must be a string or an integer, got True"),
    "clutch-irr-marking-bool": (lambda: clutch_irr(named(), True, "1", named_sheaf()),
                                ValidationError,
                                "marking label must be a string or an integer, got True"),
    "clutch-sep-marking-bool": (lambda: maps.clutch_sep(
        named(), True, named_sheaf(), named(), "1", named_sheaf()), ValidationError,
        "marking label must be a string or an integer, got True"),
    "clutch-irr-pol-marking-bool": (lambda: clutch_irr_polarization(
        ExplicitPolarization.build(s=0, r=1, a={"True": 0, "1": 0}), True, "1"),
        ValidationError, "marking label must be a string or an integer, got True"),
    "explicit-marking-label-none": (lambda: ExplicitPolarization.build(
        s=0, r=1, a={None: 0, True: 1}), ValidationError,
        "marking label must be a string or an integer, got None"),
    "explicit-marking-label-bool": (lambda: ExplicitPolarization.build(s=0, r=1, a={True: 1}),
                                    ValidationError,
                                    "marking label must be a string or an integer, got True"),
    "canonical-marking-label-none": (lambda: CanonicalPolarization.build(2, a={None: 1}),
                                     ValidationError,
                                     "marking label must be a string or an integer, got None"),
    "clutch-sep-pol-marking-none": (lambda: clutch_sep_polarization(
        ExplicitPolarization.build(s=0, r=1, a={"None": 0}), None,
        ExplicitPolarization.build(s=0, r=1, a={"1": 0}), "1"), ValidationError,
        "marking label must be a string or an integer, got None"),
    # the genus is read whether or not the recipe has boundary coefficients
    "forget-genus-junk": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), "x", genus="junk", marking_labels=["x", "1"]),
        ValidationError, "genus must be an integer, got 'junk'"),
    "forget-genus-none": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), "x", genus=None, marking_labels=["x", "1"]),
        ValidationError, "genus must be an integer, got None"),
    # genus and vertex bounds
    "corpus-genus-bool": (lambda: generate_corpus(True, ["1"], 2), ValidationError,
                          "genus must be an integer, got True"),
    "corpus-max-vertices-fraction": (lambda: generate_corpus(2, [], 2.5), ValidationError,
                                     "max_vertices must be an integer, got 2.5"),
    "corpus-genus-fraction": (lambda: generate_corpus(1.5, ["1"], 2), ValidationError,
                              "genus must be an integer, got 1.5"),
    "admissible-genus-fraction": (lambda: admissible_labels(1.5, ["1", "2"]),
                                  ValidationError, "genus must be an integer, got 1.5"),
    "kp-translate-genus-fraction": (lambda: kp_translate(PhiTable.build({}), 1.5, ["1", "2"]),
                                    ValidationError, "genus must be an integer, got 1.5"),
    "two-component-genus-fraction": (lambda: two_component_graph(
        1.5, ["1", "2"], NodeTypeLabel.of(0, ["1", "2"])), ValidationError,
        "genus must be an integer, got 1.5"),
    "admissible-negative-genus": (lambda: admissible_labels(-1, ["1", "2"]), ValidationError,
                                  "genus must be nonnegative, got -1"),
    # rationals
    "explicit-s-float": (lambda: ExplicitPolarization.build(s=0.1, r=1), ValidationError,
                         "floating point is not accepted"),
    "explicit-coefficient-float": (lambda: ExplicitPolarization.build(s=0, r=1, a={"1": 0.5}),
                                   ValidationError, "floating point is not accepted"),
    "canonical-coefficient-list": (lambda: CanonicalPolarization.build(2, a={"1": [1]}),
                                   ValidationError, "expected a rational string, got [1]"),
    "phi-value-float": (lambda: PhiTable.build({CHAIN_LABEL: 0.5}), ValidationError,
                        "floating point is not accepted"),
    "rational-zero-denominator": (lambda: parse_rational("1/0"), ValidationError,
                                  "zero denominator in '1/0'"),
    # maps keyed by the vertex ids (or the marking labels)
    "sheaf-missing-vertex": (lambda: SheafType.build(theta(), {"v1": 1}), ValidationError,
                             "sheaf degrees mismatch: missing ['v2'], unknown []"),
    "sheaf-unknown-vertex": (lambda: SheafType.build(theta(), {"v1": 1, "v2": 1, "v3": 0}),
                             ValidationError,
                             "sheaf degrees mismatch: missing [], unknown ['v3']"),
    "profile-missing-vertex": (lambda: make_profile(theta(), {"v1": 2}, 2), ValidationError,
                               "profile weights mismatch: missing ['v2'], unknown []"),
    "twist-unknown-vertex": (lambda: twist(theta_line_bundle(), {"v3": 1}), ValidationError,
                             "twist mismatch: missing [], unknown ['v3']"),
    "twist-profile-unknown-vertex": (lambda: twist_profile(theta_profile(), {3: 1}),
                                     ValidationError, "twist mismatch: missing [], unknown [3]"),
    "abel-jacobi-unknown-marking": (lambda: abel_jacobi(marked_chain(), {"z": 1}),
                                    ValidationError,
                                    "marking weights mismatch: missing [], unknown ['z']"),
    "equiv-missing-vertex": (lambda: multidegrees_equivalent(
        theta(), {"v1": 2}, {"v1": 1, "v2": 1}), ValidationError,
        "multidegree mismatch: missing ['v2'], unknown []"),
    "twist-not-a-map": (lambda: twist(theta_line_bundle(), [("v1", 1)]), ValidationError,
                        "twist must be a map, got [('v1', 1)]"),
    "require-keys-mixed": (lambda: require_keys(("a",), {"a": 0, 1: 0, "b": 0}, "map"),
                           ValidationError, "map mismatch: missing [], unknown [1, 'b']"),
    # ten keys or fewer are all named; past ten, their count and the first ten
    "require-keys-ten-missing": (lambda: require_keys(KEYS[:10], {"z": 0}, "map"),
                                 ValidationError, f"map mismatch: missing {KEYS[:10]}, "
                                                  "unknown ['z']"),
    "require-keys-25-missing": (lambda: require_keys(KEYS, {}, "map"), ValidationError,
                                f"map mismatch: missing 25 keys, first 10 {KEYS[:10]}, "
                                "unknown []"),
    "require-keys-24-unknown": (
        lambda: require_keys(KEYS[:1], dict.fromkeys(KEYS[::-1], 0), "map"), ValidationError,
        f"map mismatch: missing [], unknown 24 keys, first 10 {KEYS[1:11]}"),
    # marking labels come as a collection: a bare string is not split into its characters
    "corpus-labels-string": (lambda: generate_corpus(1, "ab", 2), ValidationError,
                             "marking labels must be a list of names, got 'ab'"),
    "label-markings-string": (lambda: NodeTypeLabel.of(1, "pq"), ValidationError,
                              "marking labels must be a list of names, got 'pq'"),
    "forget-labels-string": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), "x", genus=1, marking_labels="x1"),
        ValidationError, "marking labels must be a list of names, got 'x1'"),
    "admissible-labels-bytes": (lambda: admissible_labels(1, b"12"), ValidationError,
                                "marking labels must be a list of names, got b'12'"),
    "corpus-labels-int": (lambda: generate_corpus(1, 5, 2), ValidationError,
                          "marking labels must be a list of names, got 5"),
    "kp-translate-labels-none": (lambda: kp_translate(PhiTable.build({}), 1, None),
                                 ValidationError,
                                 "marking labels must be a list of names, got None"),
    # integers written as text: ASCII digits with an optional sign
    "parse-int-underscore": (lambda: parse_int("1_0"), ValidationError,
                             "malformed integer '1_0'"),
    "parse-int-arabic-digit": (lambda: parse_int("\u0663"), ValidationError,
                               "malformed integer '\u0663'"),
    "parse-int-space": (lambda: parse_int("3 "), ValidationError, "malformed integer '3 '"),
    "parse-int-not-text": (lambda: parse_int(3), ValidationError, "malformed integer 3"),
    "rational-underscore": (lambda: parse_rational("1_0"), ValidationError,
                            "malformed rational '1_0'"),
    "rational-arabic-digit": (lambda: parse_rational("\u0663"), ValidationError,
                              "malformed rational '\u0663'"),
    "rational-denominator-arabic-digit": (lambda: parse_rational("1/\u0663"), ValidationError,
                                          "malformed rational '1/\u0663'"),
    "explicit-s-underscore": (lambda: ExplicitPolarization.build(s="1_0", r=1),
                              ValidationError, "malformed rational '1_0'"),
    # duplicate marking labels
    "admissible-duplicate-labels": (lambda: admissible_labels(0, ["1", "1", "2", "3"]),
                                    ValidationError, "duplicate marking labels"),
    "kp-translate-duplicate-labels": (lambda: kp_translate(PhiTable.build({}), 1, ["1", "1"]),
                                      ValidationError, "duplicate marking labels"),
    "two-component-duplicate-labels": (lambda: two_component_graph(
        1, ["1", "2", "2"], NodeTypeLabel.of(0, ["1", "2"])), ValidationError,
        "duplicate marking labels"),
    "forget-duplicate-labels": (lambda: forget_polarization(CHAIN_ALPHA, "2", genus=2,
                                                            marking_labels=["1", "2", "2"]),
                                ValidationError, "duplicate marking labels"),
    # marking coefficients keyed 1 and "1": one label once read, so refused
    "explicit-duplicate-coefficient-labels": (lambda: ExplicitPolarization.build(
        s=0, r=1, a={1: 0, "1": 5}), ValidationError, "duplicate marking labels"),
    "canonical-duplicate-coefficient-labels": (lambda: CanonicalPolarization.build(
        2, a={1: 1, "1": 3}), ValidationError, "duplicate marking labels"),
    # the rest of the library refusals
    # side markings out of order or repeated name no label, so are refused
    "alpha-unsorted-side-markings": (lambda: compile_polarization(ExplicitPolarization.build(
        s=0, r=1, alpha={NodeTypeLabel(1, ("x", "1")): 1}), marked_chain()), ValidationError,
        "boundary coefficients mismatch: missing [], "
        "unknown [NodeTypeLabel(side_genus=1, side_markings=('x', '1'))]"),
    "alpha-repeated-side-markings": (lambda: compile_polarization(ExplicitPolarization.build(
        s=0, r=1, alpha={NodeTypeLabel(1, ("1", "1")): 1}), marked_chain()), ValidationError,
        "boundary coefficients mismatch: missing [], "
        "unknown [NodeTypeLabel(side_genus=1, side_markings=('1', '1'))]"),
    "forget-unsorted-side-markings": (lambda: forget_polarization(ExplicitPolarization.build(
        s=0, r=1, alpha={NodeTypeLabel(1, ("x", "1")): 1}), "2", genus=2,
        marking_labels=["1", "2", "x"]), ValidationError,
        "unknown [NodeTypeLabel(side_genus=1, side_markings=('x', '1'))]"),
    "labels-long-bytes": (lambda: generate_corpus(1, b"1" * 5000, 2), ValidationError,
                          f"marking labels must be a list of names, got b'{'1' * 58}... "
                          "(5003 characters)"),
    "two-component-inadmissible": (lambda: two_component_graph(
        1, ["1", "2"], NodeTypeLabel.of(0, ["2"])), ValidationError,
        "node type label mismatch: missing [], "
        "unknown [NodeTypeLabel(side_genus=0, side_markings=('2',))]"),
    # boundary_degree, q_of and check_subcurve read a vertex set by one rule
    "boundary-degree-unknown-vertex": (lambda: boundary_degree(
        marked_chain(), ["zz"], CHAIN_LABEL), ValidationError,
        "subcurve references unknown vertices: ['zz']"),
    "boundary-degree-empty": (lambda: boundary_degree(marked_chain(), [], CHAIN_LABEL),
                              ValidationError, "empty subcurve"),
    "q-of-unknown-vertex": (lambda: make_profile(named(), {"None": 1, "a": 0}, 1).q_of(
        ["a", "zz"]), ValidationError, "subcurve references unknown vertices: ['zz']"),
    "q-of-repeated-vertex": (lambda: make_profile(named(), {"None": 1, "a": 0}, 1).q_of(
        ["a", "a"]), ValidationError, "subcurve vertex a repeated"),
    # a repeated vertex is refused, not dropped
    "subcurve-repeated-vertex": (lambda: subcurve_invariants(theta(), ["v1", "v1"]),
                                 ValidationError, "subcurve vertex v1 repeated"),
    "subcurve-repeated-after-200000": (lambda: subcurve_invariants(
        theta(), [*map(str, range(200_000)), "7"]), ValidationError,
        "subcurve vertex 7 repeated"),
    "boundary-degree-repeated-vertex": (lambda: boundary_degree(
        marked_chain(), ["v1", "v0", "v1"], CHAIN_LABEL), ValidationError,
        "subcurve vertex v1 repeated"),
    "compile-unsupported": (lambda: compile_polarization(object(), theta()), ValidationError,
                            "unsupported polarization object object"),
    "serialize-unsupported": (lambda: polarization_document(object()), ValidationError,
                              "cannot serialize object"),
    "sheaf-out-of-order": (lambda: check(theta(), theta_profile(), SheafType(
        frozenset(), (("v2", 1), ("v1", 1)))), ValidationError,
        "sheaf degrees must cover the graph vertices in order"),
    "enumerate-unknown-mode": (lambda: enumerate_sheaves(theta(), theta_profile(), "fine"),
                               ValidationError, "unknown mode 'fine'"),
    "forget-alpha-without-markings": (lambda: forget_polarization(
        CHAIN_ALPHA, "x", genus=2, marking_labels=[]), ValidationError,
        "marking x not present"),
    # a marking that is not among the markings is refused before any other check
    "forget-unknown-marking-alpha": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1, alpha={NodeTypeLabel.of(0, ["1", "2"]): 1}),
        "z", genus=2, marking_labels=["1", "2"]), ValidationError, "marking z not present"),
    "forget-unknown-marking": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1), "z", genus=2, marking_labels=["1", "2"]),
        ValidationError, "marking z not present"),
    # a number's text and a name key are cut like a repr: 60 characters and the length
    "recipe-r-4000-digits-negative": (
        lambda: ExplicitPolarization.build(s=0, r="-" + "9" * 4000), ValidationError,
        f"rank coefficient r must be positive, got -{'9' * 59}... (4001 characters)"),
    "profile-unknown-5000-character-id": (
        lambda: make_profile(theta(), {"v1": 1, "v2": 1, "x" * 5000: 0}, 2), ValidationError,
        f"profile weights mismatch: missing [], unknown ['{'x' * 59}... (5002 characters)]"),
    "profile-missing-5000-character-id": (
        lambda: make_profile(MarkedDualGraph.build([("y" * 5000, 2)], []), {}, 0),
        ValidationError,
        f"profile weights mismatch: missing ['{'y' * 59}... (5002 characters)], unknown []"),
    "profile-unknown-81-digit-key": (
        lambda: make_profile(theta(), {"v1": 1, "v2": 1, "v9": 0, 10**80: 0}, 2),
        ValidationError, f"unknown [{str(10**80)[:60]}... (81 characters), 'v9']"),
    # a long vertex id or marking label in a graph refusal: 60 characters and the length
    "graph-5000-character-id-unstable": (
        lambda: MarkedDualGraph.build([("y" * 5000, 1)], []), ValidationError,
        f"unstable vertex {'y' * 60}... (5000 characters): 2g-2+valence+markings = 0 <= 0"),
    "graph-5000-character-id-negative-genus": (
        lambda: MarkedDualGraph.build([("y" * 5000, -1), ("a", 3)], [("y" * 5000, "a")]),
        ValidationError, f"vertex {'y' * 60}... (5000 characters) has negative genus -1"),
    "graph-marking-on-5000-character-vertex": (
        lambda: MarkedDualGraph.build([("a", 2)], [], {"1": "z" * 5000}), ValidationError,
        f"marking 1 placed on unknown vertex {'z' * 60}... (5000 characters)"),
    "graph-5000-character-marking-on-unknown-vertex": (
        lambda: MarkedDualGraph.build([("a", 2)], [], {"m" * 5000: "z"}), ValidationError,
        f"marking {'m' * 60}... (5000 characters) placed on unknown vertex z"),
    "graph-5000-character-base-vertex": (
        lambda: MarkedDualGraph.build([("a", 2)], [], base_vertex="b" * 5000), ValidationError,
        f"base vertex {'b' * 60}... (5000 characters) is not a vertex"),
    "check-5000-character-base": (
        lambda: check(theta(), theta_profile(), theta_line_bundle(), base_vertex="b" * 5000),
        ValidationError, f"base vertex {'b' * 60}... (5000 characters) is not a vertex"),
    "graph-4000-digit-expected-genus": (
        lambda: docio.parse_graph_document({"vertices": [{"id": "a", "genus": 2}],
                                            "expected_genus": 10**3999}), ValidationError,
        f"expected_genus {'1' + '0' * 59}... (4000 characters) does not match computed genus 2"),
    # a key that is not a name is cut at 120 characters, each list at 900
    "compile-alpha-5000-character-marking": (
        lambda: compile_polarization(ExplicitPolarization.build(
            s=0, r=1, alpha={NodeTypeLabel.of(0, ["1", "x" * 5000]): 1}), chain_111()),
        ValidationError, "boundary coefficients mismatch: missing [], unknown [NodeTypeLabel("
        f"side_genus=0, side_markings=('1', '{'x' * 71}... (5052 characters)]"),
    "phi-table-20-long-labels": (
        lambda: require_keys([NodeTypeLabel(0, (str(i) * 200,)) for i in range(10, 30)],
                             {NodeTypeLabel(1, (str(i) * 200,)): 0 for i in range(10, 30)},
                             "phi table"),
        ValidationError, "phi table mismatch: missing 20 keys, first 10 [NodeTypeLabel("
        f"side_genus=0, side_markings=('{'10' * 38}... (448 characters), "),
    # an int past str's 4,300 digits is quoted by its first 60 characters and its length
    "graph-genus-minus-10-to-5000": (
        lambda: MarkedDualGraph.build([("a", -10**5000)], []), ValidationError,
        f"vertex a has negative genus -1{'0' * 58}... (5002 characters); total genus "
        f"-1{'0' * 58}... (5002 characters) is negative"),
    "require-genus-minus-10-to-5000": (
        lambda: require_genus(-10**5000), ValidationError,
        f"genus must be nonnegative, got -1{'0' * 58}... (5002 characters)"),
    "sheaf-edge-10-to-5000": (
        lambda: SheafType.build(theta(), {"v1": 1, "v2": 0}, [10**5000]), ValidationError,
        f"non-free edge index 1{'0' * 59}... (5001 characters) out of range"),
    "node-type-edge-10-to-5000": (lambda: node_type(theta(), 10**5000), ValidationError,
                                  f"unknown edge index 1{'0' * 59}... (5001 characters)"),
    # an edge index is read by require_int: text, a float and a bool are refused
    "node-type-edge-string": (lambda: node_type(theta(), "x"), ValidationError,
                              "edge index must be an integer, got 'x'"),
    "designated-side-edge-float": (lambda: designated_side(theta(), 1.5), ValidationError,
                                   "edge index must be an integer, got 1.5"),
    "node-type-edge-bool": (lambda: node_type(theta(), True), ValidationError,
                            "edge index must be an integer, got True"),
    "designated-side-edge-negative": (lambda: designated_side(theta(), -1), ValidationError,
                                      "unknown edge index -1"),
    # unknown subcurve ids: 10 of them and their count, as require_keys names keys
    "subcurve-20000-unknown-ids": (lambda: subcurve_invariants(
        theta(), [f"u{i}" for i in range(20000)]), ValidationError,
        "subcurve references unknown vertices: 20000 keys, first 10 ['u0', 'u1', 'u10', "
        "'u100', 'u1000', 'u10000', 'u10001', 'u10002', 'u10003', 'u10004']"),
    # a refusal in maps quotes a caller's number by clip
    "forget-a-x-4000-digits": (lambda: forget_polarization(ExplicitPolarization.build(
        s=0, r=1, a={"x": 10**3999}), "x", genus=2, marking_labels=["x", "1"]),
        PreconditionError, f"forgetting x needs a_x = 0, got 1{'0' * 59}... (4000 characters)"),
    "clutch-a-x-4000-digits": (lambda: clutch_irr_polarization(ExplicitPolarization.build(
        s=0, r=1, a={"x": 10**3999, "y": 0}), "x", "y"), PreconditionError,
        f"clutching transport needs a_x = s = 0, got 1{'0' * 59}... (4000 characters)"),
    "forget-tail-degree-4000-digits": (lambda: forget_point(tail_graph(), "x", SheafType.build(
        tail_graph(), {"v0": 10**3999, "v1": -10**3999})), PreconditionError,
        f"tail vertex must carry degree 0, got 1{'0' * 59}... (4000 characters)"),
    "forget-contracted-degree-4000-digits": (lambda: forget_point(marked_chain(), "x",
        SheafType.build(marked_chain(), {"v1": -10**3999, "v0": 10**3999, "v2": 0})),
        PreconditionError, f"deg = 1{'0' * 59}... (4000 characters), "
        f"d({{v0}}) = 1{'0' * 59}... (4000 characters)"),
    "forget-alpha-pair-4000-digits": (lambda: forget_polarization(ExplicitPolarization.build(
        s=0, r=1, alpha={NodeTypeLabel.of(1, ["1"]): 10**3999}), "x", genus=2,
        marking_labels=["1", "2", "x"]), PreconditionError,
        f"got 1{'0' * 59}... (4000 characters) and 0"),
    "forget-alpha-vanishing-4000-digits": (lambda: forget_polarization(
        ExplicitPolarization.build(s=0, r=1, alpha={NodeTypeLabel.of(0, ["1", "x"]): 10**3999}),
        "x", genus=2, marking_labels=["1", "2", "x"]), PreconditionError,
        f"its coefficient must be 0, got 1{'0' * 59}... (4000 characters)"),
    # a fraction whose terms are past str's 4,300 digits is quoted the same way
    "profile-weight-10-to-5000-over-3": (lambda: make_profile(
        theta(), {"v1": Fraction(10**5000, 3), "v2": 0}, 2), ValidationError,
        f"profile weights sum to 1{'0' * 59}... (5003 characters), expected d = 2"),
    # a label-keyed map with a key that is not a NodeTypeLabel: refused before any sort
    "explicit-alpha-string-key": (lambda: ExplicitPolarization.build(
        s=0, r=1, alpha={"x": 1, NodeTypeLabel.of(0, ["1"]): 1}), ValidationError,
        "boundary coefficients mismatch: missing [], unknown ['x']"),
    "phi-string-key": (lambda: PhiTable.build({"x": 1, CHAIN_LABEL: 1}), ValidationError,
                       "phi table mismatch: missing [], unknown ['x']"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_REFUSALS.values(),
                         ids=LIBRARY_REFUSALS)
def test_library_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        call()
    assert type(caught.value) is error and len(str(caught.value).encode()) < 2000
    assert "\n" not in str(caught.value)


class CountingName(str):
    """A name that counts the calls of its ``__eq__``."""

    calls = 0

    def __eq__(self, other):
        CountingName.calls += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_require_keys_compares_no_two_keys():
    # each key is looked up in a set, not in the list: 2,000 keys made about
    # 2,000,000 comparisons when the list was searched for each of them
    keys = [CountingName(f"k{i}") for i in range(2000)]
    CountingName.calls = 0
    assert require_keys(keys, dict.fromkeys(keys, 0), "map") == [0] * 2000
    assert CountingName.calls == 0


@pytest.mark.parametrize("value", ["1_0", "\u0662", " 2", "0x2", ""])
def test_threads_env_refusal(capsys, monkeypatch, value):
    monkeypatch.setenv("JACSTAB_THREADS", value)
    assert main(["corpus", "--genus", "2", "--max-vertices", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JACSTAB_THREADS must be a positive integer, got {value!r}\n"


def test_integers_keep_their_value(capsys):
    assert [parse_int(text) for text in ("0", "-7", "+7", "007")] == [0, -7, 7, 7]
    assert parse_rational("+3/-6") == Fraction(-1, 2)
    assert main(["corpus", "--genus", "+2", "--max-vertices", "02"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 7


def test_rationals_keep_their_value():
    assert parse_rational(Fraction(-3, 6)) == Fraction(-1, 2)
    assert parse_rational(" 4/6 ") == Fraction(2, 3)
    # a builder fed a Fraction, an int or a string gets the same recipe
    assert ExplicitPolarization.build(s=Fraction(1, 2), r=1, a={"1": 2}) \
        == ExplicitPolarization.build(s="1/2", r="1", a={"1": "2"})
    assert twist_profile(theta_profile(), {}).q == theta_profile().q


def test_names_keep_their_text():
    # an integer id or label is read as its decimal text, the same graph as the text
    assert MarkedDualGraph.build([(1, 1), ("2", 0)], [(1, 2), (2, "2")], {3: 2}, base_vertex=1) \
        == MarkedDualGraph.build([("1", 1), ("2", 0)], [("1", "2"), ("2", "2")], {"3": "2"},
                                 base_vertex="1")
    assert admissible_labels(1, [2, "1"]) == admissible_labels(1, ["2", "1"])


# -- the one label rule ----------------------------------------------------------

MARKS = ("1", "2", "3")


@functools.cache
def small_corpus(genus, n):
    return generate_corpus(genus, MARKS[:n], 3 if genus <= 1 else 2)


@st.composite
def label_cases(draw):
    """(genus, markings, graph, alpha): a stable (g, A) with g <= 3 and
    |A| <= 3, one of its graphs, and coefficients on labels that are
    admissible or not (too large a genus, an unknown marking, a side
    without the anchor or that is unstable)."""
    genus = draw(st.integers(0, 3))
    labels = MARKS[:draw(st.integers(max(0, 3 - 2 * genus), 3))]
    graph = draw(st.sampled_from(small_corpus(genus, len(labels))))
    label = st.builds(NodeTypeLabel.of, st.integers(0, genus + 1),
                      st.lists(st.sampled_from(labels + ("z",)), unique=True))
    admissible = admissible_labels(genus, labels)
    label = st.one_of(st.sampled_from(admissible), label) if admissible else label
    values = st.integers(-3, 3).map(lambda k: Fraction(k, 2))
    return genus, labels, graph, draw(st.dictionaries(label, values, max_size=4))


def refusal_tail(call, error=ValidationError):
    """What ``call`` says after its map's name, when it raises ``error``."""
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    return str(caught.value).split(" mismatch: ", 1)[1]


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(label_cases(), st.integers(-1, 1), st.sampled_from((1, 3)))
def test_one_label_rule(case, s, r):
    """compile_polarization, forget_polarization, boundary_degree,
    two_component_graph and kp_translate accept the admissible labels and
    refuse the others with one wording; for admissible alpha the compiled
    weights follow the weight formula through ``boundary_degree``."""
    genus, labels, graph, alpha = case
    admissible = admissible_labels(genus, labels)
    bad = sorted((l for l in alpha if l not in admissible), key=str)
    tail = f"missing [], unknown {bad}"
    a = {l: r * (i - 1) for i, l in enumerate(labels)}  # keeps the degree an integer
    pol = ExplicitPolarization.build(s=r * s, r=r, a=a, alpha=alpha)
    upstairs = dict(genus=genus, marking_labels=labels)
    forget = ExplicitPolarization.build(s=0, r=1, alpha=alpha)
    x = labels[-1] if labels else "z"
    phi = PhiTable.build({**dict.fromkeys(admissible, 0), **alpha})
    if not labels:  # the marking to forget does not exist: refused before any label
        with pytest.raises(ValidationError, match="^marking z not present$"):
            forget_polarization(forget, x, **upstairs)
    if bad:
        assert refusal_tail(lambda: compile_polarization(pol, graph)) == tail
        if labels:
            assert refusal_tail(lambda: forget_polarization(forget, x, **upstairs)) == tail
            assert refusal_tail(lambda: kp_translate(phi, genus, labels)) == tail
    else:
        q = compile_polarization(pol, graph).q_map
        for v in graph.vertex_ids:
            w = graph.w_of(v)
            boundary = sum(c * boundary_degree(graph, {v}, l) for l, c in alpha.items())
            marked = sum(a[l] for l in graph.markings_by_vertex[v])
            assert q[v] == (r * s * w + marked + boundary) / r + Fraction(w, 2)
        if labels:
            try:
                forget_polarization(forget, x, **upstairs)
            except PreconditionError:  # a pairing it cannot transport, not a bad label
                pass
            kp_translate(phi, genus, labels)
    for label in alpha:
        if label in admissible:
            boundary_degree(graph, graph.vertex_ids[:1], label)
            two_component_graph(genus, labels, label)
        else:
            one = f"missing [], unknown [{label}]"
            assert refusal_tail(lambda: boundary_degree(graph, graph.vertex_ids[:1], label)) == one
            assert refusal_tail(lambda: two_component_graph(genus, labels, label)) == one
