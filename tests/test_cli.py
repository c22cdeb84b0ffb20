from __future__ import annotations

import json
import subprocess
import sys

import pytest

from jacstab import corpus as corpus_mod
from jacstab import generate_corpus
from jacstab.cli import build_parser, main
from jacstab.io import graph_document

BRIDGE = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 2}],
    "edges": [["v1", "v2"]],
    "markings": {},
}
THETA = {
    "vertices": [{"id": "v1", "genus": 0}, {"id": "v2", "genus": 0}],
    "edges": [["v1", "v2"], ["v1", "v2"], ["v1", "v2"]],
    "markings": {},
}
CANONICAL_D2 = {"kind": "canonical", "d": 2, "a": {}}
THETA_PROFILE = {"kind": "profile", "q": {"v1": "11/10", "v2": "9/10"}, "d": 2}
# v1(1, mk 1) - v0(0, mk x) - v2(1, mk 2): forgetting x fuses v0's two edges
CHAIN = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v0", "genus": 0},
                 {"id": "v2", "genus": 1}],
    "edges": [["v1", "v0"], ["v0", "v2"]],
    "markings": {"1": "v1", "x": "v0", "2": "v2"},
}
CHAIN_SHEAF = {"nonfree": [], "degrees": {"v1": 1, "v0": 0, "v2": 1}}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out and "--help" not in argv:  # json.dumps(..., indent=2), byte for byte
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    code, out, _ = run_cli(capsys, "validate", "--graph", files("g.json", BRIDGE))
    assert code == 0
    assert json.loads(out) == {"valid": True, "genus": 3,
                               "vertices": 2, "edges": 1}


def test_validate_empty_graph_exits_2(files, capsys):
    code, out, err = run_cli(
        capsys, "validate",
        "--graph", files("empty.json", {"vertices": [], "edges": []}))
    assert code == 2
    assert out == ""
    assert "disconnected" in err


def test_validate_duplicate_vertex_ids_exits_2(files, capsys):
    doc = {"vertices": [{"id": "a", "genus": 1}, {"id": "a", "genus": 1}],
           "edges": [["a", "a"]]}
    code, out, err = run_cli(capsys, "validate", "--graph", files("dup.json", doc))
    assert code == 2
    assert out == ""
    assert "duplicate vertex ids" in err


def test_malformed_json_exits_2_with_location(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [', encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", "--graph", str(bad))
    assert code == 2
    assert "line 1" in err


def test_check_bridge_example(files, capsys):
    code, out, _ = run_cli(
        capsys, "check",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2),
        "--sheaf", files("s.json", {"nonfree": [], "degrees": {"v1": 0, "v2": 2}}))
    assert code == 0
    assert json.loads(out) == {"status": "strictly_semistable",
                               "witness": ["v1"]}


@pytest.mark.parametrize("base,quasistable", [("v1", False), ("v2", True)])
def test_check_at_base_vertex(files, capsys, base, quasistable):
    code, out, _ = run_cli(
        capsys, "check",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2),
        "--sheaf", files("s.json", {"nonfree": [], "degrees": {"v1": 0, "v2": 2}}),
        "--base", base)
    assert code == 0
    assert json.loads(out)["quasistable_at_base"] is quasistable


def test_count_theta_example(files, capsys):
    code, out, _ = run_cli(
        capsys, "count",
        "--graph", files("g.json", THETA),
        "--pol", files("p.json", THETA_PROFILE),
        "--base", "v1")
    assert code == 0
    assert json.loads(out) == {"count": 3}


def test_count_non_general_exits_3(files, capsys):
    code, _, err = run_cli(
        capsys, "count",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2),
        "--base", "v1")
    assert code == 3
    assert "not general" in err


def test_enumerate_modes(files, capsys):
    code, out, _ = run_cli(
        capsys, "enumerate",
        "--graph", files("g.json", THETA),
        "--pol", files("p.json", THETA_PROFILE),
        "--stable")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["sheaves"][0] == {"nonfree": [], "degrees": {"v1": 0, "v2": 2}}

    code, _, err = run_cli(
        capsys, "enumerate",
        "--graph", files("g.json", THETA),
        "--pol", files("p.json", THETA_PROFILE),
        "--stable", "--semistable")
    assert code == 2
    assert "exactly one" in err


def test_qprofile_and_is_general(files, capsys):
    code, out, _ = run_cli(
        capsys, "qprofile",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2))
    assert code == 0
    assert json.loads(out) == {"kind": "profile",
                               "q": {"v1": "1/2", "v2": "3/2"}, "d": 2}

    code, out, _ = run_cli(
        capsys, "is-general",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2))
    assert json.loads(out) == {"general": False, "witnesses": [["v1"]]}


def test_perturb_outputs_general_profile(files, capsys):
    code, out, _ = run_cli(
        capsys, "perturb",
        "--graph", files("g.json", BRIDGE),
        "--pol", files("p.json", CANONICAL_D2),
        "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "profile" and payload["d"] == 2


def test_clutch_and_forget_pipeline(files, capsys, tmp_path):
    chain = {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v0", "genus": 0},
                     {"id": "v2", "genus": 1}],
        "edges": [["v1", "v0"], ["v0", "v2"]],
        "markings": {"1": "v1", "x": "v0", "2": "v2"},
    }
    code, out, _ = run_cli(
        capsys, "forget",
        "--graph", files("g.json", chain),
        "--sheaf", files("s.json", {"nonfree": [],
                                    "degrees": {"v1": 1, "v0": 0, "v2": 1}}),
        "--marking", "x",
        "--pol", files("p.json", {"kind": "explicit", "s": "1", "r": "1",
                                  "a": {"1": "1", "2": "1", "x": "0"},
                                  "alpha": []}))
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "a"
    assert payload["sheaf"] == {"nonfree": [], "degrees": {"v1": 1, "v2": 1}}
    assert payload["simple"] is True
    assert payload["pol"]["a"] == {"1": "1", "2": "1"}

    glue = {
        "vertices": [{"id": "v", "genus": 0}],
        "edges": [],
        "markings": {"1": "v", "x": "v", "y": "v"},
    }
    code, out, _ = run_cli(
        capsys, "clutch-irr",
        "--graph", files("g2.json", glue),
        "--sheaf", files("s2.json", {"nonfree": [], "degrees": {"v": 0}}),
        "--x", "x", "--y", "y")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["edges"] == [["v", "v"]]
    assert payload["sheaf"] == {"nonfree": [0], "degrees": {"v": 0}}


def test_forget_prints_the_fused_edge_in_vertex_order(files, capsys):
    chain = dict(CHAIN, vertices=[CHAIN["vertices"][i] for i in (2, 1, 0)])  # v2, v0, v1
    code, out, _ = run_cli(
        capsys, "forget", "--graph", files("g.json", chain),
        "--sheaf", files("s.json", CHAIN_SHEAF), "--marking", "x")
    assert code == 0
    assert json.loads(out)["graph"]["edges"] == [["v2", "v1"]]


def test_forget_keeps_the_base_vertex(files, capsys):
    code, out, _ = run_cli(
        capsys, "forget", "--graph", files("g.json", dict(CHAIN, base_vertex="v1")),
        "--sheaf", files("s.json", CHAIN_SHEAF), "--marking", "x")
    assert code == 0
    assert json.loads(out)["graph"]["base_vertex"] == "v1"


def test_forget_pol_without_contraction_condition_exits_3(files, capsys):
    code, out, err = run_cli(
        capsys, "forget", "--graph", files("g.json", CHAIN),
        "--sheaf", files("s.json", CHAIN_SHEAF), "--marking", "x",
        "--pol", files("p.json", {"kind": "explicit", "s": "1", "r": "1",
                                  "a": {"1": "1", "2": "1", "x": "1"}, "alpha": []}))
    assert code == 3
    assert out == ""
    assert "contraction condition" in err


def test_clutch_sep(files, capsys):
    left = {"vertices": [{"id": "a", "genus": 1}], "edges": [],
            "markings": {"1": "a", "x": "a"}}
    right = {"vertices": [{"id": "b", "genus": 1}], "edges": [],
             "markings": {"2": "b", "y": "b"}}
    pol1 = {"kind": "explicit", "s": "1", "r": "1",
            "a": {"1": "1", "x": "1"}, "alpha": []}
    pol2 = {"kind": "explicit", "s": "1", "r": "1",
            "a": {"2": "1", "y": "1"}, "alpha": []}
    code, out, _ = run_cli(
        capsys, "clutch-sep",
        "--graph1", files("g1.json", left),
        "--sheaf1", files("s1.json", {"nonfree": [], "degrees": {"a": 0}}),
        "--x", "x",
        "--graph2", files("g2.json", right),
        "--sheaf2", files("s2.json", {"nonfree": [], "degrees": {"b": 0}}),
        "--y", "y",
        "--pol1", files("p1.json", pol1),
        "--pol2", files("p2.json", pol2))
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["edges"] == [["1:a", "2:b"]]
    assert payload["sheaf"] == {"nonfree": [], "degrees": {"1:a": 1, "2:b": 0}}
    assert payload["pol"]["a"] == {"1": "1", "2": "1"}


def test_clutch_sep_needs_both_recipes(files, capsys):
    left = {"vertices": [{"id": "a", "genus": 1}], "edges": [],
            "markings": {"1": "a", "x": "a"}}
    right = {"vertices": [{"id": "b", "genus": 1}], "edges": [],
             "markings": {"2": "b", "y": "b"}}
    code, out, err = run_cli(
        capsys, "clutch-sep",
        "--graph1", files("g1.json", left),
        "--sheaf1", files("s1.json", {"nonfree": [], "degrees": {"a": 0}}),
        "--x", "x",
        "--graph2", files("g2.json", right),
        "--sheaf2", files("s2.json", {"nonfree": [], "degrees": {"b": 0}}),
        "--y", "y",
        "--pol1", files("p1.json", {"kind": "explicit", "s": "1", "r": "1",
                                    "a": {"1": "1", "x": "1"}, "alpha": []}))
    assert code == 2
    assert out == ""
    assert "needs both --pol1 and --pol2" in err


def test_clutch_irr_pol_precondition_exit_3(files, capsys):
    glue = {
        "vertices": [{"id": "v", "genus": 0}],
        "edges": [],
        "markings": {"1": "v", "x": "v", "y": "v"},
    }
    code, _, err = run_cli(
        capsys, "clutch-irr",
        "--graph", files("g.json", glue),
        "--sheaf", files("s.json", {"nonfree": [], "degrees": {"v": 0}}),
        "--x", "x", "--y", "y",
        "--pol", files("p.json", {"kind": "explicit", "s": "1", "r": "1",
                                  "a": {"1": "0", "x": "1", "y": "0"},
                                  "alpha": []}))
    assert code == 3
    assert "a_y = s" in err


def test_abel_jacobi_and_kp(files, capsys):
    graph = {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
        "edges": [["v1", "v2"]],
        "markings": {"1": "v1", "2": "v2"},
    }
    code, out, _ = run_cli(
        capsys, "abel-jacobi",
        "--graph", files("g.json", graph),
        "--dtuple", files("d.json", {"1": 2, "2": -1}))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["status"] == "stable"
    assert payload["pol"]["s"] == "-1" and payload["pol"]["r"] == "2"

    code, out, _ = run_cli(
        capsys, "kp-translate",
        "--phi", files("phi.json", {
            "genus": 2, "markings": ["1", "2"],
            "phi": [{"b": 1, "B": ["1"], "value": "3/10"},
                    {"b": 1, "B": ["1", "2"], "value": "1/2"},
                    {"b": 0, "B": ["1", "2"], "value": "-1/2"}]}))
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == "1"
    alpha = {(entry["b"], tuple(entry["B"])): entry["value"]
             for entry in payload["pol"]["alpha"]}
    assert alpha[(1, ("1",))] == "-1/5"


def test_corpus_complexity_equiv(files, capsys):
    code, out, _ = run_cli(capsys, "corpus", "--genus", "2",
                           "--max-vertices", "2")
    assert code == 0
    assert json.loads(out)["count"] == 7

    code, out, _ = run_cli(capsys, "complexity",
                           "--graph", files("g.json", THETA))
    assert json.loads(out) == {"complexity": 3}

    code, out, _ = run_cli(
        capsys, "equiv",
        "--graph", files("g.json", THETA),
        "--d1", files("d1.json", {"v1": 0, "v2": 2}),
        "--d2", files("d2.json", {"v1": 3, "v2": -1}))
    assert json.loads(out) == {"equivalent": True}


def test_invariants(files, capsys):
    code, out, _ = run_cli(
        capsys, "invariants",
        "--graph", files("g.json", THETA),
        "--subcurve", "v1")
    assert code == 0
    assert json.loads(out) == {"k": 3, "w": 1, "genus": 0,
                               "components": [["v1"]]}


def test_byte_identical_output(files, tmp_path):
    graph = files("g.json", THETA)
    pol = files("p.json", THETA_PROFILE)
    argv = [sys.executable, "-m", "jacstab.cli", "enumerate",
            "--graph", graph, "--pol", pol, "--semistable",
            "--include-nonfree"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_threads_env_validated(files, capsys, monkeypatch):
    monkeypatch.setenv("JACSTAB_THREADS", "nope")
    code, _, err = run_cli(capsys, "validate",
                           "--graph", files("g.json", BRIDGE))
    assert code == 2
    assert "JACSTAB_THREADS" in err
    monkeypatch.setenv("JACSTAB_THREADS", "2")
    code, _, _ = run_cli(capsys, "validate",
                         "--graph", files("g.json", BRIDGE))
    assert code == 0


def test_threads_env_zero_exits_2(files, capsys, monkeypatch):
    monkeypatch.setenv("JACSTAB_THREADS", "0")
    code, out, err = run_cli(capsys, "validate",
                             "--graph", files("g.json", BRIDGE))
    assert code == 2
    assert out == ""
    assert "JACSTAB_THREADS must be a positive integer" in err


SUBCOMMANDS = ["validate", "invariants", "qprofile", "check", "enumerate",
               "count", "is-general", "perturb", "clutch-irr", "clutch-sep",
               "forget", "abel-jacobi", "kp-translate", "corpus", "complexity",
               "equiv"]


def test_help_lists_subcommands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out
    code, out, _ = run_cli(capsys, "check", "--help")
    assert code == 0
    assert out.splitlines()[0] == (
        "usage: jacstab check [-h] --graph GRAPH --pol POL --sheaf SHEAF "
        "[--base BASE]")


def test_parser_built_once_answers_like_a_fresh_one(files, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["count", "--graph", files("g.json", THETA),
         "--pol", files("p.json", THETA_PROFILE), "--base", "v1"],
        ["corpus", "--genus", "2", "--max-vertices", "2"],
        ["count", "--graph", files("g.json", THETA)],  # no --pol: a usage error
        ["--help"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert "the following arguments are required: --pol" in fresh[2][2]
    build_parser.cache_clear()
    for _ in range(3):
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1


GLUE = {"vertices": [{"id": "v", "genus": 0}], "edges": [],
        "markings": {"1": "v", "x": "v", "y": "v"}}
CHAIN = {"vertices": [{"id": "v1", "genus": 1}, {"id": "v0", "genus": 0},
                      {"id": "v2", "genus": 1}],
         "edges": [["v1", "v0"], ["v0", "v2"]],
         "markings": {"1": "v1", "x": "v0", "2": "v2"}}
LEFT = {"vertices": [{"id": "a", "genus": 1}], "edges": [],
        "markings": {"1": "a", "x": "a"}}
RIGHT = {"vertices": [{"id": "b", "genus": 1}], "edges": [],
         "markings": {"2": "b", "y": "b"}}
EXPLICIT_LEFT = {"kind": "explicit", "s": "1", "r": "1",
                 "a": {"1": "1", "x": "1"}, "alpha": []}
EXPLICIT_RIGHT = {"kind": "explicit", "s": "1", "r": "1",
                  "a": {"2": "1", "y": "1"}, "alpha": []}


@pytest.mark.parametrize("flag", ["clutch-irr --pol", "clutch-sep --pol1",
                                  "clutch-sep --pol2", "forget --pol"])
def test_transport_recipe_must_be_explicit(files, capsys, flag):
    command, pol_flag = flag.split()
    canonical = files("canonical.json", {"kind": "canonical", "d": 0, "a": {}})
    if command == "clutch-irr":
        argv = ["--graph", files("g.json", GLUE),
                "--sheaf", files("s.json", {"nonfree": [], "degrees": {"v": 0}}),
                "--x", "x", "--y", "y", "--pol", canonical]
    elif command == "forget":
        argv = ["--graph", files("g.json", CHAIN),
                "--sheaf", files("s.json", {"nonfree": [],
                                            "degrees": {"v1": 1, "v0": 0, "v2": 1}}),
                "--marking", "x", "--pol", canonical]
    else:
        recipes = {"--pol1": files("p1.json", EXPLICIT_LEFT),
                   "--pol2": files("p2.json", EXPLICIT_RIGHT), pol_flag: canonical}
        argv = ["--graph1", files("g1.json", LEFT),
                "--sheaf1", files("s1.json", {"nonfree": [], "degrees": {"a": 0}}),
                "--x", "x", "--graph2", files("g2.json", RIGHT),
                "--sheaf2", files("s2.json", {"nonfree": [], "degrees": {"b": 0}}),
                "--y", "y", "--pol1", recipes["--pol1"], "--pol2", recipes["--pol2"]]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert f"{pol_flag} must be an explicit polarization recipe" in err


@pytest.mark.parametrize("flag", ["clutch-irr --pol", "clutch-sep --pol1",
                                  "clutch-sep --pol2", "forget --pol"])
def test_transported_profile_names_the_flag(files, capsys, flag):
    # a profile is keyed by the vertices of one graph, so it cannot transport;
    # it used to stop at "profile documents need a graph", naming no flag
    command, pol_flag = flag.split()
    recipes = {"--pol1": EXPLICIT_LEFT, "--pol2": EXPLICIT_RIGHT,
               pol_flag: {"kind": "profile", "q": {"v": "1"}, "d": 1}}
    if command == "clutch-irr":
        argv = ["--graph", files("g.json", GLUE),
                "--sheaf", files("s.json", {"nonfree": [], "degrees": {"v": 0}}),
                "--x", "x", "--y", "y", "--pol", files("p.json", recipes["--pol"])]
    elif command == "forget":
        argv = ["--graph", files("g.json", CHAIN),
                "--sheaf", files("s.json", {"nonfree": [],
                                            "degrees": {"v1": 1, "v0": 0, "v2": 1}}),
                "--marking", "x", "--pol", files("p.json", recipes["--pol"])]
    else:
        argv = ["--graph1", files("g1.json", LEFT),
                "--sheaf1", files("s1.json", {"nonfree": [], "degrees": {"a": 0}}),
                "--x", "x", "--graph2", files("g2.json", RIGHT),
                "--sheaf2", files("s2.json", {"nonfree": [], "degrees": {"b": 0}}),
                "--y", "y", "--pol1", files("p1.json", recipes["--pol1"]),
                "--pol2", files("p2.json", recipes["--pol2"])]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert f"{pol_flag} must be an explicit polarization recipe" in err


@pytest.mark.parametrize("pol, message", [
    ({"kind": "explicit", "s": "1", "r": "1", "a": ["1"], "alpha": []}, '"a"'),
    ({"kind": "explicit", "s": "1", "r": "1", "a": {}, "alpha": 3}, '"alpha"'),
    ({"kind": "canonical", "d": 2, "a": "1/2"}, '"a"'),
    ({"kind": "profile", "q": ["1/2", "3/2"], "d": 2}, '"q"'),
], ids=["explicit-a-list", "explicit-alpha-int", "canonical-a-string",
        "profile-q-list"])
def test_qprofile_malformed_polarization_fields_exit_2(files, capsys, pol, message):
    code, out, err = run_cli(capsys, "qprofile",
                             "--graph", files("g.json", BRIDGE),
                             "--pol", files("p.json", pol))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("genus, markings, bound", [
    ("2", None, "2"), ("3", None, "1"), ("1", "\u00e9,a\"b,01", "3"), ("0", "1,2,3,4,5", "3"),
    ("2", "p,s", "4"), ("1", "1,\\,01", "2")])
def test_corpus_stdout_is_the_library_document(capsys, genus, markings, bound):
    """The document written from keys is the one the graph objects give."""
    argv = ["corpus", "--genus", genus, "--max-vertices", bound]
    argv += ["--markings", markings] if markings else []
    graphs = generate_corpus(int(genus), markings.split(",") if markings else (), int(bound))
    want = json.dumps({"count": len(graphs), "graphs": [graph_document(g) for g in graphs]},
                      indent=2)
    assert run_cli(capsys, *argv) == (0, want + "\n", "")


def test_corpus_refuses_a_key_the_shared_rule_refuses(capsys, monkeypatch):
    keys = corpus_mod.corpus_keys(2, (), 2)
    unstable = (2, (0, 2), (), (0, 1, 0))  # v0 of genus 0 on one edge
    monkeypatch.setattr(corpus_mod, "corpus_keys", lambda *args: keys + [unstable])
    code, out, err = run_cli(capsys, "corpus", "--genus", "2", "--max-vertices", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: unstable vertex v0: 2g-2+valence+markings = -1 <= 0")


class ClosedAfterOneChunk:
    """A stdout with no descriptor whose reader leaves after the first chunk."""

    def __init__(self):
        self.chunks = []

    def write(self, text: str) -> int:
        if self.chunks:
            raise BrokenPipeError(32, "Broken pipe")
        self.chunks.append(text)
        return len(text)


def test_a_reader_that_leaves_mid_document_ends_the_call_quietly(capsys, monkeypatch):
    stdout = ClosedAfterOneChunk()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["corpus", "--genus", "2", "--max-vertices", "2"]) == 0
    assert stdout.chunks == ['{\n  "count": ']
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_ends_the_process_quietly():
    """M_{0,7}'s 1.9 MB document overfills the pipe, so the write fails mid-document."""
    argv = [sys.executable, "-m", "jacstab.cli", "corpus", "--genus", "0",
            "--markings", "1,2,3,4,5,6,7", "--max-vertices", "5"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(64).startswith(b'{\n  "count": 2752,\n')
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait()) == (b"", 0)


def test_corpus_negative_genus_exits_2(capsys):
    code, out, err = run_cli(capsys, "corpus", "--genus", "-1",
                             "--markings", "1,2,3,4,5", "--max-vertices", "3")
    assert code == 2
    assert out == ""
    assert "genus must be nonnegative" in err


def test_kp_translate_negative_genus_exits_2(files, capsys):
    phi = {"genus": -3, "markings": ["1", "2"],
           "phi": [{"b": 0, "B": ["1", "2"], "value": "-1/2"}]}
    code, out, err = run_cli(capsys, "kp-translate", "--phi", files("phi.json", phi))
    assert code == 2
    assert out == ""
    assert "genus must be nonnegative" in err


def test_kp_translate_duplicate_markings_exits_2(files, capsys):
    phi = {"genus": 1, "markings": ["1", "1"], "phi": []}
    code, out, err = run_cli(capsys, "kp-translate", "--phi", files("phi.json", phi))
    assert code == 2
    assert out == ""
    assert "duplicate marking labels" in err


@pytest.mark.parametrize("command, flag", [("abel-jacobi", "--dtuple"),
                                           ("equiv", "--d1")])
@pytest.mark.parametrize("payload", [[0, 2], {"v1": "0", "v2": 2},
                                     {"v1": True, "v2": 2}],
                         ids=["array", "string-value", "bool-value"])
def test_integer_maps_reject_non_integers(files, capsys, command, flag, payload):
    argv = ["--graph", files("g.json", THETA), flag, files("d.json", payload)]
    if command == "equiv":
        argv += ["--d2", files("d2.json", {"v1": 3, "v2": -1})]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("content, message", [
    (b'{"vertices": [{"id": "\xe9", "genus": 1}]}', "cannot read"),
    (b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
    (b'{"vertices": [{"id": "a", "genus": 1' + b"0" * 5000 + b"}]}",
     "malformed JSON"),
], ids=["not-utf8", "deep-nesting", "huge-integer"])
def test_unparsable_file_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "validate", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert message in err
