from __future__ import annotations

import json
import subprocess
import sys

import pytest

from jacstab.cli import main

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
