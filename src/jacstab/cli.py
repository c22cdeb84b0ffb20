"""Command-line interface.

Every subcommand reads JSON documents from files, writes one JSON result to
stdout (fixed key order, no floats, byte-identical across runs) and reports
problems on stderr.  Exit codes: 0 success, 2 invalid input data, 3
unsatisfied precondition.

JACSTAB_THREADS is accepted and validated for forward compatibility; all
operations are pure and currently run single-threaded, so it does not
change any output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from . import io as docio
from . import lattice, maps, polarization, stability
from .errors import PreconditionError, ValidationError
from .graphs import MarkedDualGraph, label_sort_key, subcurve_invariants
from .sheaves import is_simple


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return docio.loads_document(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _load_graph(path: str) -> MarkedDualGraph:
    return docio.parse_graph_document(_read_json(path))


def _load_profile(pol_path: str, graph: MarkedDualGraph):
    pol = docio.parse_polarization_document(_read_json(pol_path), graph)
    return pol, polarization.compile_polarization(pol, graph)


def _emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result, indent=2))
    sys.stdout.write("\n")


def _verdict_document(verdict) -> dict:
    doc = {"status": verdict.status}
    if verdict.witness is not None:
        doc["witness"] = list(verdict.witness)
    if verdict.quasistable_at_base is not None:
        doc["quasistable_at_base"] = verdict.quasistable_at_base
    return doc


def _mode_from_flags(args) -> str:
    picked = [m for m in ("stable", "semistable", "quasistable")
              if getattr(args, m)]
    if len(picked) != 1:
        raise ValidationError(
            "choose exactly one of --stable / --semistable / --quasistable")
    return picked[0]


def _parse_markings(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacstab",
        description="Exact stability computations for sheaf types on "
                    "marked nodal-curve dual graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text)

    p = add("validate", "validate a graph document")
    p.add_argument("--graph", required=True)

    p = add("invariants", "k, w, genus and components of a subcurve")
    p.add_argument("--graph", required=True)
    p.add_argument("--subcurve", required=True,
                   help="comma-separated vertex ids")

    p = add("qprofile", "compile a polarization to vertex weights")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)

    p = add("check", "stability verdict of one sheaf type")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--base", default=None)

    p = add("enumerate", "enumerate (semi/quasi)stable sheaf types")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--stable", action="store_true")
    p.add_argument("--semistable", action="store_true")
    p.add_argument("--quasistable", action="store_true")
    p.add_argument("--base", default=None)
    p.add_argument("--include-nonfree", action="store_true")

    p = add("count", "number of quasistable line-bundle types (general profile)")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--base", default=None)

    p = add("is-general", "generality of a profile, with witnesses")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)

    p = add("perturb", "nudge a profile off the integrality walls")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("clutch-irr", "glue two markings of one graph into a node")
    p.add_argument("--graph", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--pol", default=None,
                   help="explicit polarization to transport (a_x = a_y = s)")

    p = add("clutch-sep", "join two graphs by a free edge at two markings")
    p.add_argument("--graph1", required=True)
    p.add_argument("--sheaf1", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--sheaf2", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--pol1", default=None)
    p.add_argument("--pol2", default=None)

    p = add("forget", "forget a marking and push the sheaf forward")
    p.add_argument("--graph", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--marking", required=True)
    p.add_argument("--pol", default=None,
                   help="explicit polarization to transport (a_x = 0)")

    p = add("abel-jacobi", "section recipe from integer marking weights")
    p.add_argument("--graph", required=True)
    p.add_argument("--dtuple", required=True,
                   help="JSON file mapping marking labels to integers")

    p = add("kp-translate", "boundary coefficients from a phi table")
    p.add_argument("--phi", required=True)

    p = add("corpus", "all stable graphs with bounded vertex count, up to iso")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--markings", default=None,
                   help="comma-separated marking labels")
    p.add_argument("--max-vertices", type=int, required=True)

    p = add("complexity", "number of spanning trees")
    p.add_argument("--graph", required=True)

    p = add("equiv", "multidegree equivalence modulo Laplacian moves")
    p.add_argument("--graph", required=True)
    p.add_argument("--d1", required=True, help="JSON file: vertex id -> int")
    p.add_argument("--d2", required=True, help="JSON file: vertex id -> int")

    return parser


def _check_threads_env() -> None:
    raw = os.environ.get("JACSTAB_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"JACSTAB_THREADS must be a positive integer, got {raw!r}")
    if value < 1:
        raise ValidationError(f"JACSTAB_THREADS must be a positive integer, got {raw!r}")


def _run(args) -> dict:
    if args.command == "validate":
        graph = _load_graph(args.graph)
        return {"valid": True, "genus": graph.genus,
                "vertices": len(graph.vertices), "edges": len(graph.edges)}

    if args.command == "invariants":
        graph = _load_graph(args.graph)
        inv = subcurve_invariants(graph, _parse_markings(args.subcurve))
        return {"k": inv.k, "w": inv.w, "genus": inv.genus,
                "components": [sorted(c) for c in inv.components]}

    if args.command == "qprofile":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        return docio.profile_document(profile)

    if args.command == "check":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        sheaf = docio.parse_sheaf_document(_read_json(args.sheaf), graph)
        verdict = stability.check(graph, profile, sheaf, base_vertex=args.base)
        return _verdict_document(verdict)

    if args.command == "enumerate":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        mode = _mode_from_flags(args)
        sheaves = stability.enumerate_sheaves(
            graph, profile, mode, base_vertex=args.base,
            include_nonfree=args.include_nonfree)
        return {"mode": mode, "count": len(sheaves),
                "sheaves": [docio.sheaf_document(s) for s in sheaves]}

    if args.command == "count":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        return {"count": stability.count_components(
            graph, profile, base_vertex=args.base)}

    if args.command == "is-general":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        general, witnesses = polarization.is_general(graph, profile)
        return {"general": general,
                "witnesses": [sorted(w) for w in witnesses]}

    if args.command == "perturb":
        graph = _load_graph(args.graph)
        _, profile = _load_profile(args.pol, graph)
        out = polarization.perturb_general(graph, profile, seed=args.seed)
        return docio.profile_document(out)

    if args.command == "clutch-irr":
        graph = _load_graph(args.graph)
        sheaf = docio.parse_sheaf_document(_read_json(args.sheaf), graph)
        new_graph, new_sheaf = maps.clutch_irr(graph, args.x, args.y, sheaf)
        result = {"graph": docio.graph_document(new_graph),
                  "sheaf": docio.sheaf_document(new_sheaf),
                  "new_edge_index": len(new_graph.edges) - 1}
        if args.pol is not None:
            pol = docio.parse_polarization_document(_read_json(args.pol))
            result["pol"] = docio.polarization_document(
                maps.clutch_irr_polarization(pol, args.x, args.y))
        return result

    if args.command == "clutch-sep":
        graph1 = _load_graph(args.graph1)
        graph2 = _load_graph(args.graph2)
        sheaf1 = docio.parse_sheaf_document(_read_json(args.sheaf1), graph1)
        sheaf2 = docio.parse_sheaf_document(_read_json(args.sheaf2), graph2)
        new_graph, new_sheaf = maps.clutch_sep(
            graph1, args.x, sheaf1, graph2, args.y, sheaf2)
        result = {"graph": docio.graph_document(new_graph),
                  "sheaf": docio.sheaf_document(new_sheaf),
                  "new_edge_index": len(new_graph.edges) - 1}
        if args.pol1 is not None or args.pol2 is not None:
            if args.pol1 is None or args.pol2 is None:
                raise ValidationError("clutch-sep needs both --pol1 and --pol2")
            pol1 = docio.parse_polarization_document(_read_json(args.pol1))
            pol2 = docio.parse_polarization_document(_read_json(args.pol2))
            result["pol"] = docio.polarization_document(
                maps.clutch_sep_polarization(pol1, args.x, pol2, args.y))
        return result

    if args.command == "forget":
        graph = _load_graph(args.graph)
        sheaf = docio.parse_sheaf_document(_read_json(args.sheaf), graph)
        new_graph, new_sheaf, report = maps.forget_point(
            graph, args.marking, sheaf)
        result = {"graph": docio.graph_document(new_graph),
                  "sheaf": docio.sheaf_document(new_sheaf),
                  "case": report.case,
                  "removed_vertex": report.removed_vertex,
                  "new_edge_index": report.new_edge_index,
                  "simple": is_simple(new_graph, new_sheaf)}
        if args.pol is not None:
            pol = docio.parse_polarization_document(_read_json(args.pol))
            if not maps.check_star(pol, graph, args.marking):
                raise PreconditionError(
                    "polarization does not satisfy the contraction condition "
                    "(weight 0 on the contracted vertex and a_x = 0)")
            result["pol"] = docio.polarization_document(
                maps.forget_polarization(
                    pol, args.marking, genus=graph.genus,
                    marking_labels=graph.marking_labels))
        return result

    if args.command == "abel-jacobi":
        graph = _load_graph(args.graph)
        dtuple_doc = _read_json(args.dtuple)
        if not isinstance(dtuple_doc, dict):
            raise ValidationError("dtuple document must map labels to integers")
        dtuple = {}
        for label, value in dtuple_doc.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"dtuple entry {label!r} must be an integer")
            dtuple[str(label)] = value
        pol, sheaf, verdict = maps.abel_jacobi(graph, dtuple)
        return {"pol": docio.polarization_document(pol),
                "sheaf": docio.sheaf_document(sheaf),
                "verdict": _verdict_document(verdict)}

    if args.command == "kp-translate":
        phi, genus, labels = docio.parse_phi_document(_read_json(args.phi))
        pol = maps.kp_translate(phi, genus, labels)
        return {"pol": docio.polarization_document(pol),
                "anchor": min(labels, key=label_sort_key)}

    if args.command == "corpus":
        graphs = corpus_mod.generate_corpus(
            args.genus, _parse_markings(args.markings), args.max_vertices)
        return {"count": len(graphs),
                "graphs": [docio.graph_document(g) for g in graphs]}

    if args.command == "complexity":
        graph = _load_graph(args.graph)
        return {"complexity": lattice.complexity(graph)}

    if args.command == "equiv":
        graph = _load_graph(args.graph)

        def load_vector(path):
            doc = _read_json(path)
            if not isinstance(doc, dict):
                raise ValidationError("multidegree document must be an object")
            out = {}
            for v, value in doc.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValidationError(f"degree of {v!r} must be an integer")
                out[str(v)] = value
            return out

        equivalent = lattice.multidegrees_equivalent(
            graph, load_vector(args.d1), load_vector(args.d2))
        return {"equivalent": equivalent}

    raise ValidationError(f"unknown subcommand {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the validation code
        return int(exc.code or 0)
    try:
        _check_threads_env()
        result = _run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
