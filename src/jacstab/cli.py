"""Command-line interface.

Every subcommand reads JSON documents from files, and ``_emit`` streams its JSON
result to stdout (fixed key order, no floats, byte-identical across runs); problems
go to stderr.  Exit codes: 0 success, also when the reader closes the pipe early,
2 invalid input data, 3 unsatisfied precondition.

One table, ``COMMANDS``, gives each subcommand's help, arguments and handler.
``_run`` loads the graphs, then ``--pol`` as a profile on ``--graph``, then
the sheaves, and calls the handler, which loads the rest: transport recipes
(explicit only) after its map has run, and integer maps.

JACSTAB_THREADS is accepted and validated for forward compatibility; all
operations are pure and currently run single-threaded, so it does not
change any output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import corpus as corpus_mod
from . import io as docio
from . import lattice, maps, polarization, stability
from .errors import PreconditionError, ValidationError, clip, parse_int, require_int
from .graphs import sorted_labels, subcurve_invariants
from .polarization import ExplicitPolarization
from .sheaves import is_simple


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return docio.loads_document(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _recipes(*flagged: tuple[str, str]) -> list[ExplicitPolarization]:
    """Recipes to transport, from (flag, path) pairs: all read, then checked."""
    # a profile cannot be parsed without a graph: the check below refuses it
    pols = [None if isinstance(doc, dict) and doc.get("kind") == "profile"
            else docio.parse_polarization_document(doc)
            for doc in (_read_json(path) for _, path in flagged)]
    for (flag, _), pol in zip(flagged, pols):
        if not isinstance(pol, ExplicitPolarization):
            raise ValidationError(
                f'{flag} must be an explicit polarization recipe (kind "explicit")')
    return pols


def _int_map(path: str, what: str) -> dict[str, int]:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} document must map keys to integers")
    return {key: require_int(value, f"{what} entry {clip(key)}") for key, value in doc.items()}


def _parse_markings(text: str | None) -> tuple[str, ...]:
    return tuple(part.strip() for part in (text or "").split(",") if part.strip())


def _emit(result: dict) -> None:
    docio.write_document(result, sys.stdout.write)
    sys.stdout.write("\n")


def _verdict_document(verdict) -> dict:
    doc = {"status": verdict.status}
    if verdict.witness is not None:
        doc["witness"] = list(verdict.witness)
    if verdict.quasistable_at_base is not None:
        doc["quasistable_at_base"] = verdict.quasistable_at_base
    return doc


def _invariants(args) -> dict:
    inv = subcurve_invariants(args.graph, _parse_markings(args.subcurve))
    return {"k": inv.k, "w": inv.w, "genus": inv.genus,
            "components": [sorted(c) for c in inv.components]}


def _enumerate(args) -> dict:
    modes = [m for m in ("stable", "semistable", "quasistable") if getattr(args, m)]
    if len(modes) != 1:
        raise ValidationError(
            "choose exactly one of --stable / --semistable / --quasistable")
    sheaves = stability.enumerate_sheaves(
        args.graph, args.pol, modes[0], base_vertex=args.base,
        include_nonfree=args.include_nonfree)
    return {"mode": modes[0], "count": len(sheaves),
            "sheaves": map(docio.sheaf_document, sheaves)}


def _is_general(args) -> dict:
    general, witnesses = polarization.is_general(args.graph, args.pol)
    return {"general": general, "witnesses": [sorted(w) for w in witnesses]}


def _clutch_irr(args) -> dict:
    graph, sheaf = maps.clutch_irr(args.graph, args.x, args.y, args.sheaf)
    result = {"graph": docio.graph_document(graph), "sheaf": docio.sheaf_document(sheaf),
              "new_edge_index": len(graph.edges) - 1}
    if args.recipe is not None:
        pol, = _recipes(("--pol", args.recipe))
        result["pol"] = docio.polarization_document(
            maps.clutch_irr_polarization(pol, args.x, args.y))
    return result


def _clutch_sep(args) -> dict:
    graph, sheaf = maps.clutch_sep(
        args.graph1, args.x, args.sheaf1, args.graph2, args.y, args.sheaf2)
    result = {"graph": docio.graph_document(graph), "sheaf": docio.sheaf_document(sheaf),
              "new_edge_index": len(graph.edges) - 1}
    if args.pol1 is not None or args.pol2 is not None:
        if args.pol1 is None or args.pol2 is None:
            raise ValidationError(f"{args.command} needs both --pol1 and --pol2")
        pol1, pol2 = _recipes(("--pol1", args.pol1), ("--pol2", args.pol2))
        result["pol"] = docio.polarization_document(
            maps.clutch_sep_polarization(pol1, args.x, pol2, args.y))
    return result


def _forget(args) -> dict:
    graph, sheaf, report = maps.forget_point(args.graph, args.marking, args.sheaf)
    result = {"graph": docio.graph_document(graph), "sheaf": docio.sheaf_document(sheaf),
              "case": report.case, "removed_vertex": report.removed_vertex,
              "new_edge_index": report.new_edge_index, "simple": is_simple(graph, sheaf)}
    if args.recipe is not None:
        pol, = _recipes(("--pol", args.recipe))
        if not maps.check_star(pol, args.graph, args.marking):
            raise PreconditionError(
                "polarization does not satisfy the contraction condition "
                "(weight 0 on the contracted vertex and a_x = 0)")
        result["pol"] = docio.polarization_document(maps.forget_polarization(
            pol, args.marking, genus=args.graph.genus,
            marking_labels=args.graph.marking_labels))
    return result


def _abel_jacobi(args) -> dict:
    pol, sheaf, verdict = maps.abel_jacobi(args.graph, _int_map(args.dtuple, "dtuple"))
    return {"pol": docio.polarization_document(pol),
            "sheaf": docio.sheaf_document(sheaf),
            "verdict": _verdict_document(verdict)}


def _kp_translate(args) -> dict:
    phi, genus, labels = docio.parse_phi_document(_read_json(args.phi))
    return {"pol": docio.polarization_document(maps.kp_translate(phi, genus, labels)),
            "anchor": labels[0]}


def _corpus(args) -> dict:
    labels = sorted_labels(_parse_markings(args.markings))
    keys = corpus_mod.corpus_keys(args.genus, labels, args.max_vertices)  # the root at least
    graphs = [docio.Text(docio.key_graph_text(k, args.genus, labels, "\n    ")) for k in keys]
    return {"count": len(keys), "graphs": graphs}  # a list: all keys checked before any write


BASE = ("--base", {})
SWITCH = {"action": "store_true"}

# name -> (help text, arguments, handler).  A bare flag is a required
# argument.  A transported --pol has the dest "recipe", so _run leaves it alone.
COMMANDS = {
    "validate": ("validate a graph document", ["--graph"], lambda args: {
        "valid": True, "genus": args.graph.genus,
        "vertices": len(args.graph.vertices), "edges": len(args.graph.edges)}),
    "invariants": ("k, w, genus and components of a subcurve", [
        "--graph",
        ("--subcurve", {"required": True, "help": "comma-separated vertex ids"}),
    ], _invariants),
    "qprofile": ("compile a polarization to vertex weights", ["--graph", "--pol"],
                 lambda args: docio.profile_document(args.pol)),
    "check": ("stability verdict of one sheaf type", [
        "--graph", "--pol", "--sheaf", BASE,
    ], lambda args: _verdict_document(stability.check(
        args.graph, args.pol, args.sheaf, base_vertex=args.base))),
    "enumerate": ("enumerate (semi/quasi)stable sheaf types", [
        "--graph", "--pol", ("--stable", SWITCH), ("--semistable", SWITCH),
        ("--quasistable", SWITCH), BASE, ("--include-nonfree", SWITCH),
    ], _enumerate),
    "count": ("number of quasistable line-bundle types (general profile)", [
        "--graph", "--pol", ("--base", {"help": "validated; the count does not depend on it"}),
    ], lambda args: {"count": stability.count_components(
        args.graph, args.pol, base_vertex=args.base)}),
    "is-general": ("generality of a profile, with witnesses", ["--graph", "--pol"],
                   _is_general),
    "perturb": ("nudge a profile off the integrality walls", [
        "--graph", "--pol", ("--seed", {"type": parse_int, "default": 0}),
    ], lambda args: docio.profile_document(
        polarization.perturb_general(args.graph, args.pol, seed=args.seed))),
    "clutch-irr": ("glue two markings of one graph into a node", [
        "--graph", "--sheaf", "--x", "--y",
        ("--pol", {"dest": "recipe", "metavar": "POL",
                   "help": "explicit polarization to transport (a_x = a_y = s)"}),
    ], _clutch_irr),
    "clutch-sep": ("join two graphs by a free edge at two markings", [
        "--graph1", "--sheaf1", "--x", "--graph2", "--sheaf2", "--y",
        ("--pol1", {}), ("--pol2", {}),
    ], _clutch_sep),
    "forget": ("forget a marking and push the sheaf forward", [
        "--graph", "--sheaf", "--marking",
        ("--pol", {"dest": "recipe", "metavar": "POL",
                   "help": "explicit polarization to transport (a_x = 0)"}),
    ], _forget),
    "abel-jacobi": ("section recipe from integer marking weights", [
        "--graph",
        ("--dtuple", {"required": True,
                      "help": "JSON file mapping marking labels to integers"}),
    ], _abel_jacobi),
    "kp-translate": ("boundary coefficients from a phi table", ["--phi"], _kp_translate),
    "corpus": ("all stable graphs with bounded vertex count, up to iso", [
        ("--genus", {"type": parse_int, "required": True}),
        ("--markings", {"help": "comma-separated marking labels"}),
        ("--max-vertices", {"type": parse_int, "required": True}),
    ], _corpus),
    "complexity": ("number of spanning trees", ["--graph"],
                   lambda args: {"complexity": lattice.complexity(args.graph)}),
    "equiv": ("multidegree equivalence modulo Laplacian moves", [
        "--graph", ("--d1", {"required": True, "help": "JSON file: vertex id -> int"}),
        ("--d2", {"required": True, "help": "JSON file: vertex id -> int"}),
    ], lambda args: {"equivalent": lattice.multidegrees_equivalent(
        args.graph, _int_map(args.d1, "multidegree"),
        _int_map(args.d2, "multidegree"))}),
}


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacstab",
        description="Exact stability computations for sheaf types on "
                    "marked nodal-curve dual graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            flag, options = ((argument, {"required": True})
                             if isinstance(argument, str) else argument)
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def _check_threads_env() -> None:
    raw = os.environ.get("JACSTAB_THREADS")
    try:
        if raw is None or parse_int(raw) >= 1:
            return
    except ValidationError:
        pass
    raise ValidationError(f"JACSTAB_THREADS must be a positive integer, got {clip(raw)}")


def _run(args) -> dict:
    loaded = vars(args)  # the namespace itself: a loaded document replaces its path
    graphs = [key for key in ("graph", "graph1", "graph2") if key in loaded]
    for key in graphs:
        loaded[key] = docio.parse_graph_document(_read_json(loaded[key]))
    if "pol" in loaded:
        pol = docio.parse_polarization_document(_read_json(args.pol), args.graph)
        args.pol = polarization.compile_polarization(pol, args.graph)
    for key in graphs:
        sheaf = key.replace("graph", "sheaf")
        if sheaf in loaded:
            loaded[sheaf] = docio.parse_sheaf_document(
                _read_json(loaded[sheaf]), loaded[key])
    return args.handler(args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # parse_int refuses a flag with ValidationError
        _check_threads_env()
        _emit(_run(args))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the validation code
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader left; the flush at exit goes to devnull
        with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # unless stdout has no descriptor
    return 0


if __name__ == "__main__":
    sys.exit(main())
