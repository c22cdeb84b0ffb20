"""JSON document formats: graphs, polarizations, sheaves, phi tables.

Rationals travel as reduced fraction strings ("3", "-1/5"); no floating
point is accepted anywhere.  Edges are identified by their index in the
"edges" array, which multigraphs need.  ``write_document``, the one JSON writer,
streams keys in a fixed order, so output is byte-identical across runs and platforms.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted

from .errors import ValidationError, clip, parse_rational, require_int
from .graphs import MarkedDualGraph, NodeTypeLabel, check_positions, sorted_labels
from .maps import PhiTable
from .polarization import (CanonicalPolarization, ExplicitPolarization,
                           QProfile, make_profile)
from .sheaves import SheafType


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))  # "3", "-1/5"


def loads_document(text: str) -> dict:
    # a JSON float reaches the rational rule as a float, which it refuses
    return json.loads(text, parse_float=lambda text: parse_rational(float(text)))


class Text(str):
    """A JSON value already rendered, at the indentation it is written at."""


def write_document(value, put, newline: str = "\n") -> None:
    """Puts the bytes of ``json.dumps(value, indent=2)`` through ``put``, for dicts with str
    keys, lists, tuples, maps (read once), str, int, bool and None, with ``newline`` for each
    line break; a ``Text`` is put as it is, and anything else is a TypeError."""
    if isinstance(value, str):
        put(value if isinstance(value, Text) else _quoted(value))
    elif value is None or isinstance(value, bool):
        put("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, dict):  # _quoted refuses a key that is not a str
        inner = newline + "  "
        for k, (key, item) in enumerate(value.items()):
            put(("," if k else "{") + inner + _quoted(key) + ": ")
            write_document(item, put, inner)
        put(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple, map)):
        inner, k = newline + "  ", -1
        for k, item in enumerate(value):  # one put per item: a put may be a system call
            chunks = [("," if k else "[") + inner]
            write_document(item, chunks.append, inner)
            put("".join(chunks))
        put(newline + "]" if k >= 0 else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _rational_map(doc: dict, key: str) -> dict:
    """The JSON object doc[key] (empty when absent); its builder parses the values."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f'"{key}" must be a JSON object of rationals, got {clip(value)}')
    return value


# -- graphs ------------------------------------------------------------------


def parse_graph_document(doc: dict) -> MarkedDualGraph:
    if not isinstance(doc, dict):
        raise ValidationError("graph document must be a JSON object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list):
        raise ValidationError('graph document needs a "vertices" array')
    vs = []
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "genus" not in entry:
            raise ValidationError('each vertex needs "id" and "genus"')
        vs.append((entry["id"], entry["genus"]))
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ValidationError('"edges" must be an array of id pairs')
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"edge {clip(entry)} must be a pair of vertex ids")
    markings = doc.get("markings", {})
    if not isinstance(markings, dict):
        raise ValidationError('"markings" must map labels to vertex ids')
    # the ids and labels go to the builder as JSON gave them: it reads each once
    graph = MarkedDualGraph.build(vertices=vs, edges=edges, markings=markings,
                                  base_vertex=doc.get("base_vertex"))
    expected = doc.get("expected_genus")
    if expected is not None and graph.genus != require_int(expected, "expected_genus"):
        raise ValidationError(
            f"expected_genus {clip(expected, str)} does not match computed genus {graph.genus}")
    return graph


def graph_document(graph: MarkedDualGraph) -> dict:
    doc = {
        "vertices": [{"id": v, "genus": g} for v, g in graph.vertices],
        "edges": [[u, v] for u, v in graph.edges],
        "markings": {l: v for l, v in graph.markings},
    }
    if graph.base_vertex is not None:
        doc["base_vertex"] = graph.base_vertex
    doc["expected_genus"] = graph.genus
    return doc


def key_graph_text(key: tuple, genus: int, labels: tuple, newline: str) -> str:
    """What ``write_document`` puts for ``graph_document(graph_from_key(key))``, with ``newline``
    for each line break, once the graph passes ``check_positions`` with the genus and labels."""
    n, genera, marks, adj = key
    ends = [pair for pair, m in zip(itertools.combinations_with_replacement(range(n), 2), adj)
            if m for pair in (pair,) * m]
    if check_positions([(f"v{i}", g) for i, g in enumerate(genera)], ends, [i for _, i in marks]) \
            != genus or tuple(l for l, _ in marks) != labels:
        raise ValidationError(f"corpus key {key} is not of genus {genus} with markings {labels}")
    # a line holds a field of the graph at a, an item of a field at b, a field of an item at c
    a, b, c = (newline + "  " * k for k in (1, 2, 3))
    vertices = ",".join(f'{b}{{{c}"id": "v{i}",{c}"genus": {g}{b}}}' for i, g in enumerate(genera))
    edges = ",".join(f'{b}[{c}"v{i}",{c}"v{j}"{b}]' for i, j in ends)
    markings = ",".join(f'{b}{_quoted(l)}: "v{i}"' for l, i in marks)
    return (f'{{{a}"vertices": [{vertices}{a}],{a}"edges": ' + (f"[{edges}{a}]" if ends else "[]")
            + f',{a}"markings": ' + (f"{{{markings}{a}}}" if marks else "{}")
            + f',{a}"expected_genus": {genus}{newline}}}')


# -- node type labels --------------------------------------------------------


def parse_label(entry: dict) -> NodeTypeLabel:
    if not isinstance(entry, dict) or "b" not in entry or "B" not in entry:
        raise ValidationError('node type entries need "b" and "B"')
    if not isinstance(entry["B"], list):
        raise ValidationError('"B" must be an array of marking labels')
    return NodeTypeLabel.of(entry["b"], entry["B"])


def _label_values(entries, what: str) -> dict:
    """Node-type entries ({"b", "B", "value"}) as label -> value, each label once."""
    if not isinstance(entries, list):
        raise ValidationError(f'"{what}" must be an array of node-type entries')
    values = {}
    for entry in entries:
        label = parse_label(entry)
        if label in values:
            raise ValidationError(f"duplicate {what} label {clip(label, repr, 120)}")
        values[label] = entry.get("value")
    return values


def label_document(label: NodeTypeLabel) -> dict:
    return {"b": label.side_genus, "B": list(label.side_markings)}


# -- polarizations -----------------------------------------------------------


def parse_polarization_document(doc: dict, graph: MarkedDualGraph | None = None):
    """Returns an ExplicitPolarization, CanonicalPolarization or QProfile.

    Profile documents need the graph they are keyed against.
    """
    if not isinstance(doc, dict):
        raise ValidationError("polarization document must be a JSON object")
    kind = doc.get("kind")
    if kind == "explicit":
        return ExplicitPolarization.build(
            s=doc.get("s", "0"), r=doc.get("r", "1"), a=_rational_map(doc, "a"),
            alpha=_label_values(doc.get("alpha", []), "alpha"))
    if kind == "canonical":
        return CanonicalPolarization.build(d=doc.get("d"), a=_rational_map(doc, "a"))
    if kind == "profile":
        if graph is None:
            raise ValidationError("profile documents need a graph")
        return make_profile(graph, _rational_map(doc, "q"), doc.get("d"))
    raise ValidationError(f'unknown polarization kind {clip(kind)}')


def polarization_document(pol) -> dict:
    if isinstance(pol, ExplicitPolarization):
        return {
            "kind": "explicit",
            "s": format_rational(pol.s),
            "r": format_rational(pol.r),
            "a": {l: format_rational(c) for l, c in pol.a},
            "alpha": [dict(label_document(label), value=format_rational(c))
                      for label, c in pol.alpha],
        }
    if isinstance(pol, CanonicalPolarization):
        return {
            "kind": "canonical",
            "d": pol.d,
            "a": {l: format_rational(c) for l, c in pol.a},
        }
    if isinstance(pol, QProfile):
        return profile_document(pol)
    raise ValidationError(f"cannot serialize {type(pol).__name__}")


def profile_document(profile: QProfile) -> dict:
    return {
        "kind": "profile",
        "q": {v: format_rational(f) for v, f in profile.q},
        "d": profile.d,
    }


# -- sheaves ------------------------------------------------------------------


def parse_sheaf_document(doc: dict, graph: MarkedDualGraph) -> SheafType:
    if not isinstance(doc, dict):
        raise ValidationError("sheaf document must be a JSON object")
    degrees = doc.get("degrees")
    if not isinstance(degrees, dict):
        raise ValidationError('sheaf document needs a "degrees" object')
    nonfree = doc.get("nonfree", [])
    if not isinstance(nonfree, list):
        raise ValidationError('"nonfree" must be an array of edge indices')
    return SheafType.build(graph, degrees, nonfree)


def sheaf_document(sheaf: SheafType) -> dict:
    return {
        "nonfree": sorted(sheaf.nonfree_edges),
        "degrees": {v: d for v, d in sheaf.degrees},
    }


# -- phi tables ----------------------------------------------------------------


def parse_phi_document(doc: dict) -> tuple[PhiTable, int, tuple[str, ...]]:
    if not isinstance(doc, dict):
        raise ValidationError("phi document must be a JSON object")
    markings = doc.get("markings")
    if not isinstance(markings, list) or not markings:
        raise ValidationError('phi document needs a nonempty "markings" array')
    phi = PhiTable.build(_label_values(doc.get("phi"), "phi"))
    return phi, doc.get("genus"), sorted_labels(markings)  # kp_translate reads the genus
