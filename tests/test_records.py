"""The ten records against the ``@dataclass`` definitions they replaced.

The value types of jacstab are ``graphs.Record`` subclasses.  The classes
below are word-for-word copies of their ``@dataclass(frozen=True)``
definitions before that change, with the ``check_positions`` of that time,
which the copied ``MarkedDualGraph.validate`` calls.  On generated values the
records agree with them on equality, hashing, ``repr``, order, refused
assignment and deletion, construction, ``MarkedDualGraph.replace``, ``pickle``
and ``copy``.  A subprocess test checks that ``import jacstab.cli`` loads
only jacstab's own modules past the standard-library modules it uses, so
neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jacstab
from jacstab.errors import (ValidationError, parse_rational, require_int, require_int_map,
                            require_name)
from jacstab.graphs import (_subcurve_table, adjacency_masks, label_sort_key, mask_components,
                            sorted_labels, subcurve_table)
from jacstab.polarization import _marking_coefficients
from jacstab.sheaves import validate_sheaf

from conftest import multigraphs
from test_graphs import raw_graph


# -- the oracle: the dataclass definitions, copied verbatim -------------------------


@dataclass(frozen=True)
class MarkedDualGraph:
    """Dual graph of a marked nodal curve.

    ``vertices`` is an ordered tuple of ``(vertex id, genus)`` pairs; the
    tuple order fixes the vertex order used everywhere (degree vectors,
    weight profiles, serialized output).  ``edges`` is a tuple of id pairs;
    an edge's identity is its index in this tuple, which is what multigraphs
    need.  ``markings`` maps distinct labels to vertices.  Construction puts
    each edge's ends in vertex order and sorts the markings by
    ``label_sort_key``, then raises ``ValidationError`` unless ``validate``
    passes.
    """

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    markings: tuple[tuple[str, str], ...] = ()
    base_vertex: str | None = None

    @classmethod
    def build(cls, vertices, edges, markings=None, base_vertex=None
              ) -> "MarkedDualGraph":
        """Convenience constructor from plain dicts/lists of pairs; every id
        and label is read by ``require_name``."""
        items = markings.items() if isinstance(markings, dict) else markings or ()
        return cls(
            vertices=tuple((require_name(v, "vertex id"), require_int(g, "genus"))
                           for v, g in vertices),
            edges=tuple((require_name(u, "edge end"), require_name(v, "edge end"))
                        for u, v in edges),
            markings=tuple((require_name(l, "marking label"), require_name(v, "marking vertex"))
                           for l, v in items),
            base_vertex=None if base_vertex is None else require_name(base_vertex, "base vertex"))

    def __post_init__(self) -> None:
        order = self.vertex_index  # an end that is not a vertex is left for validate
        object.__setattr__(self, "edges", tuple(
            (v, u) if u in order and v in order and order[v] < order[u] else (u, v)
            for u, v in self.edges))
        object.__setattr__(self, "markings", tuple(
            sorted(self.markings, key=lambda p: label_sort_key(p[0]))))
        self.validate()

    # -- basic lookups -------------------------------------------------

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, (v, _) in enumerate(self.vertices)}

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, int], ...]:
        index = self.vertex_index
        return tuple((index[u], index[v]) for u, v in self.edges)

    @cached_property
    def genus_map(self) -> dict[str, int]:
        return {v: g for v, g in self.vertices}

    @cached_property
    def marking_map(self) -> dict[str, str]:
        return dict(self.markings)

    @cached_property
    def marking_labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.markings)

    @cached_property
    def markings_by_vertex(self) -> dict[str, tuple[str, ...]]:
        return {v: tuple(l for l, w in self.markings if w == v) for v in self.vertex_ids}

    _table = cached_property(lambda self: _subcurve_table(self.vertex_ids, self.edges))

    @cached_property
    def _forgettings(self) -> dict[str, tuple]:
        """``stabilize_forgetting`` results of this graph, by marking."""
        return {}

    @cached_property
    def _simple(self) -> dict[frozenset[int], bool]:
        """``is_simple`` answers of this graph, by non-free edge set."""
        return {}

    @cached_property
    def valence_map(self) -> dict[str, int]:
        """Valence with loops counted twice."""
        return {v: sum(e.count(v) for e in self.edges) for v in self.vertex_ids}

    @property
    def genus(self) -> int:
        """Arithmetic genus: sum of vertex genera + edges - vertices + 1."""
        return sum(g for _, g in self.vertices) + len(self.edges) - len(self.vertices) + 1

    def w_of(self, vertex: str) -> int:
        """Degree of the dualizing sheaf on one component."""
        return 2 * self.genus_map[vertex] - 2 + self.valence_map[vertex]

    def vertex_stability_margin(self, vertex: str) -> int:
        return self.w_of(vertex) + len(self.markings_by_vertex.get(vertex, ()))

    # -- connectivity ---------------------------------------------------

    def is_connected(self, skip_edges: frozenset[int] = frozenset()) -> bool:
        adjacency = adjacency_masks(len(self.vertices), self.edge_ends, skip_edges)
        full = sum(1 << i for i in self.vertex_index.values())  # an id repeats before validate
        return next(mask_components(adjacency, full), None) == full

    # -- validation -----------------------------------------------------

    def validate(self) -> "MarkedDualGraph":
        """Return self iff every invariant holds (``check_positions``); report all violations."""
        index, marks = self.vertex_index, self.markings
        named = [] if len(dict(marks)) == len(marks) else ["duplicate marking label"]
        named += [f"marking {l} placed on unknown vertex {v}" for l, v in marks if v not in index]
        if self.base_vertex is not None and self.base_vertex not in index:
            named.append(f"base vertex {self.base_vertex} is not a vertex")
        check_positions([v for v, _ in self.vertices], [g for _, g in self.vertices],
                        [(index.get(u), index.get(v)) for u, v in self.edges],
                        [index[v] for _, v in marks if v in index], named)
        return self

    # -- derived graphs --------------------------------------------------

    def replace(self, **changes) -> "MarkedDualGraph":
        return dataclasses.replace(self, **changes)


def check_positions(ids, genera, ends, at, named=()) -> int:
    """The arithmetic genus of the graph with vertex ``ids`` and ``genera``, edges
    joining the positions ``ends`` (an end None is no vertex) and markings at the
    positions ``at``, if it is connected and stable; else a ``ValidationError``
    naming every violation, with ``named`` (those of names with no position) after
    the vertices' and edges'."""
    n, last = len(ids), {v: 1 << i for i, v in enumerate(ids)}  # a repeated id counts once
    problems = [] if n else ["disconnected: graph has no vertices"]
    problems += ["duplicate vertex ids"] if len(last) != n else []
    problems += [f"vertex {v} has negative genus {g}" for v, g in zip(ids, genera) if g < 0]
    unknown = [f"edge {i} references unknown vertex" for i, e in enumerate(ends) if None in e]
    problems += [*unknown, *named]
    genus, everyone = sum(genera) + len(ends) - n + 1, sum(last.values())
    if n and not unknown and next(mask_components(
            adjacency_masks(n, ends), everyone), None) != everyone:
        problems.append("disconnected graph")
    if n and genus < 0:
        problems.append(f"total genus {genus} is negative")
    if not problems:
        margin = [2 * g - 2 for g in genera]  # 2g-2+valence+markings
        for i, j in ends:
            margin[i] += 1
            margin[j] += 1
        for i in at:
            margin[i] += 1
        problems = [f"unstable vertex {v}: 2g-2+valence+markings = {m} <= 0"
                    for v, m in zip(ids, margin) if m <= 0]
    if problems:
        raise ValidationError("; ".join(problems))
    return genus


@dataclass(frozen=True)
class SubcurveInvariants:
    """Boundary count, dualizing degree, genus and components of a subcurve."""

    k: int
    w: int
    genus: int
    components: tuple[frozenset[str], ...]


@dataclass(frozen=True, order=True)
class NodeTypeLabel:
    """Oriented type of a separating node.

    Names the canonical side of the node by its genus and the sorted tuple
    of marking labels it carries.  The label of the complementary side is
    ``(g - side_genus, complement markings)``.
    """

    side_genus: int
    side_markings: tuple[str, ...]

    @classmethod
    def of(cls, genus: int, markings) -> "NodeTypeLabel":
        return cls(require_int(genus, "side genus"), sorted_labels(markings))


@dataclass(frozen=True)
class ContractionReport:
    """What happened when a marking was forgotten.

    ``case`` is "a" (two-edge rational vertex fused into one new edge),
    "b" (rational tail deleted, its second marking transferred), or None.
    ``edge_map`` maps surviving old edge indices to new ones;
    ``fused_ends`` records, for case (a), which old edge led to which
    surviving endpoint of the new edge.
    """

    case: str | None
    removed_vertex: str | None = None
    removed_edges: tuple[int, ...] = ()
    new_edge_index: int | None = None
    transferred_marking: str | None = None
    edge_map: tuple[tuple[int, int], ...] = ()
    fused_ends: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class ExplicitPolarization:
    """Family-level coefficient recipe (s, a_i, alpha_(b,B), r)."""

    s: Fraction
    r: Fraction
    a: tuple[tuple[str, Fraction], ...] = ()
    alpha: tuple[tuple[NodeTypeLabel, Fraction], ...] = ()

    @classmethod
    def build(cls, s, r, a=None, alpha=None) -> "ExplicitPolarization":
        r = parse_rational(r)
        if r <= 0:
            raise ValidationError(f"rank coefficient r must be positive, got {r}")
        alpha_items = tuple(sorted(
            (label, parse_rational(c)) for label, c in dict(alpha or {}).items()))
        return cls(s=parse_rational(s), r=r, a=_marking_coefficients(a), alpha=alpha_items)

    @cached_property
    def a_map(self) -> dict[str, Fraction]:
        return dict(self.a)

    @cached_property
    def alpha_map(self) -> dict[NodeTypeLabel, Fraction]:
        return dict(self.alpha)

    def target_degree(self, genus: int) -> Fraction:
        return (self.s * (2 * genus - 2) + sum(self.a_map.values())) / self.r + genus - 1


@dataclass(frozen=True)
class CanonicalPolarization:
    """Degree-d canonical recipe with marking weights a (basic inequality)."""

    d: int
    a: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def build(cls, d, a=None) -> "CanonicalPolarization":
        return cls(d=require_int(d, "d"), a=_marking_coefficients(a))

    @cached_property
    def a_map(self) -> dict[str, Fraction]:
        return dict(self.a)

    def as_explicit(self, genus: int) -> ExplicitPolarization:
        weight_total = 2 * genus - 2 + sum(self.a_map.values())
        if weight_total <= 0:
            raise ValidationError(
                f"canonical recipe needs 2g-2+sum(a) > 0, got {weight_total}")
        lead = Fraction(self.d - genus + 1)
        return ExplicitPolarization.build(
            s=lead, r=weight_total, a={l: lead * c for l, c in self.a})


@dataclass(frozen=True)
class QProfile:
    """Compiled rational vertex weights for one graph; sum(q) = d."""

    graph: MarkedDualGraph
    q: tuple[tuple[str, Fraction], ...]
    d: int

    @cached_property
    def q_map(self) -> dict[str, Fraction]:
        return dict(self.q)

    def q_of(self, vertex_set) -> Fraction:
        Y = frozenset(require_name(v, "vertex id") for v in vertex_set)
        return sum((f for v, f in self.q if v in Y), Fraction(0))

    @cached_property
    def thresholds(self) -> tuple[tuple[int, bool], ...]:
        """(ceil(b_Y), b_Y is an integer) per subcurve of the graph's table,
        where b_Y = q_Y - k_Y/2, in integers after scaling by L = lcm(2,
        denominators of q).  deg_Y < ceil(b_Y) violates Y; deg_Y == b_Y is
        an equality."""
        scale = math.lcm(2, *(f.denominator for _, f in self.q))
        scaled = [f.numerator * (scale // f.denominator) for _, f in self.q]
        walls = (sum(map(scaled.__getitem__, sub.members)) - scale // 2 * sub.k
                 for sub in subcurve_table(self.graph).subcurves)
        return tuple((-(-b // scale), b % scale == 0) for b in walls)


@dataclass(frozen=True)
class SheafType:
    """(non-free edge set, vertex multidegree), degrees in vertex order."""

    nonfree_edges: frozenset[int]
    degrees: tuple[tuple[str, int], ...]

    @classmethod
    def build(cls, graph: MarkedDualGraph, degrees, nonfree_edges=()) -> "SheafType":
        deg = require_int_map(graph.vertex_index, dict(degrees), "sheaf degrees")
        edges, seen = [require_int(e, "edge index") for e in nonfree_edges], set()
        for e in edges:  # one pass: the first repeat is refused
            if e in seen or seen.add(e):
                raise ValidationError(f"non-free edge index {e} repeated")
        sheaf = cls(nonfree_edges=frozenset(seen), degrees=tuple(zip(graph.vertex_ids, deg)))
        return validate_sheaf(graph, sheaf)

    @property
    def degree_map(self) -> dict[str, int]:
        return dict(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.degrees) + len(self.nonfree_edges)


@dataclass(frozen=True)
class StabilityVerdict:
    """stable / strictly_semistable / unstable, plus a witness subcurve.

    The witness is the first violated subcurve (unstable) or the first
    equality subcurve (strictly semistable) in canonical order.
    """

    status: str
    quasistable_at_base: bool | None = None
    witness: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PhiTable:
    """Rational vertex weight per separating-node type, target degree g-1."""

    values: tuple[tuple[NodeTypeLabel, Fraction], ...]

    @classmethod
    def build(cls, values) -> "PhiTable":
        items = tuple(sorted(
            (label, parse_rational(c)) for label, c in dict(values).items()))
        return cls(values=items)

    @cached_property
    def value_map(self) -> dict[NodeTypeLabel, Fraction]:
        return dict(self.values)


# -- generated values ----------------------------------------------------------------

ORACLE = {cls.__name__: cls for cls in (
    MarkedDualGraph, SubcurveInvariants, NodeTypeLabel, ContractionReport, ExplicitPolarization,
    CanonicalPolarization, QProfile, SheafType, StabilityVerdict, PhiTable)}
RECORDS = {name: getattr(jacstab, name) for name in ORACLE}
FIELDS = {name: [f.name for f in dataclasses.fields(cls)] for name, cls in ORACLE.items()}

names = st.sampled_from(["1", "2", "x", "v0"])
small = st.integers(-1, 2)
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
name_tuples = st.lists(names, max_size=3, unique=True).map(lambda l: tuple(sorted(l)))
# a side genus equal to an int may be a float or a Fraction: they hash and compare alike
label_fields = st.tuples(st.sampled_from([0, 1, 2, 1.0, 0.5, Fraction(1)]), name_tuples)
graph_fields = multigraphs(max_vertices=3, max_edges=4).map(
    lambda g: (g.vertices, g.edges, g.markings, g.base_vertex))


def pairs(keys, values):
    return st.lists(st.tuples(keys, values), max_size=3).map(tuple)


# the fields of each record, a label as its fields and a graph as its four fields;
# an optional field left out takes its default
SPECS = {
    "MarkedDualGraph": st.one_of(
        graph_fields, st.binary(min_size=19, max_size=19).map(raw_graph)).map(
            lambda f: dict(zip(FIELDS["MarkedDualGraph"], f))),
    "SubcurveInvariants": st.fixed_dictionaries({
        "k": small, "w": small, "genus": small,
        "components": st.lists(st.frozensets(names, max_size=2), max_size=2).map(tuple)}),
    "NodeTypeLabel": label_fields.map(lambda f: dict(zip(FIELDS["NodeTypeLabel"], f))),
    "ContractionReport": st.fixed_dictionaries({
        "case": st.sampled_from(["a", "b", None])}, optional={
        "removed_vertex": st.sampled_from(["v0", None]),
        "removed_edges": st.lists(st.integers(0, 3), max_size=2).map(tuple),
        "new_edge_index": st.sampled_from([0, 2, None]),
        "transferred_marking": st.sampled_from(["x", None]),
        "edge_map": pairs(st.integers(0, 2), st.integers(0, 2)),
        "fused_ends": pairs(st.integers(0, 2), names)}),
    "ExplicitPolarization": st.fixed_dictionaries({"s": rationals, "r": rationals}, optional={
        "a": pairs(names, rationals), "alpha": pairs(label_fields, rationals)}),
    "CanonicalPolarization": st.fixed_dictionaries({"d": small}, optional={
        "a": pairs(names, rationals)}),
    "QProfile": st.fixed_dictionaries({
        "graph": graph_fields, "q": pairs(names, rationals), "d": small}),
    "SheafType": st.fixed_dictionaries({
        "nonfree_edges": st.frozensets(st.integers(0, 3), max_size=2),
        "degrees": pairs(names, small)}),
    "StabilityVerdict": st.fixed_dictionaries({
        "status": st.sampled_from(["stable", "strictly_semistable", "unstable"])}, optional={
        "quasistable_at_base": st.sampled_from([None, True, False]),
        "witness": st.one_of(st.none(), name_tuples)}),
    "PhiTable": st.fixed_dictionaries({"values": pairs(label_fields, rationals)}),
}


def fields_of(classes: dict, name: str, spec: dict) -> dict:
    """``spec`` with each label and graph in it made a record of ``classes``."""
    label = classes["NodeTypeLabel"]
    if name in ("ExplicitPolarization", "PhiTable"):
        key = "alpha" if name == "ExplicitPolarization" else "values"
        if key in spec:
            spec = {**spec, key: tuple((label(*f), c) for f, c in spec[key])}
    if name == "QProfile":
        spec = {**spec, "graph": classes["MarkedDualGraph"](*spec["graph"])}
    return spec


def build(classes: dict, name: str, spec: dict, positional: bool = False):
    """The record of ``classes`` with the fields of ``spec``, or the message it is refused with."""
    fields = fields_of(classes, name, spec)
    order = FIELDS[name][:len(fields)]
    try:
        if positional and set(order) == set(fields):  # the given fields lead
            return classes[name](*(fields[f] for f in order))
        return classes[name](**fields)
    except ValidationError as error:
        return f"refused: {error}"


def assert_alike(record, oracle) -> None:
    """One record and its oracle value: same class name, ``repr`` and hash, and both
    refuse assignment and deletion of a field and of another name."""
    if isinstance(oracle, str):  # both refused, with one message
        assert record == oracle
        return
    assert type(record).__name__ == type(oracle).__name__
    assert repr(record) == repr(oracle)
    assert hash(record) == hash(oracle)
    for name in FIELDS[type(oracle).__name__] + ["other"]:
        for value in (record, oracle):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert repr(record) == repr(oracle)  # nothing was changed


OTHERS = (None, 0, "", (), Fraction(1))


@pytest.mark.parametrize("name", SPECS)
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(data=st.data())
def test_records_agree_with_their_dataclasses(name, data):
    first = data.draw(SPECS[name])
    second = data.draw(st.one_of(st.just(first), SPECS[name]))
    records = [build(RECORDS, name, s, positional=data.draw(st.booleans()))
               for s in (first, second)]
    oracles = [build(ORACLE, name, s, positional=data.draw(st.booleans()))
               for s in (first, second)]
    for record, oracle in zip(records, oracles):
        assert_alike(record, oracle)
    (a, b), (x, y) = records, oracles
    assert (a == b) == (x == y) and (a != b) == (x != y)
    assert (b == a) == (y == x) and (b != a) == (y != x)
    if not isinstance(x, str):
        assert a != x and not a == x  # a record never equals its oracle value
        for other in OTHERS + (tuple(vars(x)[f] for f in FIELDS[name]),):
            assert (a == other) == (x == other) and (a != other) == (x != other)
            assert (other == a) == (other == x)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.lists(label_fields, max_size=8))
def test_labels_order_as_their_dataclass(fields):
    records = [RECORDS["NodeTypeLabel"](*f) for f in fields]
    oracles = [ORACLE["NodeTypeLabel"](*f) for f in fields]
    assert list(map(repr, sorted(records))) == list(map(repr, sorted(oracles)))
    assert list(map(repr, sorted(records, reverse=True))) \
        == list(map(repr, sorted(oracles, reverse=True)))
    for a, x in zip(records, oracles):
        for b, y in zip(records, oracles):
            assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
        for value in (a, x):
            with pytest.raises(TypeError):
                value < 0  # noqa: B015
            with pytest.raises(TypeError):
                value >= (a.side_genus, a.side_markings)  # noqa: B015


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(graph_fields, st.data())
def test_replace_normalizes_and_refuses_as_dataclasses_replace(fields, data):
    """``replace`` builds the graph again: its edges and markings are put in normal
    form, and an invalid change is refused with the message of construction."""
    record, oracle = RECORDS["MarkedDualGraph"](*fields), ORACLE["MarkedDualGraph"](*fields)
    ids = [v for v, _ in fields[0]] + ["zz"]  # "zz" is no vertex
    ends = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    change = data.draw(st.fixed_dictionaries({}, optional={
        "vertices": st.lists(st.tuples(st.sampled_from(ids), st.integers(-1, 2)),
                             min_size=1, max_size=4).map(tuple),
        "edges": st.lists(ends, max_size=5).map(tuple),
        "markings": st.lists(st.tuples(names, st.sampled_from(ids)), max_size=3).map(tuple),
        "base_vertex": st.sampled_from(ids + [None])}))
    results = []
    for graph in (record, oracle):
        try:
            results.append(graph.replace(**change))
        except ValidationError as error:
            results.append(f"refused: {error}")
    assert_alike(*results)
    with pytest.raises(TypeError):
        record.replace(genus=1)
    with pytest.raises(TypeError):
        oracle.replace(genus=1)


@pytest.mark.parametrize("name", SPECS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_pickle_and_copy_round_trips(name, data):
    record = build(RECORDS, name, data.draw(SPECS[name]))
    if isinstance(record, str):  # refused
        return
    if name == "MarkedDualGraph":
        record.vertex_ids, subcurve_table(record)  # a round trip keeps filled caches too
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
        assert all(getattr(twin, f) == getattr(record, f) for f in FIELDS[name])
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[name][0], None)


def test_sheaf_type_by_keyword_as_the_benchmark_builds_it():
    sheaf = RECORDS["SheafType"](nonfree_edges=frozenset({1}), degrees=(("v1", 1), ("v2", 0)))
    oracle = ORACLE["SheafType"](nonfree_edges=frozenset({1}), degrees=(("v1", 1), ("v2", 0)))
    assert_alike(sheaf, oracle)
    assert sheaf == RECORDS["SheafType"](frozenset({1}), (("v1", 1), ("v2", 0)))
    assert sheaf.total_degree == oracle.total_degree == 2


# the standard-library modules jacstab imports, each with what it imports
STDLIB = ("__future__", "argparse", "bisect", "fractions", "functools", "itertools", "json",
          "math", "operator", "os", "random", "sys", "typing")


def test_cli_imports_only_jacstab_past_the_standard_library():
    code = "\n".join([
        "import sys",
        f"import {', '.join(STDLIB)}",
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules",
        "before = set(sys.modules)",
        "import jacstab.cli",
        "added = set(sys.modules) - before",
        "print(sorted(m for m in added if m.split('.')[0] != 'jacstab'))"])
    src = str(Path(jacstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
