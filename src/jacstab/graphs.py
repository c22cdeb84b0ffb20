"""Marked dual graphs of nodal curves and their combinatorial invariants.

A dual graph carries one vertex per irreducible component (weighted by its
geometric genus), one edge per node (loops and parallel edges allowed) and
one labelled leg per marked point.  Everything downstream works off a small
set of invariants computed here:

* subcurve counts k (nodes joining a vertex set to its complement) and
  w (degree of the dualizing sheaf, ``2g_v - 2 + valence`` summed, loops
  counting twice in the valence);
* oriented types of separating nodes, each naming the canonical side by
  its genus and marking set, and the signed degree such a node type puts
  on a subcurve;
* the one-step contraction performed when a marked point is forgotten and
  the vertex carrying it stops being stable.

A graph is put in normal form and checked once, when it is built:
``MarkedDualGraph.__init__`` puts each edge's ends in vertex order and
the markings in label order, then runs ``validate``.  So one structure is
one value however it was reached, every graph object is connected and
stable, and no function orders or re-checks its input.  ``validate`` reads
names as vertex positions for ``check_positions``, the one validity rule,
which ``corpus`` also runs on each key it writes; neither fills the cached
lookups (``vertex_ids``, ``genus_map``, ``valence_map``,
``markings_by_vertex``, ``edge_ends``), which stay lazy for their readers.
Connectivity is one bitmask search, ``mask_components``, over the
adjacency masks of ``adjacency_masks``.

All values are immutable ``Record``s; every function is pure.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import attrgetter, eq, ge, gt, le, lt, or_
from typing import NamedTuple

from .errors import (PreconditionError, ValidationError, clip, clip_keys, parse_int,
                     require_int, require_keys, require_name)


def label_sort_key(label: str) -> tuple:
    """Sort key for marking labels: those ``parse_int`` reads first, by number, then by text."""
    number = parse_int(label, refuse=False)
    return (1, 0, str(label)) if number is None else (0, number, label)


def sorted_labels(marking_labels) -> tuple[str, ...]:
    """Marking labels, each read by ``require_name``, in ``label_sort_key``
    order, each once, from a collection of them; a bare string is refused, not split."""
    if isinstance(marking_labels, (str, bytes)) or not hasattr(marking_labels, "__iter__"):
        raise ValidationError(f"marking labels must be a list of names, got {clip(marking_labels)}")
    labels = tuple(sorted((require_name(l, "marking label") for l in marking_labels),
                          key=label_sort_key))
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate marking labels")
    return labels


def _compare(order):
    """A comparison of two records of one class that applies ``order`` to their fields."""
    return lambda self, other: order(self._values, other._values) \
        if other.__class__ is self.__class__ else NotImplemented


class Record:
    """An immutable value.  Its fields are the parameters of its class's own
    ``__init__``, which sets them with ``object.__setattr__``.  Records of one
    class with equal fields are equal; the hash, the ``repr`` and ``replace``
    are those of ``@dataclass(frozen=True)``, and so is assignment, refused."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*fields)  # the tuple of two fields or more, the value of one
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    __eq__ = _compare(eq)

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A record of this class with the fields in ``changes`` changed."""
        return type(self)(**{**dict(zip(self._fields, self._values)), **changes})


class MarkedDualGraph(Record):
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

    def __init__(self, vertices: tuple[tuple[str, int], ...], edges: tuple[tuple[str, str], ...],
                 markings: tuple[tuple[str, str], ...] = (), base_vertex: str | None = None):
        object.__setattr__(self, "vertices", vertices)
        order = self.vertex_index  # an end that is not a vertex is left for validate
        object.__setattr__(self, "edges", tuple(
            (v, u) if u in order and v in order and order[v] < order[u] else (u, v)
            for u, v in edges))
        object.__setattr__(self, "markings", tuple(
            sorted(markings, key=lambda p: label_sort_key(p[0]))))
        object.__setattr__(self, "base_vertex", base_vertex)
        self.validate()

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
        get, marks = self.vertex_index.get, self.markings
        at = [get(v) for _, v in marks]
        named = [] if len(dict(marks)) == len(marks) else ["duplicate marking label"]
        if None in at:
            named += [f"marking {clip(l, str)} placed on unknown vertex {clip(v, str)}"
                      for (l, v), i in zip(marks, at) if i is None]
        if self.base_vertex is not None and get(self.base_vertex) is None:
            named.append(f"base vertex {clip(self.base_vertex, str)} is not a vertex")
        check_positions(self.vertices, [(get(u), get(v)) for u, v in self.edges], at, named)
        return self


def check_positions(vertices, ends, at, named=()) -> int:
    """The arithmetic genus of the graph with ``vertices`` (id, genus), edges
    joining the positions ``ends`` and markings at the positions ``at`` (a position
    None is no vertex), if it is connected and stable; else a ``ValidationError``
    naming every violation, with ``named`` (those of names with no position) after
    the vertices' and edges'.  It makes one pass over each of its arguments."""
    n, distinct = len(vertices), len(dict(vertices))
    problems = [] if n else ["disconnected: graph has no vertices"]
    problems += ["duplicate vertex ids"] if distinct != n else []
    margin, adjacency, genus = [], [], len(ends) - n + 1  # 2g-2+valence+markings by position
    for v, g in vertices:
        if g < 0:
            problems.append(f"vertex {clip(v, str)} has negative genus {clip(g, str)}")
        margin.append(2 * g - 2)
        adjacency.append(1 << len(adjacency))
        genus += g
    known = True
    for e, (i, j) in enumerate(ends):
        if i is None or j is None:
            problems.append(f"edge {e} references unknown vertex")
            known = False
        else:
            margin[i] += 1
            margin[j] += 1
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    for i in at:
        if i is not None:
            margin[i] += 1
    problems += named
    everyone = (1 << n) - 1 if distinct == n else \
        sum({v: 1 << i for i, (v, _) in enumerate(vertices)}.values())  # a repeated id counts once
    if n and known and next(mask_components(adjacency, everyone), None) != everyone:
        problems.append("disconnected graph")
    if n and genus < 0:
        problems.append(f"total genus {clip(genus, str)} is negative")
    if not problems and min(margin) <= 0:
        problems = [f"unstable vertex {clip(v, str)}: 2g-2+valence+markings = {m} <= 0"
                    for (v, _), m in zip(vertices, margin) if m <= 0]
    if problems:
        raise ValidationError("; ".join(problems))
    return genus


class SubcurveInvariants(Record):
    """Boundary count, dualizing degree, genus and components of a subcurve."""

    def __init__(self, k: int, w: int, genus: int, components: tuple[frozenset[str], ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "components", components)


class NodeTypeLabel(Record):
    """Oriented type of a separating node.

    Names the canonical side of the node by its genus and the sorted tuple
    of marking labels it carries.  The label of the complementary side is
    ``(g - side_genus, complement markings)``.  Labels are ordered by
    ``(side_genus, side_markings)``.
    """

    def __init__(self, side_genus: int, side_markings: tuple[str, ...]):
        object.__setattr__(self, "side_genus", side_genus)
        object.__setattr__(self, "side_markings", side_markings)

    __lt__, __le__, __gt__, __ge__ = map(_compare, (lt, le, gt, ge))

    @classmethod
    def of(cls, genus: int, markings) -> "NodeTypeLabel":
        return cls(require_int(genus, "side genus"), sorted_labels(markings))


def require_marking(labels, marking, where="") -> str:
    """``marking`` read by ``require_name``, if it is one of ``labels``."""
    if (marking := require_name(marking, "marking label")) not in labels:
        raise ValidationError(f"marking {clip(marking, str)} not present{where}")
    return marking


def vertex_subset(graph: MarkedDualGraph, vertex_set) -> frozenset[str]:
    """The ids in ``vertex_set``, each read by ``require_name``, named once and a vertex."""
    ids, seen = [require_name(v, "vertex id") for v in vertex_set], set()
    for v in ids:  # one pass: the first repeat is refused
        if v in seen or seen.add(v):
            raise ValidationError(f"subcurve vertex {clip(v, str)} repeated")
    if unknown := seen - graph.vertex_index.keys():
        raise ValidationError(f"subcurve references unknown vertices: {clip_keys(sorted(unknown))}")
    return frozenset(seen)


def check_subcurve(graph: MarkedDualGraph, vertex_set) -> frozenset[str]:
    if not (Y := vertex_subset(graph, vertex_set)):
        raise ValidationError("empty subcurve")
    if len(Y) == len(graph.vertices):
        raise ValidationError("subcurve must be proper (not all vertices)")
    return Y


def subcurve_k(graph: MarkedDualGraph, Y: frozenset[str]) -> int:
    """Number of nodes joining Y to its complement.  Loops never count."""
    return sum(1 for u, v in graph.edges if (u in Y) != (v in Y))


def subcurve_genus(graph: MarkedDualGraph, Y: frozenset[str]) -> int:
    interior = sum(1 for u, v in graph.edges if u in Y and v in Y)
    return sum(graph.genus_map[v] for v in Y) + interior - len(Y) + 1


def subcurve_invariants(graph: MarkedDualGraph, vertex_set) -> SubcurveInvariants:
    """k, w, genus and connected components of a proper subcurve."""
    Y = check_subcurve(graph, vertex_set)
    adjacency = adjacency_masks(len(graph.vertices), graph.edge_ends)
    comps = mask_components(adjacency, sum(1 << graph.vertex_index[v] for v in Y))
    return SubcurveInvariants(
        k=subcurve_k(graph, Y),
        w=sum(graph.w_of(v) for v in Y),
        genus=subcurve_genus(graph, Y),
        components=tuple(sorted((mask_vertices(graph.vertex_ids, c) for c in comps),
                                key=sorted)),
    )


def subcurve_sort_key(Y) -> tuple:
    return (len(Y), tuple(sorted(Y)))


def proper_subcurves(graph: MarkedDualGraph) -> tuple[frozenset[str], ...]:
    """All proper nonempty vertex subsets, connected or not, canonically
    ordered: the all-subsets oracle's list.  The connected ones, which are
    enough for every stability question, are ``subcurve_table(graph).subcurves``.
    """
    ids = graph.vertex_ids
    return tuple(sorted((frozenset(c) for r in range(1, len(ids))
                         for c in itertools.combinations(ids, r)), key=subcurve_sort_key))


# -- the shared subcurve table ---------------------------------------------

# How many distinct graph structures keep their subcurve table cached.
SUBCURVE_TABLE_CACHE_SIZE = 128


class Subcurve(NamedTuple):
    """A connected proper subcurve: ``names`` its sorted vertex ids, bit i of ``mask``
    vertex i, bit e of ``inner`` edge e when both ends are in it."""

    names: tuple[str, ...]
    members: tuple[int, ...]
    mask: int
    k: int
    inner: int


class SubcurveTable(NamedTuple):
    """``edge_masks[e]`` masks the ends of edge e; ``subcurves`` are the connected proper
    subcurves in canonical order, ``walls`` the indices of those with connected complement,
    ``others`` the rest; ``walk`` the walls' ``walk_layout``."""

    edge_masks: tuple[int, ...]
    subcurves: tuple[Subcurve, ...]
    walls: tuple[int, ...]
    others: tuple[int, ...]
    walk: tuple[tuple, tuple]


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_vertices(ids, mask: int) -> frozenset[str]:
    """The ids whose bits are set in ``mask``."""
    return frozenset(ids[i] for i in _bits(mask))


def adjacency_masks(n: int, ends, skip_edges=()) -> list[int]:
    """Entry i masks vertex i and its neighbours along the edges with vertex
    positions ``ends``, less the edge indices in ``skip_edges``."""
    adjacency = [1 << i for i in range(n)]
    for e, (i, j) in enumerate(ends):
        if e not in skip_edges:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return adjacency


def mask_components(adjacency, mask: int):
    """Masks of the components of the subgraph on ``mask``, by first vertex."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            new = adjacency[bit.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier = frontier ^ bit | new
        mask &= ~comp
        yield comp


def subcurve_table(graph: MarkedDualGraph) -> SubcurveTable:
    """The subcurve table, shared by all graphs with the same vertex ids and edges
    (it reads no genus or marking) and kept by each graph object, looked up once."""
    return graph._table


@lru_cache(maxsize=SUBCURVE_TABLE_CACHE_SIZE)
def _subcurve_table(ids, edges) -> SubcurveTable:
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    ends = [(index[u], index[v]) for u, v in edges]
    edge_masks = tuple(1 << i | 1 << j for i, j in ends)
    adjacency = adjacency_masks(n, ends)
    masks, level = set(), {1 << i for i in range(n)}
    while level:  # grow connected sets one neighbour at a time
        masks |= level
        level = {m | 1 << j for m in level for j in _bits(
            reduce(or_, (adjacency[i] for i in _bits(m))))} - masks
    masks.discard(full := (1 << n) - 1)
    subcurves = sorted(
        (Subcurve(tuple(sorted(map(ids.__getitem__, members))), members, m,
                  sum(1 for e in edge_masks if e & m and e & ~m),
                  sum(1 << i for i, e in enumerate(edge_masks) if e & m == e))
         for m in masks for members in [_bits(m)]),
        key=lambda sub: (len(sub.names), sub.names))  # subcurve_sort_key
    walls = [j for j, sub in enumerate(subcurves) if full ^ sub.mask in masks]
    others = [j for j, sub in enumerate(subcurves) if full ^ sub.mask not in masks]
    return SubcurveTable(edge_masks, tuple(subcurves), tuple(walls), tuple(others),
                         walk_layout(n, subcurves, [j for j in walls if j >= n]))  # not {v}


def walk_layout(n: int, subcurves, placed) -> tuple[tuple, tuple]:
    """(levels, spans): where the degree-box walk on n vertices tests
    ``subcurves[j]``, j in ``placed``: at the top vertex v of its side (it,
    a low, or its complement when that holds the last vertex, a high), by a
    running sum over the side less v.  Slot 0 holds 0, slot -1 minus the sum
    left, the others the masks read and those got from them by dropping top
    bits, in increasing order: ``spans[v]`` = (slice of the slots with top
    vertex v, the slot of each less v).  ``levels[v]`` = (lows, highs) as
    the node at v - 1 reads them, each (slots set before v - 1 led by slot 0
    for the box, their table indices, parent slots of those set at v - 1
    led by slot -1, their table indices), for every v but the last, which no
    side holds, unless it is the only vertex."""
    full, reads = (1 << n) - 1, {}
    for j in placed:
        high = subcurves[j].mask >> n - 1  # 1 when the subcurve holds the last vertex
        side = subcurves[j].mask ^ full * high
        top = side.bit_length() - 1
        head = side ^ 1 << top
        read = head & ~(1 << top >> 1)  # a head holding v - 1 is read at its parent
        reads[j] = (top, high, 2 * (read != head), read)
    prefixes = sorted({0} | {r & (2 << i) - 1 for *_, r in reads.values() for i in _bits(r)})
    slot = {p: i for i, p in enumerate(prefixes)}
    levels = [tuple(([0], [], [-1], []) for _ in range(2)) for _ in range(max(n - 1, 1))]
    for j, (top, high, fresh, read) in reads.items():
        levels[top][high][fresh].append(slot[read])
        levels[top][high][fresh + 1].append(j)
    spans = [slice(bisect_left(prefixes, 1 << v), bisect_left(prefixes, 2 << v)) for v in range(n)]
    return (tuple(tuple(tuple(map(tuple, half)) for half in at) for at in levels),
            tuple((span, tuple(slot[p ^ 1 << v] for p in prefixes[span]))
                  for v, span in enumerate(spans)))


# -- separating nodes and their types ------------------------------------


def _side_label(graph: MarkedDualGraph, side: frozenset[str]) -> NodeTypeLabel:
    marks = [l for l, v in graph.markings if v in side]
    return NodeTypeLabel.of(subcurve_genus(graph, side), marks)


def node_type(graph: MarkedDualGraph, edge_index: int) -> NodeTypeLabel | None:
    """Canonical type of a separating node, or None for a non-separating one.

    The canonical side contains the smallest marking label when there are
    markings, and is the strictly smaller-genus side otherwise.  In the
    self-symmetric case (no markings, both sides of genus g/2) the label
    value (g/2, ()) is still well defined and returned, but it carries no
    orientation and is rejected as a coefficient index elsewhere.
    """
    entry = _edge_type(graph, edge_index)
    return None if entry is None else entry[0]


def designated_side(graph: MarkedDualGraph, edge_index: int) -> frozenset[str] | None:
    """Canonical side of a separating edge; None if non-separating or
    self-symmetric (no orientation)."""
    entry = _edge_type(graph, edge_index)
    return None if entry is None else entry[1]


def _edge_type(graph: MarkedDualGraph, edge_index: int
               ) -> tuple[NodeTypeLabel, frozenset[str] | None] | None:
    """(canonical label, designated side) of a separating edge, or None."""
    if not 0 <= require_int(edge_index, "edge index") < len(graph.edges):
        raise ValidationError(f"unknown edge index {clip(edge_index, str)}")
    u, v = graph.edges[edge_index]
    if u == v:
        return None
    ids = graph.vertex_ids
    adjacency = adjacency_masks(len(ids), graph.edge_ends, {edge_index})
    comps = [mask_vertices(ids, c) for c in mask_components(adjacency, (1 << len(ids)) - 1)]
    if len(comps) == 1:
        return None
    side_a, side_b = comps  # the label below does not depend on their order
    if graph.markings:
        vertex = graph.markings[0][1]  # carries the smallest label
        side = side_a if vertex in side_a else side_b
    else:
        ga, gb = subcurve_genus(graph, side_a), subcurve_genus(graph, side_b)
        side = side_a if ga < gb else side_b if gb < ga else None
    return _side_label(graph, side or side_a), side


def require_genus(genus) -> int:
    """``genus`` if it is a nonnegative integer."""
    if require_int(genus, "genus") < 0:
        raise ValidationError(f"genus must be nonnegative, got {clip(genus)}")
    return genus


def is_admissible(genus: int, labels: tuple[str, ...], label) -> bool:
    """Whether ``label`` is in ``admissible_labels(genus, labels)``, the genus and labels as
    that reads them: b is an int, float or Fraction equal to one of 0, ..., genus, B is a run
    of the labels, each once, on the canonical side, and both sides stay stable with the
    node as a point (b >= 1 or |B| >= 2, and so for the rest)."""
    b, B = (label.side_genus, label.side_markings) if type(label) is NodeTypeLabel else (-1, ())
    return (isinstance(B, tuple) and isinstance(b, (int, float, Fraction)) and 0 <= b <= genus
            and b == int(b) and (b >= 1 or len(B) >= 2)
            and (genus - b >= 1 or len(labels) - len(B) >= 2)
            and (labels[0] in B if labels else b < genus - b)
            and B == tuple(l for l in labels if l in B))


def admissible_labels(genus: int, marking_labels) -> tuple[NodeTypeLabel, ...]:
    """All canonical separating-node labels admissible for (g, A), in label order."""
    genus, labels = require_genus(genus), sorted_labels(marking_labels)
    sides = sorted(B for n in range(len(labels) + 1) for B in itertools.combinations(labels, n))
    candidates = (NodeTypeLabel(b, B) for b in range(genus + 1) for B in sides)  # in label order
    return tuple(l for l in candidates if is_admissible(genus, labels, l))


def boundary_degree(graph: MarkedDualGraph, vertex_set, label: NodeTypeLabel) -> int:
    """Signed degree that a separating-node type puts on a subcurve.

    Component-wise: each vertex incident to a separating node of the given
    type contributes +1 when it lies on the canonical side, -1 otherwise.
    Summed over every vertex of the graph the result is 0.
    """
    require_keys([label] if is_admissible(graph.genus, graph.marking_labels, label) else [],
                 {label: 0}, "node type label", default=0)
    if not (Y := vertex_subset(graph, vertex_set)):
        raise ValidationError("empty subcurve")
    return sum(sign for endpoint, edge_label, sign in separating_ends(graph)
               if edge_label == label and endpoint in Y)


def separating_ends(graph: MarkedDualGraph):
    """(endpoint, type label, +1 on the designated side or -1) for both ends
    of every oriented separating edge."""
    for i, ends in enumerate(graph.edges):
        entry = _edge_type(graph, i)
        if entry is not None and entry[1] is not None:
            for endpoint in ends:
                yield endpoint, entry[0], 1 if endpoint in entry[1] else -1


# -- forgetting a marked point --------------------------------------------


class ContractionReport(Record):
    """What happened when a marking was forgotten.

    ``case`` is "a" (two-edge rational vertex fused into one new edge),
    "b" (rational tail deleted, its second marking transferred), or None.
    ``edge_map`` maps surviving old edge indices to new ones;
    ``fused_ends`` records, for case (a), which old edge led to which
    surviving endpoint of the new edge.
    """

    def __init__(self, case: str | None, removed_vertex: str | None = None,
                 removed_edges: tuple[int, ...] = (), new_edge_index: int | None = None,
                 transferred_marking: str | None = None,
                 edge_map: tuple[tuple[int, int], ...] = (),
                 fused_ends: tuple[tuple[int, str], ...] = ()):
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "removed_vertex", removed_vertex)
        object.__setattr__(self, "removed_edges", removed_edges)
        object.__setattr__(self, "new_edge_index", new_edge_index)
        object.__setattr__(self, "transferred_marking", transferred_marking)
        object.__setattr__(self, "edge_map", edge_map)
        object.__setattr__(self, "fused_ends", fused_ends)


def stabilize_forgetting(graph: MarkedDualGraph, marking: str
                         ) -> tuple[MarkedDualGraph, dict[str, str | None], ContractionReport]:
    """Forget one marking and contract the at most one unstable vertex.

    Returns the stabilized graph, a vertex map (the contracted vertex maps
    to None in case (a) -- its image is the new node -- and to its
    attachment vertex in case (b)), and a contraction report.  The result
    is memoized per graph object; each call gets its own vertex map.
    """
    marking = require_name(marking, "marking label")
    if marking not in graph._forgettings:  # a refused call raises every time
        graph._forgettings[marking] = _stabilize_forgetting(graph, marking)
    new_graph, vmap, report = graph._forgettings[marking]
    return new_graph, dict(vmap), report


def _stabilize_forgetting(graph: MarkedDualGraph, marking: str) -> tuple:
    """``stabilize_forgetting`` uncached.  Only the vertex v0 carrying the
    marking can become unstable, and then 2g0 - 2 + valence + its other
    markings = 0.  It is not the only vertex (the 2g - 2 + n check refuses
    that), so it has one of two shapes: rational with two edges and no other
    marking (case a), or with one edge and one other marking (case b)."""
    require_marking(graph.marking_map, marking)
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

    incident = tuple(i for i, ends in enumerate(graph.edges) if v0 in ends)
    other_marks = [l for l in graph.markings_by_vertex[v0] if l != marking]
    if graph.valence_map[v0] == 2:
        # case (a): fuse the two edge ends into one new edge
        ends = [next(w for w in graph.edges[e] if w != v0) for e in incident]
        target, fused, markings = None, (tuple(ends),), tuple(rest)
        report = dict(case="a", new_edge_index=len(graph.edges) - 2,
                      fused_ends=tuple(zip(incident, ends)))
    else:
        # case (b): delete the tail, transfer its marking to the attachment
        (edge,), (transferred,) = incident, other_marks  # the only other shape
        target, fused = next(w for w in graph.edges[edge] if w != v0), ()
        markings = tuple((l, target if l == transferred else v) for l, v in rest)
        report = dict(case="b", transferred_marking=transferred)

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
