"""Clutching, point-forgetting, Abel-Jacobi sections and the phi-table
translation, with polarization transport.

Clutching glues two marked points into a node: within one graph it adds a
non-free edge and raises genus and total degree by one; across two graphs
it joins them by a free edge, twisting the first sheaf by +1 at the glued
vertex, so total degree becomes d1 + d2 + 1.  Coefficient recipes transport
when the glued markings carry coefficient s (and no boundary coefficients
are present; node types mutate under gluing).

Forgetting a marking contracts at most one two-edge or one-edge rational
vertex v0.  The sheaf transport follows the sections of the local model
around v0, and one rule covers every admissible case: the fused node is
free exactly when deg(v0) = 0 and both incident edges are free, and when
deg(v0) = -1 the far end of each free incident edge loses one degree (a
fused loop loses two).  Other degrees and non-free nodes are unchanged.

A two-edge vertex is admissible when deg(v0) >= -1 and deg(v0) + #(non-free
incident edges) <= 1, and a one-edge tail when deg(v0) = 0; otherwise the
pushforward would not preserve the total degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (PreconditionError, ValidationError, clip, require_int_map, require_keys,
                     require_name)
from .graphs import (ContractionReport, MarkedDualGraph, NodeTypeLabel, Record, admissible_labels,
                     is_admissible, require_genus, require_marking, sorted_labels,
                     stabilize_forgetting)
from .polarization import (CanonicalPolarization, ExplicitPolarization,
                           compile_polarization, label_coefficients)
from .sheaves import SheafType, require_simple, twist
from .stability import StabilityVerdict, check


# -- clutching --------------------------------------------------------------


def clutch_irr(graph: MarkedDualGraph, x: str, y: str, sheaf: SheafType
               ) -> tuple[MarkedDualGraph, SheafType]:
    """Glue markings x and y of one graph into a new non-free node."""
    require_simple(graph, sheaf)
    x, y = (require_marking(graph.marking_map, mark) for mark in (x, y))
    if x == y:
        raise ValidationError("clutching needs two distinct markings")
    new_graph = graph.replace(
        edges=graph.edges + ((graph.marking_map[x], graph.marking_map[y]),),
        markings=tuple(p for p in graph.markings if p[0] not in (x, y)))
    # G minus the non-free edges is unchanged, so the glued type stays simple
    return new_graph, SheafType(nonfree_edges=sheaf.nonfree_edges | {len(graph.edges)},
                                degrees=sheaf.degrees)


def _unglued(*glued: tuple[ExplicitPolarization, tuple[str, ...]]
             ) -> list[dict[str, Fraction]]:
    """Each recipe's marking coefficients without its glued markings.

    Transport needs alpha = 0 (node types mutate under gluing), one s and r
    for all recipes, and a = s at every glued marking.
    """
    glued = [(pol, [require_name(m, "marking label") for m in marks]) for pol, marks in glued]
    if any(pol.alpha for pol, _ in glued):
        raise PreconditionError(
            "clutching transport requires alpha = 0 (node types mutate)")
    if len({(pol.s, pol.r) for pol, _ in glued}) > 1:
        raise PreconditionError("both recipes must share s and r")
    for pol, marks in glued:
        for mark in marks:
            if pol.a_map.get(mark) != pol.s:
                raise PreconditionError(
                    f"clutching transport needs a_{clip(mark, str)} = s = {clip(pol.s, str)}, "
                    f"got {clip(pol.a_map.get(mark), str)}")
    return [{l: c for l, c in pol.a if l not in marks} for pol, marks in glued]


def clutch_irr_polarization(pol: ExplicitPolarization, x: str, y: str
                            ) -> ExplicitPolarization:
    """Transport a recipe through one-graph clutching: drop a_x and a_y."""
    (rest,) = _unglued((pol, (x, y)))
    return ExplicitPolarization.build(s=pol.s, r=pol.r, a=rest)


def clutch_sep(graph1: MarkedDualGraph, x: str, sheaf1: SheafType,
               graph2: MarkedDualGraph, y: str, sheaf2: SheafType
               ) -> tuple[MarkedDualGraph, SheafType]:
    """Join two graphs by a free edge at markings x and y.

    Vertices are renamed with "1:"/"2:" prefixes; edge indices keep the
    first graph's order, then the second's, then the new free edge.  The
    first sheaf is twisted by +1 at the vertex carrying x.
    """
    require_simple(graph1, sheaf1)
    require_simple(graph2, sheaf2)
    x = require_marking(graph1.marking_map, x, " in the first graph")
    y = require_marking(graph2.marking_map, y, " in the second graph")
    keep1 = [l for l, _ in graph1.markings if l != x]
    keep2 = [l for l, _ in graph2.markings if l != y]
    if set(keep1) & set(keep2):
        raise ValidationError(
            f"marking labels collide: {sorted(set(keep1) & set(keep2))}")

    twisted = twist(sheaf1, {graph1.marking_map[x]: 1})
    vertices, edges, markings, degrees, nonfree = [], [], [], [], set()
    for tag, graph, sheaf, mark in (("1:", graph1, twisted, x),
                                    ("2:", graph2, sheaf2, y)):
        nonfree |= {e + len(edges) for e in sheaf.nonfree_edges}
        vertices += [(tag + v, g) for v, g in graph.vertices]
        edges += [(tag + u, tag + v) for u, v in graph.edges]
        markings += [(l, tag + v) for l, v in graph.markings if l != mark]
        degrees += [(tag + v, d) for v, d in sheaf.degrees]
    edges.append((f"1:{graph1.marking_map[x]}", f"2:{graph2.marking_map[y]}"))
    new_graph = MarkedDualGraph(vertices=tuple(vertices), edges=tuple(edges),
                                markings=tuple(markings))
    # two simple types joined by a free edge: the glued type is simple
    return new_graph, SheafType(nonfree_edges=frozenset(nonfree), degrees=tuple(degrees))


def clutch_sep_polarization(pol1: ExplicitPolarization, x: str,
                            pol2: ExplicitPolarization, y: str
                            ) -> ExplicitPolarization:
    """Merge two recipes through two-graph clutching: drop a_x and a_y."""
    rest1, rest2 = _unglued((pol1, (x,)), (pol2, (y,)))
    for l in rest2:
        if l in rest1:
            raise PreconditionError(f"marking coefficient {l} defined twice")
    return ExplicitPolarization.build(s=pol1.s, r=pol1.r, a={**rest1, **rest2})


# -- forgetful morphisms -----------------------------------------------------


def check_star(pol, graph: MarkedDualGraph, x: str) -> bool:
    """Whether the recipe puts weight 0 on the contraction candidate.

    Vacuously true when forgetting x contracts nothing.  Otherwise requires
    a_x = 0 and compiled weight exactly 0 on the vertex to be contracted.
    """
    x = require_name(x, "marking label")
    _, _, report = stabilize_forgetting(graph, x)
    if report.case is None:
        return True
    if isinstance(pol, (ExplicitPolarization, CanonicalPolarization)) \
            and pol.a_map.get(x, Fraction(0)) != 0:
        return False
    profile = compile_polarization(pol, graph)
    return profile.q_map[report.removed_vertex] == 0


def forget_point(graph: MarkedDualGraph, x: str, sheaf: SheafType
                 ) -> tuple[MarkedDualGraph, SheafType, ContractionReport]:
    """Forget a marking and push the sheaf type to the stabilized graph.

    The input must be simple.  The output need not be: when the fused node
    comes out non-free and separates the stabilized graph, the pushforward
    is decomposable (this happens only for strictly semistable inputs, with
    the equality subcurves meeting the contracted vertex).
    """
    require_simple(graph, sheaf)
    new_graph, _, report = stabilize_forgetting(graph, x)
    if report.case is None:
        return new_graph, sheaf, report

    # no raise for a non-free tail or two non-free edges: require_simple refused them
    edge_map = dict(report.edge_map)
    v0 = report.removed_vertex
    delta = sheaf.degree_map[v0]
    nonfree = frozenset(edge_map[e] for e in sheaf.nonfree_edges if e in edge_map)
    lost: list[str] = []  # far ends that lose one degree, with multiplicity
    if report.case == "b":
        if delta != 0:
            raise PreconditionError(f"tail vertex must carry degree 0, got {clip(delta, str)}")
    else:
        free = [e for e in report.removed_edges if e not in sheaf.nonfree_edges]
        t = delta + 2 - len(free)  # d({v0})
        if delta < -1 or t > 1:
            raise PreconditionError(
                f"contracted vertex not admissible for pushforward: "
                f"deg = {clip(delta, str)}, d({{v0}}) = {clip(t, str)}")
        if delta or len(free) < 2:
            nonfree |= {report.new_edge_index}
        if delta == -1:
            ends = dict(report.fused_ends)
            lost = [ends[e] for e in free]
    new_sheaf = SheafType(nonfree_edges=nonfree, degrees=tuple(
        (v, d - lost.count(v)) for v, d in sheaf.degrees if v != v0))
    assert new_sheaf.total_degree == sheaf.total_degree
    return new_graph, new_sheaf, report


def forget_polarization(pol: ExplicitPolarization, x: str, *, genus: int,
                        marking_labels) -> ExplicitPolarization:
    """Drop the (zero) coefficient of a forgotten marking x of the family of
    genus ``genus`` with markings ``marking_labels``; x must be one of them.

    Contracting the marked component turns every separating node of type
    (b, B + {x}) into one of type (b, B), so a downstairs coefficient pulls
    back to EQUAL coefficients on the pair {(b, B), (b, B + {x})} upstairs.
    Boundary coefficients therefore transport only when they respect that
    pairing; node types that vanish under the contraction (their downstairs
    partner is inadmissible) must carry coefficient 0.  With boundary
    coefficients x must not be the smallest label, or the canonical
    orientation of every label would flip.
    """
    labels = sorted_labels(marking_labels)
    x, genus = require_marking(labels, x), require_genus(genus)
    if pol.a_map.get(x, Fraction(0)) != 0:
        raise PreconditionError(f"forgetting {clip(x, str)} needs a_{clip(x, str)} = 0, "
                                f"got {clip(pol.a_map[x], str)}")
    new_alpha: dict[NodeTypeLabel, Fraction] = {}
    if pol.alpha:
        require_keys([k for k in pol.alpha_map if is_admissible(genus, labels, k)], pol.alpha_map,
                     "boundary coefficients", default=0)
        if labels[0] == x:
            raise PreconditionError(
                f"cannot transport boundary coefficients: {clip(x, str)} is the "
                f"smallest label, so canonical sides would flip")
        remaining = tuple(l for l in labels if l != x)
        for label, coefficient in pol.alpha:  # each equal to an admissible label
            b, B = int(label.side_genus), [l for l in labels if l in label.side_markings]
            down = NodeTypeLabel(b, tuple(l for l in B if l != x))
            if is_admissible(genus, remaining, down):
                with_x = NodeTypeLabel(b, tuple(l for l in labels if l in B or l == x))
                plain_c, with_x_c = pol.alpha_map.get(down, 0), pol.alpha_map.get(with_x, 0)
                if plain_c != with_x_c:
                    raise PreconditionError(
                        f"boundary coefficients must agree on the pair "
                        f"{clip(down, str, 120)} / {clip(with_x, str, 120)}: "
                        f"got {clip(plain_c, str)} and {clip(with_x_c, str)}")
                if plain_c:
                    new_alpha[down] = plain_c
            elif coefficient:
                raise PreconditionError(
                    f"node type {clip(NodeTypeLabel(b, tuple(B)), str, 120)} vanishes under "
                    f"the contraction; its coefficient must be 0, got {clip(coefficient, str)}")
    return ExplicitPolarization.build(
        s=pol.s, r=pol.r,
        a={l: c for l, c in pol.a if l != x},
        alpha=new_alpha)


# -- sections and phi translation -------------------------------------------


def abel_jacobi(graph: MarkedDualGraph, dtuple: dict[str, int]
                ) -> tuple[ExplicitPolarization, SheafType, StabilityVerdict]:
    """Section recipe from integer weights on the markings.

    Produces the recipe (s=-1, a_i=2*d_i, r=2), the line-bundle type with
    degree sum of the d_i at each vertex, and its verdict (always stable:
    every subcurve has deg_Y = q_Y with margin k_Y/2 > 0).
    """
    if not graph.markings:
        raise PreconditionError("Abel-Jacobi sections need at least one marking")
    weights = dict(zip(graph.marking_labels, require_int_map(
        graph.marking_labels, dtuple, "marking weights", default=0)))
    pol = ExplicitPolarization.build(
        s=-1, r=2, a={l: 2 * c for l, c in weights.items()})
    degrees = {v: sum(weights[l] for l in graph.markings_by_vertex[v])
               for v in graph.vertex_ids}
    sheaf = SheafType.build(graph, degrees)
    profile = compile_polarization(pol, graph)
    verdict = check(graph, profile, sheaf)
    return pol, sheaf, verdict


class PhiTable(Record):
    """Rational vertex weight per separating-node type, target degree g-1."""

    def __init__(self, values: tuple[tuple[NodeTypeLabel, Fraction], ...]):
        object.__setattr__(self, "values", values)

    @classmethod
    def build(cls, values) -> "PhiTable":
        return cls(values=label_coefficients(values, "phi table"))

    @cached_property
    def value_map(self) -> dict[NodeTypeLabel, Fraction]:
        return dict(self.values)


def kp_translate(phi: PhiTable, genus: int, marking_labels
                 ) -> ExplicitPolarization:
    """Boundary-coefficient recipe matching a phi table on two-vertex graphs.

    For each admissible canonical label: alpha = phi - side_genus + 1/2.
    Compiled on the two-component one-node graph of that type, the weight
    of the labelled side equals phi exactly.
    """
    labels_a = sorted_labels(marking_labels)
    if not labels_a:
        raise PreconditionError("phi translation needs a nonempty marking set")
    admissible = admissible_labels(genus, labels_a)
    values = require_keys(admissible, phi.value_map, "phi table")
    alpha = {label: value - label.side_genus + Fraction(1, 2)
             for label, value in zip(admissible, values)}
    return ExplicitPolarization.build(s=0, r=1, a={l: 0 for l in labels_a},
                                      alpha=alpha)


def two_component_graph(genus: int, marking_labels, label: NodeTypeLabel
                        ) -> MarkedDualGraph:
    """The two-vertex one-edge graph of the given separating-node type.

    Vertex "side" carries the label's genus and markings, "rest" their
    complements.
    """
    labels_a, genus = sorted_labels(marking_labels), require_genus(genus)
    require_keys([label] if is_admissible(genus, labels_a, label) else [], {label: 0},
                 "node type label", default=0)
    markings = {l: ("side" if l in label.side_markings else "rest") for l in labels_a}
    return MarkedDualGraph.build(
        vertices=[("side", label.side_genus), ("rest", genus - label.side_genus)],
        edges=[("side", "rest")],
        markings=markings)
