"""Rank-1 torsion-free sheaf types on a dual graph.

A sheaf type is the pair (S, multidegree): S is the set of nodes where the
sheaf fails to be locally free, the multidegree lives on the partial
normalization at S.  Total degree is the multidegree sum plus |S| (each
non-free node raises chi of the structure sheaf by one on the partial
normalization).  Simplicity is the combinatorial shadow of having only
scalar endomorphisms: deleting S must not disconnect the graph.
"""

from __future__ import annotations

from .errors import PreconditionError, ValidationError, clip, require_int, require_int_map
from .graphs import MarkedDualGraph, Record, check_subcurve


class SheafType(Record):
    """(non-free edge set, vertex multidegree), degrees in vertex order."""

    def __init__(self, nonfree_edges: frozenset[int], degrees: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "nonfree_edges", nonfree_edges)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def build(cls, graph: MarkedDualGraph, degrees, nonfree_edges=()) -> "SheafType":
        deg = require_int_map(graph.vertex_index, dict(degrees), "sheaf degrees")
        edges, seen = [require_int(e, "edge index") for e in nonfree_edges], set()
        for e in edges:  # one pass: the first repeat is refused
            if e in seen or seen.add(e):
                raise ValidationError(f"non-free edge index {clip(e, str)} repeated")
        sheaf = cls(nonfree_edges=frozenset(seen), degrees=tuple(zip(graph.vertex_ids, deg)))
        return validate_sheaf(graph, sheaf)

    @property
    def degree_map(self) -> dict[str, int]:
        return dict(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.degrees) + len(self.nonfree_edges)


def validate_sheaf(graph: MarkedDualGraph, sheaf: SheafType) -> SheafType:
    if next(zip(*sheaf.degrees), ()) != graph.vertex_ids:  # the ids column
        raise ValidationError("sheaf degrees must cover the graph vertices in order")
    for e in sheaf.nonfree_edges:
        if not 0 <= e < len(graph.edges):
            raise ValidationError(f"non-free edge index {clip(e, str)} out of range")
    return sheaf


def is_simple(graph: MarkedDualGraph, sheaf: SheafType) -> bool:
    """A sheaf type is simple iff the graph minus its non-free nodes stays
    connected (equivalently no subcurve has every crossing node in S)."""
    memo, S = graph._simple, frozenset(sheaf.nonfree_edges)
    if S not in memo:  # kept per graph object, false answers too
        memo[S] = not S or graph.is_connected(S)  # a line bundle: every graph is connected
    return memo[S]


def require_simple(graph: MarkedDualGraph, sheaf: SheafType) -> SheafType:
    validate_sheaf(graph, sheaf)
    if not is_simple(graph, sheaf):
        raise PreconditionError(
            f"sheaf type is not simple: removing non-free nodes "
            f"{sorted(sheaf.nonfree_edges)} disconnects the graph")
    return sheaf


def deg_subcurve(graph: MarkedDualGraph, sheaf: SheafType, vertex_set) -> int:
    """Degree of the maximal torsion-free quotient on a subcurve.

    Non-free nodes interior to the subcurve (loops included) contribute +1;
    crossing non-free nodes contribute nothing.
    """
    Y = check_subcurve(graph, vertex_set)
    deg = sum(d for v, d in sheaf.degrees if v in Y)
    interior = sum(1 for e in sheaf.nonfree_edges
                   if graph.edges[e][0] in Y and graph.edges[e][1] in Y)
    return deg + interior


def d_of(graph: MarkedDualGraph, sheaf: SheafType, vertex_set) -> int:
    """Subcurve degree plus the number of crossing non-free nodes."""
    Y = check_subcurve(graph, vertex_set)
    return sum(d for v, d in sheaf.degrees if v in Y) + sum(  # non-free nodes inside or crossing
        1 for e in sheaf.nonfree_edges if not Y.isdisjoint(graph.edges[e]))


def twist(sheaf: SheafType, bundle: dict[str, int]) -> SheafType:
    """Tensor with a line bundle of the given multidegree (0 where unnamed)."""
    shift = require_int_map(sheaf.degree_map, bundle, "twist", default=0)
    return SheafType(nonfree_edges=sheaf.nonfree_edges, degrees=tuple(
        (v, d + c) for (v, d), c in zip(sheaf.degrees, shift)))
