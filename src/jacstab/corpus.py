"""Exhaustive small corpora of stable marked dual graphs.

Generates every stable graph of fixed genus and marking set with a bounded
number of vertices, deduplicated up to decorated isomorphism.  A stable
graph has at most 2g-2+n vertices, and the genus formula pins the edge
count once the vertex genera are chosen, so the search is finite.  One
loop runs over ``itertools`` multisets: the vertex genera, the loop-free
edges between vertex pairs (kept when their adjacency bitmasks connect
every vertex, by ``graphs.mask_components``), the loops, and the vertices
that carry the markings.  Isomorph rejection uses a canonical form: the
lexicographically minimal encoding of (genus vector, marking placement,
adjacency upper triangle) over all vertex permutations.  The loop keys its
integer data directly; only the graphs it returns are built (and so
checked)."""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .graphs import (MarkedDualGraph, adjacency_masks, label_sort_key,
                     mask_components)


def canonical_key(graph: MarkedDualGraph) -> tuple:
    """Minimal encoding of the decorated graph over vertex permutations."""
    index = graph.vertex_index
    return _canonical_form(
        [g for _, g in graph.vertices],
        [(index[u], index[v]) for u, v in graph.edges],
        [(l, index[v]) for l, v in sorted(graph.markings,
                                          key=lambda p: label_sort_key(p[0]))])


def _canonical_form(genus, pairs, marks) -> tuple:
    """``canonical_key`` of the graph with vertex genera ``genus``, edges
    between the index ``pairs`` and (label, vertex index) ``marks`` sorted
    by label."""
    n = len(genus)
    mult = [[0] * n for _ in range(n)]
    for i, j in pairs:
        mult[min(i, j)][max(i, j)] += 1

    best = None
    for perm in itertools.permutations(range(n)):
        position = {old: new for new, old in enumerate(perm)}
        genus_t = tuple(genus[old] for old in perm)
        if best is not None and (genus_t,) > best[:1]:
            continue
        mark_t = tuple((l, position[i]) for l, i in marks)
        adj = tuple(mult[min(perm[i], perm[j])][max(perm[i], perm[j])]
                    for i in range(n) for j in range(i, n))
        key = (genus_t, mark_t, adj)
        if best is None or key < best:
            best = key
    return (n,) + best


def graph_from_key(key: tuple) -> MarkedDualGraph:
    n, genus_t, mark_t, adj = key
    vertices = tuple((f"v{i}", genus_t[i]) for i in range(n))
    edges = []
    pos = 0
    for i in range(n):
        for j in range(i, n):
            edges.extend([(f"v{i}", f"v{j}")] * adj[pos])
            pos += 1
    markings = tuple((l, f"v{i}") for l, i in mark_t)
    return MarkedDualGraph(vertices=vertices, edges=tuple(edges),
                           markings=tuple(sorted(markings, key=lambda p: label_sort_key(p[0]))))


def generate_corpus(genus: int, marking_labels, max_vertices: int
                    ) -> list[MarkedDualGraph]:
    """All stable marked dual graphs with the given invariants, up to iso.

    Deterministic: results are sorted by canonical key.
    """
    if genus < 0:
        raise ValidationError(f"genus must be nonnegative, got {genus}")
    raw = [str(l) for l in marking_labels]
    labels = tuple(sorted(set(raw), key=label_sort_key))
    if len(labels) != len(raw):
        raise ValidationError("duplicate marking labels")
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"no stable graphs for genus {genus} with {len(labels)} markings")
    if max_vertices < 1:
        raise ValidationError("max_vertices must be at least 1")

    seen: set[tuple] = set()
    # each stable vertex adds 2g_v-2+valence+markings >= 1 to the total
    # 2g-2+len(labels), so no stable graph has more vertices than that
    for n in range(1, min(max_vertices, 2 * genus - 2 + len(labels)) + 1):
        everyone = (1 << n) - 1
        links = list(itertools.combinations(range(n), 2))
        for genus_vec in itertools.combinations_with_replacement(range(genus + 1), n):
            edges_total = genus - sum(genus_vec) + n - 1
            for c in range(n - 1, edges_total + 1):
                for connect in itertools.combinations_with_replacement(links, c):
                    # the ends are already positions: index them by range(n)
                    adjacency = adjacency_masks(n, range(n), connect)
                    if next(mask_components(adjacency, everyone)) != everyone:
                        continue
                    for loops in itertools.combinations_with_replacement(
                            range(n), edges_total - c):
                        edges = connect + tuple((i, i) for i in loops)
                        for placement in itertools.product(range(n), repeat=len(labels)):
                            margin = [2 * g - 2 for g in genus_vec]
                            for i in itertools.chain(*edges, placement):
                                margin[i] += 1
                            if min(margin) <= 0:
                                continue
                            seen.add(_canonical_form(
                                genus_vec, edges, tuple(zip(labels, placement))))
    return [graph_from_key(key) for key in sorted(seen)]


def are_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Decorated isomorphism via canonical forms."""
    return canonical_key(g1) == canonical_key(g2)
