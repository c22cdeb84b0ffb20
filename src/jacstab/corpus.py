"""Exhaustive small corpora of stable marked dual graphs.

Generates every stable graph of fixed genus and marking set with a bounded
number of vertices, deduplicated up to decorated isomorphism.  A stable
graph has at most 2g-2+n vertices, and the genus formula pins the edge
count once the vertex genera are chosen, so the search is finite.  One
loop runs over ``itertools`` multisets: the vertex genera, the loop-free
edges between vertex pairs (kept when their adjacency bitmasks connect
every vertex, by ``graphs.mask_components``), the loops, and the vertices
that carry the markings.  A branch is cut once the margins 2g_v-2+valence
lack more than the loops and markings still to come can add to reach 1.
A candidate is kept when its certificate is new: the least (genus vector,
marking placement, adjacency upper triangle) over the vertex orders that
keep the classes of the equitable colour refinement (McKay-Piperno,
"Practical graph isomorphism, II") in their isomorphism-invariant order.
The printed ``canonical_key`` keeps the genus classes in increasing genus
instead, as every order minimal over all permutations does."""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .graphs import (MarkedDualGraph, adjacency_masks, label_sort_key,
                     mask_components)


def canonical_key(graph: MarkedDualGraph) -> tuple:
    """Minimal encoding of the decorated graph over vertex permutations."""
    genus, mult, marks = _encode(graph)
    return _canonical_form(genus, mult, marks, genus)


def _encode(graph: MarkedDualGraph) -> tuple:
    """Vertex genera, edge multiplicities and label-sorted (label, index) marks."""
    index = graph.vertex_index
    return ([g for _, g in graph.vertices],
            _multiplicities(len(index), [(index[u], index[v]) for u, v in graph.edges]),
            [(l, index[v]) for l, v in graph.markings])


def _multiplicities(n: int, pairs) -> list[list[int]]:
    mult = [[0] * n for _ in range(n)]
    for i, j in pairs:
        mult[i][j] += 1
        if i != j:
            mult[j][i] += 1
    return mult


def _refined_colours(genus, mult, marks) -> list[int]:
    """Colours of the equitable refinement, numbered by sorted signature."""
    signature = [(genus[i], row[i], tuple(l for l, v in marks if v == i), sum(row) + row[i])
                 for i, row in enumerate(mult)]
    count = 0
    while True:
        rank = {s: r for r, s in enumerate(sorted(set(signature)))}
        colour = [rank[s] for s in signature]
        if len(rank) in (count, len(colour)):
            return colour
        count = len(rank)
        signature = [(colour[i], tuple(sorted((colour[j], m) for j, m in enumerate(row)
                                              if m and j != i)))
                     for i, row in enumerate(mult)]


def _certificate(genus, mult, marks) -> tuple:
    """Equal for two encodings exactly when their graphs are isomorphic."""
    return _canonical_form(genus, mult, marks, _refined_colours(genus, mult, marks))


def _canonical_form(genus, mult, marks, colour) -> tuple:
    """Minimal encoding of the graph with vertex genera ``genus``, edge
    multiplicities ``mult`` and (label, vertex index) ``marks`` sorted by
    label, over the vertex orders that list the ``colour`` classes in
    increasing colour."""
    n = len(genus)
    cells = [[i for i in range(n) if colour[i] == c] for c in sorted(set(colour))]
    best = None
    for parts in itertools.product(*map(itertools.permutations, cells)):
        perm = tuple(itertools.chain.from_iterable(parts))
        position = {old: new for new, old in enumerate(perm)}
        head = (tuple(genus[old] for old in perm), tuple((l, position[i]) for l, i in marks))
        if best is not None and head > best[:2]:
            continue
        rows = [mult[old] for old in perm]
        key = head + (tuple(rows[i][perm[j]] for i in range(n) for j in range(i, n)),)
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
    return MarkedDualGraph(vertices=vertices, edges=tuple(edges),
                           markings=tuple((l, f"v{i}") for l, i in mark_t))


def _deficit(margin) -> int:
    """What the margins 2g_v-2+valence, each at least -2, lack to reach 1."""
    return margin.count(0) + 2 * margin.count(-1) + 3 * margin.count(-2)


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

    first: dict[tuple, tuple] = {}  # certificate -> first candidate
    # each stable vertex adds 2g_v-2+valence+markings >= 1 to the total
    # 2g-2+len(labels), so no stable graph has more vertices than that
    for n in range(1, min(max_vertices, 2 * genus - 2 + len(labels)) + 1):
        everyone = (1 << n) - 1
        links = list(itertools.combinations(range(n), 2))
        for genus_vec in itertools.combinations_with_replacement(range(genus + 1), n):
            edges_total = genus - sum(genus_vec) + n - 1
            for c in range(n - 1, edges_total + 1):
                for connect in itertools.combinations_with_replacement(links, c):
                    margin = [2 * g - 2 for g in genus_vec]
                    for i in itertools.chain(*connect):
                        margin[i] += 1
                    if _deficit(margin) > 2 * (edges_total - c) + len(labels):
                        continue
                    # the ends are already positions: index them by range(n)
                    adjacency = adjacency_masks(n, range(n), connect)
                    if next(mask_components(adjacency, everyone)) != everyone:
                        continue
                    for loops in itertools.combinations_with_replacement(
                            range(n), edges_total - c):
                        looped = [m + 2 * loops.count(i) for i, m in enumerate(margin)]
                        if _deficit(looped) > len(labels):
                            continue
                        mult = _multiplicities(n, connect + tuple((i, i) for i in loops))
                        for placement in itertools.product(range(n), repeat=len(labels)):
                            marked = looped.copy()
                            for i in placement:
                                marked[i] += 1
                            if min(marked) > 0:
                                marks = tuple(zip(labels, placement))
                                first.setdefault(_certificate(genus_vec, mult, marks),
                                                 (genus_vec, mult, marks))
    keys = sorted(_canonical_form(g, mult, marks, g) for g, mult, marks in first.values())
    return [graph_from_key(key) for key in keys]


def are_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Decorated isomorphism via isomorphism certificates."""
    return _certificate(*_encode(g1)) == _certificate(*_encode(g2))
