"""Exhaustive small corpora of stable marked dual graphs.

Generates every stable graph of fixed genus and marking set with a bounded
number of vertices, up to decorated isomorphism, by one-node degenerations
(Maggiolo-Pagani, "Generating stable modular graphs"): starting from the
one-vertex graph of genus g with every marking, either add a loop at a
vertex of positive genus or split a vertex into two stable halves joined by
a new edge.  Contracting any edge of a stable graph leaves it stable and
never adds a vertex, so every graph is reached, one edge per level, through
graphs with no more vertices than it has.  Each level is deduplicated by
the one canonical form, ``canonical_key``: the least (genus vector, marking
placement, adjacency upper triangle) over the vertex orders that list the
genera in increasing order, found by an ordered individualise-and-refine
search that branches only on ties."""

from __future__ import annotations

import itertools

from .errors import ValidationError, require_int
from .graphs import MarkedDualGraph, require_genus, sorted_labels


def canonical_key(graph: MarkedDualGraph) -> tuple:
    """Minimal encoding of the decorated graph over vertex permutations."""
    index = graph.vertex_index
    mult = [[0] * len(index) for _ in index]
    for u, v in graph.edges:
        mult[index[u]][index[v]] += 1
        if u != v:
            mult[index[v]][index[u]] += 1
    return _canonical_form([g for _, g in graph.vertices], mult,
                           [(l, index[v]) for l, v in graph.markings])


def _canonical_form(genus, mult, marks) -> tuple:
    """Least encoding of the graph with vertex genera ``genus``, edge
    multiplicities ``mult`` and (label, vertex index) ``marks`` sorted by
    label, over the vertex orders that list the genera in increasing order.

    Such an order puts the marked vertices of a genus class first, by their
    least label, and the unmarked ones after them in one cell.  The search
    fills the positions in turn.  Each vertex v of the first open cell
    fixes its upper-triangle row once every later cell is split by
    multiplicity to v, in increasing order; only the states whose row is
    least go on, so only ties branch.  Of the twins in a cell (``_twins``)
    only the first branches: swapping two is an automorphism fixing the state."""
    marked = list(dict.fromkeys(v for _, v in marks))
    cells = []
    for g in sorted(set(genus)):
        cells += [[v] for v in marked if genus[v] == g]
        rest = [v for v, h in enumerate(genus) if h == g and v not in marked]
        cells += [rest] if rest else []
    order = [v for cell in cells for v in cell]
    adj, states = [], [cells]
    for _ in order:
        least, kept = None, []
        for head, *tail in states:
            branched = []  # the vertices of head kept from this state
            for v in head:
                to_v, row, split = mult[v], [mult[v][v]], []
                for cell in [[w for w in head if w != v], *tail]:
                    last = None  # each cell splits into runs of equal multiplicity to v
                    for w in sorted(cell, key=to_v.__getitem__) if len(cell) > 1 else cell:
                        if to_v[w] != last:
                            split.append([])
                            last = to_v[w]
                        split[-1].append(w)
                        row.append(last)
                if least is None or row < least:
                    least, kept, branched = row, [], []
                elif row > least or any(_twins(mult, u, v) for u in branched):
                    continue
                kept.append(split)
                branched.append(v)
        adj += least
        states = kept
    return (len(order), tuple(sorted(genus)), tuple((l, order.index(v)) for l, v in marks),
            tuple(adj))


def _twins(mult, u: int, v: int) -> bool:
    """Whether u and v have the same loops and multiplicity to every other vertex."""
    (i, j), a, b = sorted((u, v)), mult[u], mult[v]
    return a[u] == b[v] and a[:i] == b[:i] and a[i + 1:j] == b[i + 1:j] and a[j + 1:] == b[j + 1:]


def graph_from_key(key: tuple) -> MarkedDualGraph:
    n, genus_t, mark_t, adj = key
    ids = [f"v{i}" for i in range(n)]
    return MarkedDualGraph(
        vertices=tuple(zip(ids, genus_t)),
        edges=tuple(pair for pair, m in zip(itertools.combinations_with_replacement(ids, 2), adj)
                    for _ in range(m)),
        markings=tuple((l, ids[i]) for l, i in mark_t))


def _degenerations(key: tuple, bound: int):
    """Encodings (genera, multiplicity rows, marks), as tuples, of the graphs one
    node more degenerate than ``graph_from_key(key)``, with at most ``bound`` vertices."""
    n, genus, marks, adj = key
    mult = [[0] * n for _ in range(n)]
    for (i, j), m in zip(itertools.combinations_with_replacement(range(n), 2), adj):
        mult[i][j] = mult[j][i] = m
    for v in range(n):
        if genus[v]:
            looped = [row.copy() for row in mult]
            looped[v][v] += 1
            yield genus[:v] + (genus[v] - 1,) + genus[v + 1:], tuple(map(tuple, looped)), marks
    if n == bound:
        return
    labels = [l for l, _ in marks]
    for v in range(n):
        # the new vertex n takes a share of v's genus, markings, edges to each
        # neighbour and loops; a loop kept by neither half joins the two
        links = [u for u in range(n) if u != v and mult[v][u]]
        loops, degree = mult[v][v], sum(mult[v][u] for u in links)
        for gw, places, shares, (stay, move) in itertools.product(
                range(genus[v] + 1),
                itertools.product(*((v, n) if u == v else (u,) for _, u in marks)),
                itertools.product(*(range(mult[v][u] + 1) for u in links)),
                [(a, b) for a in range(loops + 1) for b in range(loops + 1 - a)]):
            join = 1 + loops - stay - move
            # each half is stable: 2 * genus + valence + markings > 2
            if min(2 * (genus[v] - gw + stay) + degree - sum(shares) + places.count(v),
                   2 * (gw + move) + sum(shares) + places.count(n)) + join <= 2:
                continue
            split = [row + [0] for row in mult] + [[0] * (n + 1)]
            for u, s in zip(links, shares):
                split[v][u] = split[u][v] = mult[v][u] - s
                split[n][u] = split[u][n] = s
            split[v][v], split[n][n] = stay, move
            split[v][n] = split[n][v] = join
            yield (genus[:v] + (genus[v] - gw,) + genus[v + 1:] + (gw,),
                   tuple(map(tuple, split)), tuple(zip(labels, places)))


def generate_corpus(genus: int, marking_labels, max_vertices: int
                    ) -> list[MarkedDualGraph]:
    """All stable marked dual graphs with the given invariants, up to iso.

    Deterministic: results are sorted by canonical key.
    """
    genus, labels = require_genus(genus), sorted_labels(marking_labels)
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"no stable graphs for genus {genus} with {len(labels)} markings")
    if require_int(max_vertices, "max_vertices") < 1:
        raise ValidationError("max_vertices must be at least 1")

    # one edge more per level, so keys never repeat across levels; encodings do within one
    keys, level = [], {_canonical_form([genus], [[0]], [(l, 0) for l in labels])}
    while level:
        keys += level
        level = {_canonical_form(*encoding) for encoding in
                 {encoding for key in level for encoding in _degenerations(key, max_vertices)}}
    return [graph_from_key(key) for key in sorted(keys)]


def are_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Decorated isomorphism: equal canonical keys."""
    return canonical_key(g1) == canonical_key(g2)
