"""Exhaustive small corpora of stable marked dual graphs.

Generates every stable graph of fixed genus and marking set with a bounded
number of vertices, up to decorated isomorphism, by one-node degenerations
(Maggiolo-Pagani, "Generating stable modular graphs") of the one-vertex graph
of genus g with every marking: a loop at a vertex of positive genus, or a
vertex split into two stable halves joined by a new edge, kept when the new
edge ranks first in the child (``_ends``).  Contracting an edge of highest rank
leaves a stable graph with no more vertices, and undoing it is a kept
degeneration, so every graph is reached (McKay's canonical augmentation).  Rank
ties are left to the deduplication of each level by the one canonical form,
``canonical_key``: the least (genus vector, marking placement, adjacency upper
triangle) over the vertex orders that list the genera in increasing order,
found by an ordered individualise-and-refine search that branches only on ties."""

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


def _ends(genus, mult, marks) -> list[tuple]:
    """Vertex invariants (genus, valence with loops counted twice, loops, indices of markings in
    label order); an edge ranks by (is a loop, its ends' sorted invariants, multiplicity)."""
    return [(g, sum(row) + row[u], row[u], tuple(i for i, (_, w) in enumerate(marks) if w == u))
            for u, (g, row) in enumerate(zip(genus, mult))]


def _degenerations(key: tuple, bound: int):
    """Encodings (genera, multiplicity rows, marks) of the graphs one node more
    degenerate than ``graph_from_key(key)``, with at most ``bound`` vertices,
    whose new edge ranks first among their edges (``_ends``)."""
    n, genus, marks, adj = key
    mult = [[0] * n for _ in range(n)]
    for (i, j), m in zip(itertools.combinations_with_replacement(range(n), 2), adj):
        mult[i][j] = mult[j][i] = m
    ends, looped = _ends(genus, mult, marks), [v for v in range(n) if mult[v][v]]
    for v, (g, valence, loops, mine) in enumerate(ends):
        # loops outrank the other edges, and only the end at v changes
        if g and all(ends[u] <= (g - 1, valence + 2, loops + 1, mine) for u in looped if u != v):
            child = [row.copy() for row in mult]
            child[v][v] += 1
            yield genus[:v] + (g - 1,) + genus[v + 1:], child, marks
    # a loop left by a split would outrank its new edge: a split is tried only
    # at the one vertex with loops, if any, and all of them join the two halves
    if n == bound or len(looped) > 1:
        return
    for v in looped or range(n):
        # the new vertex n takes a share of v's genus, markings and edges to each neighbour
        links = [u for u in range(n) if u != v and mult[v][u]]
        join, degree = 1 + mult[v][v], sum(mult[v][u] for u in links)
        untouched = max(((sorted((ends[a], ends[b])), mult[a][b]) for a in range(n)
                         for b in range(a + 1, n) if v not in (a, b) and mult[a][b]), default=())
        for places in itertools.product(*((v, n) if u == v else (u,) for _, u in marks)):
            at_v, at_n = (tuple(i for i, p in enumerate(places) if p == w) for w in (v, n))
            for gw, shares in itertools.product(range(genus[v] + 1), itertools.product(
                    *(range(mult[v][u] + 1) for u in links))):
                ev = (genus[v] - gw, degree - sum(shares) + join, 0, at_v)
                en = (gw, sum(shares) + join, 0, at_n)
                new = ([en, ev], join)
                # one of a split and its swap; stable halves; no edge outranks the new one
                if ev < en or min(2 * e[0] + e[1] + len(e[3]) for e in (ev, en)) <= 2 \
                        or untouched > new or any(
                            (sorted((e, ends[u])), m) > new for u, s in zip(links, shares)
                            for e, m in ((ev, mult[v][u] - s), (en, s)) if m):
                    continue
                split = [row + [0] for row in mult] + [[0] * (n + 1)]
                for u, s in zip(links, shares):
                    split[v][u] = split[u][v] = mult[v][u] - s
                    split[n][u] = split[u][n] = s
                split[v][v], split[v][n], split[n][v] = 0, join, join
                yield (genus[:v] + (genus[v] - gw,) + genus[v + 1:] + (gw,), split,
                       tuple((l, p) for (l, _), p in zip(marks, places)))


def corpus_keys(genus: int, marking_labels, max_vertices: int) -> list[tuple]:
    """The canonical keys of ``generate_corpus``'s graphs, sorted: one per isomorphism class."""
    genus, labels = require_genus(genus), sorted_labels(marking_labels)
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"no stable graphs for genus {genus} with {len(labels)} markings")
    if require_int(max_vertices, "max_vertices") < 1:
        raise ValidationError("max_vertices must be at least 1")

    # one edge more per level, so keys never repeat across levels; they may within one
    keys, level = [], {_canonical_form([genus], [[0]], [(l, 0) for l in labels])}
    while level:
        keys += level
        level = {_canonical_form(*e) for key in level for e in _degenerations(key, max_vertices)}
    return sorted(keys)


def generate_corpus(genus: int, marking_labels, max_vertices: int
                    ) -> list[MarkedDualGraph]:
    """All stable marked dual graphs with the given invariants, up to iso, by canonical key."""
    return [graph_from_key(key) for key in corpus_keys(genus, marking_labels, max_vertices)]


def are_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Decorated isomorphism: equal canonical keys."""
    return canonical_key(g1) == canonical_key(g2)
