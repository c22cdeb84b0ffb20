"""Exhaustive small corpora of stable marked dual graphs.

Every stable graph of fixed genus and markings with a bounded number of
vertices, up to decorated isomorphism: the one-node degenerations (Maggiolo-Pagani,
"Generating stable modular graphs") of the stable one-vertex graph with the fewest
markings, then each further marking put on every graph by inverting the map that
forgets it.  Each level is deduplicated by the one canonical form, ``canonical_key``."""

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


def _rows(key: tuple, size: int) -> list[list[int]]:
    """The edge multiplicity rows of ``graph_from_key(key)``, padded with zeros to ``size``."""
    mult = [[0] * size for _ in range(size)]
    for (i, j), m in zip(itertools.combinations_with_replacement(range(key[0]), 2), key[3]):
        mult[i][j] = mult[j][i] = m
    return mult


def _ends(genus, mult) -> list[tuple]:
    """Vertex invariants (genus, valence with loops counted twice, loops); an edge ranks by (is a
    loop, its ends' sorted invariants, multiplicity).  Contracting an edge of highest rank leaves
    a stable graph with no more vertices, and undoing it is a kept degeneration, so any rank that
    isomorphisms keep reaches every graph (McKay's canonical augmentation).  Markings could only
    break ties, and only one-vertex graphs have them here."""
    return [(g, sum(row) + row[u], row[u]) for u, (g, row) in enumerate(zip(genus, mult))]


def _degenerations(key: tuple, bound: int):
    """Encodings (genera, multiplicity rows, marks) of the graphs one node more degenerate than
    ``graph_from_key(key)``, with at most ``bound`` vertices, whose new edge ranks first
    (``_ends``).  Markings stay put: a marked key has one vertex and no stable split."""
    n, genus, marks, _ = key
    mult = _rows(key, n)
    ends, looped = _ends(genus, mult), [v for v in range(n) if mult[v][v]]
    for v, (g, valence, loops) in enumerate(ends):
        # loops outrank the other edges, and only the end at v changes
        if g and all(ends[u] <= (g - 1, valence + 2, loops + 1) for u in looped if u != v):
            child = [row.copy() for row in mult]
            child[v][v] += 1
            yield genus[:v] + (g - 1,) + genus[v + 1:], child, marks
    # a loop left by a split would outrank its new edge: a split is tried only
    # at the one vertex with loops, if any, and all of them join the two halves
    if n == bound or len(looped) > 1:
        return
    for v in looped or range(n):
        # the new vertex n takes a share of v's genus and of its edges to each neighbour
        links = [u for u in range(n) if u != v and mult[v][u]]
        join, degree = 1 + mult[v][v], sum(mult[v][u] for u in links)
        untouched = max(((sorted((ends[a], ends[b])), mult[a][b]) for a in range(n)
                         for b in range(a + 1, n) if v not in (a, b) and mult[a][b]), default=())
        for gw, shares in itertools.product(range(genus[v] + 1), itertools.product(
                *(range(mult[v][u] + 1) for u in links))):
            ev, en = (genus[v] - gw, degree - sum(shares) + join, 0), (gw, sum(shares) + join, 0)
            new = ([en, ev], join)
            # one of a split and its swap; stable halves; no edge outranks the new one
            if ev < en or min(2 * e[0] + e[1] for e in (ev, en)) <= 2 or untouched > new or any(
                    (sorted((e, ends[u])), m) > new for u, s in zip(links, shares)
                    for e, m in ((ev, mult[v][u] - s), (en, s)) if m):
                continue
            split = _rows(key, n + 1)
            for u, s in zip(links, shares):
                split[v][u] = split[u][v] = mult[v][u] - s
                split[n][u] = split[u][n] = s
            split[v][v], split[v][n], split[n][v] = 0, join, join
            yield genus[:v] + (genus[v] - gw,) + genus[v + 1:] + (gw,), split, marks


def _children(key: tuple, label):
    """Encodings of the graphs that forgetting ``label``, last in label order, sends to
    ``graph_from_key(key)``: ``label`` at a vertex, or on a new rational vertex n on an
    edge (a loop becomes a double edge) or on the leg of a marking."""
    n, genus, marks, _ = key
    mult = _rows(key, n)
    yield from ((genus, mult, marks + ((label, v),)) for v in range(n))
    for u, w in itertools.combinations_with_replacement(range(n), 2):
        if mult[u][w]:
            child = _rows(key, n + 1)
            child[u][w] = child[w][u] = mult[u][w] - 1
            for x in (u, w):
                child[x][n] = child[n][x] = child[n][x] + 1
            yield genus + (0,), child, marks + ((label, n),)
    for i, (l, u) in enumerate(marks):
        child = _rows(key, n + 1)
        child[u][n] = child[n][u] = 1
        yield genus + (0,), child, marks[:i] + ((l, n),) + marks[i + 1:] + ((label, n),)


def corpus_keys(genus: int, marking_labels, max_vertices: int) -> list[tuple]:
    """The canonical keys of ``generate_corpus``'s graphs, sorted: one per isomorphism class."""
    genus, labels = require_genus(genus), sorted_labels(marking_labels)
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"no stable graphs for genus {genus} with {len(labels)} markings")
    if require_int(max_vertices, "max_vertices") < 1:
        raise ValidationError("max_vertices must be at least 1")

    # one edge more per level, so keys never repeat across levels; they may within one
    base = max(0, 3 - 2 * genus)
    keys, level = [], {_canonical_form([genus], [[0]], [(l, 0) for l in labels[:base]])}
    while level:
        keys += level
        level = {_canonical_form(*e) for key in level for e in _degenerations(key, max_vertices)}
    for label in labels[base:]:  # a graph has one image forgetting label: only siblings repeat
        parents, keys = keys, []
        while parents:  # each parent is dropped once its children are made
            keys += {_canonical_form(*e) for e in _children(parents.pop(), label)
                     if len(e[0]) <= max_vertices}
    return sorted(keys)


def generate_corpus(genus: int, marking_labels, max_vertices: int
                    ) -> list[MarkedDualGraph]:
    """All stable marked dual graphs with the given invariants, up to iso, by canonical key."""
    return [graph_from_key(key) for key in corpus_keys(genus, marking_labels, max_vertices)]


def are_isomorphic(g1: MarkedDualGraph, g2: MarkedDualGraph) -> bool:
    """Decorated isomorphism: equal canonical keys."""
    return canonical_key(g1) == canonical_key(g2)
