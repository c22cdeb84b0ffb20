"""``check`` against a minimum-cut verdict on graphs of 15 to 20 vertices.

The all-subsets oracle cannot run on these graphs.  The slack of a subcurve
Y is deg_Y - q_Y + k_Y/2.  A non-free edge counts 1 in deg_Y when it lies
in Y and 1/2 through k_Y when it crosses, so with s_v the ends of
non-free edges at v (a loop twice) the slack is

    f(Y) = sum over v in Y of (d_v - q_v + s_v/2) + k'(Y)/2,

where k'(Y) counts the free edges that cross.  Scaled by 2L, L = lcm(2,
denominators of q), every term is an integer.  f of the empty set and of
all vertices is 0, so its minimum over all vertex sets is one minimum s-t
cut: vertex v joins the source side when it is in Y, a positive weight is
an edge to the sink, a negative one an edge from the source, and each free
edge two arcs of capacity L.  The type is unstable iff that minimum is
negative.  Otherwise the minimizers are the minimum cuts: the source sides
that no arc with residual capacity leaves.  The least one holding a vertex
v is what the source and v reach in the residual graph.  So the type is
strictly semistable iff for some v that set misses the sink and some other
vertex, and quasistable at a base iff no such set holds the base.

Inputs: chorded rings, grids and bridged chains of cycles with random
profiles, simple non-free sets, degrees that round q less half the
non-free ends along the vertex order, nudged at random, and random bases.
Each graph's table is built once for all its cases.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

from jacstab import MarkedDualGraph, SheafType, check, make_profile

from conftest import chorded_ring


def grid(rows: int, cols: int) -> MarkedDualGraph:
    """A rows x cols grid of genus-1 vertices."""
    name = [[f"g{i}_{j}" for j in range(cols)] for i in range(rows)]
    edges = [(name[i][j], name[i][j + 1]) for i in range(rows) for j in range(cols - 1)] \
        + [(name[i][j], name[i + 1][j]) for i in range(rows - 1) for j in range(cols)]
    return MarkedDualGraph.build([(v, 1) for row in name for v in row], edges)


def bridged_chain(blocks: int, size: int) -> MarkedDualGraph:
    """``blocks`` cycles of ``size`` genus-1 vertices, each with one chord,
    the middle vertex of each joined to the first of the next by a bridge."""
    vertices, edges = [], []
    for b in range(blocks):
        ids = [f"b{b}_{i}" for i in range(size)]
        vertices += [(v, 1) for v in ids]
        edges += [(ids[i], ids[(i + 1) % size]) for i in range(size)] + [(ids[0], ids[size // 2])]
        edges += [(f"b{b - 1}_{size // 2}", ids[0])] if b else []
    return MarkedDualGraph.build(vertices, edges)


def min_cut_verdict(graph, profile, sheaf, base):
    """(status, quasistable_at_base) of ``sheaf`` from one maximum flow."""
    n, index = len(graph.vertex_ids), graph.vertex_index
    scale = math.lcm(2, *(f.denominator for _, f in profile.q))
    weight = [int(2 * scale * (d - f)) for (_, d), (_, f) in zip(sheaf.degrees, profile.q)]
    source, sink = n, n + 1
    capacity = [dict() for _ in range(n + 2)]

    def arc(u, v, c):
        capacity[u][v] = capacity[u].get(v, 0) + c
        capacity[v].setdefault(u, 0)
    for e, (u, v) in enumerate(graph.edge_ends):
        if e in sheaf.nonfree_edges:
            weight[u] += scale
            weight[v] += scale
        elif u != v:
            arc(u, v, scale)
            arc(v, u, scale)
    for v, w in enumerate(weight):
        arc(*((v, sink, w) if w > 0 else (source, v, -w)))

    def reach(starts):
        seen, queue = set(starts), deque(starts)
        while queue:
            u = queue.popleft()
            for v, c in capacity[u].items():
                if c > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    flow = 0
    while True:  # Edmonds-Karp: shortest augmenting paths
        parent, queue = {source: None}, deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in capacity[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path, v = [], sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(capacity[u][v] for u, v in path)
        for u, v in path:
            capacity[u][v] -= push
            capacity[v][u] += push
        flow += push
    if flow + sum(w for w in weight if w < 0) < 0:
        return "unstable", None if base is None else False

    def tight(v) -> bool:  # some minimizer holds v and is not every vertex
        side = reach([source, v])
        return sink not in side and len(side) < n + 1
    strict = any(tight(v) for v in range(n))
    return ("strictly_semistable" if strict else "stable",
            None if base is None else not tight(index[base]))


def sheaf_cases(graph, rng: random.Random, profiles: int, per_profile: int):
    """(profile, sheaf, base) with random profiles and simple non-free sets."""
    ids, m = graph.vertex_ids, len(graph.edges)
    for _ in range(profiles):
        den = rng.choice((1, 2, 3, 4))
        q = {v: Fraction(rng.randrange(-2 * den, 3 * den), den) for v in ids[:-1]}
        d = rng.randrange(len(ids) - 3, len(ids) + 4)
        q[ids[-1]] = d - sum(q.values())
        profile = make_profile(graph, q, d)
        for _ in range(per_profile):
            S = frozenset(rng.sample(range(m), rng.randrange(3)))
            if not graph.is_connected(skip_edges=S):
                S = frozenset()
            ends = [0] * len(ids)
            for e in S:
                for i in graph.edge_ends[e]:
                    ends[i] += 1
            # the degree at v is the step of floor(running sum of q - s/2)
            running = [math.floor(sum(f - Fraction(s, 2) for (_, f), s in
                                      zip(profile.q[:i], ends[:i]))) for i in range(len(ids) + 1)]
            degrees = [b - a for a, b in zip(running, running[1:])]
            for _ in range(rng.choice((0, 0, 1, 2))):  # move one degree between two vertices
                i, j = rng.sample(range(len(ids)), 2)
                degrees[i] += 1
                degrees[j] -= 1
            base = rng.choice((None,) + ids)
            yield profile, SheafType(S, tuple(zip(ids, degrees))), base


def test_check_matches_min_cut_verdict():
    rng = random.Random(2027)
    statuses = {"stable": 0, "strictly_semistable": 0, "unstable": 0}
    quasi = {True: 0, False: 0, None: 0}
    # (graph, profiles, types per profile): the grid's table has 4,039 subcurves, the others
    # 450 to 1,100, and each stable or strictly semistable type reads all of them
    for graph, profiles, per_profile in ((chorded_ring(15, 3), 3, 16), (chorded_ring(22, 2), 3, 16),
                                         (grid(2, 8), 2, 10), (bridged_chain(5, 3), 3, 16),
                                         (bridged_chain(6, 3), 3, 16)):
        for profile, sheaf, base in sheaf_cases(graph, rng, profiles, per_profile):
            verdict = check(graph, profile, sheaf, base_vertex=base)
            assert (verdict.status, verdict.quasistable_at_base) \
                == min_cut_verdict(graph, profile, sheaf, base), (graph, profile, sheaf, base)
            statuses[verdict.status] += 1
            quasi[verdict.quasistable_at_base] += 1
    assert sum(statuses.values()) >= 200 and min(statuses.values()) >= 20, statuses
    assert min(quasi.values()) >= 10, quasi
