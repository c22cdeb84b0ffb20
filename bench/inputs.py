"""Seeded input generator for the benchmark workloads.

Uses the standard library only and never imports jacstab, so the program
under test sees nothing but the documents written here.  Documents follow
the repository's JSON formats: graphs as vertex/edge/marking objects,
polarizations as ``canonical`` or ``explicit`` recipes with rationals as
reduced fraction strings, sheaf types as non-free edge indices plus a
degree per vertex.  The same seed always writes byte-identical files.

Every generated input is valid by construction, so no operation of a
workload should fail: graphs are connected and stable, recipes compile to
an integer target degree, sheaf types are simple and have the recipe's
total degree, and ``count`` profiles are general (canonical recipes with
gcd(d-g+1, 2g-2) = 1).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("count-large", "sweep-small", "corpus-build")


def fraction_text(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _graph_doc(vertices, edges, markings) -> dict:
    return {"vertices": [{"id": v, "genus": g} for v, g in vertices],
            "edges": [[u, v] for u, v in edges],
            "markings": dict(markings)}


def _genus(vertices, edges) -> int:
    return sum(g for _, g in vertices) + len(edges) - len(vertices) + 1


def _connected(ids, edges, skip=frozenset()) -> bool:
    adj = {v: set() for v in ids}
    for i, (u, v) in enumerate(edges):
        if i not in skip:
            adj[u].add(v)
            adj[v].add(u)
    seen, stack = {ids[0]}, [ids[0]]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(ids)


# -- count-large ---------------------------------------------------------------

def _complete(n):
    return [(i, 0) for i in range(n)], \
        [(i, j) for i in range(n) for j in range(i + 1, n)], {}


def _chorded_ring(n):
    """Ring of genus-1 vertices with chords (0, n/2) and (2, n/2 + 2)."""
    edges = [(i, (i + 1) % n) for i in range(n)] \
        + [(0, n // 2), (2, n // 2 + 2)]
    return [(i, 1) for i in range(n)], edges, {"1": 0}


def _marked_multigraph():
    """Five vertices with parallel edges, two loops and three markings."""
    vertices = [(0, 0), (1, 1), (2, 0), (3, 0), (4, 1)]
    edges = [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 0),
             (0, 0), (2, 2)]
    return vertices, edges, {"1": 0, "2": 3, "3": 2}


# (name, shape); each profile is the canonical recipe of degree d = g, so
# d - g + 1 = 1 is coprime to 2g - 2 and the profile is general
COUNT_GRAPHS = (
    ("K5", _complete(5)),
    ("K6", _complete(6)),
    ("ring8", _chorded_ring(8)),
    ("ring10", _chorded_ring(10)),
    ("ring12", _chorded_ring(12)),
    ("multigraph", _marked_multigraph()),
)
TINY_COUNT_GRAPHS = tuple(entry for entry in COUNT_GRAPHS
                          if entry[0] in ("K5", "ring8", "multigraph"))


def count_large_jobs(seed: int, out_dir: Path, graphs=COUNT_GRAPHS
                     ) -> list[dict]:
    """Write one graph and one polarization document per ``count`` job.

    The seed picks the vertex id prefix, the order of the edge list and
    the base vertex.  Ids keep the vertex order's sort order, so the
    subcurve order and the scanned box, and with them the cost of each
    job, do not depend on the seed.
    """
    rng = random.Random(seed)
    jobs = []
    for name, (vertices, edges, markings) in graphs:
        prefix = rng.choice("abcdefghkmnpqrstuwxyz")
        ids = [f"{prefix}{i:02d}" for i, _ in vertices]
        edge_list = [(ids[u], ids[v]) for u, v in edges]
        rng.shuffle(edge_list)
        graph = _graph_doc([(ids[i], g) for i, g in vertices], edge_list,
                           {l: ids[v] for l, v in markings.items()})
        genus = _genus(vertices, edges)
        pol = {"kind": "canonical", "d": genus, "a": {}}
        graph_path = out_dir / f"count-{name}-graph.json"
        pol_path = out_dir / f"count-{name}-pol.json"
        graph_path.write_text(json.dumps(graph, indent=1))
        pol_path.write_text(json.dumps(pol, indent=1))
        jobs.append({"name": name, "argv": [
            "count", "--graph", str(graph_path), "--pol", str(pol_path),
            "--base", rng.choice(ids)]})
    return jobs


# -- corpus-build --------------------------------------------------------------

# (genus, number of marking labels, max vertices, corpus size at seed);
# g=3 with 5 vertices repeats the 42 graphs of 4 vertices at 12x the cost
CORPUS_SPECS = ((3, 0, 5, 42), (4, 0, 4, 239), (2, 2, 4, 75))
TINY_CORPUS_SPECS = ((2, 0, 3, 7), (1, 2, 3, 5))
LABEL_POOL = ("1", "2", "3", "5", "7", "11", "p", "q", "r", "s")


def corpus_build_jobs(seed: int, specs=CORPUS_SPECS) -> list[dict]:
    """``corpus`` jobs; the seed picks the marking labels.

    The jobs run in the order of ``specs`` whatever the seed: a job that
    follows a large one runs up to 15 % faster, in the heap that job left
    grown, so a seeded order would move the figures from seed to seed.
    """
    rng = random.Random(seed)
    jobs = []
    for genus, n_marks, max_vertices, size in specs:
        labels = rng.sample(LABEL_POOL, n_marks)
        argv = ["corpus", "--genus", str(genus),
                "--max-vertices", str(max_vertices)]
        if labels:
            argv += ["--markings", ",".join(labels)]
        jobs.append({"name": f"g{genus}-m{n_marks}-v{max_vertices}",
                     "genus": genus, "markings": labels,
                     "expected_count": size, "argv": argv})
    return jobs


# -- sweep-small ---------------------------------------------------------------

# (genus, marking labels, vertex counts, graphs per vertex count); "x" is
# the marking that forget_point removes.  A stable graph has at most
# 2g - 2 + (number of markings) vertices.
SWEEP_SPECS = (
    (1, ("1", "x"), (1, 2), 3),
    (1, ("1", "2", "x"), (1, 2, 3), 3),
    (2, ("x",), (1, 2, 3), 3),
    (2, ("1", "x"), (2, 3, 4), 3),
    (2, ("1", "2", "x"), (2, 3), 3),
    (3, ("x",), (2, 3, 4), 3),
)
TINY_SWEEP_SPECS = ((1, ("1", "x"), (1, 2), 1), (2, ("1", "x"), (2, 3), 1))
SHAPES_SEED = 2015
RECIPES_PER_GRAPH = 2
RANDOM_TYPES_PER_CASE = 6
EQUIV_PAIRS_PER_CASE = 4


def _random_stable_graph(rng, genus, labels, n):
    """Random connected stable graph with n vertices, or None on a miss."""
    genera = [0] * n
    for _ in range(rng.randrange(genus + 1)):
        genera[rng.randrange(n)] += 1
    n_edges = genus - sum(genera) + n - 1
    edges = [(rng.randrange(i), i) for i in range(1, n)]  # spanning tree
    for _ in range(n_edges - (n - 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    edges.sort()
    markings = {l: rng.randrange(n) for l in labels}
    valence = [0] * n
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
    marks = [0] * n
    for v in markings.values():
        marks[v] += 1
    if any(2 * genera[i] - 2 + valence[i] + marks[i] <= 0 for i in range(n)):
        return None
    return genera, edges, markings, valence


def _forget_weight_rule(genera, markings, valence):
    """Marking that must carry s + r/2 so the contracted vertex has q = 0.

    Forgetting x contracts its vertex v0 when v0 becomes unstable.  A
    rational bridge vertex (case a) has w = 0, so a_x = 0 already gives it
    weight 0; a rational tail with one other marking y (case b) has w = -1
    and needs a_y = s + r/2.  Returns y, or None when no constraint applies.
    """
    v0 = markings["x"]
    others = [l for l, v in markings.items() if v == v0 and l != "x"]
    if 2 * genera[v0] - 2 + valence[v0] + len(others) > 0:
        return None
    if genera[v0] == 0 and valence[v0] == 1 and len(others) == 1:
        return others[0]
    return None


def _recipe(rng, genus, labels, tail_label):
    """Explicit recipe (s, a, r) with a_x = 0 and an integer target degree."""
    while True:
        s = Fraction(rng.randrange(-2, 3))
        r = Fraction(rng.choice((1, 2)))
        a = {l: Fraction(rng.randrange(-2, 3)) for l in labels}
        a["x"] = Fraction(0)
        if tail_label is not None:
            a[tail_label] = s + r / 2
        d = (s * (2 * genus - 2) + sum(a.values())) / r + genus - 1
        if d.denominator == 1:
            return s, r, a, int(d)


def _laplacian_move(rng, ids, edges, vector):
    """vector minus the Laplacian applied to a random integer firing."""
    fire = {v: rng.randrange(-2, 3) for v in ids}
    out = dict(vector)
    for u, v in edges:
        if u != v:
            out[u] -= fire[u] - fire[v]
            out[v] -= fire[v] - fire[u]
    return out


def _degrees(rng, ids, total, spread=2):
    degrees = {v: rng.randrange(-spread, spread + 1) for v in ids}
    degrees[ids[0]] += total - sum(degrees.values())
    return degrees


def sweep_small_cases(seed: int, specs=SWEEP_SPECS) -> list[dict]:
    """One case per (graph, recipe): the documents and seeded extras.

    Each case holds a graph document, an explicit polarization document,
    random simple sheaf types of the right total degree with an optional
    base vertex, multidegree pairs (the first half related by a Laplacian
    move, so known to be equivalent) and a seed for ``perturb_general``.
    The graph shapes come from SHAPES_SEED, not from ``seed``: the cost of
    a pass depends mostly on the shapes, and fixing them keeps it steady
    from seed to seed while everything else on the graphs varies.
    """
    shapes = random.Random(SHAPES_SEED)
    rng = random.Random(seed)
    cases = []
    for genus, labels, vertex_counts, per_count in specs:
        for n in vertex_counts:
            made = 0
            while made < per_count:
                shape = _random_stable_graph(shapes, genus, labels, n)
                if shape is None:
                    continue
                made += 1
                genera, edges, markings, valence = shape
                ids = [f"v{i}" for i in range(n)]
                edge_ids = [(ids[u], ids[v]) for u, v in edges]
                graph = _graph_doc([(ids[i], g) for i, g in enumerate(genera)],
                                   edge_ids,
                                   {l: ids[v] for l, v in markings.items()})
                tail = _forget_weight_rule(genera, markings, valence)
                for _ in range(RECIPES_PER_GRAPH):
                    s, r, a, d = _recipe(rng, genus,
                                         [l for l in labels if l != "x"], tail)
                    pol = {"kind": "explicit", "s": fraction_text(s),
                           "r": fraction_text(r),
                           "a": {l: fraction_text(c) for l, c in a.items()},
                           "alpha": []}
                    sheaves = []
                    while len(sheaves) < RANDOM_TYPES_PER_CASE:
                        S = sorted(i for i in range(len(edges))
                                   if rng.random() < 0.3)
                        if not _connected(ids, edge_ids, frozenset(S)):
                            continue
                        sheaves.append({
                            "sheaf": {"nonfree": S,
                                      "degrees": _degrees(rng, ids, d - len(S))},
                            "base": rng.choice([None] + ids)})
                    pairs = []
                    for k in range(EQUIV_PAIRS_PER_CASE):
                        d1 = _degrees(rng, ids, d, spread=3)
                        if k < EQUIV_PAIRS_PER_CASE // 2:
                            d2, known = _laplacian_move(rng, ids, edge_ids, d1), True
                        else:
                            d2, known = _degrees(rng, ids, d, spread=3), None
                        pairs.append({"d1": d1, "d2": d2, "equivalent": known})
                    cases.append({"graph": graph, "pol": pol, "d": d,
                                  "sheaves": sheaves, "equiv": pairs,
                                  "perturb_seed": rng.randrange(10 ** 6)})
    return cases


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False
             ) -> Path:
    """Write the inputs of one workload under out_dir; return the job file.

    ``tiny`` selects a few small inputs of the same shapes, which the
    benchmark's self-tests use.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "count-large":
        doc = {"jobs": count_large_jobs(
            seed, out_dir, TINY_COUNT_GRAPHS if tiny else COUNT_GRAPHS)}
    elif workload == "corpus-build":
        doc = {"jobs": corpus_build_jobs(
            seed, TINY_CORPUS_SPECS if tiny else CORPUS_SPECS)}
    elif workload == "sweep-small":
        doc = {"cases": sweep_small_cases(
            seed, TINY_SWEEP_SPECS if tiny else SWEEP_SPECS),
            "sample_seed": seed}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = out_dir / "inputs.json"
    path.write_text(json.dumps(doc, indent=1))
    return path
