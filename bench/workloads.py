"""The three benchmark workloads: load, one timed pass, verification, digest.

Each workload is a fixed list of operations on inputs written by
``inputs.py``.  A pass runs the whole list once through a ``Recorder``,
which times every operation; a workload is measured by repeating passes in
one closed loop.  Verification runs after the clock stops and uses oracles
that already exist in jacstab: ``complexity`` for ``count``, the
all-subsets ``check``, ``canonical_key`` for isomorphism, and the
forgetful-map laws of acceptance criterion 7.

jacstab is reached through module attributes (``stability.check``), never
through names bound here, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from time import perf_counter

import calibrate
from jacstab import cli, corpus, lattice, maps, polarization, stability
from jacstab import io as docio
from jacstab.errors import PreconditionError
from jacstab.graphs import ContractionReport, MarkedDualGraph
from jacstab.polarization import QProfile
from jacstab.sheaves import SheafType, is_simple
from jacstab.stability import StabilityVerdict

CHECKED_TYPES_PER_CASE = 20
ALL_SUBSETS_SAMPLE = 0.1
CALIBRATE_EVERY_S = 0.2


class Raised:
    """An exception an operation raised, kept as its outcome."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({type(self.exc).__name__}: {self.exc})"


class Recorder:
    """Times each operation of a pass and keeps its outcome.

    ``latencies`` holds one duration in seconds per operation.  An
    exception is caught and returned as ``Raised``, so one failing
    operation neither stops the pass nor hides the others.

    With ``calibrate``, the recorder also times ``calibrate.reference_work``
    before the first operation, between operations whenever CALIBRATE_EVERY_S
    have passed since the last calibration, and in ``normalized``.  Each
    operation is then reported at reference speed, scaled by the mean of
    the two calibrations around it (see ``calibrate.py``).
    """

    def __init__(self, tracer=None, calibrate: bool = False):
        self.latencies: list[float] = []
        self.tracer = tracer
        self.calibrations: list[float] = []
        self.segment: list[int] = []  # per operation, its last calibration
        self.calibrated_at = 0.0
        if calibrate:
            self._calibrate()

    def _calibrate(self) -> None:
        self.calibrations.append(calibrate.calibration_s())
        self.calibrated_at = perf_counter()

    def call(self, fn, *args, **kwargs):
        if self.calibrations and \
                perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S:
            self._calibrate()
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)
        self.segment.append(len(self.calibrations) - 1)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the outcome is judged by verification
            result = Raised(exc)
        self.latencies.append(perf_counter() - start)
        return result

    def normalized(self) -> list[float]:
        """Per-operation latencies at reference speed; ends the pass."""
        self._calibrate()
        cal = self.calibrations
        return [t * 2 * calibrate.REFERENCE_S / (cal[i] + cal[i + 1])
                for t, i in zip(self.latencies, self.segment)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``jacstab.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(serialized: list[str]) -> str:
    """sha256 of a pass's serialized outputs (one line per job or case)."""
    h = hashlib.sha256()
    for line in serialized:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class CliWorkload:
    """Jobs that each run one ``jacstab`` subcommand in-process.

    One operation is one job; its outcome is (exit code, stdout, stderr).
    """

    def __init__(self, doc: dict):
        self.jobs = doc["jobs"]

    def run_pass(self, rec: Recorder) -> list:
        outputs = []
        for job in self.jobs:
            outputs.append(rec.call(run_cli, job["argv"]))
            if rec.tracer is not None and not isinstance(outputs[-1], Raised):
                rec.tracer.add("io.bytes_out", len(outputs[-1][1].encode()))
        return outputs

    def serialize(self, outputs: list) -> list[str]:
        return [json.dumps([job["name"], repr(out) if isinstance(out, Raised)
                            else out[:2]])
                for job, out in zip(self.jobs, outputs)]

    def verify(self, outputs: list) -> list[str]:
        failures = []
        for job, out in zip(self.jobs, outputs):
            if isinstance(out, Raised) or out[0] != 0:
                failures.append(f"{job['name']}: {out!r}")
                continue
            problem = self.verify_job(job, json.loads(out[1]))
            if problem:
                failures.append(f"{job['name']}: {problem}")
        return failures


class CountLarge(CliWorkload):
    """``count`` on general profiles of larger graphs."""

    def verify_job(self, job: dict, result: dict) -> str | None:
        graph_path = job["argv"][job["argv"].index("--graph") + 1]
        with open(graph_path, encoding="utf-8") as handle:
            graph = docio.parse_graph_document(docio.loads_document(handle.read()))
        kappa = lattice.complexity(graph)
        if result.get("count") != kappa:
            return f"count {result.get('count')} != complexity {kappa}"
        return None


class CorpusBuild(CliWorkload):
    """``corpus`` for a few (genus, markings, vertex bound) triples."""

    def verify_job(self, job: dict, result: dict) -> str | None:
        graphs = [docio.parse_graph_document(doc) for doc in result["graphs"]]
        want = job["expected_count"]
        if result["count"] != len(graphs) or len(graphs) != want:
            return f"{len(graphs)} graphs, expected {want}"
        labels = sorted(job["markings"])
        for graph in graphs:
            if graph.genus != job["genus"] or \
                    sorted(graph.marking_labels) != labels:
                return f"graph of genus {graph.genus}, markings " \
                       f"{list(graph.marking_labels)} in the corpus"
        keys = {corpus.canonical_key(graph) for graph in graphs}
        if len(keys) != len(graphs):
            return f"{len(graphs) - len(keys)} isomorphic duplicates"
        return None


class SweepCase:
    """One (graph, recipe) of sweep-small, parsed into jacstab objects."""

    def __init__(self, doc: dict):
        self.graph = docio.parse_graph_document(doc["graph"])
        self.pol = docio.parse_polarization_document(doc["pol"])
        self.pol_bar = maps.forget_polarization(
            self.pol, "x", genus=self.graph.genus,
            marking_labels=self.graph.marking_labels)
        self.random_types = [
            (docio.parse_sheaf_document(entry["sheaf"], self.graph),
             entry["base"]) for entry in doc["sheaves"]]
        self.equiv = [(pair["d1"], pair["d2"], pair["equivalent"])
                      for pair in doc["equiv"]]
        self.perturb_seed = doc["perturb_seed"]


class SweepSmall:
    """Many sub-millisecond library calls on small marked graphs.

    Per case: compile the recipe; enumerate semistable types, non-free
    ones included; check a spread of at most CHECKED_TYPES_PER_CASE of
    them and the seeded random types; forget "x" from each checked type
    and check the pushed type against the forgotten recipe; decide the
    seeded multidegree pairs; test generality and perturb.
    """

    def __init__(self, doc: dict):
        self.cases = [SweepCase(case) for case in doc["cases"]]
        self.sample_seed = doc["sample_seed"]

    def run_pass(self, rec: Recorder) -> list:
        outputs = []
        for case in self.cases:
            outputs.append(self._run_case(rec, case))
        return outputs

    @staticmethod
    def _run_case(rec: Recorder, case: SweepCase) -> dict:
        graph = case.graph
        out = {"profile": rec.call(polarization.compile_polarization,
                                   case.pol, graph)}
        profile = out["profile"]
        if isinstance(profile, Raised):
            return out
        types = rec.call(stability.enumerate_sheaves, graph, profile,
                         "semistable", include_nonfree=True)
        out["types"] = types
        if isinstance(types, Raised):
            return out
        # the same number of checks in every case, spread over the types
        checked = [(types[i * len(types) // CHECKED_TYPES_PER_CASE], None)
                   for i in range(CHECKED_TYPES_PER_CASE) if types] \
            + case.random_types
        out["checked"] = checked
        out["verdicts"] = [rec.call(stability.check, graph, profile, sheaf,
                                    base_vertex=base)
                           for sheaf, base in checked]
        out["forgets"] = []
        profile_bar = None
        for sheaf, _ in checked:
            pushed = rec.call(maps.forget_point, graph, "x", sheaf)
            after = None
            if not isinstance(pushed, Raised):
                new_graph, new_sheaf, _ = pushed
                if profile_bar is None:
                    profile_bar = rec.call(polarization.compile_polarization,
                                           case.pol_bar, new_graph)
                    out["profile_bar"] = profile_bar
                if is_simple(new_graph, new_sheaf) \
                        and not isinstance(profile_bar, Raised):
                    after = rec.call(stability.check, new_graph, profile_bar,
                                     new_sheaf)
            out["forgets"].append((pushed, after))
        out["equiv"] = [rec.call(lattice.multidegrees_equivalent, graph, d1, d2)
                        for d1, d2, _ in case.equiv]
        out["general"] = rec.call(polarization.is_general, graph, profile)
        out["perturbed"] = rec.call(polarization.perturb_general, graph,
                                    profile, seed=case.perturb_seed)
        return out

    def serialize(self, outputs: list) -> list[str]:
        return [json.dumps(_plain(out)) for out in outputs]

    def verify(self, outputs: list) -> list[str]:
        failures = []
        sample = random.Random(self.sample_seed)
        for index, (case, out) in enumerate(zip(self.cases, outputs)):
            for problem in self._verify_case(case, out, sample):
                failures.append(f"case {index}: {problem}")
        return failures

    @staticmethod
    def _verify_case(case: SweepCase, out: dict, sample: random.Random):
        graph = case.graph
        for key in ("profile", "types", "profile_bar", "general", "perturbed"):
            if isinstance(out.get(key), Raised):
                yield f"{key}: {out[key]!r}"
        profile = out["profile"]
        if isinstance(profile, Raised) or isinstance(out.get("types"), Raised):
            return
        for sheaf in out["types"]:
            if stability.check(graph, profile, sheaf).status == "unstable":
                yield f"enumerated type {docio.sheaf_document(sheaf)} is unstable"
        for (sheaf, base), verdict, (pushed, after) in zip(
                out["checked"], out["verdicts"], out["forgets"]):
            if isinstance(verdict, Raised):
                yield f"check: {verdict!r}"
                continue
            if sample.random() < ALL_SUBSETS_SAMPLE:
                slow = stability.check(graph, profile, sheaf, base_vertex=base,
                                       all_subsets=True)
                if (slow.status, slow.quasistable_at_base) != \
                        (verdict.status, verdict.quasistable_at_base):
                    yield f"check {verdict} != all-subsets check {slow}"
            if isinstance(pushed, Raised):
                # semistable types are always admissible for the pushforward
                if not (isinstance(pushed.exc, PreconditionError)
                        and verdict.status == "unstable"):
                    yield f"forget_point on a {verdict.status} type: {pushed!r}"
            elif after is None:
                if verdict.status == "stable":
                    yield "stable type pushed to a non-simple type"
            elif isinstance(after, Raised):
                yield f"check of the pushed type: {after!r}"
            elif (verdict.status == "unstable") != (after.status == "unstable"):
                yield f"forgetting moved {verdict.status} to {after.status}"
        for (_, _, known), result in zip(case.equiv, out["equiv"]):
            if isinstance(result, Raised):
                yield f"multidegrees_equivalent: {result!r}"
            elif known is not None and result is not known:
                yield f"Laplacian-related multidegrees judged {result}"
        perturbed, general = out["perturbed"], out["general"]
        if not isinstance(perturbed, Raised):
            if not polarization.is_general(graph, perturbed)[0]:
                yield "perturb_general returned a non-general profile"
            if not isinstance(general, Raised) and general[0] \
                    and perturbed != profile:
                yield "perturb_general moved a general profile"


def _plain(value):
    """JSON-ready form of an operation outcome, via the io document formats."""
    if isinstance(value, Raised):
        return {"raised": type(value.exc).__name__}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, QProfile):
        return docio.profile_document(value)
    if isinstance(value, SheafType):
        return docio.sheaf_document(value)
    if isinstance(value, StabilityVerdict):
        return [value.status, value.quasistable_at_base, value.witness]
    if isinstance(value, MarkedDualGraph):
        return docio.graph_document(value)
    if isinstance(value, ContractionReport):
        return value.case
    if isinstance(value, frozenset):
        return sorted(value)
    return value


WORKLOAD_CLASSES = {
    "count-large": CountLarge,
    "sweep-small": SweepSmall,
    "corpus-build": CorpusBuild,
}


def load(workload: str, inputs_path: str):
    """Read a workload's generated inputs into memory."""
    with open(inputs_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return WORKLOAD_CLASSES[workload](doc)
