"""Module-boundary tracing for the benchmark's traced run.

``Tracer.install`` replaces public functions of jacstab's modules with
wrappers that record one span per call: name, start, end, parent span and
the id of the workload operation that caused it.  Every binding of a
function in any jacstab module is replaced, so calls from one module into
another (``stability`` calling ``graphs.proper_subcurves``) are seen, not
only calls made by the benchmark.  Spans stay in memory until the run
ends.  ``uninstall`` puts every original back; timed runs never see a
wrapper.

A span's self time is its duration minus the time its child spans cover.
Functions called so often that a span per call would dominate the run
(``deg_subcurve``) are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "graphs", "sheaves", "polarization", "stability",
          "lattice", "maps", "corpus")

# (module, function) -> span name
SPANNED = {
    ("jacstab.cli", "main"): "cli.main",
    ("jacstab.cli", "_emit"): "io.emit",
    ("jacstab.io", "loads_document"): "io.parse",
    ("jacstab.io", "parse_graph_document"): "io.parse",
    ("jacstab.io", "parse_polarization_document"): "io.parse",
    ("jacstab.io", "parse_sheaf_document"): "io.parse",
    ("jacstab.io", "graph_document"): "io.emit",
    ("jacstab.io", "sheaf_document"): "io.emit",
    ("jacstab.io", "profile_document"): "io.emit",
    ("jacstab.io", "polarization_document"): "io.emit",
    ("jacstab.graphs", "proper_subcurves"): "graphs.proper_subcurves",
    ("jacstab.graphs", "stabilize_forgetting"): "graphs.stabilize_forgetting",
    ("jacstab.polarization", "compile_polarization"): "polarization.compile",
    ("jacstab.polarization", "is_general"): "polarization.is_general",
    ("jacstab.polarization", "perturb_general"): "polarization.perturb",
    ("jacstab.stability", "check"): "stability.check",
    ("jacstab.stability", "enumerate_sheaves"): "stability.enumerate",
    ("jacstab.lattice", "multidegrees_equivalent"): "lattice.equiv",
    ("jacstab.maps", "forget_point"): "maps.forget",
    ("jacstab.corpus", "generate_corpus"): "corpus.generate",
    ("jacstab.corpus", "canonical_key"): "corpus.canonical_key",
}
COUNTED = {
    ("jacstab.sheaves", "deg_subcurve"): "sheaves.deg_subcurve",
}

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "cli.main.self_s": "s",
    "io.parse_s": "s",
    "io.emit_s": "s",
    "io.bytes_out": "bytes",
    "graphs.proper_subcurves_s": "s",
    "graphs.proper_subcurves.calls": "count",
    "graphs.subcurves_out": "count",
    "graphs.subcurve_builds_per_graph": "ratio",
    "graphs.stabilize_forgetting_s": "s",
    "sheaves.deg_subcurve.calls": "count",
    "polarization.compile_s": "s",
    "polarization.compile.calls": "count",
    "polarization.is_general_s": "s",
    "polarization.is_general.calls": "count",
    "polarization.perturb_s": "s",
    "polarization.perturb_attempts_per_call": "ratio",
    "stability.enumerate.self_s": "s",
    "stability.enumerate.calls": "count",
    "stability.types_out": "count",
    "stability.check.self_s": "s",
    "stability.check.calls": "count",
    "lattice.equiv_s": "s",
    "lattice.equiv.calls": "count",
    "maps.forget_s": "s",
    "maps.forget.calls": "count",
    "maps.forget.refused_ratio": "ratio",
    "corpus.generate.self_s": "s",
    "corpus.canonical_key_s": "s",
    "corpus.canonical_key.calls": "count",
    "corpus.keys_per_graph_out": "ratio",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _jacstab_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "jacstab" or name.startswith("jacstab."))]


class Tracer:
    """Spans and counts recorded at jacstab's module boundaries."""

    def __init__(self):
        from jacstab.errors import PreconditionError
        self._refusal = PreconditionError
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op_id: int | None = None
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.refused: Counter = Counter()
        self.graphs_seen: set = set()
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original)
        self._last_error: BaseException | None = None

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> list[str]:
        """Wrap every target; return the targets jacstab no longer has."""
        hooks = {
            "graphs.proper_subcurves": self._after_subcurves,
            "stability.enumerate": self._after_enumerate,
            "corpus.generate": self._after_generate,
        }
        modules = _jacstab_modules()
        missing = []
        targets = [(key, name, True) for key, name in SPANNED.items()] \
            + [(key, name, False) for key, name in COUNTED.items()]
        for (module_name, attribute), name, spanned in targets:
            fn = getattr(sys.modules.get(module_name), attribute, None)
            if fn is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = self._span_wrapper(name, fn, hooks.get(name)) \
                if spanned else self._count_wrapper(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    @staticmethod
    def leftovers() -> list[str]:
        """Attributes of jacstab modules that still hold a wrapper."""
        return [f"{module.__name__}.{key}"
                for module in _jacstab_modules()
                for key, value in vars(module).items()
                if getattr(value, "__bench_trace__", False)]

    # -- wrappers ---------------------------------------------------------

    def _layer(self, name: str) -> str:
        return name.split(".", 1)[0]

    def _note_exception(self, name: str, exc: Exception) -> None:
        """A refusal counts per span; any other error once, where raised."""
        if isinstance(exc, self._refusal):
            self.refused[name] += 1
        elif exc is not self._last_error:
            self._last_error = exc
            self.errors[self._layer(name)] += 1

    def _span_wrapper(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_exception(name, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__bench_trace__ = True
        return wrapper

    def _count_wrapper(self, name, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._note_exception(name, exc)
                raise

        wrapper.__bench_trace__ = True
        return wrapper

    def _after_subcurves(self, args, kwargs, result):
        self.counts["graphs.subcurves_out"] += len(result)
        self.graphs_seen.add(args[0] if args else kwargs["graph"])

    def _after_enumerate(self, args, kwargs, result):
        self.counts["stability.types_out"] += len(result)

    def _after_generate(self, args, kwargs, result):
        self.counts["corpus.graphs_out"] += len(result)

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Summed self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - covered[index]
            calls[name] += 1
        return self_time, calls

    def metrics(self, overhead_s: float,
                time_scale: float = 1.0) -> dict[str, float]:
        """Every PER_LAYER metric, 0 where the workload never reached it.

        Self times are multiplied by ``time_scale``, the factor that puts
        the traced pass at reference speed (see ``calibrate.py``).
        """
        self_time, calls = self.self_times()
        st = defaultdict(float, {name: t * time_scale
                                 for name, t in self_time.items()})
        perturb_attempts = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "polarization.is_general" and parent >= 0
            and self.spans[parent][0] == "polarization.perturb")

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "cli.main.self_s": st["cli.main"],
            "io.parse_s": st["io.parse"],
            "io.emit_s": st["io.emit"],
            "io.bytes_out": self.counts["io.bytes_out"],
            "graphs.proper_subcurves_s": st["graphs.proper_subcurves"],
            "graphs.proper_subcurves.calls": calls["graphs.proper_subcurves"],
            "graphs.subcurves_out": self.counts["graphs.subcurves_out"],
            "graphs.subcurve_builds_per_graph": ratio(
                calls["graphs.proper_subcurves"], len(self.graphs_seen)),
            "graphs.stabilize_forgetting_s": st["graphs.stabilize_forgetting"],
            "sheaves.deg_subcurve.calls": self.counts["sheaves.deg_subcurve.calls"],
            "polarization.compile_s": st["polarization.compile"],
            "polarization.compile.calls": calls["polarization.compile"],
            "polarization.is_general_s": st["polarization.is_general"],
            "polarization.is_general.calls": calls["polarization.is_general"],
            "polarization.perturb_s": st["polarization.perturb"],
            "polarization.perturb_attempts_per_call": ratio(
                perturb_attempts, calls["polarization.perturb"]),
            "stability.enumerate.self_s": st["stability.enumerate"],
            "stability.enumerate.calls": calls["stability.enumerate"],
            "stability.types_out": self.counts["stability.types_out"],
            "stability.check.self_s": st["stability.check"],
            "stability.check.calls": calls["stability.check"],
            "lattice.equiv_s": st["lattice.equiv"],
            "lattice.equiv.calls": calls["lattice.equiv"],
            "maps.forget_s": st["maps.forget"],
            "maps.forget.calls": calls["maps.forget"],
            "maps.forget.refused_ratio": ratio(
                self.refused["maps.forget"], calls["maps.forget"]),
            "corpus.generate.self_s": st["corpus.generate"],
            "corpus.canonical_key_s": st["corpus.canonical_key"],
            "corpus.canonical_key.calls": calls["corpus.canonical_key"],
            "corpus.keys_per_graph_out": ratio(
                calls["corpus.canonical_key"], self.counts["corpus.graphs_out"]),
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        return values

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle, separators=(",", ":"))
