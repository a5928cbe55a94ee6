"""Span tracing of the library from outside, for the traced benchmark run.

Each layer function is wrapped under the module attribute through which
its caller looks it up, so the library itself is untouched.  Spans carry
their parent and the decision they belong to; they are kept in memory and
written out once, when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.

Names that a later library version no longer has are skipped; the metrics
that depend on them are then reported as absent rather than failing the run.
"""

from __future__ import annotations

import json
import statistics
from collections import OrderedDict, defaultdict
from functools import cached_property
from time import perf_counter

import conjtoep.cli as cli
import conjtoep.composition as composition
import conjtoep.conjugation as conjugation
import conjtoep.core as core
import conjtoep.finite as finite
import conjtoep.hardy as hardy
import conjtoep.polydisc as polydisc
import conjtoep.symmetry as symmetry

MB = 1024.0 * 1024.0


def _matrix_bytes(tracer, args, out):
    tracer.count("hardy.toeplitz_matrix_bytes", out.matrix.nbytes)


def _require_bytes(tracer, args, out):
    tracer.count("core.require_matrix_bytes", out.nbytes)


def _composition_bytes(tracer, args, out):
    tracer.count("composition.matrix_bytes", out.nbytes)
    tracer.maximum("composition.max_degree", out.shape[0] - 1)


def _work_degree(tracer, args, out):
    tracer.sample("conjugation.work_degree", out[1])


def _verdicts(tracer, args, out):
    verdicts = out.criterion_verdicts().values()
    tracer.count("symmetry.criterion_verdicts", len(verdicts))
    tracer.count("symmetry.inconclusive_verdicts", sum(v == symmetry.INCONCLUSIVE for v in verdicts))


# (owner, attribute, span name, hook on the return value).  One span name
# may sit under several attributes when several callers import the function.
LAYERS = [
    (symmetry, "run_all", "symmetry.run_all", _verdicts),
    (cli, "run_all", "symmetry.run_all", _verdicts),
    (symmetry, "_make_plan", "symmetry.plan", None),
    (symmetry, "_definition", "symmetry.definition", None),
    (symmetry, "_transpose_basis", "symmetry.transpose_basis", None),
    (symmetry, "_conjugated_toeplitz", "symmetry.conjugated_toeplitz", None),
    (symmetry, "_coefficient_equations", "symmetry.coefficient_equations", None),
    (symmetry, "_xy", "symmetry.xy_system", None),
    (symmetry, "_s_toeplitz", "symmetry.s_toeplitz", None),
    (symmetry, "working_coefficients", "conjugation.working_coefficients", _work_degree),
    (conjugation, "materialize", "conjugation.materialize", None),
    (symmetry, "materialize", "conjugation.materialize", None),
    (cli, "materialize", "conjugation.materialize", None),
    (conjugation, "composition_matrix", "composition.matrix", _composition_bytes),
    (composition, "composition_matrix", "composition.matrix", _composition_bytes),
    (conjugation, "column_tails", "composition.column_tails", None),
    (composition, "column_tails", "composition.column_tails", None),
    (symmetry, "toeplitz_matrix", "hardy.toeplitz_matrix", _matrix_bytes),
    (composition, "toeplitz_matrix", "hardy.toeplitz_matrix", _matrix_bytes),
    (symmetry, "is_toeplitz", "hardy.is_toeplitz", None),
    (core, "require_matrix", "core.require_matrix", _require_bytes),
    (hardy, "require_matrix", "core.require_matrix", _require_bytes),
    (conjugation, "require_matrix", "core.require_matrix", _require_bytes),
    (finite, "require_matrix", "core.require_matrix", _require_bytes),
    (polydisc, "poly_toeplitz", "polydisc.poly_toeplitz", None),
    (polydisc, "poly_check_definition", "polydisc.definition", None),
    (polydisc, "check_poly_criterion", "polydisc.criterion", None),
    (polydisc, "doubly_commuting_residual", "polydisc.doubly_commuting", None),
    (polydisc.BoxTruncation, "window_positions", "polydisc.window_positions", None),
    (finite, "finite_symmetry_criterion", "finite.criterion", None),
    (cli, "finite_symmetry_criterion", "finite.criterion", None),
    (finite, "general_symmetry", "finite.general_symmetry", None),
    (cli, "general_symmetry", "finite.general_symmetry", None),
    (cli, "main", "cli.main", None),
]

# Lazily computed box enumerations, wrapped through their cached_property.
CACHED_PROPERTIES = [(polydisc.BoxTruncation, "indices", "polydisc.box_indices")]

# Spans whose duration counts as library work when taken out of cli.main.
LIBRARY_SPANS = {name for _, _, name, _ in LAYERS if name != "cli.main"}

# Per-layer metrics: (name, unit, better, how it is computed).
#   ("self", span)   self time of a span, seconds per round
#   ("total", span)  whole duration of a span, seconds per round
#   ("calls", span)  calls per round
#   ("count", key)   counter per round
#   ("mb", key)      counted bytes per round, in MB
#   special names are computed in ``Tracer.metrics``.
PER_LAYER = [
    ("symmetry.run_all_calls", "count", "lower", ("calls", "symmetry.run_all")),
    ("symmetry.run_all_s", "s", "lower", ("total", "symmetry.run_all")),
    ("symmetry.plan_s", "s", "lower", ("self", "symmetry.plan")),
    ("symmetry.definition_s", "s", "lower", ("self", "symmetry.definition")),
    ("symmetry.transpose_basis_s", "s", "lower", ("self", "symmetry.transpose_basis")),
    ("symmetry.conjugated_toeplitz_s", "s", "lower", ("self", "symmetry.conjugated_toeplitz")),
    ("symmetry.coefficient_equations_s", "s", "lower", ("self", "symmetry.coefficient_equations")),
    ("symmetry.xy_system_s", "s", "lower", ("self", "symmetry.xy_system")),
    ("symmetry.s_toeplitz_s", "s", "lower", ("self", "symmetry.s_toeplitz")),
    ("symmetry.criterion_verdicts", "count", "lower", ("count", "symmetry.criterion_verdicts")),
    ("symmetry.inconclusive_verdicts", "count", "lower", ("count", "symmetry.inconclusive_verdicts")),
    ("symmetry.decisive_ratio", "ratio", "higher", ("special", "decisive_ratio")),
    ("composition.matrix_calls", "count", "lower", ("calls", "composition.matrix")),
    ("composition.matrix_s", "s", "lower", ("self", "composition.matrix")),
    ("composition.matrix_mb", "MB", "lower", ("mb", "composition.matrix_bytes")),
    ("composition.max_degree", "count", "lower", ("special", "max_degree")),
    ("composition.column_tails_s", "s", "lower", ("self", "composition.column_tails")),
    ("composition.padding_steps", "count", "lower", ("count", "composition.padding_steps")),
    ("composition.cache_hits", "count", "higher", ("count", "composition.cache_hits")),
    ("composition.cache_misses", "count", "lower", ("count", "composition.cache_misses")),
    ("composition.cache_hit_ratio", "ratio", "higher", ("special", "cache_hit_ratio")),
    ("composition.cache_mb", "MB", "lower", ("special", "cache_mb")),
    ("conjugation.materialize_calls", "count", "lower", ("calls", "conjugation.materialize")),
    ("conjugation.materialize_s", "s", "lower", ("self", "conjugation.materialize")),
    ("conjugation.working_coefficients_s", "s", "lower", ("self", "conjugation.working_coefficients")),
    ("conjugation.work_degree_p50", "count", "lower", ("special", "work_degree_p50")),
    ("conjugation.work_degree_max", "count", "lower", ("special", "work_degree_max")),
    ("hardy.toeplitz_matrix_calls", "count", "lower", ("calls", "hardy.toeplitz_matrix")),
    ("hardy.toeplitz_matrix_s", "s", "lower", ("self", "hardy.toeplitz_matrix")),
    ("hardy.toeplitz_matrix_mb", "MB", "lower", ("mb", "hardy.toeplitz_matrix_bytes")),
    ("hardy.is_toeplitz_s", "s", "lower", ("self", "hardy.is_toeplitz")),
    ("core.require_matrix_calls", "count", "lower", ("calls", "core.require_matrix")),
    ("core.require_matrix_s", "s", "lower", ("self", "core.require_matrix")),
    ("core.require_matrix_mb", "MB", "lower", ("mb", "core.require_matrix_bytes")),
    ("polydisc.box_modes", "count", "lower", ("count", "polydisc.box_modes")),
    ("polydisc.box_indices_s", "s", "lower", ("self", "polydisc.box_indices")),
    ("polydisc.poly_toeplitz_s", "s", "lower", ("self", "polydisc.poly_toeplitz")),
    ("polydisc.window_positions_s", "s", "lower", ("self", "polydisc.window_positions")),
    ("polydisc.definition_s", "s", "lower", ("self", "polydisc.definition")),
    ("polydisc.criterion_s", "s", "lower", ("self", "polydisc.criterion")),
    ("polydisc.doubly_commuting_s", "s", "lower", ("self", "polydisc.doubly_commuting")),
    ("finite.checks", "count", "lower", ("calls", "finite.criterion")),
    ("finite.criterion_s", "s", "lower", ("self", "finite.criterion")),
    ("finite.general_symmetry_s", "s", "lower", ("self", "finite.general_symmetry")),
    ("cli.main_calls", "count", "lower", ("calls", "cli.main")),
    ("cli.main_s", "s", "lower", ("total", "cli.main")),
    ("cli.overhead_s", "s", "lower", ("special", "cli_overhead")),
    ("cli.cold_s", "s", "lower", ("special", "cli_cold")),
    ("cli.process_start_s", "s", "lower", ("special", "process_start")),
    ("trace.overhead_s", "s", "lower", ("special", "trace_overhead")),
    ("trace.rounds", "count", "higher", ("special", "rounds")),
]


class Tracer:
    """In-memory span recorder that patches the library's layer boundaries.

    ``install``/``uninstall`` bracket each traced round.  The composition
    cache is mirrored for the whole run, because untraced rounds in between
    change what it holds.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, decision, start, end]
        self.stack = []
        self.decision = -1
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.samples = defaultdict(list)
        self.absent = set()
        self.rounds = 0
        self._patched = []
        self._cache = None
        self._cache_mirror = OrderedDict()
        self._cache_bytes = 0
        self.cache_peak_bytes = 0
        self._resolve()
        self._mirror_cache()

    def _resolve(self):
        present = {name for owner, attr, name, _ in LAYERS if hasattr(owner, attr)}
        self.absent = {name for _, _, name, _ in LAYERS} - present
        for owner, attr, name in CACHED_PROPERTIES:
            if not isinstance(owner.__dict__.get(attr), cached_property):
                self.absent.add(name)

    # -- recording -----------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] += amount

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def sample(self, key, value):
        self.samples[key].append(value)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, parent, tracer.decision, perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[4] = perf_counter()
            if hook is not None:
                hook(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _mirror_cache(self):
        """Follow ``_cached_composition_matrix`` hits, misses and held bytes.

        The wrapper stays for the whole run; each call is one padded degree
        tried by the padding search.
        """
        cached = getattr(composition, "_cached_composition_matrix", None)
        if cached is None or not hasattr(cached, "cache_info"):
            self.absent.add("composition.cache")
            return
        self._cache = cached
        maxsize = cached.cache_info().maxsize
        tracer = self

        def mirrored(alpha, degree):
            before = cached.cache_info().hits
            out = cached(alpha, degree)
            hit = cached.cache_info().hits > before
            key = (alpha, degree)
            if hit and key in tracer._cache_mirror:
                tracer._cache_mirror.move_to_end(key)
            elif not hit:
                tracer._cache_mirror[key] = out.nbytes
                tracer._cache_bytes += out.nbytes
                while maxsize is not None and len(tracer._cache_mirror) > maxsize:
                    _, dropped = tracer._cache_mirror.popitem(last=False)
                    tracer._cache_bytes -= dropped
            if tracer.active:
                tracer.count("composition.padding_steps")
                tracer.count("composition.cache_hits" if hit else "composition.cache_misses")
                tracer.cache_peak_bytes = max(tracer.cache_peak_bytes, tracer._cache_bytes)
            return out

        composition._cached_composition_matrix = mirrored

    def install(self):
        for owner, attr, name, hook in LAYERS:
            if not hasattr(owner, attr):
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))
        for owner, attr, name in CACHED_PROPERTIES:
            if name in self.absent:
                continue
            original = owner.__dict__[attr]
            replacement = cached_property(self._wrap(original.func, name, None))
            replacement.__set_name__(owner, attr)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    @property
    def active(self) -> bool:
        return bool(self._patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def close(self):
        self.uninstall()
        if self._cache is not None:
            composition._cached_composition_matrix = self._cache

    # -- reporting -----------------------------------------------------

    def _span_table(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, start, end) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return table

    def _cli_overhead(self):
        """Time in cli.main not covered by library spans directly beneath it."""
        covered = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent >= 0 and self.spans[parent][0] == "cli.main" and name in LIBRARY_SPANS:
                covered[parent] += end - start
        total = 0.0
        for i, (name, _, _, start, end) in enumerate(self.spans):
            if name == "cli.main":
                total += end - start - covered[i]
        return total

    def _absent_metric(self, source):
        kind, key = source
        if kind in ("self", "total", "calls"):
            return key in self.absent
        if key in ("cache_hit_ratio", "cache_mb") or key.startswith("composition.cache") or key == "composition.padding_steps":
            return "composition.cache" in self.absent
        return False

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics, per traced round; ``extra`` supplies the
        figures measured by the benchmark itself."""
        rounds = max(1, self.rounds)
        table = self._span_table()
        hits = self.counters["composition.cache_hits"]
        misses = self.counters["composition.cache_misses"]
        verdicts = self.counters["symmetry.criterion_verdicts"]
        degrees = self.samples["conjugation.work_degree"]
        special = {
            "decisive_ratio": (verdicts - self.counters["symmetry.inconclusive_verdicts"]) / verdicts
            if verdicts
            else 0.0,
            "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache_mb": self.cache_peak_bytes / MB,
            "max_degree": self.maxima["composition.max_degree"],
            "work_degree_p50": statistics.median(degrees) if degrees else 0,
            "work_degree_max": max(degrees) if degrees else 0,
            "cli_overhead": self._cli_overhead() / rounds,
            "rounds": self.rounds,
            **extra,
        }
        out = {}
        for name, unit, _, source in PER_LAYER:
            kind, key = source
            if self._absent_metric(source):
                continue
            if kind == "special":
                if key not in special:
                    continue
                value = special[key]
            elif kind == "calls":
                value = table[key][0] / rounds if key in table else 0.0
            elif kind == "total":
                value = table[key][1] / rounds if key in table else 0.0
            elif kind == "self":
                value = table[key][2] / rounds if key in table else 0.0
            elif kind == "count":
                value = self.counters[key] / rounds
            else:
                value = self.counters[key] / MB / rounds
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write(self, path):
        """Write every span as one JSON line: name, parent, decision, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
