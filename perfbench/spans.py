"""Outside-in span tracer for the codedmatvec package.

The tracer replaces public functions of each module with wrappers that
record one span per call: name, parent span, start and end.  A function
is patched wherever the package holds a reference to it, so a call made
through another module's namespace (``experiments`` calling
``run_coded_trial``) is recorded as well.  The program's files are never
changed; ``uninstall`` puts every original back.

Self time of a span is its duration minus the time covered by its child
spans.  Self times are summed per layer metric while the run goes; the
spans themselves stay in memory until ``save`` writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "codedmatvec"


# Count hooks see the traced call's arguments and result.  Positions
# include `self` for methods.
def _count_streams(tracer, args, kwargs, result):
    tracer.counts["rng.streams"] += 1


def _count_variates(tracer, args, kwargs, result):
    tracer.counts["rng.variates"] += int(np.size(result))


def _count_sorted(tracer, args, kwargs, result):
    params = kwargs["params"] if "params" in kwargs else args[0]
    tracer.counts["timing.values_sorted"] += params.n


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["channel.steps"] += kwargs["needed"] if "needed" in kwargs else args[2]


def _count_trials(tracer, args, kwargs, result):
    tracer.counts["channel.trials"] += 1


def _count_decode(tracer, args, kwargs, result):
    tracer.counts["coding.decodes"] += 1
    tracer.counts["coding.flagged"] += not result.well_conditioned


def _record_recovery(tracer, args, kwargs, result):
    error, well_conditioned = result
    tracer.recoveries.append((float(error), bool(well_conditioned)))


# (module, attribute, time metric, count hook).  An attribute
# "Class.method" is patched on the class, so every caller is covered.
TRACED = (
    ("rng", "RngStream.__init__", "rng.key_s", _count_streams),
    ("rng", "RngStream.uniforms", "rng.draw_s", _count_variates),
    ("rng", "RngStream.exponentials", "rng.draw_s", _count_variates),
    ("rng", "RngStream.standard_normals", "rng.draw_s", _count_variates),
    ("rng", "RngStream.integers", "rng.draw_s", _count_variates),
    ("timing", "sample_comp_times", "timing.sample_s", _count_sorted),
    ("timing", "comp_times_from_spacings", "timing.sample_s", None),
    ("timing", "sample_spacings", "timing.sample_s", None),
    ("timing", "inject_comp_times", "timing.sample_s", None),
    ("channel", "schedule_serial_channel", "channel.schedule_s", _count_steps),
    ("channel", "compute_metrics", "channel.metrics_s", None),
    ("channel", "run_coded_trial", "channel.trial_s", _count_trials),
    ("channel", "run_uncoded_trial", "channel.trial_s", _count_trials),
    ("experiments", "monte_carlo", "experiments.loop_s", None),
    ("experiments", "speedup_curve", "experiments.loop_s", None),
    ("experiments", "sweep_regime", "experiments.loop_s", None),
    ("experiments", "verify_transmission_lemmas", "experiments.loop_s", None),
    ("analysis", "optimize_k", "analysis.s", None),
    ("analysis", "expectation_bracket_coded", "analysis.s", None),
    ("analysis", "expectation_bracket_uncoded", "analysis.s", None),
    ("analysis", "expected_runtime_regime3", "analysis.s", None),
    ("analysis", "pipeline_index", "analysis.s", None),
    ("analysis", "pipeline_index_p", "analysis.s", None),
    ("coding", "encode_random_linear", "coding.encode_s", None),
    ("coding", "encode_systematic_mds", "coding.encode_s", None),
    ("coding", "assemble_decode_input", "coding.assemble_s", None),
    ("coding", "worker_compute", "coding.assemble_s", None),
    ("coding", "decode", "coding.decode_s", _count_decode),
    ("coding", "decode_from_workers", "coding.recover_s", None),
    ("coding", "recovery_error", "coding.recover_s", _record_recovery),
    ("cli", "main", "cli.s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TRACED))
COUNT_METRICS = (
    "rng.streams", "rng.variates", "timing.values_sorted", "channel.steps",
    "channel.trials", "coding.decodes", "coding.flagged",
)


class Tracer:
    """Spans and per-layer totals for calls into the package's modules."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.recoveries: list[tuple[float, bool]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, metric, fn, count):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            index = len(span_start)
            frame = [index, 0.0]  # span index, seconds covered by children
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[metric] += duration - frame[1]
                calls[name] += 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every traced function wherever a loaded module of the
        package refers to it.  Functions the package no longer has are
        listed in `missing` and skipped.  The wrappers are made on the first
        install and reused, so spans and totals accumulate across installs."""
        if not self._patches:
            self._patches = list(self._plan())
        for owner, attribute, wrapper, _ in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, _, original in reversed(self._patches):
            setattr(owner, attribute, original)

    def _plan(self):
        prefix = PACKAGE + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(prefix))]
        for module_name, attribute, metric, count in TRACED:
            name = f"{module_name}.{attribute}"
            module = sys.modules.get(prefix + module_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, metric, original, count)
            if owner_name:
                yield owner, method, wrapper, original
                continue
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        yield holder, key, wrapper, original

    def take_recoveries(self) -> list[tuple[float, bool]]:
        """Per-subset (relative error, well conditioned) since the last take."""
        taken, self.recoveries = self.recoveries, []
        return taken

    def save(self, path):
        """Write every span: name table, name index, parent index, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
