"""Span tracing for the benchmark's traced run.

The tracer wraps gbcd's public functions from outside the package: every
module binding of a listed function (including names bound by
``from ... import``) is replaced by a wrapper that records one span per
call. Spans stay in memory as (name, start_ns, end_ns, parent, run_id,
work) tuples until the run ends; ``work`` holds what a probe read off the
call's arguments or return value.

Per-layer metrics computed from the spans:

* ``<span>.calls``  -- calls per operation (a count);
* ``<span>.self_s`` -- self time per operation: span time minus the part
  its child spans cover, in seconds;
* ``<span>.p50_ms`` / ``<span>.tail_ms`` -- median and tail duration of one
  call, child spans included. The tail is the highest of the 50th, 90th,
  99th and 99.9th percentiles with at least ten samples beyond it; the
  percentile and the sample count go into the run record.

A span that never fires reports zeros.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

SPANS = (
    "cli.main",
    "harness.run_sweep",
    "unfolding.train",
    "channel.gen_channel",
    "channel.apply_channel",
    "constellation.hard_decision_indices",
    "fec.encode",
    "fec.interleave",
    "fec.deinterleave_llrs",
    "fec.decode_batch",
    "detector.gbcd_detect",
    "detector.preprocess",
    "detector.gram",
    "detector.reciprocal_sinr",
    "detector.sort_ues",
    "detector.block_inverses",
    "detector.matched_filter",
    "detector.gbcd_equalize",
    "baselines.lmmse_detect",
    "baselines.ocd_detect",
    "hwmodel.detect_fixed_point",
    "denoise.compute_llrs",
    "denoise.compute_llrs_with_params",
    "unfolding.make_batch",
    "unfolding.forward_loss",
    "unfolding.grad",
)

SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"),
               ("tail_ms", "ms"))

# Computed counts set beside the measured span times: real multiplications
# from gbcd.hwmodel's complexity model and Viterbi add-compare-select steps.
DERIVED = (
    ("detector.preprocess.ns_per_mult", "ns"),
    ("detector.equalize.ns_per_mult", "ns"),
    ("baselines.lmmse_detect.ns_per_mult", "ns"),
    ("baselines.ocd_detect.ns_per_mult", "ns"),
    ("fec.decode_batch.ns_per_acs", "ns"),
    ("fec.decode_batch.blocks_per_call", "count"),
    ("detector.regularized_frac", "fraction"),
    ("denoise.xi_floored_frac", "fraction"),
    ("trace_overhead", "ratio"),
)

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
_VITERBI_STATES = 64

# The complexity model excludes the soft-output unit, so the LLR stage (and
# the Gram matrix OCD forms only for its LLR gains) is taken out of the
# baselines' times before dividing by their multiplication counts.
_SOFT_OUTPUT_CHILDREN = {
    "baselines.lmmse_detect": ("denoise.compute_llrs_with_params",),
    "baselines.ocd_detect": ("denoise.compute_llrs", "detector.gram"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{span}.{field}", unit) for span in SPANS
           for field, unit in SPAN_FIELDS]
    return out + list(DERIVED)


def _n_vectors(y) -> int:
    y = np.asarray(y)
    return 1 if y.ndim == 1 else int(y.shape[1])


# probes: what each call's arguments or result say about the work it did
PROBES = {
    "fec.decode_batch": lambda a, k, r: (np.atleast_2d(a[0]).shape[0],
                                         a[1].n_input),
    "detector.preprocess": lambda a, k, r: (len(r.regularized), r.M),
    "denoise.compute_llrs_with_params": lambda a, k, r: (
        int(r.flags["xi_floored"]), int(r.params.mu.size)),
    "detector.gbcd_detect": lambda a, k, r: _n_vectors(a[1]),
    "baselines.lmmse_detect": lambda a, k, r: _n_vectors(a[1]),
    "baselines.ocd_detect": lambda a, k, r: _n_vectors(a[1]),
}


class Tracer:
    """Records spans for calls into gbcd while installed."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id, None)
            if probe is not None:
                work = probe(args, kwargs, result)
                spans[idx] = (name, t0, t1, parent, self.run_id, work)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every binding inside gbcd."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gbcd" or n.startswith("gbcd."))]
        for name in SPANS:
            mod_name, fn_name = name.rsplit(".", 1)
            fn = getattr(sys.modules[f"gbcd.{mod_name}"], fn_name)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as CSV: name,start_ns,end_ns,parent,run_id."""
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,run_id\n")
            for name, t0, t1, parent, run, _ in self.spans:
                f.write(f"{name},{t0},{t1},{parent},{run}\n")


def tail(durations_ms: np.ndarray) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 20 samples."""
    n = durations_ms.size
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, float(np.percentile(durations_ms, pct))
    return 100.0, float(durations_ms.max())


def complexity_model(B: int, U: int, K: int) -> dict:
    """(preprocessing, per-vector) real-multiplication counts from
    gbcd.hwmodel's complexity model. Call it with the tracer uninstalled:
    the lmmse and ocd counts come from instrumented runs."""
    from gbcd import hwmodel

    reports = {"gbcd": hwmodel.complexity_gbcd(B, U, K),
               "lmmse": hwmodel.complexity_lmmse(B, U),
               "ocd": hwmodel.complexity_ocd(B, U, K)}
    return {name: (r.preprocessing_mults, r.per_transmission_mults)
            for name, r in reports.items()}


def report(tracer: Tracer, n_ops: int, model: dict, overhead: float):
    """Per-layer metrics from the spans of `n_ops` operations, with
    ``model`` from complexity_model. Returns (metrics, details), where
    details holds the tail percentile and sample count of each span."""
    spans = tracer.spans
    n = len(spans)
    names = np.array([s[0] for s in spans], dtype=object)
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    child_sum = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_ns = dur - child_sum

    metrics, details = {}, {}
    for span in SPANS:
        sel = names == span
        d_ms = dur[sel] / 1e6
        calls = int(sel.sum())
        pct, tail_ms = tail(d_ms) if calls else (0.0, 0.0)
        metrics[f"{span}.calls"] = calls / n_ops
        metrics[f"{span}.self_s"] = float(self_ns[sel].sum()) / 1e9 / n_ops
        metrics[f"{span}.p50_ms"] = float(np.median(d_ms)) if calls else 0.0
        metrics[f"{span}.tail_ms"] = tail_ms
        details[span] = {"n": calls, "tail_percentile": pct}

    kids: dict[int, list[int]] = {}
    for c in np.flatnonzero(has_parent):
        kids.setdefault(int(parent[c]), []).append(int(c))

    def children_ns(idx: int, wanted) -> float:
        return float(sum(dur[c] for c in kids.get(int(idx), ())
                         if names[c] in wanted))

    def median_or_zero(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    def idx_of(span):
        return np.flatnonzero(names == span)

    def mults(algorithm: str, n_vectors: int) -> int:
        pre, per = model[algorithm]
        return pre + n_vectors * per

    work = [s[5] for s in spans]
    metrics["detector.preprocess.ns_per_mult"] = median_or_zero(
        [dur[i] / model["gbcd"][0] for i in idx_of("detector.preprocess")])
    metrics["detector.equalize.ns_per_mult"] = median_or_zero(
        [children_ns(i, ("detector.matched_filter", "detector.gbcd_equalize"))
         / (work[i] * model["gbcd"][1]) for i in idx_of("detector.gbcd_detect")])
    for span, algorithm in (("baselines.lmmse_detect", "lmmse"),
                            ("baselines.ocd_detect", "ocd")):
        metrics[f"{span}.ns_per_mult"] = median_or_zero(
            [(dur[i] - children_ns(i, _SOFT_OUTPUT_CHILDREN[span]))
             / mults(algorithm, work[i]) for i in idx_of(span)])
    dec = idx_of("fec.decode_batch")
    metrics["fec.decode_batch.ns_per_acs"] = median_or_zero(
        [dur[i] / (work[i][0] * work[i][1] * _VITERBI_STATES) for i in dec])
    metrics["fec.decode_batch.blocks_per_call"] = median_or_zero(
        [work[i][0] for i in dec])
    pre = [work[i] for i in idx_of("detector.preprocess")]
    metrics["detector.regularized_frac"] = (
        sum(r for r, _ in pre) / sum(m for _, m in pre) if pre else 0.0)
    llr = [work[i] for i in idx_of("denoise.compute_llrs_with_params")]
    metrics["denoise.xi_floored_frac"] = (
        sum(f for f, _ in llr) / sum(u for _, u in llr) if llr else 0.0)
    metrics["trace_overhead"] = overhead
    return metrics, details
