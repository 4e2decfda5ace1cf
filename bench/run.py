"""Benchmark runner for gbcd.

    python3 bench/run.py --workload coded-256qam --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) end to end through ``gbcd.cli.main``
from the sources under ``src/`` next to this directory. The operations run
in this one process with BLAS pinned to one thread and repeat until
``--seconds`` have passed; every output is checked.

With ``--trace 0`` the end-to-end metrics are printed: ``blocks_per_s``
(coherence blocks completed per second), ``epoch_s`` (seconds per pass over
an operation's fixed work: a training epoch for ``train``, one sweep for
``simulate``), ``setup_s`` (median of five rounds of importing gbcd in a
fresh interpreter, input generation and a warm-up operation) and
``peak_rss_mb`` (peak resident set size of a child process that imports
gbcd alone and runs two operations; see peak_rss.py). ``failed_frac`` is
printed beside them and carried by the ``failed``/``attempted`` fields of
the result.

Each timed operation is paired with the same operation run by
``control/gbcd_seed``, a frozen copy of gbcd as it was when this benchmark
was defined, whose sha256 is checked before anything runs; the pair's
order alternates, and each set-up round is paired the same way. gbcd's
results must match the control's on the same seed
(workloads.check_against_control). ``blocks_per_s``, ``epoch_s`` and
``setup_s`` take the median over pairs of gbcd's time over the control's,
at the control's nominal times on the reference machine (``nominal_s``
and ``nominal_setup_s`` in workloads.py). On a shared host the same work
runs up to 1.7 times slower for a minute at a time; the pairing cancels
that, and a change to gbcd moves gbcd's side of each pair but not the
control's. Wall-clock figures go to the run record.

With ``--trace 1`` untraced and traced (spans.py) operations alternate;
the per-layer metrics and ``trace_overhead`` are printed.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A run record (versions,
seed, output hashes, per-operation times) and, when traced, the spans go to
``bench/out/<workload>/``.
"""

from __future__ import annotations

import os

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)   # before anything imports numpy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONTROL = BENCH_DIR / "control"
# sha256 over the control's sources (control_digest); the control must stay
# a verbatim copy of src/gbcd at the commit that defined this benchmark
CONTROL_SHA256 = "c53f83f2190f6b0d93cb88e2a79f354f4d88f1a1f72c77d3cd50f8539ef934b2"
SETUP_ROUNDS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="operation size; smoke is for the self-test")
    return p.parse_args(argv)


def run_op(run):
    """One operation; an exception fails it without ending the run."""
    from workloads import Op

    try:
        return run()
    except Exception as e:  # the run goes on and counts the failure
        traceback.print_exc()
        return Op(float("nan"), 0, 0, errors=[f"raised {e!r}"])


def compare(op, ref) -> None:
    """Pair op with ref, the same operation on the frozen copy of gbcd."""
    from workloads import check_against_control

    op.control_seconds = ref.seconds
    op.errors += [f"control: {e}" for e in ref.errors]
    check_against_control(op, ref)


def measure(run, control, seconds: float) -> tuple[list, object]:
    """Repeat run() until `seconds` have passed (at least once), each time
    paired with control(), the same operation on the frozen copy of gbcd;
    the pair's order alternates. Returns the operations and the control's
    last one."""
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        if len(ops) % 2:
            op, ref = run_op(run), run_op(control)
        else:
            ref = run_op(control)
            op = run_op(run)
        compare(op, ref)
        ops.append(op)
        if time.perf_counter() >= deadline:
            return ops, ref


def measure_traced(run, control, seconds: float,
                   tracer) -> tuple[list, list, object]:
    """Alternate untraced and traced operations until `seconds` have passed,
    so that drift in machine speed does not enter the tracing overhead.
    The control runs once first; every operation is checked against it."""
    ref = run_op(control)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_op(run))
        tracer.run_id += 1
        tracer.install()
        try:
            traced.append(run_op(run))
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            for op in untraced + traced:
                compare(op, ref)
            return untraced, traced, ref


def check_repeatable(ops: list, first_digests: dict | None) -> dict | None:
    """Operations on one seed must write identical files; flags any that differ."""
    for op in ops:
        if op.errors:
            continue
        if first_digests is None:
            first_digests = op.digests
        elif op.digests != first_digests:
            op.errors.append(f"outputs {op.digests} differ from the first "
                             f"operation's {first_digests}")
    return first_digests


def time_import(module: str) -> float:
    """Seconds `import <module>` takes in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join([str(SRC), str(CONTROL)])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return float(proc.stdout)


def measure_peak_rss(workload: str, seed: int, scale: str, workdir: Path):
    """Run peak_rss.py in a child process, so that the control's memory is
    not counted; returns (peak RSS in MB, the child's last operation)."""
    from workloads import Op

    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "peak_rss.py"), workload, str(seed),
         scale, str(workdir)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return float("nan"), Op(float("nan"), 0, 0, errors=[
            f"peak_rss.py exited with {proc.returncode} and no result"])
    return res["peak_rss_mb"], Op(float("nan"), 0, 0, res["digests"],
                                  res["values"], res["errors"])


def control_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((CONTROL / "gbcd_seed").rglob("*.py")):
        h.update(f.relative_to(CONTROL).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def count_failed(ops: list) -> int:
    """Operations with a failed check, a non-zero exit or an exception."""
    return sum(1 for op in ops if op.errors)


def median_of(ops: list, fn) -> float:
    good = [fn(op) for op in ops if not op.errors]
    return statistics.median(good) if good else float("nan")


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_pin": BLAS_PIN,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gbcd" / "__init__.py").is_file():
        print(f"error: gbcd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gbcd
    if Path(gbcd.__file__).resolve().parent != SRC / "gbcd":
        print(f"error: imported gbcd from {gbcd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if control_digest() != CONTROL_SHA256:
        print(f"error: the control under {CONTROL} has sha256 "
              f"{control_digest()}, not {CONTROL_SHA256}; it must stay a "
              "verbatim copy", file=sys.stderr)
        return 2

    import spans
    import workloads
    sys.path.insert(0, str(CONTROL))
    import gbcd_seed.cli

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    def set_up(i: int, cli_module):
        """One set-up round: import in a fresh interpreter, input
        generation and a warm-up operation; returns (seconds, warm-up
        outcome, the run to measure)."""
        seconds = time_import(cli_module.__name__)
        t = time.perf_counter()
        where = out_dir / cli_module.__name__.split(".")[0]
        warm = spec.make(where / f"warm{i}", args.seed, "warm", cli_module)
        warm_op = run_op(warm.run)
        run = spec.make(where / "run", args.seed, args.scale, cli_module)
        return seconds + time.perf_counter() - t, warm_op, run

    # set-up rounds, each paired with the same round for the frozen control
    ops, ratios = [], []
    for i in range(SETUP_ROUNDS):
        pair = [gbcd.cli, gbcd_seed.cli]
        done = {m.__name__: set_up(i, m)
                for m in (reversed(pair) if i % 2 else pair)}
        seconds, warm_op, run = done["gbcd.cli"]
        control_seconds, control_warm, control = done["gbcd_seed.cli"]
        compare(warm_op, control_warm)
        ops.append(warm_op)
        ratios.append(seconds / control_seconds)
    setup_s = statistics.median(ratios) * spec.nominal_setup_s

    traced, missing, details = [], [], {}
    if args.trace:
        tracer = spans.Tracer()
        timed, traced, ref = measure_traced(
            run.run, control.run, args.seconds, tracer)
        digests = check_repeatable(timed + traced, None)
        tracer.write(out_dir / "spans.csv")
        fired = {s[0] for s in tracer.spans}
        missing = [s for s in spec.spans if s not in fired]
        if missing:
            print(f"error: predicted spans never fired on {args.workload}: "
                  f"{missing}", file=sys.stderr)
            for op in traced:
                op.errors.append(f"spans never fired: {missing}")
        model = spans.complexity_model(*spec.shape)
        overhead = (median_of(traced, lambda o: o.seconds)
                    / median_of(timed, lambda o: o.seconds))
        metrics, details = spans.report(tracer, len(traced), model, overhead)
        units = dict(spans.per_layer_names())
    else:
        timed, ref = measure(run.run, control.run, args.seconds)
        digests = check_repeatable(timed, None)
        peak_rss, rss_op = measure_peak_rss(
            args.workload, args.seed, args.scale, out_dir / "peak_rss")
        workloads.check_against_control(rss_op, ref)
        check_repeatable([rss_op], digests)
        ops.append(rss_op)
        # the operation's time relative to the frozen control, at the
        # control's nominal speed
        op_s = spec.nominal_s * median_of(
            timed, lambda o: o.seconds / o.control_seconds)
        good = [o for o in timed if not o.errors]
        blocks, epochs = (good[0].blocks, good[0].epochs) if good else (0, 1)
        metrics = {
            "blocks_per_s": blocks / op_s,
            "epoch_s": op_s / epochs,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
        units = {"blocks_per_s": "1/s", "epoch_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB"}

    ops += timed + traced
    failed = count_failed(ops)
    for op in ops:
        for err in op.errors:
            print(f"check failed: {err}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, **environment(),
        "setup_round_ratios": ratios,
        "output_sha256": digests,
        "control_output_sha256": ref.digests,
        "identical_to_control": digests == ref.digests,
        "values": timed[0].values if timed else {},
        "op_seconds": {"untraced": [op.seconds for op in timed],
                       "traced": [op.seconds for op in traced]},
        "control_seconds": [op.control_seconds for op in timed],
        "wall_blocks_per_s": median_of(timed, lambda o: o.blocks / o.seconds),
        "wall_epoch_s": median_of(timed, lambda o: o.seconds / o.epochs),
        "attempted": len(ops), "failed": failed,
        "metrics": metrics, "spans": details, "missing_spans": missing,
    }
    if args.trace:
        record["computed_mults"] = model
    (out_dir / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(timed)} untraced "
          f"and {len(traced)} traced operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {failed / len(ops):.6g} fraction "
          f"({failed} of {len(ops)} operations)")
    if args.trace:
        busiest = max(spans.SPANS, key=lambda s: metrics[f"{s}.self_s"])
        print(f"  largest self time: {busiest}")
        for s in spans.SPANS:
            d = details[s]
            print(f"    {s}: " + (f"tail is p{d['tail_percentile']:g} of "
                                  f"n={d['n']}" if d["n"] else "absent"))
    for name, digest in (digests or {}).items():
        print(f"  sha256 {name} {digest}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
