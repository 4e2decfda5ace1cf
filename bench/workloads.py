"""The benchmark's workloads: inputs made from a seed, one end-to-end
operation through ``gbcd.cli.main``, and the checks on its outputs.

All three run closed loop with one caller: the next operation starts when
the previous one has returned, with ``--threads 1``.

coded-256qam
    ``gbcd simulate`` at 128x16, 256-QAM, nonlos, K=3, T=120, rate 1/2 with
    detectors gbcd-box and lmmse at one SNR in the BLER waterfall.
    ``min_block_errors`` lies above the trial cap, so every operation runs
    the same trials. The Viterbi decoder and the 256-QAM LLR stage dominate;
    two detectors give cross-detector decode batching something to batch.
uncoded-16qam
    ``gbcd simulate`` with ``"uncoded": true`` at 128x16, 16-QAM, K=3,
    T=120 with all four detectors in float, then the same data again with
    gbcd-box and gbcd-pme under ``--fixed-point``. ``fec`` is never called,
    so a decoder change should leave it unmoved. gbcd-pme reads a parameter
    store written here from fixed schedules.
train-qpsk16
    ``gbcd train`` at 16x16 QPSK, nonlos, 6 dB, K=6. ``patience`` and
    ``lr_decay_patience`` equal ``max_epochs``, so the epoch count is fixed.
    Thousands of T=1 ``preprocess`` calls plus the unrolled gradient.

Each operation's SER, block errors and final validation loss are checked
against the same operation on the same seed run by the frozen control copy
(control/gbcd_seed), within the tolerances of check_against_control.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from gbcd import cli

SWEEP_HEADER = ["snr_db", "detector", "bler", "ser", "trials", "block_errors"]
# how far an operation's results may lie from the control's on the same
# seed: a float change may flip a few decisions, a wrong one moves many
SER_REL_TOL = 0.01          # share of the control's SER
BLOCK_ERROR_TOL = 2         # block errors, out of trials * U blocks
LOSS_REL_TOL = 0.01         # share of the control's final validation loss

B, U, T, K = 128, 16, 120, 3

# trial counts (simulate) or samples per set and epochs (train) per scale;
# "warm" is the warm-up run inside set-up, "smoke" the self-test size.
# Each workload's nominal_s and nominal_setup_s are the median wall times of
# one full-size operation and of one set-up round of the frozen control copy
# (control/gbcd_seed) on the 2-vCPU Intel Xeon (2.0 GHz) virtual machine the
# benchmark was written on. Training uses 200 + 200 samples rather than
# more: a run then holds about 25 operation pairs instead of 15, and the
# median ratio over ten runs spread 0.09 between quartiles at 400.
SIZES = {
    "coded-256qam": {"full": 8, "warm": 1, "smoke": 1},
    "uncoded-16qam": {"full": 16, "warm": 1, "smoke": 1},
    "train-qpsk16": {"full": (200, 4), "warm": (200, 2), "smoke": (200, 2)},
}

_SIM_SPANS = (
    "cli.main", "harness.run_sweep", "channel.gen_channel",
    "channel.apply_channel", "constellation.hard_decision_indices",
    "detector.gbcd_detect", "detector.preprocess", "detector.gram",
    "detector.reciprocal_sinr", "detector.sort_ues", "detector.block_inverses",
    "detector.matched_filter", "detector.gbcd_equalize",
    "denoise.compute_llrs", "denoise.compute_llrs_with_params",
    "baselines.lmmse_detect",
)
_FEC_SPANS = ("fec.encode", "fec.interleave", "fec.deinterleave_llrs",
              "fec.decode_batch")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Op:
    """Outcome of one operation."""

    seconds: float                 # wall time inside gbcd.cli.main
    blocks: int                    # coherence blocks completed
    epochs: int                    # passes over the operation's fixed work
    digests: dict = field(default_factory=dict)  # output file -> sha256
    values: dict = field(default_factory=dict)   # SER/block errors/loss
    errors: list = field(default_factory=list)   # failed checks
    control_seconds: float = float("nan")  # same operation, frozen copy


def _cli(main, argv: list[str]) -> tuple[int, float]:
    """Run a gbcd CLI main with its stdout captured; returns (exit code, s)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - t0
    return rc, seconds


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


class Sweep:
    """A ``gbcd simulate`` workload made of one or more passes over the same
    trials; each pass is (label, detectors, fixed point)."""

    def __init__(self, name: str, *, Q: int, snr_db: float, uncoded: bool,
                 passes, spans, nominal_s: float, nominal_setup_s: float,
                 store=None):
        self.name, self.Q, self.snr_db, self.uncoded = name, Q, snr_db, uncoded
        self.passes, self.spans, self.store = passes, spans, store
        self.nominal_s, self.nominal_setup_s = nominal_s, nominal_setup_s
        self.shape = (B, U, K)

    def make(self, workdir: Path, seed: int, scale: str, cli_module=cli):
        return _SweepRun(self, workdir, seed, SIZES[self.name][scale],
                         cli_module)


class _SweepRun:
    def __init__(self, spec: Sweep, workdir: Path, seed: int, trials: int,
                 cli_module):
        self.spec, self.trials = spec, trials
        self.cli = cli_module
        workdir.mkdir(parents=True, exist_ok=True)
        base = {"B": B, "U": U, "Q": spec.Q, "condition": "nonlos",
                "snr_db": [spec.snr_db], "K": K, "T": T, "code_rate": "1/2",
                "seed": seed, "trials": trials,
                "min_block_errors": trials * U + 1, "uncoded": spec.uncoded}
        if spec.store is not None:
            base["params_path"] = str(_write_json(workdir / "params.json",
                                                  spec.store))
        self.passes = []
        for label, detectors, fixed in spec.passes:
            cfg = _write_json(workdir / f"{label}.json",
                              dict(base, detectors=list(detectors)))
            argv = ["simulate", "--config", str(cfg),
                    "--out", str(workdir / f"{label}.csv"), "--threads", "1"]
            if fixed:
                argv.append("--fixed-point")
            self.passes.append((label, detectors, argv,
                                workdir / f"{label}.csv"))

    def run(self) -> Op:
        op = Op(0.0, self.trials * len(self.passes), 1)
        for label, detectors, argv, out in self.passes:
            rc, seconds = _cli(self.cli.main, argv)
            op.seconds += seconds
            if rc != 0:
                op.errors.append(f"{label}: gbcd exited with {rc}")
                continue
            op.digests[out.name] = sha256(out)
            check_sweep_csv(out, self.spec, label, detectors, self.trials, op)
        return op


def check_sweep_csv(path: Path, spec: Sweep, label: str, detectors,
                    trials: int, op: Op) -> None:
    """Check one sweep CSV; failures go to op.errors, results to op.values."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != SWEEP_HEADER:
        op.errors.append(f"{path.name}: header {rows[:1]} != {SWEEP_HEADER}")
        return
    if [r[1] if len(r) > 1 else None for r in rows[1:]] != list(detectors):
        op.errors.append(f"{path.name}: rows {rows[1:]} do not list one row "
                         f"per detector {list(detectors)}")
        return
    for r in rows[1:]:
        rec = dict(zip(SWEEP_HEADER, r))
        det = rec["detector"]
        try:
            snr, bler, ser = float(rec["snr_db"]), float(rec["bler"]), float(rec["ser"])
            n_trials, block_errors = int(rec["trials"]), int(rec["block_errors"])
        except (KeyError, ValueError) as e:
            op.errors.append(f"{path.name}/{det}: unreadable row {r}: {e}")
            continue
        if snr != spec.snr_db:
            op.errors.append(f"{path.name}/{det}: snr_db {snr} != {spec.snr_db}")
        if n_trials != trials:
            op.errors.append(f"{path.name}/{det}: trials {n_trials} != {trials}")
        results = {"ser": ser}
        if spec.uncoded:
            if not math.isnan(bler) or block_errors != 0:
                op.errors.append(f"{path.name}/{det}: uncoded row has bler "
                                 f"{bler}, block_errors {block_errors}")
        else:
            results["block_errors"] = block_errors
            if not abs(bler * trials * U - block_errors) < 1e-6:
                op.errors.append(f"{path.name}/{det}: bler {bler} does not "
                                 f"match {block_errors} errors in "
                                 f"{trials * U} blocks")
        for metric, value in results.items():
            op.values[f"{spec.name}/{label}/{det}/{metric}"] = value


def check_against_control(op: Op, control: Op) -> None:
    """Check op's results against the control's for the same operation on
    the same seed; failures go to op.errors. Skipped when either has
    already failed, since its results may be missing."""
    if op.errors or control.errors:
        return
    if set(op.values) != set(control.values):
        op.errors.append(f"results {sorted(op.values)} differ from the "
                         f"control's {sorted(control.values)}")
        return
    for key, ref in control.values.items():
        value = op.values[key]
        metric = key.rsplit("/", 1)[1]
        tol = (BLOCK_ERROR_TOL if metric == "block_errors"
               else SER_REL_TOL * ref if metric == "ser"
               else LOSS_REL_TOL * abs(ref))
        if not abs(value - ref) <= tol:
            op.errors.append(f"{key}: {value} is not within {tol:.4g} of the "
                             f"control's {ref:.6g}")


TRAIN_SCENARIO = {"B": 16, "U": 16, "Q": 4, "snr_db": 6.0,
                  "condition": "nonlos"}
TRAIN_K = 6


class Train:
    """The ``gbcd train`` workload."""

    name = "train-qpsk16"
    shape = (TRAIN_SCENARIO["B"], TRAIN_SCENARIO["U"], TRAIN_K)
    nominal_s, nominal_setup_s = 0.665, 0.691
    spans = ("cli.main", "unfolding.train", "unfolding.make_batch",
             "unfolding.forward_loss", "unfolding.grad", "channel.gen_channel",
             "detector.preprocess", "detector.gram", "detector.reciprocal_sinr",
             "detector.sort_ues", "detector.block_inverses",
             "detector.matched_filter")

    def make(self, workdir: Path, seed: int, scale: str, cli_module=cli):
        n, epochs = SIZES[self.name][scale]
        return _TrainRun(workdir, seed, n, epochs, cli_module)


class _TrainRun:
    def __init__(self, workdir: Path, seed: int, n: int, epochs: int,
                 cli_module):
        workdir.mkdir(parents=True, exist_ok=True)
        self.n, self.epochs, self.cli = n, epochs, cli_module
        self.store = workdir / "trained_params.json"
        cfg = _write_json(workdir / "train.json", {
            "scenario": TRAIN_SCENARIO, "K": TRAIN_K,
            "training": {"n_train": n, "n_val": n, "batch_size": 100,
                         "seed": seed, "max_epochs": epochs,
                         "patience": epochs, "lr_decay_patience": epochs}})
        self.argv = ["train", "--config", str(cfg), "--out", str(self.store),
                     "--threads", "1"]

    def run(self) -> Op:
        self.store.unlink(missing_ok=True)
        rc, seconds = _cli(self.cli.main, self.argv)
        op = Op(seconds, 2 * self.n, self.epochs)
        if rc != 0:
            op.errors.append(f"gbcd train exited with {rc}")
            return op
        op.digests[self.store.name] = sha256(self.store)
        check_train_store(self.store, self.epochs, op)
        return op


def check_train_store(path: Path, epochs: int, op: Op) -> None:
    with open(path) as f:
        records = json.load(f).get("records", [])
    want = dict(TRAIN_SCENARIO, K=TRAIN_K)
    recs = [r for r in records if r.get("scenario") == want]
    if len(recs) != 1:
        op.errors.append(f"{path.name}: {len(recs)} records for {want}")
        return
    meta = recs[0].get("meta", {})
    history = meta.get("val_history") or [math.nan]
    final = meta.get("final_val_loss", math.nan)
    op.values[f"{Train.name}/final_val_loss"] = final
    if meta.get("epochs_run") != epochs:
        op.errors.append(f"{path.name}: epochs_run {meta.get('epochs_run')} "
                         f"!= {epochs}")
    if not (math.isfinite(final) and final < history[0]):
        op.errors.append(f"{path.name}: final validation loss {final} is not "
                         f"finite and below the initial {history[0]}")


# fixed PME schedules for gbcd-pme at the uncoded point: slopes growing over
# the iterations, the nominal spacing, and alpha = N0 at the design SNR
_QAM16_SCALE = math.sqrt(0.1)
_UNCODED_SNR = 6.0
_PME_STORE = {"records": [{
    "scenario": {"B": B, "U": U, "K": K, "Q": 16, "condition": "nonlos",
                 "snr_db": _UNCODED_SNR},
    "rho": [r / _QAM16_SCALE for r in (1.0, 2.0, 4.0)],
    "beta": [_QAM16_SCALE] * K,
    "alpha": U * 10.0 ** (-_UNCODED_SNR / 10.0),
    "meta": {"source": "fixed benchmark schedule"},
}]}

WORKLOADS = {
    "coded-256qam": Sweep(
        "coded-256qam", Q=256, snr_db=7.5, uncoded=False,
        passes=(("float", ("gbcd-box", "lmmse"), False),),
        spans=_SIM_SPANS + _FEC_SPANS, nominal_s=0.770, nominal_setup_s=0.332),
    "uncoded-16qam": Sweep(
        "uncoded-16qam", Q=16, snr_db=_UNCODED_SNR, uncoded=True,
        passes=(("float", ("gbcd-box", "gbcd-pme", "lmmse", "ocd"), False),
                ("fixed", ("gbcd-box", "gbcd-pme"), True)),
        spans=_SIM_SPANS + ("baselines.ocd_detect",
                            "hwmodel.detect_fixed_point"),
        nominal_s=0.645, nominal_setup_s=0.281, store=_PME_STORE),
    "train-qpsk16": Train(),
}
