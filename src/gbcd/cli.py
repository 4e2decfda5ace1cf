"""Command-line front end: simulate / ablate / train / hwmodel.

Configs are JSON files; results are CSV. Exit codes: 0 success, 2 config
error, 3 missing trained parameters.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import hwmodel, unfolding
from .config import ConfigError, HwmodelConfig, from_dict, read_json
from .harness import (ABLATE_COLUMNS, SWEEP_COLUMNS, ExperimentConfig,
                      run_ablation, run_sweep, _write_csv)

HWMODEL_COLUMNS = ("algorithm", "B", "U", "K", "T", "pre_mults", "eq_mults",
                   "total", "theta_bps", "eta", "p_watts_fit")


def _check_out(path) -> None:
    """An output path (None: stdout) must lie in an existing directory."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output directory of {path} does not exist")


def _load_config(args) -> ExperimentConfig:
    """Load a config and apply the command-line overrides; the result is
    validated again."""
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    overrides = {"seed": args.seed, "out": args.out,
                 "fixed_point": True if args.fixed_point else None}
    cfg = dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None})
    _check_out(cfg.out)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg)
    if not cfg.out:
        _write_csv(sys.stdout, rows, SWEEP_COLUMNS)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    rows = run_ablation(cfg)
    if not cfg.out:
        _write_csv(sys.stdout, rows, ABLATE_COLUMNS)
    return 0


def _cmd_train(args) -> int:
    job = from_dict(unfolding.TrainJob, read_json(args.config))
    training = job.training
    if args.seed is not None:
        training = dataclasses.replace(training, seed=args.seed)
    out = args.out or "trained_params.json"
    _check_out(out)
    store = (unfolding.ParamStore.load(out) if os.path.exists(out)
             else unfolding.ParamStore())
    # a run whose loss diverges is reported once, as TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        params = unfolding.train(job.scenario, training, job.K)
    store.add(params)
    store.save(out)
    shown = {k: getattr(params.scenario, k)      # the line's fixed key order
             for k in ("B", "U", "K", "Q", "condition", "snr_db")}
    print(f"trained scenario {shown} -> {out} "
          f"(val loss {params.meta['final_val_loss']:.4f})")
    return 0


def _cmd_hwmodel(args) -> int:
    cfg = from_dict(HwmodelConfig, read_json(args.config))
    _check_out(args.out)
    B, U, K, Q = cfg.B, cfg.U, cfg.K, cfg.Q
    reports = {
        "gbcd": hwmodel.complexity_gbcd(B, U, K),
        "ocd": hwmodel.complexity_ocd(B, U, K),
        "lmmse": hwmodel.complexity_lmmse(B, U),
    }
    rows = []
    for name, rep in reports.items():
        for T in cfg.T:
            row = {"algorithm": name, "B": B, "U": U,
                   "K": rep.K if rep.K is not None else "", "T": T,
                   "pre_mults": rep.preprocessing_mults,
                   "eq_mults": rep.per_transmission_mults,
                   "total": rep.total(T),
                   "theta_bps": "", "eta": "", "p_watts_fit": ""}
            if name == "gbcd":   # the timing and power models are the ASIC's
                eta = hwmodel.utilization(T, U, B)
                row.update(theta_bps=hwmodel.throughput(T, Q, U, cfg.f_clk, B),
                           eta=eta,
                           p_watts_fit=cfg.p_idle_watts + eta * cfg.p_equ_watts)
            rows.append(row)
    _write_csv(args.out or sys.stdout, rows, HWMODEL_COLUMNS)
    return 0


# the optional flags; each subcommand registers only those it reads
_FLAGS = {
    "--seed": dict(type=int, help="override the config seed"),
    "--threads": dict(type=int, help="kept for existing command lines; trials "
                                     "run in one thread, so only 1 is valid"),
    "--fixed-point": dict(action="store_true",
                          help="run the GBCD detectors in fixed point"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gbcd",
        description="Soft-output block-coordinate-descent massive-MIMO "
                    "detector: simulation, training, and hardware models. "
                    "SNR convention: per-receive-antenna SNR "
                    "||H||_F^2/(B*N0) of unit-energy symbols, evaluated on "
                    "the realized channel after power control.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, doc, flags in (
            ("simulate", _cmd_simulate, "BLER/SER sweep over SNR",
             ("--seed", "--threads", "--fixed-point")),
            ("ablate", _cmd_ablate, "incremental-technique comparison",
             ("--seed", "--fixed-point")),
            ("train", _cmd_train, "deep-unfolding parameter training",
             ("--seed", "--threads")),
            ("hwmodel", _cmd_hwmodel, "complexity/throughput/power tables",
             ())):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output path (CSV or JSON)")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", None) not in (None, 1):
            raise ConfigError(f"--threads {args.threads}: trials run in one "
                              "thread; only --threads 1 is accepted")
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except unfolding.MissingParamsError as e:
        print(f"missing trained parameters: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
