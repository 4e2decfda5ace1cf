import argparse
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbcd import baselines, cli, denoise, fec, harness, unfolding
from gbcd.channel import apply_channel, gen_channel, noise_variance_for_snr
from gbcd.config import from_dict
from gbcd.constellation import make_constellation, symbol_indices_from_bits
from gbcd.harness import (ABLATE_COLUMNS, ABLATION_VARIANTS, ConfigError,
                          ExperimentConfig, run_ablation, run_sweep,
                          SWEEP_COLUMNS)


def base_config(**over):
    d = dict(B=16, U=4, Q=16, snr_db=[12.0], condition="nonlos",
             detectors=["gbcd-box", "lmmse"], K=3, seed=42, code_rate="1/2",
             T=120, trials=6, min_block_errors=10)
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(trials=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(detectors=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(detectors=["nope"]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(bogus=1))
    missing = base_config()
    del missing["seed"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(missing)


@pytest.mark.parametrize("over", [
    dict(B=8, U=16),                          # more users than antennas
    dict(U=7, B=16),                          # 2x2 GBCD blocks cannot tile U
    dict(Q=32),
    dict(condition="foo"),
    dict(T=10, Q=4, code_rate="5/6"),         # 20 coded bits at rate 5/6
    dict(K=0),
    dict(chunk_size=4),                       # retired key
    dict(trace_csv="trace.csv"),              # retired key
])
def test_config_rejects_bad_design(over):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base_config(**over))


def test_config_block_size_only_for_gbcd_detectors():
    ExperimentConfig.from_dict(base_config(U=7, B=16, detectors=["lmmse", "ocd"]))
    ExperimentConfig.from_dict(base_config(T=10, Q=4, code_rate="5/6",
                                           uncoded=True))


def test_config_scalar_snr_promoted():
    cfg = ExperimentConfig.from_dict(base_config(snr_db=10.0))
    assert cfg.snr_db == [10.0]


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_deterministic_csv(tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        rows = run_sweep(ExperimentConfig.from_dict(base_config()))
        cli._write_csv(str(out), rows, SWEEP_COLUMNS)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_sweep_zero_errors_at_high_snr():
    rows = run_sweep(ExperimentConfig.from_dict(base_config(
        B=32, U=4, snr_db=[60.0], trials=4)))
    assert all(r["bler"] == 0.0 and r["ser"] == 0.0 for r in rows)


def test_sweep_early_stop_reaches_error_floor():
    rows = run_sweep(ExperimentConfig.from_dict(base_config(
        B=4, U=4, snr_db=[0.0], trials=500, min_block_errors=12,
        detectors=["lmmse"])))
    row = rows[0]
    assert row["block_errors"] >= 12
    assert row["trials"] < 500


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = ExperimentConfig.from_dict(base_config(trials=2))
    cli._write_csv(str(out), run_sweep(cfg), SWEEP_COLUMNS)
    header = out.read_text().splitlines()[0]
    assert header == "snr_db,detector,bler,ser,trials,block_errors"


def test_lmmse_bler_monotone_in_snr():
    rows = run_sweep(ExperimentConfig.from_dict(base_config(
        B=4, U=4, Q=4, detectors=["lmmse"], K=3,
        snr_db=[2.0, 6.0, 10.0], trials=400, min_block_errors=100)))
    blers = [r["bler"] for r in rows]
    errors = [r["block_errors"] for r in rows]
    assert min(errors) >= 100  # enough statistics at every point
    assert blers[0] > blers[1] > blers[2]


def test_uncoded_mode_reports_ser_only():
    rows = run_sweep(ExperimentConfig.from_dict(base_config(
        uncoded=True, trials=3, detectors=["gbcd-box"])))
    assert np.isnan(rows[0]["bler"])
    assert rows[0]["ser"] >= 0.0


def test_sweep_rows_independent_of_detector_batching():
    # every detector's codewords are decoded in one batch per trial; a
    # detector's row must not depend on which others share that batch
    over = dict(snr_db=[0.0, 2.0], trials=6, min_block_errors=1000)
    both = run_sweep(ExperimentConfig.from_dict(base_config(
        detectors=["gbcd-box", "lmmse"], **over)))
    assert sum(r["block_errors"] for r in both) > 0
    for name in ("gbcd-box", "lmmse"):
        alone = run_sweep(ExperimentConfig.from_dict(base_config(
            detectors=[name], **over)))
        assert [r for r in both if r["detector"] == name] == alone


# ---------------------------------------------------------------------------
# decode grouping: the trials whose codewords share a decode_batch call must
# not change any result

GROUPING_SCENARIOS = {
    "rate-1/2": dict(snr_db=[0.0, 2.0]),
    "rate-3/4": dict(code_rate="3/4", snr_db=[2.0, 4.0]),
    "rate-5/6": dict(code_rate="5/6", Q=64, snr_db=[4.0, 6.0]),
    "early-stop": dict(snr_db=[0.0], min_block_errors=12, trials=60),
}
# DECODE_BLOCKS caps; every scenario runs two runners of U = 4 codeword
# blocks per trial, so the caps give groups of 1, 2, 3, 5 and all trials
GROUPING_CAPS = (8, 16, 24, 40, 10_000)
# DETECT_SAMPLES budgets; a 16-antenna trial of T = 120 holds 1920 receive
# samples, so the budgets stack 1, 2 and all trials of a group per call
DETECTION_BUDGETS = (1920, 3840, 10**9)


def _csv_bytes(tmp_path, name, cfg_dict, ablate=False):
    out = tmp_path / f"{name}.csv"
    cfg = ExperimentConfig.from_dict(cfg_dict)
    if ablate:
        rows = run_ablation(cfg, variants=["cd-box", "gbcd-box+sort"])
    else:
        rows = run_sweep(cfg)
    cli._write_csv(str(out), rows, ABLATE_COLUMNS if ablate else SWEEP_COLUMNS)
    return out.read_bytes(), rows


@pytest.mark.parametrize("ablate", [False, True], ids=["sweep", "ablate"])
@pytest.mark.parametrize("scenario", GROUPING_SCENARIOS)
def test_results_independent_of_decode_grouping(scenario, ablate, tmp_path,
                                                monkeypatch):
    cfg = base_config(trials=10, min_block_errors=1000)
    cfg.update(GROUPING_SCENARIOS[scenario])
    ref, rows = _csv_bytes(tmp_path, "ref", cfg, ablate)
    assert sum(r["block_errors"] for r in rows) > 0
    if scenario == "early-stop":
        stop = rows[0]["trials"]
        assert all(r["trials"] == stop < cfg["trials"] for r in rows)
        assert all(r["block_errors"] >= cfg["min_block_errors"] for r in rows)
        # the stop is the first trial at which every runner got there
        _, short = _csv_bytes(tmp_path, "short", dict(cfg, trials=stop - 1),
                              ablate)
        assert any(r["block_errors"] < cfg["min_block_errors"] for r in short)
    for cap in GROUPING_CAPS:
        for budget in DETECTION_BUDGETS:
            monkeypatch.setattr(harness, "DECODE_BLOCKS", cap)
            monkeypatch.setattr(harness, "DETECT_SAMPLES", budget)
            got, _ = _csv_bytes(tmp_path, f"cap-{cap}-{budget}", cfg, ablate)
            assert got == ref, (cap, budget)


@pytest.mark.parametrize("cap", [4, 8, 12, 16, 128])
@pytest.mark.parametrize("early", [False, True], ids=["all", "early-stop"])
def test_each_trial_decoded_once_within_cap(cap, early, monkeypatch):
    calls = []
    real_decode_batch = fec.decode_batch

    def recording_decode_batch(llrs, code, truth=None):
        calls.append((llrs.shape[0], truth.copy()))
        return real_decode_batch(llrs, code, truth)

    monkeypatch.setattr(fec, "decode_batch", recording_decode_batch)
    monkeypatch.setattr(harness, "DECODE_BLOCKS", cap)
    over = dict(snr_db=[0.0, 20.0], trials=7)
    if early:
        over.update(snr_db=[0.0], trials=200, min_block_errors=10)
    cfg = ExperimentConfig.from_dict(base_config(**over))
    rows = run_sweep(cfg)
    runners, U = len(cfg.detectors), cfg.U
    trials_run = [r["trials"] for r in rows][::runners]
    if early:
        assert trials_run[0] < 200
    # truth rows in call order are each trial's payloads, once per runner;
    # no trial past an early stop is decoded
    expect = []
    for snr_idx, n in enumerate(trials_run):
        for t in range(n):
            rng = harness._trial_rng(cfg.seed, snr_idx, t)
            payload = rng.integers(0, 2, size=(U, cfg.code.payload_bits))
            expect.append(np.tile(payload.astype(np.uint8), (runners, 1)))
    assert np.array_equal(np.concatenate([c[1] for c in calls]),
                          np.concatenate(expect))
    for n_blocks, _ in calls:
        assert n_blocks % (runners * U) == 0
        assert n_blocks <= max(cap, runners * U)


def test_early_stop_draws_no_trial_past_the_stop(tmp_path, monkeypatch):
    # one runner of U = 4 blocks fits more than 3 trials in the default
    # decode group, but at 0 dB the stop at 10 block errors comes after 3
    cfg = base_config(detectors=["lmmse"], snr_db=[0.0], trials=200,
                      min_block_errors=10)
    monkeypatch.setattr(harness, "DECODE_BLOCKS", 4)
    one_per_group, _ = _csv_bytes(tmp_path, "one-per-group", cfg)
    monkeypatch.undo()
    drawn, decoded = [], []
    draw_trial, decode_batch = harness._draw_trial, fec.decode_batch

    def recording_draw_trial(*args, **kwargs):
        drawn.append(args[4])
        return draw_trial(*args, **kwargs)

    def recording_decode_batch(llrs, code, truth=None):
        decoded.append(llrs.shape[0])
        return decode_batch(llrs, code, truth)

    monkeypatch.setattr(harness, "_draw_trial", recording_draw_trial)
    monkeypatch.setattr(fec, "decode_batch", recording_decode_batch)
    got, rows = _csv_bytes(tmp_path, "default", cfg)
    assert harness.DECODE_BLOCKS // cfg["U"] > 3
    assert rows[0]["trials"] == 3
    assert drawn == [0, 1, 2]
    assert decoded == [3 * cfg["U"]]
    assert got == one_per_group


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [1e21, 1e39])
def test_llr_beyond_the_limit_fails_before_the_float32_group(big,
                                                             monkeypatch):
    # 1e39 is beyond float32's range: the cast into the decode group would
    # make it inf and warn, so the limit is checked before the cast
    lmmse_detect = baselines.lmmse_detect

    def oversized_lmmse_detect(*args, **kwargs):
        soft = lmmse_detect(*args, **kwargs)
        soft.llrs[0, 1, 0, 5] = -big
        return soft

    monkeypatch.setattr(baselines, "lmmse_detect", oversized_lmmse_detect)
    cfg = ExperimentConfig.from_dict(base_config(detectors=["lmmse"]))
    with pytest.raises(ValueError, match="LLR beyond .*1e\\+20 in block 1"):
        run_sweep(cfg)


@pytest.mark.parametrize("fixed_point", [False, True], ids=["float", "fixed"])
def test_uncoded_results_independent_of_detection_stack(fixed_point,
                                                        tmp_path,
                                                        monkeypatch):
    cfg = base_config(uncoded=True, snr_db=[0.0, 8.0], trials=5,
                      fixed_point=fixed_point,
                      detectors=(["gbcd-box"] if fixed_point
                                 else ["gbcd-box", "lmmse", "ocd"]))
    outs = []
    for budget in DETECTION_BUDGETS:
        monkeypatch.setattr(harness, "DETECT_SAMPLES", budget)
        outs.append(_csv_bytes(tmp_path, f"budget-{budget}", cfg)[0])
    assert outs[1:] == outs[:-1]


def test_missing_params_raise():
    cfg = ExperimentConfig.from_dict(base_config(detectors=["gbcd-pme"]))
    with pytest.raises(unfolding.MissingParamsError):
        run_sweep(cfg)


# ---------------------------------------------------------------------------
# PME parameter resolution

def tiny_record(scenario=(), **over):
    """The record of ``tiny_store`` as a JSON object, with the given record
    and scenario keys replaced."""
    return {"scenario": {"B": 16, "U": 4, "K": 3, "Q": 16,
                         "condition": "nonlos", "snr_db": 12.0,
                         **dict(scenario)},
            "rho": [4.0, 5.0, 6.0], "beta": [0.316] * 3, "alpha": 0.05,
            "meta": {}, **over}


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "store.json"
    store = unfolding.ParamStore()
    store.add(from_dict(unfolding.TrainedParams, tiny_record()))
    store.save(path)
    return str(path)


def test_missing_record_fails_before_any_trial(tiny_store, monkeypatch):
    # no Q = 4 record: -2 dB needs none (box), 4 dB fails the lookup
    trials = []
    draw_trial = harness._draw_trial

    def counting(*args, **kwargs):
        trials.append(args[4])
        return draw_trial(*args, **kwargs)

    monkeypatch.setattr(harness, "_draw_trial", counting)
    cfg = ExperimentConfig.from_dict(base_config(
        Q=4, snr_db=[-2.0, 4.0], detectors=["gbcd-pme"], trials=1,
        params_path=tiny_store))
    with pytest.raises(unfolding.MissingParamsError):
        run_sweep(cfg)
    assert trials == []


@pytest.mark.parametrize("variants", [None, ["gbcd-pme-trained"],
                                      ["gbcd-pme-empirical"]],
                         ids=["sweep", "ablate-trained", "ablate-empirical"])
def test_params_resolved_once_per_run(variants, tiny_store, monkeypatch):
    loads, searches = [], []
    load, grid_search = unfolding.ParamStore.load, unfolding.grid_search_pme

    def counting_load(path):
        loads.append(path)
        return load(path)

    def counting_search(*args):
        searches.append(args)
        return grid_search(*args)

    monkeypatch.setattr(unfolding.ParamStore, "load", counting_load)
    monkeypatch.setattr(unfolding, "grid_search_pme", counting_search)
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[10.0, 12.0, 14.0], detectors=["gbcd-pme"], trials=1,
        params_path=tiny_store))
    rows = run_sweep(cfg) if variants is None else run_ablation(cfg, variants)
    assert len(rows) == 3
    empirical = variants is not None and "gbcd-pme-empirical" in variants
    # the empirical search reads no record, so the store is not read either
    assert loads == ([] if empirical else [tiny_store])
    assert len(searches) == (3 if empirical else 0)


def test_empirical_ablation_runs_without_a_readable_store(tmp_path):
    store = tmp_path / "store.json"
    store.write_text('{"records": 3}')
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[10.0], trials=1, params_path=str(store)))
    rows = run_ablation(cfg, ["gbcd-pme-empirical"])
    assert [r["variant"] for r in rows] == ["gbcd-pme-empirical"]


def test_empirical_search_draws_the_configured_los_channel(tmp_path,
                                                           monkeypatch):
    path = tmp_path / "los.json"
    unfolding.ParamStore([from_dict(
        unfolding.TrainedParams,
        tiny_record(scenario={"condition": "los"}))]).save(path)
    seen = []
    gen_channel = unfolding.gen_channel

    def recording(*args, **kwargs):
        seen.append((kwargs["k_factor"], kwargs["min_sep_deg"]))
        return gen_channel(*args, **kwargs)

    monkeypatch.setattr(unfolding, "gen_channel", recording)
    cfg = ExperimentConfig.from_dict(base_config(
        condition="los", k_factor=3.0, min_sep_deg=2.0, trials=1,
        detectors=["gbcd-pme"], params_path=str(path)))
    run_ablation(cfg, ["gbcd-pme-empirical"])
    assert seen == [(3.0, 2.0)] * 200


@pytest.mark.parametrize("fixed_point", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("variants", [None, ["gbcd-pme-trained",
                                             "gbcd-pme-empirical"]],
                         ids=["sweep", "ablate"])
def test_pme_denoiser_built_once_per_snr_point(variants, fixed_point,
                                               tiny_store, monkeypatch):
    built, stacks = [], []
    pme_denoiser, detect = denoise.pme_denoiser, harness._detect

    def counting_denoiser(*args):
        built.append(args)
        return pme_denoiser(*args)

    def counting_detect(*args):
        stacks.append(args)
        return detect(*args)

    monkeypatch.setattr(denoise, "pme_denoiser", counting_denoiser)
    monkeypatch.setattr(harness, "_detect", counting_detect)
    # B * T of one trial: every trial is a detection stack of its own
    monkeypatch.setattr(harness, "DETECT_SAMPLES", 16 * 120)
    snrs = [10.0, 14.0]
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=snrs, detectors=["gbcd-pme"], trials=3,
        min_block_errors=10**6, fixed_point=fixed_point,
        params_path=tiny_store))
    if variants is None:
        run_sweep(cfg)
    else:
        run_ablation(cfg, variants)
    assert len(stacks) == 3 * len(snrs)
    assert len(built) == len(snrs) * (1 if variants is None else 2)


# ---------------------------------------------------------------------------
# ablation

def test_ablation_paired_data_and_variants(tiny_store):
    cfg = ExperimentConfig.from_dict(base_config(
        detectors=["gbcd-box"], trials=3, params_path=tiny_store))
    rows = run_ablation(cfg)
    names = {r["variant"] for r in rows}
    assert names == {v[0] for v in ABLATION_VARIANTS}
    hashes = {r["data_hash"] for r in rows}
    assert len(hashes) == 1  # identical channels/symbols/noise per variant


@pytest.mark.parametrize("ablate", [False, True], ids=["sweep", "ablate"])
def test_trial_data_hashed_only_for_the_data_hash_column(ablate, tiny_store,
                                                         monkeypatch):
    hashed = []
    sha256 = harness.hashlib.sha256

    def counting(*args):
        hashed.append(args)
        return sha256(*args)

    monkeypatch.setattr(harness.hashlib, "sha256", counting)
    cfg = ExperimentConfig.from_dict(base_config(
        detectors=["gbcd-box"], trials=3, min_block_errors=10**6,
        params_path=tiny_store))
    rows = (run_ablation(cfg, ["gbcd-box"]) if ablate else run_sweep(cfg))
    assert len(hashed) == (3 if ablate else 0)
    assert ("data_hash" in rows[0]) == ablate


def test_ablation_empirical_variant_needs_no_params_path():
    # the grid search reads no trained record
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[10.0, 14.0], detectors=["gbcd-box"], trials=1))
    rows = run_ablation(cfg, ["gbcd-pme-empirical"])
    assert [(r["snr_db"], r["variant"]) for r in rows] == [
        (10.0, "gbcd-pme-empirical"), (14.0, "gbcd-pme-empirical")]
    assert all(r["trials"] == 1 for r in rows)


def test_ablation_empirical_variant_at_negative_snr_returns_rows():
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[-2.0], detectors=["gbcd-box"], trials=1))
    rows = run_ablation(cfg, ["gbcd-pme-empirical"])
    assert [(r["snr_db"], r["variant"], r["trials"]) for r in rows] == [
        (-2.0, "gbcd-pme-empirical", 1)]


def test_empirical_seed_key_for_every_admitted_snr():
    # a finite SNR >= 0 keeps the key existing results were made with
    assert harness._snr_key(12.0) == (1200,)
    snrs = [0.0, 0.5, -0.5, 3.0, -3.0, np.inf, -300.0, 3000.0]
    keys = [harness._snr_key(s) for s in snrs]
    assert len(set(keys)) == len(snrs)
    assert all(isinstance(w, int) and w >= 0 for k in keys for w in k)


def test_cli_noiseless_ablation_exits_0_without_warnings(tmp_path,
                                                         tiny_store):
    cfgp, out = tmp_path / "cfg.json", tmp_path / "ablate.csv"
    cfgp.write_text(json.dumps(base_config(
        snr_db=[np.inf], trials=1, detectors=["gbcd-box"],
        params_path=tiny_store)))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "gbcd.cli",
                           "ablate", "--config", str(cfgp), "--out",
                           str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["snr_db"], r["variant"]) for r in rows] == [
        ("inf", v) for v, _ in ABLATION_VARIANTS]


def test_ablation_missing_record_fails_before_any_grid_search(tiny_store,
                                                              monkeypatch):
    # 12 dB has a record; -5 dB, below the training range, has none that
    # the ablation accepts, and fails before the 12 dB grid search
    monkeypatch.setattr(unfolding, "grid_search_pme",
                        lambda *a: pytest.fail("grid search ran"))
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[12.0, -5.0], detectors=["gbcd-box"], trials=1,
        params_path=tiny_store))
    with pytest.raises(unfolding.MissingParamsError):
        run_ablation(cfg, ["gbcd-pme-empirical", "gbcd-pme-trained"])


def test_ablation_first_variant_is_plain_coordinate_descent():
    # the sweep's ocd rows are the ablation's cd-box rows (unsorted GBCD at
    # L = 1) on the same trials, coded and uncoded, and ocd stays float
    # when the sweep runs GBCD in fixed point
    keys = ("snr_db", "bler", "ser", "trials", "block_errors")

    def rows(table):
        return [[r[k] for k in keys] for r in table]

    for uncoded in (False, True):
        over = dict(snr_db=[2.0, 6.0], detectors=["ocd"], uncoded=uncoded)
        cfg = ExperimentConfig.from_dict(base_config(**over))
        sweep = rows(run_sweep(cfg))
        assert all(ser > 0 for _, _, ser, _, _ in sweep)
        # assert_equal counts the uncoded rows' NaN bler as equal
        np.testing.assert_equal(rows(run_ablation(cfg, variants=["cd-box"])),
                                sweep)
        np.testing.assert_equal(rows(run_sweep(ExperimentConfig.from_dict(
            base_config(fixed_point=True, **over)))), sweep)


@pytest.mark.parametrize("fixed_point", [False, True], ids=["float", "fixed"])
def test_ablation_and_sweep_share_one_detection_path(fixed_point):
    # the ablation's gbcd-box+sort is the sweep's gbcd-box, in either
    # numeric context
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[2.0, 6.0], trials=4, min_block_errors=1000,
        detectors=["gbcd-box"], fixed_point=fixed_point))
    ab = run_ablation(cfg, variants=["gbcd-box+sort"])
    sw = run_sweep(cfg)
    keys = ("snr_db", "bler", "ser", "trials", "block_errors")
    assert [[r[k] for k in keys] for r in ab] == \
        [[r[k] for k in keys] for r in sw]


def test_ablation_fixed_point_differs_from_float():
    over = dict(snr_db=[6.0], trials=4, min_block_errors=1000,
                uncoded=True)
    rows = {fp: run_ablation(ExperimentConfig.from_dict(base_config(
        fixed_point=fp, **over)), variants=["gbcd-box+sort"])
        for fp in (False, True)}
    assert rows[False][0]["data_hash"] == rows[True][0]["data_hash"]
    assert rows[False][0]["ser"] != rows[True][0]["ser"]


def test_ablation_rows_independent_of_variant_batching():
    cfg = ExperimentConfig.from_dict(base_config(
        snr_db=[0.0, 2.0], trials=6, min_block_errors=1000))
    both = run_ablation(cfg, variants=["cd-box", "gbcd-box+sort"])
    assert sum(r["block_errors"] for r in both) > 0
    for name in ("cd-box", "gbcd-box+sort"):
        alone = run_ablation(cfg, variants=[name])
        assert [r for r in both if r["variant"] == name] == alone


# ---------------------------------------------------------------------------
# command line

def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gbcd.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_cli_simulate_writes_csv(tmp_path):
    cfgp = tmp_path / "cfg.json"
    out = tmp_path / "rows.csv"
    cfgp.write_text(json.dumps(base_config(trials=2)))
    proc = run_cli("simulate", "--config", str(cfgp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("snr_db,detector,")


def test_cli_config_error_exit_code(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=0)))
    proc = run_cli("simulate", "--config", str(cfgp))
    assert proc.returncode == 2


@pytest.mark.parametrize("command, cfg", [
    ("simulate", base_config(B=8, U=16)),
    ("simulate", base_config(U=7, B=16)),
    ("simulate", base_config(Q=32)),
    ("simulate", base_config(condition="foo")),
    ("simulate", base_config(T=10, Q=4, code_rate="5/6")),
    ("ablate", base_config(U=7, B=16, detectors=["lmmse"])),
    ("train", None),
    ("hwmodel", None),
    ("train", {"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                            "condition": "nonlos"},
               "K": 0, "training": {"n_train": 40, "n_val": 40,
                                    "batch_size": 20, "max_epochs": 1}}),
    ("train", {"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 30.0,
                            "condition": "nonlos"},
               "K": 2, "training": {"n_train": 40, "n_val": 40,
                                    "batch_size": 20, "max_epochs": 1}}),
    ("simulate", base_config(threads=2)),
    ("simulate", base_config(chunk_size=4)),
    ("simulate", base_config(trace_csv="trace.csv")),
    ("train", {"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                            "condition": "nonlos", "seed": 7},
               "K": 2, "training": {"n_train": 40, "n_val": 40,
                                    "batch_size": 20, "max_epochs": 1}}),
    ("train", {"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                            "condition": "nonlos", "bogus": 1},
               "K": 2, "training": {"n_train": 40, "n_val": 40,
                                    "batch_size": 20, "max_epochs": 1}}),
    ("simulate", base_config(snr_db=[-np.inf, float("nan")])),
    ("simulate", base_config(snr_db=[12.0, -np.inf])),
    ("simulate", base_config(snr_db=float("nan"), uncoded=True)),
    ("ablate", base_config(snr_db=[-np.inf])),
    ("simulate", base_config(snr_db=["12"])),
    ("simulate", base_config(condition="los", k_factor=-0.5)),
    ("simulate", base_config(condition="los", k_factor=float("nan"))),
    ("simulate", base_config(condition="los", min_sep_deg=90.0)),
    ("simulate", base_config(condition="los", min_sep_deg=float("nan"))),
    ("simulate", base_config(condition="los", min_sep_deg=-1.0)),
    ("simulate", base_config(condition="los", U=4, min_sep_deg=40.0)),
    ("simulate", base_config(T=0, uncoded=True)),
    ("simulate", base_config(T=-4, uncoded=True)),
    ("train", {"scenario": {"B": 256, "U": 128, "Q": 4, "snr_db": 6.0,
                            "condition": "los"},
               "K": 2, "training": {"n_train": 40, "n_val": 40,
                                    "batch_size": 20, "max_epochs": 1}}),
], ids=["B<U", "U-odd", "Q32", "condition", "rate-misfit", "ablate-U-odd",
        "train-missing-file", "hwmodel-missing-file", "train-K0",
        "train-snr-30", "threads-key", "chunk-size-key", "trace-csv-key",
        "scenario-seed-key", "scenario-bogus-key", "snr-minus-inf-and-nan",
        "snr-minus-inf", "snr-nan-uncoded", "ablate-snr-minus-inf",
        "snr-string", "los-k-negative", "los-k-nan", "los-sep-90",
        "los-sep-nan", "los-sep-negative", "los-sep-at-span",
        "T-zero-uncoded", "T-negative-uncoded", "train-los-crowded"])
def test_cli_bad_config_exits_2_without_traceback(command, cfg, tmp_path):
    cfgp = tmp_path / "cfg.json"
    if cfg is not None:
        cfgp.write_text(json.dumps(cfg))
    proc = run_cli(command, "--config", str(cfgp))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "Traceback" not in proc.stderr


# the message each key set to 0 gives; L is no key: the record's reader,
# gbcd-pme, runs block size 2
SIZE_ERRORS = {"n_train": "n_train must be >= 1",
               "n_val": "n_val must be >= 1",
               "batch_size": "batch_size must be >= 1",
               "L": "unknown training keys: ['L']"}


@pytest.mark.parametrize("key", list(SIZE_ERRORS))
def test_cli_train_size_below_one_exits_2_and_writes_no_store(key, tmp_path):
    training = {"n_train": 40, "n_val": 40, "batch_size": 20,
                "max_epochs": 1, key: 0}
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps({
        "scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                     "condition": "nonlos"},
        "K": 2, "training": training}))
    store = tmp_path / "params.json"
    proc = run_cli("train", "--config", str(cfgp), "--out", str(store))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert SIZE_ERRORS[key] in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not store.exists()


@pytest.mark.parametrize("key, value", [
    ("lr", 0.0), ("lr", -1.0), ("max_epochs", 0), ("patience", 0),
    ("lr_decay_patience", 0),
])
def test_cli_train_config_that_cannot_train_exits_2(key, value, tmp_path):
    training = {"n_train": 40, "n_val": 40, "batch_size": 20,
                "max_epochs": 1, key: value}
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps({
        "scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                     "condition": "nonlos"},
        "K": 2, "training": training}))
    store = tmp_path / "params.json"
    proc = run_cli("train", "--config", str(cfgp), "--out", str(store))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert f"{key} must" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not store.exists()


def test_cli_train_that_diverges_exits_2_with_one_line(tmp_path):
    # lr 100 still trains this scenario; at 1000 the loss turns NaN
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps({
        "scenario": {"B": 8, "U": 4, "Q": 4, "snr_db": 6.0,
                     "condition": "nonlos"},
        "K": 2, "training": {"n_train": 20, "n_val": 20, "batch_size": 10,
                             "max_epochs": 3, "seed": 3, "lr": 1000}}))
    store = tmp_path / "params.json"
    proc = run_cli("train", "--config", str(cfgp), "--out", str(store))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: training diverged:")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not store.exists()


@pytest.mark.parametrize("B, U, min_sep_deg", [
    (64, 32, None),   # the default min_sep_deg, 1 deg
    (32, 16, 7.0),
    (16, 4, 30.0),    # (U - 1) * 30 = 90 < 120
    (16, 2, 60.0),
])
def test_cli_simulate_los_with_crowded_angles_exits_0(B, U, min_sep_deg,
                                                      tmp_path):
    cfg = base_config(B=B, U=U, Q=4, condition="los", uncoded=True, T=4,
                      trials=4, detectors=["gbcd-box"])
    if min_sep_deg is not None:
        cfg["min_sep_deg"] = min_sep_deg
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    assert cli.main(["simulate", "--config", str(cfgp), "--out",
                     str(out)]) == 0
    assert out.read_text().startswith("snr_db,detector,")


@pytest.mark.parametrize("key, value", [
    ("min_block_errors", 0), ("min_block_errors", -1), ("detectors", "lmmse"),
])
def test_cli_simulate_bad_key_exits_2_naming_it(key, value, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=1, **{key: value})))
    out = tmp_path / "rows.csv"
    proc = run_cli("simulate", "--config", str(cfgp), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_overrides_are_validated(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=1)))
    proc = run_cli("simulate", "--config", str(cfgp), "--threads", "0")
    assert proc.returncode == 2, proc.stderr
    for command, cfg in (("simulate", base_config(trials=1)),
                         ("train", train_config())):
        cfgp.write_text(json.dumps(cfg))
        out = tmp_path / f"{command}.out"
        proc = run_cli(command, "--config", str(cfgp), "--seed", "-1",
                       "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: seed must be >= 0")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def train_config(scenario=(), training=(), **top):
    """A small valid train config with the given keys replaced."""
    cfg = {"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                        "condition": "nonlos", **dict(scenario)},
           "K": 2,
           "training": {"n_train": 40, "n_val": 40, "batch_size": 20,
                        "max_epochs": 1, **dict(training)}}
    cfg.update(top)
    return cfg


def hwmodel_config(**over):
    return {"B": 128, "U": 16, "K": 3, "T": [6, 54], **over}


# Configs that crashed with a traceback or ran on a wrong reading before the
# schema checked types: each must exit 2 naming its key.
# (command, config, extra argv, the key the message names)
SCHEMA_CASES = {
    "sim-trials-float": ("simulate", base_config(trials=2.5), (), "trials"),
    "sim-K-float": ("simulate", base_config(K=2.5), (), "K"),
    "sim-U-float": ("simulate", base_config(U=4.0), (), "U"),
    "sim-T-float": ("simulate", base_config(T=120.0), (), "T"),
    "sim-groups-float": ("simulate", base_config(coherence_groups=1.5), (),
                         "coherence_groups"),
    "sim-seed-negative": ("simulate", base_config(seed=-1), (), "seed"),
    "sim-seed-float": ("simulate", base_config(seed=4.2), (), "seed"),
    "sim-snr-overflow": ("simulate", base_config(snr_db=[1e308]), (),
                         "snr_db"),
    "sim-snr-underflow": ("simulate", base_config(B=8, uncoded=True,
                                                  snr_db=[-5000.0]), (),
                          "snr_db"),
    "sim-json-list": ("simulate", [base_config()], (), "config"),
    "sim-seed-flag": ("simulate", base_config(), ("--seed", "-1"), "seed"),
    "train-seed-negative": ("train", train_config(training={"seed": -3}), (),
                            "seed"),
    "train-seed-flag": ("train", train_config(), ("--seed", "-1"), "seed"),
    "train-batch-float": ("train", train_config(training={"batch_size": 20.5}),
                          (), "batch_size"),
    "train-n-float": ("train", train_config(training={"n_train": 40.5}), (),
                      "n_train"),
    "train-rho-negative": ("train", train_config(training={"init_rho": -1.0}),
                           (), "init_rho"),
    "train-beta-negative": ("train",
                            train_config(training={"init_beta": -1.0}), (),
                            "init_beta"),
    "hw-K0": ("hwmodel", hwmodel_config(K=0), (), "K"),
    "hw-T0": ("hwmodel", hwmodel_config(T=[0]), (), "T"),
    "sim-uncoded-string": ("simulate", base_config(uncoded="no"), (),
                           "uncoded"),
    "sim-fixed-string": ("simulate", base_config(fixed_point="yes"), (),
                         "fixed_point"),
    "sim-fallback-string": ("simulate", base_config(allow_box_fallback="no"),
                            (), "allow_box_fallback"),
    "sim-snr-bool": ("simulate", base_config(snr_db=[True]), (), "snr_db"),
    "sim-errors-float": ("simulate", base_config(min_block_errors=2.5), (),
                         "min_block_errors"),
    "sim-detector-twice": ("simulate",
                           base_config(detectors=["lmmse", "lmmse"]), (),
                           "detectors"),
    "train-K-float": ("train", train_config(K=2.5), (), "K"),
    "train-K-string": ("train", train_config(K="2"), (), "K"),
    "train-Q-float": ("train", train_config(scenario={"Q": 16.5}), (), "Q"),
    "train-snr-string": ("train", train_config(scenario={"snr_db": "12"}), (),
                         "snr_db"),
    "train-alpha-negative": ("train",
                             train_config(training={"init_alpha": -1.0}), (),
                             "init_alpha"),
    "train-unknown-key": ("train", train_config(bogus=1), (), "bogus"),
    "hw-U-above-B": ("hwmodel", hwmodel_config(B=8, U=16), (), "U"),
    "hw-U1": ("hwmodel", hwmodel_config(U=1), (), "U"),
    "hw-U-odd": ("hwmodel", hwmodel_config(B=16, U=7, T=[6]), (), "U"),
    "hw-Q3": ("hwmodel", hwmodel_config(Q=3), (), "Q"),
    "hw-B-float": ("hwmodel", hwmodel_config(B=128.7), (), "B"),
    "hw-fclk-zero": ("hwmodel", hwmodel_config(f_clk=0), (), "f_clk"),
    "hw-unknown-key": ("hwmodel", hwmodel_config(bogus=1), (), "bogus"),
    "train-json-list": ("train", [train_config()], (), "config"),
    "hw-json-list": ("hwmodel", [hwmodel_config()], (), "config"),
    "ablate-json-list": ("ablate", [base_config()], (), "config"),
    # keys that once took these values and are no longer settable: the
    # output path is --out's, the rest are the design's constants
    "sim-out-key": ("simulate", base_config(out="rows.csv"), (), "out"),
    "train-lr-decay": ("train", train_config(training={"lr_decay": 0.5}), (),
                       "lr_decay"),
    "hw-p-idle": ("hwmodel", hwmodel_config(p_idle_watts=0.42), (),
                  "p_idle_watts"),
    "hw-p-equ": ("hwmodel", hwmodel_config(p_equ_watts=0.367), (),
                 "p_equ_watts"),
    # every trial is one coherence block: one channel carries its T vectors
    "sim-coherence-groups": ("simulate", base_config(coherence_groups=1), (),
                             "coherence_groups"),
}


@pytest.mark.parametrize("case", SCHEMA_CASES)
def test_cli_config_schema_exits_2_naming_the_key(case, tmp_path, capsys):
    command, cfg, argv, key = SCHEMA_CASES[case]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfgp), "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_cli_threads_other_than_one_is_a_config_error(command, tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=1)))
    proc = run_cli(command, "--config", str(cfgp), "--threads", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "one thread" in proc.stderr


@pytest.mark.parametrize("command, flag", [
    ("ablate", "--threads"),
    ("train", "--fixed-point"),
    ("hwmodel", "--fixed-point"),
    ("hwmodel", "--threads"),
    ("hwmodel", "--seed"),
])
def test_cli_rejects_flags_the_subcommand_does_not_read(command, flag,
                                                        tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=1)))
    argv = [command, "--config", str(cfgp), flag]
    if flag != "--fixed-point":
        argv.append("1")
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert f"unrecognized arguments: {flag}" in proc.stderr


def test_readme_usage_lines_name_each_subcommands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
             for line in readme.splitlines()
             if re.match(r"gbcd \w+ +--config", line)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {name: {s for a in p._actions for s in a.option_strings
                         if s.startswith("--") and s != "--help"}
                  for name, p in sub.choices.items()}
    assert usage == registered


def test_cli_missing_params_exit_code(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(detectors=["gbcd-pme"], trials=1)))
    proc = run_cli("simulate", "--config", str(cfgp))
    assert proc.returncode == 3
    assert "(params_path: not set)" in proc.stderr


def _store_text(**over):
    return json.dumps({"records": [tiny_record(**over)]})


# stores that cannot be read, and records that do not pass the schema; the
# record cases match the sweep's scenario, so each would otherwise be used
BAD_STORES = {
    "missing": (None, "cannot read"),
    "not-json": ("{not json", "cannot read"),
    "bad-record": ('{"records": [{"rho": [1.0]}]}', "missing record keys"),
    "rho-shorter-than-K": (_store_text(rho=[4.0, 5.0]),
                           "need K=3 entries, got 2 and 3"),
    "rho-zero": (_store_text(rho=[4.0, 0.0, 6.0]), "rho must be > 0"),
    "alpha-nan": (_store_text(alpha=float("nan")),
                  "alpha must be a finite number"),
    "alpha-negative": (_store_text(alpha=-0.05), "alpha must be >= 0"),
    "snr-string": (_store_text(scenario={"snr_db": "12"}),
                   "snr_db must be a number"),
    "snr-30": (_store_text(scenario={"snr_db": 30.0}),
               "snr_db must be >= 0 and <= 25"),
    "K-zero": (_store_text(scenario={"K": 0}), "K must be >= 1"),
    "records-not-list": ('{"records": {}}', "must be a list"),
}


@pytest.mark.parametrize("command", ["simulate", "ablate"])
@pytest.mark.parametrize("case", BAD_STORES)
def test_cli_unreadable_params_store_exits_2(command, case, tmp_path):
    content, message = BAD_STORES[case]
    store = tmp_path / "store.json"
    if content is not None:
        store.write_text(content)
    cfgp = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfgp.write_text(json.dumps(base_config(detectors=["gbcd-pme"], trials=1,
                                           params_path=str(store))))
    proc = run_cli(command, "--config", str(cfgp), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1
    assert message in proc.stderr
    assert f"parameter store {store}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", ["not-json", "rho-zero", "records-not-list"])
def test_cli_train_reads_existing_store_before_any_epoch(case, tmp_path,
                                                         monkeypatch, capsys):
    store = tmp_path / "params.json"
    store.write_text(BAD_STORES[case][0])
    before = store.read_bytes()
    monkeypatch.setattr(unfolding, "train", lambda *a: pytest.fail("trained"))
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps(train_config()))
    rc = cli.main(["train", "--config", str(cfgp), "--out", str(store)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error:") and BAD_STORES[case][1] in err
    assert f"parameter store {store}" in err
    assert store.read_bytes() == before


# (command, config); the output path goes to --out
NO_DIR_CASES = {
    "simulate": ("simulate", base_config(trials=1)),
    "ablate": ("ablate", base_config(trials=1)),
    "train": ("train", train_config()),
    "hwmodel": ("hwmodel", hwmodel_config()),
}


@pytest.mark.parametrize("case", NO_DIR_CASES)
def test_cli_output_in_missing_directory_exits_2_before_any_work(
        case, tmp_path, monkeypatch, capsys):
    command, cfg = NO_DIR_CASES[case]
    out = tmp_path / "missing" / "out"
    monkeypatch.setattr(harness, "_run_point",
                        lambda *a: pytest.fail("ran a trial"))
    monkeypatch.setattr(unfolding, "train", lambda *a: pytest.fail("trained"))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfgp), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error:") and "does not exist" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("case", NO_DIR_CASES)
def test_cli_output_naming_a_directory_exits_2_before_any_work(
        case, tmp_path, monkeypatch, capsys):
    command, cfg = NO_DIR_CASES[case]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(harness, "_run_point",
                        lambda *a: pytest.fail("ran a trial"))
    monkeypatch.setattr(unfolding, "train", lambda *a: pytest.fail("trained"))
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfgp), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err == f"config error: output path {out} is a directory\n"
    assert list(out.iterdir()) == []


def test_cli_missing_record_exits_3(tmp_path, tiny_store):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(
        Q=4, snr_db=[-2.0, 4.0], detectors=["gbcd-pme"], trials=1,
        params_path=tiny_store)))
    proc = run_cli("simulate", "--config", str(cfgp))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("missing trained parameters:")


def test_cli_train_then_simulate(tmp_path):
    train_cfg = {
        "scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                     "condition": "nonlos"},
        "K": 2,
        "training": {"n_train": 80, "n_val": 80, "batch_size": 40,
                     "max_epochs": 2, "seed": 3},
    }
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps(train_cfg))
    store = tmp_path / "params.json"
    proc = run_cli("train", "--config", str(cfgp), "--out", str(store))
    assert proc.returncode == 0, proc.stderr
    loaded = unfolding.ParamStore.load(store)
    assert len(loaded.records) == 1

    sim_cfg = base_config(B=8, U=4, K=2, detectors=["gbcd-pme"], trials=2,
                          params_path=str(store))
    simp = tmp_path / "sim.json"
    simp.write_text(json.dumps(sim_cfg))
    out = tmp_path / "out.csv"
    proc = run_cli("simulate", "--config", str(simp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "gbcd-pme" in out.read_text()


def test_cli_train_line_says_whether_training_beat_its_start(tmp_path,
                                                              capsys):
    # at lr 1e-300 no step moves theta, so no epoch beats the box start
    cfgp = tmp_path / "train.json"
    cfgp.write_text(json.dumps(train_config(
        training={"lr": 1e-300, "max_epochs": 3})))
    store = tmp_path / "params.json"
    assert cli.main(["train", "--config", str(cfgp), "--out", str(store)]) == 0
    assert "best epoch 0 of 3)" in capsys.readouterr().out
    (rec,) = unfolding.ParamStore.load(store).records
    assert rec.meta["val_history"] == [rec.meta["final_val_loss"]] * 4
    scale = make_constellation(16).scale
    assert rec.rho == pytest.approx([1.0 / scale] * 2, rel=1e-15)
    assert rec.beta == pytest.approx([scale] * 2, rel=1e-15)


def test_cli_hwmodel_table(tmp_path):
    cfgp = tmp_path / "hw.json"
    cfgp.write_text(json.dumps({"B": 128, "U": 16, "K": 3, "T": [6, 54]}))
    out = tmp_path / "hw.csv"
    proc = run_cli("hwmodel", "--config", str(cfgp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == ("algorithm,B,U,K,T,pre_mults,eq_mults,total,"
                        "theta_bps,eta,p_watts_fit")
    assert len(lines) == 1 + 3 * 2


def test_cli_hwmodel_timing_and_power_only_on_gbcd_rows(tmp_path):
    # the throughput, utilization and power models are the GBCD ASIC's
    cfgp = tmp_path / "hw.json"
    cfgp.write_text(json.dumps({"B": 96, "U": 12, "K": 4, "T": [1, 54]}))
    out = tmp_path / "hw.csv"
    assert cli.main(["hwmodel", "--config", str(cfgp), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["algorithm"] for r in rows] == ["gbcd"] * 2 + ["ocd"] * 2 \
        + ["lmmse"] * 2
    timing = ("theta_bps", "eta", "p_watts_fit")
    for r in rows:
        assert r["pre_mults"] and r["eq_mults"] and r["total"]
        if r["algorithm"] == "gbcd":
            assert all(float(r[c]) > 0 for c in timing)
        else:
            assert all(r[c] == "" for c in timing)
    assert [r["K"] for r in rows] == ["4", "4", "4", "4", "", ""]


def test_cli_import_loads_no_scipy():
    # importing scipy takes about as long as a short run's whole setup
    code = ("import sys, gbcd.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_fixed_point_flag(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(base_config(trials=1, detectors=["gbcd-box"])))
    proc = run_cli("simulate", "--config", str(cfgp), "--fixed-point")
    assert proc.returncode == 0, proc.stderr
    assert "gbcd-box" in proc.stdout


@pytest.mark.parametrize("where", ["flag", "key"])
def test_cli_fixed_point_beyond_profiled_antennas_exits_2(where, tmp_path):
    # the word lengths were profiled at 128x16; 256 antennas saturate g
    cfgp = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfgp.write_text(json.dumps(base_config(
        B=256, U=16, trials=1, uncoded=True, T=4, detectors=["gbcd-box"],
        fixed_point=where == "key")))
    argv = ["--fixed-point"] if where == "flag" else []
    proc = run_cli("simulate", "--config", str(cfgp), "--out", str(out),
                   *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert "128x16" in proc.stderr and "B=256" in proc.stderr
    assert not out.exists()
    cfgp.write_text(json.dumps(base_config(
        B=256, U=16, trials=1, uncoded=True, T=4, detectors=["gbcd-box"])))
    proc = run_cli("simulate", "--config", str(cfgp), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("over", [
    dict(uncoded=True, Q=64, condition="los", snr_db=[8.0, 14.0]),
    dict(snr_db=[0.0, 6.0], min_block_errors=10**6),
], ids=["uncoded", "coded"])
def test_each_trial_draws_readme_stream(over, monkeypatch):
    # per trial, from its own generator: the symbol indices (uncoded) or
    # the payloads (coded), then its one H, then that H's noise
    stacks, channels = [], []
    front_ends, gen = harness._front_ends, harness.gen_channel

    def recording_front_ends(H, Y, N0):
        stacks.append((H.copy(), Y.copy(), N0.copy()))
        return front_ends(H, Y, N0)

    def counting_gen_channel(*args, **kwargs):
        channels.append(args)
        return gen(*args, **kwargs)

    monkeypatch.setattr(harness, "_front_ends", recording_front_ends)
    monkeypatch.setattr(harness, "gen_channel", counting_gen_channel)
    # two trials per stack, so the third starts a second stack
    monkeypatch.setattr(harness, "DETECT_SAMPLES", 2 * 16 * 120)
    cfg = ExperimentConfig.from_dict(base_config(
        trials=3, detectors=["gbcd-box"], **over))
    rows = run_sweep(cfg)
    assert [r["trials"] for r in rows] == [3, 3]
    assert len(channels) == 6           # one channel per trial
    assert [len(N0) for _, _, N0 in stacks] == [2, 1, 2, 1]
    H, Y, N0 = (np.concatenate(a) for a in zip(*stacks))
    const, code = make_constellation(cfg.Q), cfg.code
    for snr_idx, snr_db in enumerate(cfg.snr_db):
        for t in range(cfg.trials):
            rng = harness._trial_rng(cfg.seed, snr_idx, t)
            if code is None:
                idx = rng.integers(0, cfg.Q, size=(cfg.U, cfg.T))
            else:
                payload = rng.integers(0, 2, size=(cfg.U, code.payload_bits))
                bits = fec.interleave(fec.encode(payload.astype(np.uint8),
                                                 code),
                                      code.interleaver_seed)
                idx = symbol_indices_from_bits(
                    const, bits.reshape(cfg.U, cfg.T, const.bits_per_symbol))
            h = gen_channel(cfg.B, cfg.U, cfg.condition, rng,
                            k_factor=cfg.k_factor, min_sep_deg=cfg.min_sep_deg)
            n0 = noise_variance_for_snr(h, snr_db)
            y = apply_channel(h, const.points[idx], n0, rng)
            i = snr_idx * cfg.trials + t
            assert np.array_equal(H[i], h)
            assert N0[i] == n0
            assert np.array_equal(Y[i], y)
