"""The benchmark's tracer wraps gbcd functions by name: every name it lists
must still resolve, or each traced run fails at install time, and every
span a workload predicts must fire, or each traced operation of that
workload fails."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gbcd import cli, unfolding

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_name_resolves_to_a_gbcd_callable():
    spans = _load("spans")
    assert spans.SPANS
    for name in spans.SPANS:
        mod_name, fn_name = name.rsplit(".", 1)
        module = importlib.import_module(f"gbcd.{mod_name}")
        assert callable(getattr(module, fn_name, None)), name


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _tiny_sweep(tmp_path, Q, uncoded, passes):
    """Each pass (detectors, fixed point) of a small ``gbcd simulate``."""
    scen = {"B": 8, "U": 4, "K": 2, "Q": Q, "condition": "nonlos",
            "snr_db": 6.0}
    store = _write(tmp_path / "store.json", {"records": [{
        "scenario": scen, "rho": [2.0, 4.0], "beta": [0.3, 0.3],
        "alpha": 0.1, "meta": {}}]})
    for i, (detectors, fixed) in enumerate(passes):
        cfg = _write(tmp_path / f"cfg{i}.json", dict(
            scen, snr_db=[6.0], T=120, seed=5, trials=2, uncoded=uncoded,
            min_block_errors=10**6, params_path=store,
            detectors=list(detectors)))
        argv = ["simulate", "--config", cfg, "--out",
                str(tmp_path / f"out{i}.csv")]
        assert cli.main(argv + (["--fixed-point"] if fixed else [])) == 0


def _tiny_train(tmp_path):
    cfg = _write(tmp_path / "train.json", {
        "scenario": {"B": 8, "U": 4, "Q": 4, "snr_db": 6.0,
                     "condition": "nonlos"},
        "K": 2, "training": {"n_train": 20, "n_val": 20, "batch_size": 10,
                             "max_epochs": 1, "seed": 3}})
    assert cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "store.json")]) == 0


# each simulate workload's passes in miniature: the same CLI paths and
# detectors
SWEEPS = {
    "coded-256qam": (256, False, [(("gbcd-box", "lmmse"), False)]),
    "uncoded-16qam": (16, True, [
        (("gbcd-box", "gbcd-pme", "lmmse", "ocd"), False),
        (("gbcd-box", "gbcd-pme"), True)]),
}
RUNS = {name: lambda d, _args=args: _tiny_sweep(d, *_args)
        for name, args in SWEEPS.items()}
RUNS["train-qpsk16"] = _tiny_train


def _non_gbcd_first(passes):
    """The passes with every detector that is not GBCD moved to the front,
    so that it builds the stack's shared front end."""
    return [(sorted(detectors, key=lambda d: d.startswith("gbcd")), fixed)
            for detectors, fixed in passes]


@pytest.mark.parametrize("workload", list(RUNS))
def test_every_predicted_span_fires(workload, tmp_path, count_calls):
    spans = _load("workloads").WORKLOADS[workload].spans
    calls = count_calls(spans)
    RUNS[workload](tmp_path)
    assert [name for name in spans if calls[name] == 0] == []
    if workload in SWEEPS:
        # the same spans fire whichever detector builds the front end
        calls.update(dict.fromkeys(spans, 0))
        Q, uncoded, passes = SWEEPS[workload]
        (tmp_path / "reordered").mkdir()
        _tiny_sweep(tmp_path / "reordered", Q, uncoded,
                    _non_gbcd_first(passes))
        assert [name for name in spans if calls[name] == 0] == []


def test_benchmark_pme_store_loads_as_a_checked_record(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(_load("workloads")._PME_STORE))
    (record,) = unfolding.ParamStore.load(path).records
    assert record.meta == {"source": "fixed benchmark schedule"}
    assert len(record.rho) == len(record.beta) == record.scenario.K
