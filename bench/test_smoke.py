"""Smoke self-test of the benchmark: every workload at minimal size, and
corrupted outputs counted as failures.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH / "control"))
import gbcd.cli  # noqa: E402
import gbcd_seed.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, text = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in text.splitlines()
               if line.startswith("  ") and len(line.split()) == 3}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert printed[name] == metric["unit"], name
    assert "  failed_frac 0 fraction" in text


def test_per_layer_list_matches_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        spans.per_layer_names()


def test_control_is_unchanged():
    assert run.control_digest() == run.CONTROL_SHA256


def test_predicted_spans_are_traced():
    for spec in workloads.WORKLOADS.values():
        assert set(spec.spans) <= set(spans.SPANS), spec.name


def _set_field(path: Path, column: str, value) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = str(value)
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path: Path) -> None:
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


def _edit_store(key: str, change):
    def edit(path: Path) -> None:
        store = json.loads(path.read_text())
        meta = store["records"][0]["meta"]
        meta[key] = change(meta[key])
        path.write_text(json.dumps(store))
    return edit


CORRUPTIONS = {
    "ser-off-control": ("uncoded-16qam", lambda p: _set_field(p, "ser", 0.5)),
    "bler-inconsistent": ("coded-256qam",
                          lambda p: _set_field(p, "block_errors", 999)),
    "trials-changed": ("coded-256qam", lambda p: _set_field(p, "trials", 2)),
    "row-missing": ("uncoded-16qam", _drop_last_row),
    "header-changed": ("uncoded-16qam",
                       lambda p: p.write_text(p.read_text().replace("ser", "SER", 1))),
    "epochs-changed": ("train-qpsk16", _edit_store("epochs_run", lambda v: 1)),
    "loss-not-improved": ("train-qpsk16",
                          _edit_store("final_val_loss", lambda v: 1e9)),
    "loss-off-control": ("train-qpsk16",
                         _edit_store("final_val_loss", lambda v: v * 0.95)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failure(case, tmp_path, monkeypatch):
    workload, corrupt = CORRUPTIONS[case]
    real_cli = workloads._cli

    def corrupting_cli(main, argv):
        rc, seconds = real_cli(main, argv)
        if main is gbcd.cli.main:   # the control's outputs stay intact
            corrupt(Path(argv[argv.index("--out") + 1]))
        return rc, seconds

    monkeypatch.setattr(workloads, "_cli", corrupting_cli)
    spec = workloads.WORKLOADS[workload]
    op = run.run_op(spec.make(tmp_path / "gbcd", 7, "smoke").run)
    ref = run.run_op(spec.make(tmp_path / "control", 7, "smoke",
                               gbcd_seed.cli).run)
    run.compare(op, ref)
    assert not ref.errors
    assert run.count_failed([op]) == 1
    assert op.errors
