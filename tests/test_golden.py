"""Golden outputs: small end-to-end runs through ``gbcd.cli.main`` whose
output files must keep the sha256 digests recorded below.

Fixed seeds give byte-identical results, so every speed-up or refactor is
checked against these digests. They may be re-recorded only by a change
that states which results it changes and why.
"""

import hashlib
import json

import pytest

from gbcd import cli, unfolding

SCEN = {"B": 8, "U": 4, "K": 2, "Q": 16, "seed": 7, "T": 120,
        "min_block_errors": 10**6}

GOLDEN = {
    "train":
        "4a510296aefb54ea30be2e002c70035895e0d46c48bd20d3da7019ec0bbcf8c7",
    "train_los":
        "59181e32f474e83726c66444e422619f6abee6a4ea299d0d37f8b0c450b7995b",
    "train_256qam":
        "ef835713b7bf15a0c2062671c2f7a78bc25b4c230ae62756b1f79011f0ad7e60",
    "coded_all_detectors":
        "57d7fa0e9985d8c99ed8c316d7e40e514d551c5c66202d31749af4c70dca08cc",
    "uncoded_los":
        "6001bb736bf6b829cbdd58ad489a1508729bc558bf95f0afce9b95c18c5ac9ed",
    "uncoded_los_fixed":
        "ba0f5350889552d1173306a6c483787c15f939b56a8868f085be8c413c2a37bd",
    "uncoded_pme_fixed":
        "29c96b7bd53f8cb28401a4743db7f7ff3095ca2f2b59f69b5ece0576e1a20d41",
    "ablate_los":
        "ffc2d335b4f76af746af6bf1552a304c6d643b1712bb37a0abe7930dc908129c",
    "coded_256qam":
        "e3637cb7c4272574333dee852ea7372185ab857627c69841cbd2a3c029c99040",
    "uncoded_4qam":
        "8e2017e3380d1a0b524a7e1dd032d32c6dc6f89d7a5d6ea9e8dffaf39c82656a",
    "uncoded_64qam":
        "1b75a575c2db08cbf7dcf2ba647a623e47f0fa179b8319aaea1d27632a153a31",
    "hwmodel_128x16":
        "201322c958373d2fb887d48487d99c93b05e731e06f54e9cf5093aa53ae53ed6",
    "hwmodel_96x12":
        "83f67cb9aa0fd977414c8ca80431e4b7690f646ea1c434e6435f5ccaf9dbdd34",
}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv):
    assert cli.main(list(argv)) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    out = {}

    store = d / "store.json"
    _run("train", "--out", str(store), "--config", _write(d / "train.json", {
        "scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 12.0,
                     "condition": "nonlos"},
        "K": 2,
        "training": {"n_train": 60, "n_val": 60, "batch_size": 30,
                     "max_epochs": 2, "seed": 3}}))
    out["train"] = store

    # the trainer on LOS channels and at the largest order
    for name, scenario, K, batch_size, seed in (
            ("train_los", {"B": 16, "U": 4, "Q": 16, "snr_db": 10.0,
                           "condition": "los"}, 3, 20, 4),
            ("train_256qam", {"B": 16, "U": 8, "Q": 256, "snr_db": 20.0,
                              "condition": "nonlos"}, 2, 30, 5)):
        out[name] = d / f"{name}_store.json"
        _run("train", "--out", str(out[name]), "--config",
             _write(d / f"{name}.json", {
                 "scenario": scenario, "K": K,
                 "training": {"n_train": 60, "n_val": 60,
                              "batch_size": batch_size, "max_epochs": 2,
                              "seed": seed}}))

    out["coded_all_detectors"] = d / "coded_all_detectors.csv"
    _run("simulate", "--out", str(out["coded_all_detectors"]), "--config",
         _write(d / "coded.json", dict(
             SCEN, snr_db=[6.0, 12.0], condition="nonlos", trials=3,
             params_path=str(store),
             detectors=["gbcd-box", "gbcd-pme", "lmmse", "ocd"])))

    los = _write(d / "los.json", dict(
        SCEN, snr_db=[8.0, 14.0], condition="los", uncoded=True, trials=3,
        detectors=["gbcd-box", "lmmse", "ocd"]))
    out["uncoded_los"] = d / "uncoded_los.csv"
    _run("simulate", "--out", str(out["uncoded_los"]), "--config", los)
    out["uncoded_los_fixed"] = d / "uncoded_los_fixed.csv"
    _run("simulate", "--out", str(out["uncoded_los_fixed"]), "--config", los,
         "--fixed-point")

    out["uncoded_pme_fixed"] = d / "uncoded_pme_fixed.csv"
    _run("simulate", "--out", str(out["uncoded_pme_fixed"]), "--config",
         _write(d / "pme_fixed.json", dict(
             SCEN, snr_db=[6.0, 12.0], condition="nonlos", uncoded=True,
             trials=3, params_path=str(store),
             detectors=["gbcd-box", "gbcd-pme"])), "--fixed-point")

    los_store = d / "los_store.json"
    unfolding.ParamStore([unfolding.TrainedParams(
        [3.0, 4.0], [0.316] * 2, 0.05, unfolding.TrainedScenario(
            B=8, U=4, K=2, Q=16, condition="los", snr_db=12.0))]
    ).save(los_store)
    out["ablate_los"] = d / "ablate_los.csv"
    _run("ablate", "--out", str(out["ablate_los"]), "--config",
         _write(d / "ablate.json", dict(
             SCEN, snr_db=[12.0], condition="los", k_factor=5.0,
             min_sep_deg=3.0, trials=2, detectors=["gbcd-box"],
             params_path=str(los_store))))

    # the soft-output and hard-decision stages at the other orders
    out["coded_256qam"] = d / "coded_256qam.csv"
    _run("simulate", "--out", str(out["coded_256qam"]), "--config",
         _write(d / "coded_256.json", dict(
             SCEN, Q=256, snr_db=[14.0, 20.0], condition="nonlos", trials=3,
             detectors=["gbcd-box", "lmmse"])))
    for Q, snrs in ((4, [0.0, 6.0]), (64, [12.0, 20.0])):
        name = f"uncoded_{Q}qam"
        out[name] = d / f"{name}.csv"
        _run("simulate", "--out", str(out[name]), "--config",
             _write(d / f"{name}.json", dict(
                 SCEN, Q=Q, snr_db=snrs, condition="nonlos",
                 uncoded=True, trials=3, detectors=["gbcd-box", "lmmse"])))

    # the complexity, throughput and power tables
    for name, hw in (("hwmodel_128x16", {"B": 128, "U": 16, "K": 3,
                                         "T": [1, 9, 54]}),
                     ("hwmodel_96x12", {"B": 96, "U": 12, "K": 4,
                                        "T": [1, 6, 54, 1000]})):
        out[name] = d / f"{name}.csv"
        _run("hwmodel", "--out", str(out[name]), "--config",
             _write(d / f"{name}.json", hw))
    return out


@pytest.mark.parametrize("name", list(GOLDEN))
def test_output_matches_recorded_digest(name, outputs):
    assert _digest(outputs[name]) == GOLDEN[name]
