"""The config schema: one checker for every config and parameter-store
record key's type and range, one loader, and the README's key tables and
examples kept in step with both."""

import dataclasses
import json
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from gbcd.config import (ConfigError, HwmodelConfig, Scenario, from_dict)
from gbcd.harness import ExperimentConfig
from gbcd.unfolding import TrainConfig, TrainedParams, TrainJob

README = Path(__file__).resolve().parents[1] / "README.md"

# README table heading -> the config its rows describe
TABLES = {"simulate and ablate keys": ExperimentConfig,
          "train keys": TrainJob,
          "hwmodel keys": HwmodelConfig,
          "parameter-store record keys": TrainedParams}
# first comment line of a README example -> its loader
EXAMPLES = {"simulate / ablate config": ExperimentConfig.from_dict,
            "train config": lambda d: from_dict(TrainJob, d),
            "hwmodel config": lambda d: from_dict(HwmodelConfig, d)}


def accepted_keys(cls, prefix=""):
    """Every key the loader accepts for ``cls``, sections as ``name.key``."""
    types = typing.get_type_hints(cls)
    keys = set()
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(types[f.name]):
            keys |= accepted_keys(types[f.name], f"{prefix}{f.name}.")
        else:
            keys.add(prefix + f.name)
    return keys


def readme_tables():
    tables, current = {}, None
    for line in README.read_text().splitlines():
        if line.startswith("#### "):
            current = tables.setdefault(line[5:].strip(), [])
        elif current is not None and line.startswith("| `"):
            current.append(line.split("|")[1].strip().strip("`"))
    return tables


@pytest.mark.parametrize("heading", TABLES)
def test_readme_table_names_exactly_the_loaders_keys(heading):
    rows = readme_tables()[heading]
    assert len(rows) == len(set(rows))
    assert set(rows) == accepted_keys(TABLES[heading])


def test_readme_example_configs_load():
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(), re.S)
    loaded = set()
    for block in blocks:
        title = block.splitlines()[0].removeprefix("//").strip()
        name = next(n for n in EXAMPLES if title.startswith(n))
        EXAMPLES[name](json.loads(re.sub(r"//.*", "", block)))
        loaded.add(name)
    assert loaded == set(EXAMPLES)


def sim(**over):
    d = dict(B=16, U=4, Q=16, snr_db=[12.0], condition="nonlos",
             detectors=["gbcd-box"], K=3, seed=1)
    d.update(over)
    return d


def test_numpy_scalars_are_stored_as_python_types():
    cfg = ExperimentConfig(**sim(B=np.int64(16), snr_db=(np.float32(6.0), 8),
                                 uncoded=np.bool_(True)))
    assert type(cfg.B) is int and cfg.B == 16
    assert cfg.snr_db == [6.0, 8.0]
    assert all(type(s) is float for s in cfg.snr_db)
    assert cfg.uncoded is True
    scen = Scenario(B=8, U=4, Q=np.int32(16), snr_db=np.int64(6),
                    condition="nonlos")
    assert type(scen.Q) is int and type(scen.snr_db) is float
    assert type(from_dict(TrainConfig, {"lr": 1}).lr) is float


@pytest.mark.parametrize("over, key", [
    (dict(K=True), "K"),                 # a bool is not an int
    (dict(U=4.0), "U"),                  # nor is a float with an integral value
    (dict(snr_db=[6.0, False]), "snr_db"),
    (dict(snr_db=[]), "snr_db"),
    (dict(snr_db=[-np.inf]), "snr_db"),
    (dict(k_factor=np.nan), "k_factor"),
    (dict(min_sep_deg=np.inf), "min_sep_deg"),
    (dict(uncoded=1), "uncoded"),
    (dict(params_path=3), "params_path"),    # a str | None key
    (dict(code_rate="7/8", uncoded=True), "code_rate"),
    (dict(detectors=["ocd", "lmmse", "ocd"]), "detectors"),
])
def test_constructed_config_is_checked(over, key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**sim(**over))


def test_overrides_are_checked():
    cfg = ExperimentConfig(**sim())
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        dataclasses.replace(TrainConfig(), seed=1.5)


def test_infinity_only_where_the_range_allows_it():
    cfg = ExperimentConfig(**sim(snr_db=[np.inf], k_factor=np.inf))
    assert cfg.snr_db == [np.inf] and cfg.k_factor == np.inf
    with pytest.raises(ConfigError, match="lr must be a finite number"):
        TrainConfig(lr=np.inf)


@pytest.mark.parametrize("raw, message", [
    ({"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 6.0,
                   "condition": "nonlos"}}, r"missing config keys: \['K'\]"),
    ({"scenario": [], "K": 2}, "scenario must be a JSON object"),
    ({"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 6.0,
                   "condition": "nonlos", "k_factor": 5.0}, "K": 2},
     r"unknown scenario keys: \['k_factor'\]"),
    ({"scenario": {"B": 8, "U": 5, "Q": 16, "snr_db": 6.0,
                   "condition": "nonlos"}, "K": 2},
     "divisible by the detector block size L=2"),
    ({"scenario": {"B": 8, "U": 4, "Q": 16, "snr_db": 25.5,
                   "condition": "nonlos"}, "K": 2},
     "snr_db must be >= 0 and <= 25"),
    ({"scenario": {"B": 256, "U": 128, "Q": 4, "snr_db": 6.0,
                   "condition": "los"}, "K": 2},
     r"cannot place U=128 UEs min_sep_deg=1.0 apart"),
])
def test_train_file_sections_load_through_one_loader(raw, message):
    with pytest.raises(ConfigError, match=message):
        from_dict(TrainJob, raw)


def test_los_scenario_needs_room_for_its_angles_only():
    # U angles LOS_MIN_SEP_DEG = 1 deg apart fit the 120 deg sector up to
    # U = 120; non-LOS channels draw no angles
    Scenario(B=256, U=120, Q=4, snr_db=6.0, condition="los")
    Scenario(B=256, U=128, Q=4, snr_db=6.0, condition="nonlos")
    with pytest.raises(ConfigError, match="cannot place U=122"):
        Scenario(B=256, U=122, Q=4, snr_db=6.0, condition="los")


def test_train_file_defaults():
    job = from_dict(TrainJob, {"scenario": {"B": 8, "U": 4, "Q": 16,
                                            "snr_db": 6, "condition": "los"},
                               "K": 2})
    assert job.training == TrainConfig()
    assert job.scenario.snr_db == 6.0
