"""What a valid config is. Every CLI config and parameter-store record is a
dataclass whose fields declare each key's type (the annotation) and range
(``key``) once; ``check`` enforces both first thing in each
``__post_init__``, so configs built in code and ``dataclasses.replace``
overrides are checked as JSON ones are. ``from_dict`` loads a parsed JSON
object, sections included. Rules that tie keys together follow ``check``
in the same ``__post_init__``, through ``check_design`` for the design.

An int is an integral number and a float a real one (an int is stored as a
float), neither a bool; a bool is only true or false; numpy scalars count.
A list is non-empty and checked element by element, a dict is any JSON
object. A float is finite unless its key admits Infinity; bounds apply to
finite values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import operator
import sys
import typing
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import CONDITIONS, LOS_MIN_SEP_DEG, check_angle_separation
from .constellation import SUPPORTED_ORDERS

# SNRs (dB) parameters are trained at; the parameter store falls back outside
TRAIN_SNR_RANGE_DB = (0.0, 25.0)
# block size L of the GBCD ASIC, its hwmodel row, detectors and PME records
GBCD_L = 2
# sweep SNRs (dB) at and above this have no finite linear SNR 10**(snr/10)
SNR_DB_MAX = 10.0 * math.log10(sys.float_info.max)
# sweep SNRs (dB) below this are refused: N0 = |H|^2 / (B 10**(snr/10))
# must stay finite, and far enough from overflow that the detectors'
# arithmetic on it does too
SNR_DB_MIN = -300.0

_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}
# per type: what a value must be, and the classes it takes besides bools
_KINDS = {bool: ("true or false", ()), int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real), str: ("a string", str),
          dict: ("a JSON object", dict)}


class ConfigError(ValueError):
    """An invalid config; the CLI exits with code 2."""


def key(default=dataclasses.MISSING, *, choices=None, unique=False,
        inf=False, **bounds):
    """A config field whose value, or each list element, lies within
    ``bounds`` (gt, ge, lt, le) and ``choices``; ``unique`` forbids repeated
    list elements and ``inf`` admits +Infinity."""
    assert set(bounds) <= set(_BOUNDS), bounds
    return dataclasses.field(default=default, metadata=dict(
        choices=choices, unique=unique, inf=inf, bounds=bounds))


@cache
def _types(cls) -> dict:
    """The evaluated field annotations of ``cls``: evaluating them compiles
    each one, about 0.5 ms per ``ExperimentConfig``."""
    return typing.get_type_hints(cls)


def check(cfg) -> None:
    """Check every field of the config dataclass ``cfg`` against its type
    and range and store it as its Python type; a ConfigError names the
    first key that fails."""
    types = _types(type(cfg))
    for f in dataclasses.fields(cfg):
        tp, v, spec = types[f.name], getattr(cfg, f.name), f.metadata
        if type(None) in typing.get_args(tp):    # X | None
            if v is None:
                continue
            tp = typing.get_args(tp)[0]
        if dataclasses.is_dataclass(tp):         # a section
            if not isinstance(v, tp):
                raise ConfigError(f"{f.name} must be a {tp.__name__}, "
                                  f"got {v!r}")
        elif typing.get_origin(tp) is list:
            if not isinstance(v, (list, tuple)) or not v:
                raise ConfigError(f"{f.name} must be a non-empty list, "
                                  f"got {v!r}")
            v = [_value(f.name, typing.get_args(tp)[0], x, spec) for x in v]
            if spec.get("unique") and len(set(v)) < len(v):
                raise ConfigError(f"{f.name} must not repeat an entry, "
                                  f"got {v!r}")
        else:
            v = _value(f.name, tp, v, spec)
        object.__setattr__(cfg, f.name, v)


def _value(name, tp, v, spec):
    if not (tp is bool if isinstance(v, (bool, np.bool_))
            else isinstance(v, _KINDS[tp][1])):
        raise ConfigError(f"{name} must be {_KINDS[tp][0]}, got {v!r}")
    try:
        v = tp(v)
    except OverflowError:                        # an int beyond any float
        v = math.nan
    inf = " or Infinity" if spec.get("inf") else ""
    if tp is float and not (math.isfinite(v) or v == math.inf and inf):
        raise ConfigError(f"{name} must be a finite number{inf}, got {v!r}")
    bounds = spec.get("bounds", {})
    if v != math.inf and not all(_BOUNDS[b][0](v, x)
                                 for b, x in bounds.items()):
        rng = " and ".join(f"{_BOUNDS[b][1]} {x:g}" for b, x in bounds.items())
        raise ConfigError(f"{name} must be {rng}{inf}, got {v!r}")
    choices = spec.get("choices")
    if choices is not None and v not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {v!r}")
    return v


def from_dict(cls, raw, where: str = "config"):
    """The config dataclass ``cls`` from the parsed JSON object ``raw``
    (named ``where`` in errors): every key must be a field and every field
    without a default given; a section loads from its own object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    missing = [n for n, f in fields.items() if n not in raw
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {where} keys: {missing}")
    types = _types(cls)
    return cls(**{k: from_dict(types[k], v, k)
                  if dataclasses.is_dataclass(types[k]) else v
                  for k, v in raw.items()})


def read_json(path):
    """Parse a JSON file; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def check_design(B: int, U: int, block_sizes=()) -> None:
    """Raise ConfigError unless B >= U >= 2 and every detector block size
    divides U."""
    if not B >= U >= 2:
        raise ConfigError(f"need B >= U >= 2, got B={B}, U={U}")
    for L in block_sizes:
        if U % L != 0:
            raise ConfigError(f"U={U} must be divisible by the detector "
                              f"block size L={L}")


@dataclass(frozen=True)
class Scenario:
    """The (B, U, Q, SNR, condition) tuple that, with the iteration count K,
    keys trained parameters: the ``scenario`` section of a train config.
    A ``los`` scenario must fit U angles LOS_MIN_SEP_DEG apart, the
    separation its training channels are drawn with."""

    B: int
    U: int
    Q: int = key(choices=SUPPORTED_ORDERS)
    snr_db: float = key(ge=TRAIN_SNR_RANGE_DB[0], le=TRAIN_SNR_RANGE_DB[1])
    condition: str = key(choices=CONDITIONS)

    def __post_init__(self):
        check(self)
        check_design(self.B, self.U)
        if self.condition == "los":
            try:
                check_angle_separation(self.U, LOS_MIN_SEP_DEG)
            except ValueError as e:
                raise ConfigError(str(e)) from e


@dataclass
class HwmodelConfig:
    """A ``gbcd hwmodel`` config: one design point and the transmission
    counts T of its complexity, throughput and power table. The clock and
    power are the fabricated ASIC's (``hwmodel.F_CLK_HZ``,
    ``P_IDLE_WATTS``, ``P_EQU_WATTS``)."""

    B: int
    U: int
    K: int = key(ge=1)
    T: list[int] = key(ge=1)
    Q: int = key(256, choices=SUPPORTED_ORDERS)

    def __post_init__(self):
        check(self)
        check_design(self.B, self.U, (GBCD_L,))
