"""Scenarios: the (B, U, Q, SNR, condition) tuple that, with the iteration
count K, keys trained parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scenario:
    B: int
    U: int
    Q: int
    snr_db: float
    condition: str

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(B=int(d["B"]), U=int(d["U"]), Q=int(d["Q"]),
                   snr_db=float(d["snr_db"]), condition=str(d["condition"]))
