"""Scenario bundles: the (B, U, Q, SNR, condition, code rate, T, seed) tuple
that keys trained parameters and experiments."""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Scenario:
    B: int
    U: int
    Q: int
    snr_db: float
    condition: str
    code_rate: str = "1/2"
    T: int = 120
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(B=int(d["B"]), U=int(d["U"]), Q=int(d["Q"]),
                   snr_db=float(d["snr_db"]), condition=str(d["condition"]),
                   code_rate=str(d.get("code_rate", "1/2")),
                   T=int(d.get("T", 120)), seed=int(d.get("seed", 0)))
