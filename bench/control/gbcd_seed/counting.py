"""Real-multiplication accounting for the hardware cost models.

Counting conventions (divisions cost the same as multiplications):

* complex x complex       -> 4 real multiplications
* complex x real          -> 2
* |complex|^2             -> 2
* real x real, 1/real     -> 1
* complex / real          -> 2

Additions, comparisons, and conjugations are free.
"""

from __future__ import annotations


class MultCounter:
    """Accumulates real-valued multiplication counts."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def cmul(self, n: int) -> None:
        self.total += 4 * n

    def cmul_real(self, n: int) -> None:
        self.total += 2 * n

    def abs2(self, n: int) -> None:
        self.total += 2 * n

    def rmul(self, n: int) -> None:
        self.total += n

    def rdiv(self, n: int) -> None:
        self.total += n

    def cdiv_real(self, n: int) -> None:
        self.total += 2 * n
