"""Derived metrics shared by benches and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["PaperComparison", "compare"]


@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-measured data point (a row of a bench's "paper vs
    measured" table; see the README's "Reproduce the paper & the scaling
    curves")."""

    experiment: str
    metric: str
    paper_value: float
    measured_value: float

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            raise ValueError("paper value is zero")
        return self.measured_value / self.paper_value

    def row(self) -> List:
        return [
            self.experiment,
            self.metric,
            self.paper_value,
            round(self.measured_value, 2),
            f"{self.ratio:.2f}x",
        ]


def compare(
    experiment: str, metric: str, paper: float, measured: float
) -> PaperComparison:
    """Shorthand constructor for a paper-vs-measured comparison row."""
    return PaperComparison(experiment, metric, paper, measured)

