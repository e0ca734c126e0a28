"""Monte Carlo accumulation with deterministic, order-fixed reduction.

Sample estimates are always combined in ascending sample order, whatever the
worker count, so a given (seed, budget) produces bit-identical statistics.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

import math

from .errors import NumericError


@dataclass
class MCAccumulator:
    """Welford running mean / variance accumulator."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def push(self, x: float):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count * (self.count - 1)))

    def merge(self, other: "MCAccumulator") -> "MCAccumulator":
        """Chan combination; callers must merge in a fixed order."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        self.mean = self.mean + delta * other.count / n
        self.count = n
        return self

    def summary(self) -> "StatSummary":
        return StatSummary(self.mean, self.stderr, self.count)


@dataclass(frozen=True)
class StatSummary:
    mean: float
    stderr: float
    count: int

    def to_dict(self) -> Dict:
        return {"mean": float(self.mean), "stderr": float(self.stderr),
                "n_samples": int(self.count)}


def ordered_map(fn: Callable, args: Iterable, workers: int = 1) -> List:
    """Map preserving input order; thread-parallel for workers > 1."""
    args = list(args)
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


def mc_estimate(estimator: Callable[[int, int], float], budget: int, seed: int = 0,
                workers: int = 1) -> MCAccumulator:
    """Mean/stderr of ``estimator(seed, sample_id)`` over ``budget`` samples.

    Estimator failures are re-raised with the offending sample id attached.
    """
    if budget < 1:
        raise NumericError("budget must be >= 1")

    def one(sample_id: int) -> float:
        try:
            return float(estimator(seed, sample_id))
        except Exception as exc:
            raise NumericError(f"estimator failed at sample {sample_id}: {exc}") from exc

    values = ordered_map(one, range(budget), workers=workers)
    acc = MCAccumulator()
    for v in values:
        acc.push(v)
    return acc

