"""The floor-quantizer entropy bound of the converse argument.

For X uniform on {0..floor(sqrt(P))} and a nonzero gain h, the conditional
entropy H(X | floor(h*X)) is at most log(1 + 1/|h|), because every quantizer
bin holds strictly fewer than 1 + 1/|h| integers.  Both facts are checked
here exactly, by enumerating the bins, for single gains and over gains
sampled from a distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainDistribution, TAG_SAMPLE, key_grid, keyed_gains
from .errors import CapacityError, ParameterError

DEFAULT_ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class QuantizerEntropyReport:
    """Exact H(X | floor(hX)) against its closed-form bound."""

    h: float
    P: float
    entropy_nats: float
    bound_nats: float
    max_bin: int
    strict_bin_bound: float  # 1 + 1/|h|

    @property
    def entropy_ok(self) -> bool:
        return self.entropy_nats <= self.bound_nats + 1e-12

    @property
    def bins_ok(self) -> bool:
        return self.max_bin < self.strict_bin_bound

    @property
    def ok(self) -> bool:
        return self.entropy_ok and self.bins_ok

    def to_json_dict(self) -> dict:
        return {
            "h": self.h, "P": self.P,
            "H_exact_nats": self.entropy_nats,
            "bound_nats": self.bound_nats,
            "max_bin": self.max_bin,
            "violated": not self.ok,
        }


def floor_conditional_entropy(h: float, P: float) -> QuantizerEntropyReport:
    """Enumerate the quantizer bins of X -> floor(hX), X uniform on
    {0..floor(sqrt(P))}, and compare H(X | floor(hX)) with log(1 + 1/|h|)."""
    if h == 0.0 or not math.isfinite(h):
        raise ParameterError("h must be nonzero and finite")
    if P <= 1:
        raise ParameterError(f"power must exceed 1, got {P}")
    top = math.floor(math.sqrt(P))
    if top + 1 > DEFAULT_ENUMERATION_BUDGET:
        raise CapacityError(f"{top + 1} values exceed the enumeration budget "
                            f"{DEFAULT_ENUMERATION_BUDGET}")
    x = np.arange(top + 1)
    bins = np.floor(h * x)
    _, counts = np.unique(bins, return_counts=True)
    n = top + 1
    entropy = float(np.sum((counts / n) * np.log(counts)))
    return QuantizerEntropyReport(
        h=h, P=P,
        entropy_nats=entropy,
        bound_nats=math.log1p(1.0 / abs(h)),
        max_bin=int(counts.max()),
        strict_bin_bound=1.0 + 1.0 / abs(h),
    )


@dataclass
class QuantizerSweepReport:
    """Entropy bound checked over sampled gains; empty sweeps are flagged."""

    P: float
    samples: int
    violations: int
    mean_entropy_nats: float | None
    mean_bound_nats: float | None
    distribution_bound_nats: float
    reports: list[QuantizerEntropyReport]

    @property
    def empty(self) -> bool:
        return self.samples == 0

    @property
    def ok(self) -> bool:
        return not self.empty and self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "P": self.P,
            "samples": self.samples,
            "violations": self.violations,
            "mean_H_exact_nats": self.mean_entropy_nats,
            "mean_bound_nats": self.mean_bound_nats,
            "distribution_bound_nats": self.distribution_bound_nats,
            "empty": self.empty,
        }


def floor_entropy_sweep(distribution: GainDistribution, P: float,
                        samples: int, seed: int = 0) -> QuantizerSweepReport:
    """Average the exact conditional entropy over sampled h and check every
    per-sample bound plus the averaged one."""
    if samples < 0:
        raise ParameterError("samples must be >= 0")
    gains = keyed_gains(distribution, (seed, TAG_SAMPLE), key_grid(range(samples)))
    reports = [floor_conditional_entropy(h, P) for h in gains.tolist()]
    violations = sum(1 for r in reports if not r.ok)
    mean_entropy = (sum(r.entropy_nats for r in reports) / samples) if samples else None
    mean_bound = (sum(r.bound_nats for r in reports) / samples) if samples else None
    return QuantizerSweepReport(
        P=P, samples=samples, violations=violations,
        mean_entropy_nats=mean_entropy, mean_bound_nats=mean_bound,
        distribution_bound_nats=distribution.integrability_bound,
        reports=reports,
    )
