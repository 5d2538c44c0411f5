"""Deterministic channel discretization and the floor-quantizer entropy bound.

The converse argument replaces the Gaussian network by an integer-input
integer-output surrogate: codewords are floored and reduced mod floor(sqrt(P)),
outputs are sums of floor(gain * input).  Its one quantitative atom is the
conditional entropy H(X | floor(h*X)) for X uniform on {0..floor(sqrt(P))},
which enumeration shows is at most log(1 + 1/|h|) because every quantizer bin
holds strictly fewer than 1 + 1/|h| integers.  Both facts are checked here
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import (ChannelRealization, GainDistribution, InterferenceModel, TAG_SAMPLE,
                      key_grid, keyed_gains)
from .errors import CapacityError, ParameterError

DEFAULT_ENUMERATION_BUDGET = 1_000_000


@dataclass(frozen=True)
class DiscreteCodeword:
    """Integer codeword with entries in {0..floor(sqrt(P))}."""

    values: np.ndarray
    P: float

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        if np.any(self.values < 0) or np.any(self.values > self.bound):
            raise ParameterError(f"codeword entries must lie in 0..{self.bound}")

    @property
    def bound(self) -> int:
        return math.floor(math.sqrt(self.P))


def discretize_codeword(x: Sequence[float], P: float) -> DiscreteCodeword:
    """Element-wise floor, then mathematical mod floor(sqrt(P)).

    Negative inputs wrap into {0..bound-1}: the mod convention is the
    non-negative remainder.
    """
    if P <= 1:
        raise ParameterError(f"power must exceed 1, got {P}")
    bound = math.floor(math.sqrt(P))
    values = np.floor(np.asarray(x, dtype=float)).astype(int) % bound
    return DiscreteCodeword(values=values, P=P)


def deterministic_outputs(codewords: Mapping[int, DiscreteCodeword],
                          realization: ChannelRealization
                          ) -> dict[str, np.ndarray]:
    """Integer outputs sum_i floor(gain_i(t) * X_i(t)) per receiver and at
    the eavesdropper."""
    model = realization.model
    if set(codewords) != set(model.transmitters):
        raise ParameterError("need one codeword per transmitter")
    lengths = {cw.values.shape for cw in codewords.values()}
    if len(lengths) != 1:
        raise ParameterError("codewords must share one length")
    (n,) = lengths.pop()
    if n > realization.slots:
        raise ParameterError(f"codewords longer ({n}) than the realization ({realization.slots})")

    out: dict[str, np.ndarray] = {}
    for rx in model.receivers:
        y = np.zeros(n, dtype=int)
        for tx in model.transmitters:
            gains = realization.legit_series(tx, rx)[:n]
            y += np.floor(gains * codewords[tx].values).astype(int)
        key = f"Y_{rx}" if isinstance(model, InterferenceModel) else "Y"
        out[key] = y
    z = np.zeros(n, dtype=int)
    for tx in model.transmitters:
        gains = realization.eve_series(tx)[:n]
        z += np.floor(gains * codewords[tx].values).astype(int)
    out["Z"] = z
    return out


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


def floor_conditional_entropy(h: float, P: float,
                              budget: int = DEFAULT_ENUMERATION_BUDGET
                              ) -> QuantizerEntropyReport:
    """Enumerate the quantizer bins of X -> floor(hX), X uniform on
    {0..floor(sqrt(P))}, and compare H(X | floor(hX)) with log(1 + 1/|h|)."""
    if h == 0.0 or not math.isfinite(h):
        raise ParameterError("h must be nonzero and finite")
    if P <= 1:
        raise ParameterError(f"power must exceed 1, got {P}")
    top = math.floor(math.sqrt(P))
    if top + 1 > budget:
        raise CapacityError(f"{top + 1} values exceed the enumeration budget {budget}")
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
                        samples: int, seed: int = 0,
                        budget: int = DEFAULT_ENUMERATION_BUDGET
                        ) -> QuantizerSweepReport:
    """Average the exact conditional entropy over sampled h and check every
    per-sample bound plus the averaged one."""
    if samples < 0:
        raise ParameterError("samples must be >= 0")
    gains = keyed_gains(distribution, (seed, TAG_SAMPLE), key_grid(range(samples)))
    reports = [floor_conditional_entropy(h, P, budget=budget) for h in gains.tolist()]
    violations = sum(1 for r in reports if not r.ok)
    mean_entropy = (sum(r.entropy_nats for r in reports) / samples) if samples else None
    mean_bound = (sum(r.bound_nats for r in reports) / samples) if samples else None
    return QuantizerSweepReport(
        P=P, samples=samples, violations=violations,
        mean_entropy_nats=mean_entropy, mean_bound_nats=mean_bound,
        distribution_bound_nats=distribution.integrability_bound,
        reports=reports,
    )
