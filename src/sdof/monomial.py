"""Exact exponent-vector algebra over named generators.

A monomial is a product of generator symbols (channel gains, auxiliary
constants) raised to integer powers.  Two monomials with different exponent
vectors are rationally independent almost surely when the generators are
drawn from continuous distributions, so exact exponent equality is the
alignment test of both interference schemes: multiplying by a gain shifts
the exponent vector, and the shifted set must land inside the extended set.

`Monomial` is the symbolic form, a canonical zero-free exponent map.  A set
of monomials over one fixed generator order is an int8 exponent row per
monomial; `box_image` builds one as the image of an integer box.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapacityError


@dataclass(frozen=True)
class Monomial:
    """Canonical exponent vector: sorted (name, exponent) pairs, no zeros."""

    exponents: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def from_dict(exponents: Mapping[str, int]) -> "Monomial":
        items = tuple(sorted((n, int(e)) for n, e in exponents.items() if e != 0))
        return Monomial(items)

    @staticmethod
    def one() -> "Monomial":
        return Monomial(())

    @staticmethod
    def gen(name: str, power: int = 1) -> "Monomial":
        return Monomial.from_dict({name: power})

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exponents)
        for n, e in other.exponents:
            merged[n] = merged.get(n, 0) + e
        return Monomial.from_dict(merged)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def inverse(self) -> "Monomial":
        return Monomial(tuple((n, -e) for n, e in self.exponents))

    def __pow__(self, power: int) -> "Monomial":
        if power == 0:
            return Monomial.one()
        return Monomial(tuple(sorted((n, e * power) for n, e in self.exponents)))

    def evaluate(self, values: Mapping[str, float]) -> float:
        out = 1.0
        for n, e in self.exponents:
            out *= values[n] ** e
        return out

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for n, e in self.exponents:
            parts.append(n if e == 1 else f"{n}^{e}")
        return "*".join(parts)


def box_image(pattern: np.ndarray, top: int) -> np.ndarray:
    """Rows e @ pattern for every e in {1..top}^s, one free exponent at a
    time, the first varying slowest (itertools.product order)."""
    # int8 must hold every row and its shift by one generator
    reach = int(np.abs(pattern).sum(axis=0).max()) * top + 1
    if reach > 127:
        raise CapacityError(f"exponents up to {reach} overflow int8 rows")
    values = np.arange(1, top + 1, dtype=np.int8)[:, None]
    width = pattern.shape[1]
    rows = np.zeros((1, width), np.int8)
    for step in pattern:
        rows = (rows[:, None, :] + values * step).reshape(-1, width)
    return rows

