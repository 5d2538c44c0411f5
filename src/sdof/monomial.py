"""Exact monomial algebra over named generators.

A monomial is a product of generator symbols (channel gains, auxiliary
constants) raised to integer powers, stored as a canonical zero-free
exponent map.  Two monomials with different canonical maps are rationally
independent almost surely when the generators are drawn from continuous
distributions, so exact map equality is the alignment test used throughout
the fixed-gain schemes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


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

    def is_one(self) -> bool:
        return not self.exponents

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
