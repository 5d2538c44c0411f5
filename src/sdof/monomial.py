"""Exact exponent-vector algebra over named generators.

A monomial is a product of generator symbols (channel gains, auxiliary
constants) raised to integer powers.  Two monomials with different exponent
vectors are rationally independent almost surely when the generators are
drawn from continuous distributions (Cadambe & Jafar, IEEE Trans. IT 2008,
Lemma 1), so exact exponent equality is the alignment test of both
interference schemes: multiplying by a gain shifts the exponent vector, and
the shifted set must land inside the extended set.

`Monomial` is the one form of a gain product: a canonical zero-free map from
generator name to a Python int, so exponents have no width to overflow.  A
dimension set is a tuple of `Monomial` rows raised to the powers of an
integer box (see interference_sets).  Exponents are integers by
`operator.index`; anything else is refused, never truncated.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .errors import ParameterError


def _exponent(e) -> int:
    try:
        return operator.index(e)
    except TypeError:
        raise ParameterError(f"monomial exponents must be integers, got {e!r}") from None


def _summed(merged: dict[str, int], pairs) -> tuple[tuple[str, int], ...]:
    """The canonical pairs of merged plus pairs, repeated names summed."""
    for n, e in pairs:
        merged[n] = merged.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in merged.items() if e))


@dataclass(frozen=True)
class Monomial:
    """Canonical exponent vector: sorted (name, exponent) pairs, no zeros.
    The constructor sums repeated names and refuses non-integral exponents;
    products, powers and inverses are canonical already and skip that."""

    exponents: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = ((n, _exponent(e)) for n, e in self.exponents)
        object.__setattr__(self, "exponents", _summed({}, pairs))

    @staticmethod
    def _trusted(exponents: tuple[tuple[str, int], ...]) -> "Monomial":
        m = object.__new__(Monomial)
        object.__setattr__(m, "exponents", exponents)
        return m

    @staticmethod
    def from_dict(exponents: Mapping[str, int]) -> "Monomial":
        return Monomial(tuple(exponents.items()))

    @staticmethod
    def one() -> "Monomial":
        return Monomial._trusted(())

    @staticmethod
    def gen(name: str, power: int = 1) -> "Monomial":
        return Monomial(((name, power),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial._trusted(_summed(dict(self.exponents), other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inverse()

    def inverse(self) -> "Monomial":
        return Monomial._trusted(tuple((n, -e) for n, e in self.exponents))

    def __pow__(self, power: int) -> "Monomial":
        power = _exponent(power)
        if power == 0:
            return Monomial.one()
        return Monomial._trusted(tuple((n, e * power) for n, e in self.exponents))

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
