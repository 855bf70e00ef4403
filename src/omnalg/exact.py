"""Exact scalar arithmetic shared by the whole package.

Coefficients live in Q(i), represented as a pair of `fractions.Fraction`
values.  Index computations for the shift representations live in the
localized ring Z[1/m]; membership there is what decides whether a partial
isometry is defined at a basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

Scalar = Union[int, Fraction, "QQi"]


@dataclass(frozen=True)
class QQi:
    """A complex rational re + im*i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: Scalar) -> "QQi":
        if isinstance(value, QQi):
            return value
        return QQi(Fraction(value), Fraction(0))

    def __add__(self, other: Scalar) -> "QQi":
        o = QQi.of(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "QQi":
        o = QQi.of(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "QQi":
        return QQi.of(other) - self

    def __mul__(self, other: Scalar) -> "QQi":
        o = QQi.of(other)
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return frac_str(self.re)
        return f"{frac_str(self.re)}+{frac_str(self.im)}i"


QQI_ZERO = QQi()


def frac_str(x: Fraction) -> str:
    """Decimal-free serialization of a rational, always "p/q"."""
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer string) into a Fraction.

    Malformed text, including a zero denominator, raises ValueError.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        q = int(den)
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), q)
    return Fraction(int(text))


def bounded_power(base: int, exp: int, bound: int) -> Optional[int]:
    """base ** exp if that is at most bound, else None; base >= 1.

    The power is built one factor at a time and abandoned once it passes
    bound, so for base >= 2 at most bound.bit_length() + 1 factors are
    multiplied however large exp is, and no astronomic power is formed.
    """
    power = 1
    if base > 1:
        for _ in range(exp):
            power *= base
            if power > bound:
                return None
    return power if power <= bound else None


def in_localization(x: Fraction, m: int) -> bool:
    """True iff x lies in Z[1/m], i.e. its reduced denominator divides m^t."""
    den = x.denominator
    if m == 1:
        return den == 1
    while den > 1:
        g = gcd(den, m)
        if g == 1:
            return False
        den //= g
    return True


def localized_denominator_exponent(x: Fraction, m: int) -> int:
    """Least t with x * m^t integral; requires x in Z[1/m]."""
    if m == 1:
        if x.denominator != 1:
            raise ValueError(f"{x} is not in Z[1/1] = Z")
        return 0
    den = x.denominator
    t = 0
    while den > 1:
        g = gcd(den, m)
        if g == 1:
            raise ValueError(f"{x} is not in Z[1/{m}]")
        den //= g
        t += 1
    return t
