"""Exact scalar arithmetic shared by the whole package.

Coefficients live in Q(i).  A `QQi` holds three ints (a, b, d) and stands
for (a + b*i)/d, with d > 0 and gcd(a, b, d) = 1; zero is (0, 0, 1).
The ring operations work on those ints alone and build no `Fraction`.
Index computations for the shift representations live in the localized
ring Z[1/m]; membership there is what decides whether a partial isometry
is defined at a basis vector.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

Scalar = Union[int, Fraction, "QQi"]

_new = object.__new__


class QQi:
    """A complex rational re + im*i, stored as (a + b*i)/d in ints.

    The form is unique: d > 0 fixes the sign, and with gcd(a, b, d) = 1
    two triples for the same number, (a, b, d) and (a', b', d'), satisfy
    a*d' = a'*d and b*d' = b'*d, so d divides a*d', b*d' and d*d', hence
    their gcd d'*gcd(a, b, d) = d'; d' divides d likewise, so d = d',
    a = a' and b = b'.  So `==` compares the ints, and holds only between
    `QQi` values: `QQi(1) != 1`.  `re` = a/d and `im` = b/d are read-only
    `Fraction` properties, built on each read; `gaussian()` gives the
    ints.  As in `Fraction`, the private slots are not for callers.
    `+` takes another `QQi` only; `*` also takes an int or a `Fraction`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Union[int, Fraction] = 0,
                 im: Union[int, Fraction] = 0) -> None:
        # ints and Fractions are already in lowest terms with a positive
        # denominator; any other part, a float say, has no denominator
        p, q = re.denominator, im.denominator
        if p == q:
            self._a, self._b, self._d = re.numerator, im.numerator, p
        else:
            # d = lcm(p, q): a prime r of d divides p or q to its full
            # power in d, say p; then r divides neither d/p nor the
            # numerator of re (coprime to p), so not a; so gcd(a, b, d) = 1
            d = p // gcd(p, q) * q
            self._a, self._b, self._d = (re.numerator * (d // p),
                                         im.numerator * (d // q), d)

    @staticmethod
    def of(value: Scalar) -> "QQi":
        if isinstance(value, QQi):
            return value
        return QQi(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def gaussian(self) -> Tuple[int, int, int]:
        """(a, b, d) with self = (a + b*i)/d, d > 0, gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

    def __add__(self, other: "QQi") -> "QQi":
        try:
            d, e = self._d, other._d
        except AttributeError:
            return NotImplemented
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d,
                        self._b * e + other._b * d, d * e)

    def __mul__(self, other: Scalar) -> "QQi":
        if not isinstance(other, QQi):
            other = QQi(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def _divided(self, k: int) -> "QQi":
        """self / k for an int k >= 1: only d is multiplied."""
        return _reduced(self._a, self._b, self._d * k)

    def __neg__(self) -> "QQi":
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> "QQi":
        return _triple(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QQi):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __repr__(self) -> str:
        return f"QQi(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return frac_str(self.re)
        return f"{frac_str(self.re)}+{frac_str(self.im)}i"


def _triple(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d of a triple already in normal form."""
    z = _new(QQi)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    # the body of _triple, repeated: a call here costs about 10 % of a
    # product or sum
    z = _new(QQi)
    z._a = a
    z._b = b
    z._d = d
    return z


QQI_ZERO = QQi()


# Python 3.10 before 3.10.7 has no limit on str() of an int
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def frac_str(x: Fraction) -> str:
    """Decimal-free serialization of a rational, always "p/q".

    str() refuses an int of more decimal digits than
    sys.get_int_max_str_digits() allows, 4 300 by default, with a message
    about Python's own setting.  Every rational the package prints is
    written here, so a numerator or denominator past that limit is refused
    here first, in one short ValueError that names it by `int_str`.
    """
    p, q = x.numerator, x.denominator
    limit = _max_str_digits()
    if limit and (_has_more_digits(p, limit) or _has_more_digits(q, limit)):
        raise ValueError(f"the rational {int_str(p)}/{int_str(q)} has a "
                         f"numerator or denominator of more than {limit} "
                         f"digits, too long to write in decimal")
    return f"{p}/{q}"


def _has_more_digits(x: int, limit: int) -> bool:
    """True iff |x| has more than ``limit`` decimal digits, i.e. |x| >= 10^limit.

    An int of at most 3 * limit bits is below 8^limit, so it is not
    compared with the power at all.
    """
    return x.bit_length() > 3 * limit and abs(x) >= 10 ** limit


def int_str(x: int) -> str:
    """x in decimal, or by its bit length past 256 bits.

    A refusal names the sizes it weighs, and a huge m or n makes them long:
    str() refuses an int past 4 300 digits, and a shorter one would still
    fill the error line.
    """
    if x.bit_length() <= 256:
        return str(x)
    return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"


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


def reduce_exponent(k: int, d: int) -> int:
    """k >= 1 stripped of every prime it shares with d.

    That is the largest divisor of k coprime to d: each round divides k
    by g = gcd(k, d) > 1, so the loop ends; at the end no prime of d
    divides k, and only primes of d were removed.
    """
    while (g := gcd(k, d)) > 1:
        k //= g
    return k


def in_localization(x: Fraction, m: int) -> bool:
    """True iff x lies in Z[1/m], i.e. its reduced denominator divides m^t.

    That holds iff every prime of the denominator divides m, i.e. iff
    stripping the primes it shares with m leaves 1.
    """
    return reduce_exponent(x.denominator, m) == 1
