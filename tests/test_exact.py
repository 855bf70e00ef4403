"""Exact scalars: Q(i) in integer form, "p/q" parsing and Z[1/m] helpers."""

import math
import random
from fractions import Fraction as F

import pytest

from omnalg.exact import (QQI_ZERO, QQi, bounded_power, frac_str,
                          in_localization, parse_frac, reduce_exponent)


class Pair:
    """Reference Q(i): a (re, im) pair of Fractions, the textbook way."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Pair) else Pair(x)

    def __add__(self, other):
        o = Pair.of(other)
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = Pair.of(other)
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = Pair.of(other)
        return Pair(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self):
        return Pair(-self.re, -self.im)

    def conjugate(self):
        return Pair(self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return frac_str(self.re)
        return f"{frac_str(self.re)}+{frac_str(self.im)}i"


def random_part(rng):
    """An int or a Fraction, often with a non-trivial denominator."""
    p = rng.randint(-12, 12)
    if rng.random() < 0.25:
        return p
    return F(p, rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))


def assert_normal(z):
    a, b, d = z.gaussian()
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1


def assert_same(z, ref):
    assert_normal(z)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert type(z.re) is F and type(z.im) is F
    assert z.is_zero() == (ref.re == 0 and ref.im == 0)
    assert str(z) == str(ref)
    assert z == QQi(ref.re, ref.im)


def test_ring_operations_match_fraction_pairs():
    rng = random.Random(20081)
    for _ in range(1000):
        xr, xi, yr, yi = (random_part(rng) for _ in range(4))
        x, y = QQi(xr, xi), QQi(yr, yi)
        rx, ry = Pair(xr, xi), Pair(yr, yi)
        assert_same(x, rx)
        assert_same(x + y, rx + ry)
        assert_same(x + (-y), rx - ry)
        assert_same(x * y, rx * ry)
        assert_same(-x, -rx)
        assert_same(x.conjugate(), rx.conjugate())
        # a product also takes an int or a Fraction on the right
        s = random_part(rng)
        assert_same(x * s, rx * s)
        assert (x == y) == ((rx.re, rx.im) == (ry.re, ry.im))
        # cancellation to zero lands on the one zero triple
        for zero in (x + (-x), x * 0, x * QQI_ZERO, x + -QQi(xr, xi)):
            assert zero.gaussian() == (0, 0, 1)
            assert zero == QQI_ZERO
            assert zero.is_zero() and str(zero) == "0/1"


def test_real_parts_that_cancel_leave_a_reduced_denominator():
    # 1/6 + 1/3 = 1/2 and 5/6 - 1/3 = 1/2, so the sum is (1 + i)/2
    z = QQi(F(1, 6), F(5, 6)) + QQi(F(1, 3), F(-1, 3))
    assert z.gaussian() == (1, 1, 2)
    assert str(z) == "1/2+1/2i"
    assert (QQi(F(1, 2), 1) * QQi(F(1, 2), -1)).gaussian() == (5, 0, 4)


def test_constructor_reads_ints_fractions_and_other_rationals():
    assert QQi().gaussian() == (0, 0, 1) and QQi() == QQI_ZERO
    assert QQi(3).gaussian() == (3, 0, 1)
    assert QQi(F(2, 4), F(-3, 6)).gaussian() == (1, -1, 2)
    assert QQi(F(1, 6), F(1, 4)).gaussian() == (2, 3, 12)
    assert QQi(re=F(1, 3), im=2) == QQi(F(1, 3), F(2))
    assert repr(QQi(F(1, 2), 3)) == "QQi(re=Fraction(1, 2), im=Fraction(3, 1))"


def test_equality_holds_only_between_qqi_values():
    assert QQi(1) != 1
    assert QQi(F(1, 2)) != F(1, 2)
    assert QQi.of(1) == QQi(1)
    assert QQi.of(F(2, 6)) == QQi(F(1, 3), 0)
    z = QQi(2, 3)
    assert QQi.of(z) is z


def test_values_are_immutable():
    z = QQi(F(1, 2), 3)
    for attr in ("re", "im", "anything"):
        with pytest.raises(AttributeError):
            setattr(z, attr, F(1))
    assert z.gaussian() == (1, 6, 2)


def test_ring_operations_build_no_fraction(monkeypatch):
    x, y = QQi(F(1, 6), F(-5, 4)), QQi(F(7, 3), F(2, 9))
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    for _ in range(3):
        x = x * y + x + (-y)
        x = -x.conjugate()
        y = y * 2 + QQi(1)
        assert not x.is_zero()
        assert not x._divided(3).is_zero()
    assert built == []


def test_parse_frac():
    assert parse_frac("2/4") == F(1, 2)
    assert parse_frac(" -3/6 ") == F(-1, 2)
    assert parse_frac("3/-6") == F(-1, 2)
    assert parse_frac("7") == F(7)
    for bad in ("1/0", "x", "1/", "/2", "1.5/2", ""):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_bounded_power():
    assert bounded_power(3, 4, 81) == 81
    assert bounded_power(3, 4, 80) is None
    assert bounded_power(2, 0, 1) == 1
    assert bounded_power(1, 10 ** 12, 1) == 1
    assert bounded_power(2, 10 ** 12, 10 ** 6) is None


def test_localization_membership():
    assert in_localization(F(5, 12), 6)
    assert in_localization(F(3, 8), 2)
    assert not in_localization(F(1, 5), 6)
    assert in_localization(F(7), 1) and not in_localization(F(1, 2), 1)
    # x = a/b in lowest terms lies in Z[1/m] iff b | m^t for some t, and
    # t = b suffices: no prime divides b more than log2(b) < b times
    for m in range(1, 13):
        for b in range(1, 201):
            for a in (1, -1, b + 1, 2 * b - 1):
                assert in_localization(F(a, b), m) == (m ** b % b == 0)


def test_reduce_exponent():
    assert reduce_exponent(6, 2) == 3
    assert reduce_exponent(12, 2) == 3
    assert reduce_exponent(9, 3) == 1
    assert reduce_exponent(5, 3) == 5
    # the largest divisor of k coprime to d, by brute force
    for k in range(1, 301):
        for d in range(1, 31):
            expect = max(t for t in range(1, k + 1)
                         if k % t == 0 and math.gcd(t, d) == 1)
            assert reduce_exponent(k, d) == expect
