"""Answers the benchmark knows without asking omnalg.

Inputs here are plain tuples ``(mu, k, nu)`` with Fraction pairs as
coefficients, so a wrong answer from the program cannot leak into the
expected answer it is checked against.  Everything follows from the
defining relations

    z S_i = S_{i+1} (i < n),   z S_n = S_1 z^m,   S_i* S_j = delta_ij,
    S_1 S_1* + ... + S_n S_n* = 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd


def push(m: int, n: int, k: int, word: tuple) -> tuple:
    """z^k S_word = S_word' z^k'; returns (word', k')."""
    out = []
    for j in word:
        t = j - 1 + k
        out.append(t % n + 1)
        k = m * (t // n)
    return tuple(out), k


def mul_monomials(m: int, n: int, a: tuple, b: tuple):
    """(S_mu z^k S_nu*)(S_mu' z^k' S_nu'*) as a monomial, or None if 0."""
    mu_a, k_a, nu_a = a
    mu_b, k_b, nu_b = b
    if len(nu_a) <= len(mu_b):
        if mu_b[:len(nu_a)] != nu_a:
            return None
        w, k2 = push(m, n, k_a, mu_b[len(nu_a):])
        return (mu_a + w, k2 + k_b, nu_b)
    if nu_a[:len(mu_b)] != mu_b:
        return None
    w, c = push(m, n, -k_b, nu_a[len(mu_b):])
    return (mu_a, k_a - c, nu_b + w)


def chain_zero(rng, m: int, n: int, start: tuple, coeff: tuple,
               depth: int) -> list:
    """Terms of S_mu z^k S_nu* minus its expansion along one random branch.

    Applying sum_d S_d S_d* = 1 once rewrites a monomial as n monomials
    with one more annihilation letter; repeating on one of them ``depth``
    times gives (n - 1) * depth + 1 terms whose sum equals the start.
    The returned list (start, then every expansion term negated) sums to
    zero in the algebra, with |nu| running from |nu_start| to
    |nu_start| + depth inside one element.
    """
    re, im = coeff
    neg = (-re, -im)
    terms = [(start, coeff)]
    mu, k, nu = start
    for _ in range(depth):
        branch = rng.randint(1, n)
        nxt = None
        for d in range(1, n + 1):
            w, k2 = push(m, n, k, (d,))
            mon = (mu + w, k2, nu + (d,))
            if d == branch:
                nxt = mon
            else:
                terms.append((mon, neg))
        mu, k, nu = nxt
    terms.append(((mu, k, nu), neg))
    return terms


def merge(terms) -> dict:
    """Sum equal monomials; drop the ones that cancel."""
    out: dict = {}
    for mon, (re, im) in terms:
        acc = out.get(mon, (Fraction(0), Fraction(0)))
        acc = (acc[0] + re, acc[1] + im)
        if acc == (0, 0):
            out.pop(mon, None)
        else:
            out[mon] = acc
    return out


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def qqi_str(re: Fraction, im: Fraction) -> str:
    return frac(re) if im == 0 else f"{frac(re)}+{frac(im)}i"


def terms_json(merged: dict) -> str:
    """The CLI's compact term-list rendering of a merged element."""
    rows = [{"mu": list(mon[0]), "k": mon[1], "nu": list(mon[2]),
             "re": frac(merged[mon][0]), "im": frac(merged[mon][1])}
            for mon in sorted(merged)]
    return json.dumps(rows, separators=(",", ":"))


def terms_input(terms) -> list:
    """Element JSON as the CLI reads it from stdin."""
    return [{"mu": list(mon[0]), "k": mon[1], "nu": list(mon[2]),
             "re": frac(re), "im": frac(im)} for mon, (re, im) in terms]


def kms_value(n: int, merged: dict) -> tuple:
    """S_mu z^k S_nu* -> [mu = nu][k = 0] n^-|mu|, extended linearly."""
    re, im = Fraction(0), Fraction(0)
    for (mu, k, nu), (cr, ci) in merged.items():
        if k == 0 and mu == nu:
            w = Fraction(1, n ** len(mu))
            re, im = re + cr * w, im + ci * w
    return re, im


def mobius(x: int) -> int:
    out, p = 1, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return -out if x > 1 else out


def exact_period_count(m: int, k: int) -> int:
    """Points of the m-adic solenoid with exact period k (at least 1)."""
    total = sum(mobius(k // d) * (m ** d - 1)
                for d in range(1, k + 1) if k % d == 0)
    return max(total, 1)


def cyclic_torsion(order: int) -> list:
    """Invariant factors of Z_order: [order], or [] for the trivial group."""
    return [order] if order > 1 else []


def strip_shared(k: int, n: int) -> int:
    """Remove from k every prime it shares with n."""
    g = gcd(k, n)
    while g > 1:
        k //= g
        g = gcd(k, n)
    return k
