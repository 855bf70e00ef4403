"""Normal-form monomial calculus for the circle correspondence algebras.

The algebra A(m, n), for coprime integers m, n >= 1, is generated by a
unitary z and isometries S_1, ..., S_n subject to

    z S_i  = S_{i+1}         (1 <= i < n)
    z S_n  = S_1 z^m
    S_i* S_j = 0             (i != j)
    S_1 S_1* + ... + S_n S_n* = 1

Every element is a finite Q(i)-linear combination of monomials
S_mu z^k S_nu* where mu, nu are words in {1..n} and k is an integer.
Those monomials span the dense *-subalgebra but are not linearly
independent (the unit relation above is one dependency), so structural
equality of term dictionaries is weaker than equality in the algebra.
Use `Element.is_zero` for the latter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from .exact import (QQI_ZERO, QQi, Scalar, decimal_int, frac_str, int_str,
                    parse_frac)

Word = Tuple[int, ...]

# `Element.__mul__` refuses a product of more term pairs than this: each
# pair is one `mul_monomials` call.  At the limit, 512 x 512 random terms
# over (1, 2) (words of up to 3 letters, |k| <= 4) take about 0.55-1.0 s and
# 30 MB peak RSS in-process, and 724 x 724 about 2 s (Python 3.11.7,
# 2 cores, shared host)
PRODUCT_LIMIT = 1 << 18

# `push_exponent` refuses, at m > n, to form a z-exponent of more bits than
# this.  It bounds the work of a push: each letter divides and multiplies an
# exponent of at most this many bits plus those of m, so a push through L
# letters does L such steps.  Writing an exponent is bounded apart, by
# str()'s 4 300 digits (`exact.decimal_int`)
EXPONENT_BIT_LIMIT = 1 << 14


@dataclass(frozen=True)
class AlgebraParams:
    """Parameter pair (m, n) of the algebra; must be coprime positives."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("m and n must be integers")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m, n must be >= 1, got "
                             f"({int_str(self.m)}, {int_str(self.n)})")
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"m and n must be coprime, got "
                             f"({int_str(self.m)}, {int_str(self.n)})")

    def check_letter(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"isometry index {int_str(i)} outside "
                             f"1..{int_str(self.n)}")

    def check_word(self, word: Iterable[int]) -> Word:
        w = tuple(word)
        for i in w:
            self.check_letter(i)
        return w


class Monomial(NamedTuple):
    """A spanning monomial S_mu z^k S_nu*."""

    mu: Word
    k: int
    nu: Word

    def gauge_degree(self) -> int:
        return len(self.mu) - len(self.nu)


def all_words(n: int, length: int) -> Iterator[Word]:
    """All words of the given length over the letters 1..n."""
    return product(range(1, n + 1), repeat=length)


def push_exponent(params: AlgebraParams, k: int, word: Word) -> Tuple[Word, int]:
    """Commute z^k past S_word: z^k S_word = S_{word'} z^{k'}.

    Repeated use of z S_i = S_{i+1} and z S_n = S_1 z^m moves z^k past
    one letter j as z^k S_j = S_{j'} z^{k'} with, by floor division
    toward minus infinity,

        j' = ((j - 1 + k) mod n) + 1
        k' = m * ((j - 1 + k) // n)

    and the word is walked letter by letter.  A letter outside 1..n is
    refused.

    Since |floor((j - 1 + k)/n)| < |k|/n + 1, each letter gives
    |k'| < (m/n)|k| + m.  At m < n that keeps |k'| below max(|k|, m n),
    and at m = n = 1 it is k' = k: the exponent does not grow, and
    nothing is checked.  At m > n it grows by at most bits(m) bits a
    letter, so the exponent is checked after each letter, and a push that
    forms one of more than `EXPONENT_BIT_LIMIT` bits is refused there: no
    exponent wider than that, or than the input k, plus bits(m) bits is
    ever formed.
    """
    m, n = params.m, params.n
    grows = m > n
    out = []
    for j in word:
        if not 1 <= j <= n:
            raise ValueError(f"isometry index {int_str(j)} outside "
                             f"1..{int_str(n)}")
        k, r = divmod(j - 1 + k, n)
        out.append(r + 1)
        k *= m
        if grows and k.bit_length() > EXPONENT_BIT_LIMIT:
            raise ValueError(f"a push at m = {int_str(m)} > n = {int_str(n)} would "
                             f"form a z-exponent of {int_str(k.bit_length())} "
                             f"bits, more than the limit of {EXPONENT_BIT_LIMIT}")
    return tuple(out), k


def mul_monomials(params: AlgebraParams, a: Monomial, b: Monomial) -> Union[Monomial, None]:
    """Product of two spanning monomials, or None when it vanishes.

    S_nu* S_alpha is S_rest when nu is a prefix of alpha, S_rest* when
    alpha is a prefix of nu, and 0 otherwise; the surviving z-power is
    then pushed through the leftover word.
    """
    mu, k, nu = a
    alpha, l, beta = b
    la, lb = len(nu), len(alpha)
    if la <= lb:
        if nu != alpha[:la]:
            return None
        w, k2 = push_exponent(params, k, alpha[la:])
        return Monomial(mu + w, k2 + l, beta)
    if alpha != nu[:lb]:
        return None
    w, c = push_exponent(params, -l, nu[lb:])
    return Monomial(mu, k - c, beta + w)


def _merge(items: Iterable[Tuple[Monomial, QQi]], out: Optional[dict] = None) -> dict:
    """Sum (monomial, non-zero QQi) pairs into `out` (a new dict by default).

    A new key stores its coefficient as it is, and a sum that reaches zero
    is dropped, so every value left in `out` is non-zero.
    """
    if out is None:
        out = {}
    for mon, c in items:
        acc = out.get(mon)
        if acc is None:
            out[mon] = c
            continue
        acc = acc + c
        if acc.is_zero():
            del out[mon]
        else:
            out[mon] = acc
    return out


def _expand(params: AlgebraParams,
            terms: Iterable[Tuple[Monomial, QQi]]) -> Iterator[Tuple[Monomial, QQi]]:
    """Rewrite each term once by the unit relation sum_d S_d S_d* = 1.

    S_mu z^k S_nu* = sum over letters d of S_mu S_j z^k' S_(nu d)*, with
    z^k S_d = S_j z^k' as in `push_exponent`: for t = (d - 1) + k,
    j = t mod n + 1 and k' = m * floor(t / n).  Each child keeps the
    term's coefficient.  The letters d and j run over 1..n by
    construction, so no letter is checked.

    The children make up the refinement forest.  Since
    t = n k'/m + (j - 1), k' is a multiple of m and k = n k'/m + j - d,
    so a child (mu j, k', nu d) names its one parent,
    (mu, n k'/m + j - d, nu); a monomial whose mu or nu is empty, or
    whose k' is not a multiple of m, is a root.  Two facts follow:

    * the n children of one monomial are pairwise distinct, since each
      child's nu ends in a different letter d;
    * children of distinct monomials never meet, since a child names its
      one parent.

    So a monomial refined by the unit relation to any level is the sum of
    its descendants at that level, each with the monomial's coefficient,
    and two monomials' refinements are nested (one lies below the other)
    or disjoint.
    """
    m, n = params.m, params.n
    letters = [(d,) for d in range(1, n + 1)]
    for (mu, k, nu), c in terms:
        for t, d in enumerate(letters, k):
            q, r = divmod(t, n)
            yield Monomial(mu + letters[r], m * q, nu + d), c


class Element:
    """A finite Q(i)-linear combination of spanning monomials."""

    __slots__ = ("params", "_terms")

    def __init__(self, params: AlgebraParams,
                 terms: Union[dict, Iterable[Tuple[Monomial, Scalar]], None] = None):
        self.params = params
        items = (terms.items() if isinstance(terms, dict) else terms) or ()
        scalars = ((mon, QQi.of(coeff)) for mon, coeff in items)
        self._terms = _merge((mon, c) for mon, c in scalars if not c.is_zero())

    @classmethod
    def _merged(cls, params: AlgebraParams, terms: dict) -> "Element":
        """Wrap a dict that already maps monomials to nonzero QQi values."""
        out = cls.__new__(cls)
        out.params = params
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, params: AlgebraParams) -> "Element":
        return cls(params)

    @classmethod
    def unit(cls, params: AlgebraParams) -> "Element":
        return cls(params, {Monomial((), 0, ()): QQi.of(1)})

    @classmethod
    def isometry(cls, params: AlgebraParams, i: int) -> "Element":
        params.check_letter(i)
        return cls(params, {Monomial((i,), 0, ()): QQi.of(1)})

    @classmethod
    def unitary(cls, params: AlgebraParams, k: int) -> "Element":
        return cls(params, {Monomial((), k, ()): QQi.of(1)})

    @classmethod
    def monomial(cls, params: AlgebraParams, mu: Iterable[int], k: int,
                 nu: Iterable[int], coeff: Scalar = 1) -> "Element":
        return cls(params, {Monomial(params.check_word(mu), k,
                                     params.check_word(nu)): QQi.of(coeff)})

    # -- container views ----------------------------------------------

    def items(self) -> Iterator[Tuple[Monomial, QQi]]:
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        # structural: same merged term dictionaries, not algebra equality
        if not isinstance(other, Element):
            return NotImplemented
        return self.params == other.params and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "<0>"
        bits = []
        for mon in sorted(self._terms):
            c = self._terms[mon]
            s_mu = "".join(f"S{i}" for i in mon.mu) or ""
            s_nu = "".join(f"S{i}*" for i in reversed(mon.nu)) or ""
            z = f"z^{mon.k}" if mon.k else ""
            body = (s_mu + z + s_nu) or "1"
            bits.append(f"({c}){body}")
        return " + ".join(bits)

    # -- ring operations ----------------------------------------------

    def _require_same(self, other: "Element") -> None:
        if self.params is not other.params and self.params != other.params:
            raise ValueError("elements live over different (m, n) parameters")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element._merged(self.params, _merge(other._terms.items(), dict(self._terms)))

    def __neg__(self) -> "Element":
        return Element._merged(self.params, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        pairs = len(self._terms) * len(other._terms)
        if pairs > PRODUCT_LIMIT:
            raise ValueError(f"a product of {len(self._terms)} x "
                             f"{len(other._terms)} terms would form {pairs} "
                             f"term pairs, more than the limit of {PRODUCT_LIMIT}")
        params, right = self.params, other._terms.items()
        # the loop of `_merge`, inlined; a coefficient product is formed
        # only for a product that survives, and is nonzero as Q(i) is a field
        out: dict = {}
        for ma, ca in self._terms.items():
            for mb, cb in right:
                mon = mul_monomials(params, ma, mb)
                if mon is None:
                    continue
                acc = out.get(mon)
                if acc is None:
                    out[mon] = ca * cb
                    continue
                acc = acc + ca * cb
                if acc.is_zero():
                    del out[mon]
                else:
                    out[mon] = acc
        return Element._merged(params, out)

    def adjoint(self) -> "Element":
        return Element._merged(self.params, {Monomial(m.nu, -m.k, m.mu): c.conjugate()
                                             for m, c in self._terms.items()})

    # -- gauge structure ----------------------------------------------

    def gauge_expectation(self) -> "Element":
        """Conditional expectation onto the gauge-fixed subalgebra."""
        return Element._merged(self.params, {m: c for m, c in self._terms.items()
                                             if len(m.mu) == len(m.nu)})

    def canonical_endo(self) -> "Element":
        """The endomorphism x -> sum_i S_i x S_i*."""
        # lifting by S_i . S_i* is injective on (i, term), and the terms are
        # merged, so no two lifts share a monomial and nothing can merge
        return Element._merged(self.params, {
            Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu): c
            for mon, c in self._terms.items() for i in range(1, self.params.n + 1)})

    def kms_state(self) -> QQi:
        """The gauge-invariant state: S_mu z^k S_nu* -> [mu=nu][k=0] n^-|mu|."""
        total, n = QQI_ZERO, self.params.n
        for mon, c in self._terms.items():
            if mon.k == 0 and mon.mu == mon.nu:
                total = total + c._divided(n ** len(mon.mu))
        return total

    # -- zero testing ---------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test by refinement along the trie of annihilation words.

        A term S_mu z^k S_nu* is rewritten by sum_d S_d S_d* = 1 into the n
        terms S_mu S_d' z^k' S_(nu d)*, with z^k S_d = S_d' z^k' (`_expand`),
        only while nu is a proper prefix of another term's nu.  Terms are
        expanded one letter at a time, level by level in |nu|, and merged
        after each level.  The element is zero iff nothing survives.

        Why the verdict is exact:

        * After the trie refinement the surviving nu form a prefix-free
          set.  Refining them on to a common level puts their terms on
          disjoint annihilation words, so no cancellation can occur
          between terms with different nu.
        * Under one nu, distinct (mu, k) stay distinct under refinement,
          because children of distinct monomials never meet (`_expand`).
          They also act by distinct affine maps in the shift
          representation: after scaling by m^|mu| the offset of S_mu z^k
          is a base-n digit expansion whose digits, read mod n with m
          invertible because gcd(m, n) = 1, recover mu letter by letter
          and then k; a different |mu| changes the slope.
          `entropy.entropy_estimate` relies on the same fact: distinct
          monomials with nu of one length are linearly independent.  A basis
          label in the range of S_nu away from the finitely many points
          where two of these maps agree is annihilated by every other
          surviving nu and sent to distinct labels by the terms under nu,
          so a surviving term makes the element nonzero.
        * Conversely, an element whose refinement cancels is a sum of
          instances of the unit relation, hence zero.

        So the verdict is that of refining every term to the longest nu,
        each into all its descendants at that level, and testing for an
        empty sum; but nothing is padded to the longest nu: the work is
        bounded by terms x n x (trie nodes) instead of n^level.
        """
        if self.params.n == 1:
            raise ValueError(
                "zero test requires n >= 2: the shift representation used "
                "for separation is not guaranteed faithful when n = 1")
        # the words extending nu follow nu at once in lexicographic order,
        # so nu is a proper prefix of another term's nu iff the first
        # word after it starts with nu; no prefix set is built
        nus = sorted({mon.nu for mon in self._terms})

        def internal(nu: Word) -> bool:
            i = bisect_right(nus, nu)
            return i < len(nus) and nus[i][:len(nu)] == nu

        levels: dict = {}
        for mon, c in self._terms.items():
            levels.setdefault(len(mon.nu), {})[mon] = c
        for level in range(max(levels, default=-1) + 1):
            here = levels.get(level, {})
            # every term at this level is merged and no later level
            # reaches it, so a leaf that is still here survives
            if not all(internal(mon.nu) for mon in here):
                return False
            _merge(_expand(self.params, here.items()), levels.setdefault(level + 1, {}))
        return True

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list:
        out = []
        for mon in sorted(self._terms):
            c = self._terms[mon]
            out.append({"mu": list(mon.mu), "k": decimal_int(mon.k),
                        "nu": list(mon.nu),
                        "re": frac_str(c.re), "im": frac_str(c.im)})
        return out

    @classmethod
    def from_json_obj(cls, params: AlgebraParams, obj: list) -> "Element":
        """Read the term list `to_json_obj` writes; ValueError if malformed.

        Each term is checked by `monomial_from_json_obj`; "re" and "im",
        when present, must be "p/q" strings, and omitted ones mean the
        bare monomial.
        """
        if not isinstance(obj, list):
            raise ValueError("element JSON must be an array of terms")
        return cls(params, [(monomial_from_json_obj(params, rec),
                             QQi(_coefficient_part(rec, "re", "1"),
                                 _coefficient_part(rec, "im", "0")))
                            for rec in obj])


def monomial_from_json_obj(params: AlgebraParams, rec) -> Monomial:
    """The monomial of one term {"mu": [..], "k": int, "nu": [..]}.

    Strict, so that no malformed value is coerced: "k" must be a JSON
    integer (not a boolean, float or string) and each word a list of
    integer letters in 1..n.  Every malformed record raises ValueError.
    """
    if not isinstance(rec, dict) or not {"mu", "k", "nu"} <= rec.keys():
        raise ValueError('a term must be an object with keys "mu", "k" and "nu"')
    k = rec["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f'"k" must be an integer, not {type(k).__name__}')
    return Monomial(_word_from_json(params, rec, "mu"), k,
                    _word_from_json(params, rec, "nu"))


def _word_from_json(params: AlgebraParams, rec: dict, key: str) -> Word:
    word = rec[key]
    if not (isinstance(word, list) and all(
            isinstance(i, int) and not isinstance(i, bool) for i in word)):
        raise ValueError(f'"{key}" must be a list of integers')
    return params.check_word(word)


def _coefficient_part(rec: dict, key: str, default: str) -> Fraction:
    text = rec.get(key, default)
    if not isinstance(text, str):
        raise ValueError(f'"{key}" must be a string "p/q", not {type(text).__name__}')
    return parse_frac(text)
