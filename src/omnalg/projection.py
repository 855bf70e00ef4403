"""The distinguished projection in the (1, 2) circle-correspondence algebra.

The construction lives over m = 1, n = 2: two generating isometries, the
doubling endomorphism phi(f) = f(2t), and a 2x2 matrix P built from bump
functions a_0, b_0 and off-diagonal square roots a_1, b_1.  Two
independent verifications are provided.  The exact path checks the
sufficient piecewise-polynomial identities that force P^2 = P, entirely
in rational arithmetic.  The numeric path assembles P, squares it with
the operator rewriting rules, and samples the residual kernel on a
uniform grid; the square roots prevent this path from being exact, which
is why it works with float sample tables rather than polynomial pieces.
Every point it touches is dyadic, so each function is sampled on a
power-of-two lattice in one sweep, and dilation and contraction become
index arithmetic on those tables.

The sampler folds constants and skips multiplying by the constant 1
(see the numeric engine below), and these shortcuts leave every float it
reports unchanged.  For finite x, x*(1+0j) = x, x*(1-0j) = x (the
conjugated constant 1) and (-1+0j)*x = -x hold exactly except, perhaps,
for the sign of a zero component; and a product of two constants is the
same float operation whether it is made once when a node is built or
once per table entry.  A zero of either sign adds, multiplies and
conjugates to a zero, so every component of every table and bucket
equals the unfolded one or both are zeros: no magnitude, no sum of
nonzero terms and no `abs` moves.  Strided slices read the very entries
that index arithmetic read.  The terms are still summed into each
bucket in the same order, since a reordered sum may round differently,
and the exact self_adjoint_defect == 0.0 of `assemble_and_square` rests
on that order.  Most addends are exact zeros, and the sampler skips them
on the same grounds: leaving out a zero can turn only the sign of a zero
component; so along each line it reads only the runs of entries where a
term's left table is nonzero.

`assemble_and_square` plans, then samples: before its 12 samplings it
records the largest size at which each table can be read, and each is
built once, at that size, when first read; a coarser read is a stride of
it, the same floats.  By the same rule each residual element is swept
once, at twice the grid, and its sup at the grid is that of the kernel's
even entries.  A bucket is keyed by the integers (2^a, 2^b, j) of
its line x = (2^a t + j)/2^b over their gcd: two such triples name one
line exactly when one is a power of two times the other, so this is the
line's one reduced triple.

The printed form of b_0 in the source material is internally
inconsistent; ``build_canonical_data`` returns the unique
piecewise-linear completion that satisfies every verification identity
below together with the published trace 7/16 and K-theory class -4.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import frac_str, int_str
from .functions import (PiecewiseFunction, dilate, integrate, negative_point,
                        winding)

PUBLISHED_TRACE = Fraction(7, 16)
PUBLISHED_K0_CLASS = -4
DEFAULT_GRID = 4096
# verify samples on lattices of up to 16 times the grid; at this limit it
# takes about 1.2 to 1.3 s and 71 MB peak RSS, and at the default grid
# 4096 about 0.40 to 0.44 s and 31 MB (`omnalg rieffel verify` in a fresh
# interpreter, three runs each, Python 3.11.7, 2 cores, shared host)
GRID_LIMIT = 1 << 14

# -- exact data and conditions -------------------------------------------


@dataclass(frozen=True)
class ProjectionData:
    a0: PiecewiseFunction
    b0: PiecewiseFunction
    a1sq: PiecewiseFunction
    b1sq: PiecewiseFunction
    delta1: PiecewiseFunction
    delta2: PiecewiseFunction


@functools.cache
def build_canonical_data() -> ProjectionData:
    """Canonical bump data: a_0 as printed, b_0 reconstructed.

    Built once per process and shared by every caller.  That is safe
    because the result is a frozen `ProjectionData` whose fields are
    immutable `PiecewiseFunction`s.
    """
    F = Fraction
    a0 = PiecewiseFunction.from_segments([
        (F(1, 2), F(3, 4), (F(-2), F(4))),
        (F(3, 4), F(7, 8), (F(7), F(-8))),
    ])
    b0 = PiecewiseFunction.from_segments([
        (F(0), F(1, 4), (F(1),)),
        (F(1, 4), F(3, 8), (F(3), F(-8))),
        (F(1, 2), F(3, 4), (F(-2), F(4))),
        (F(3, 4), F(1), (F(1),)),
    ])
    delta1 = PiecewiseFunction.indicator(F(3, 4), F(7, 8))
    delta2 = PiecewiseFunction.indicator(F(1, 4), F(3, 8))
    a1sq = (dilate(a0, 2) - dilate(a0 * a0, 2)) * delta1
    b1sq = (dilate(b0, 2) - dilate(b0 * b0, 2)) * delta2
    return ProjectionData(a0, b0, a1sq, b1sq, delta1, delta2)


def _first_nonzero_point(f: PiecewiseFunction) -> Fraction:
    """A point where f, which is not zero, does not vanish.

    The first nonzero piece, of degree d, has at most d roots, so one of
    its d + 1 points lo + (hi - lo) j/(d + 1) is not a root.
    """
    for (lo, hi), piece in zip(f.piece_bounds(), f.pieces):
        for j in range(len(piece)):
            t = lo + (hi - lo) * Fraction(j, len(piece))
            if f.evaluate(t) != 0:
                return t
    raise ValueError("the zero function has no nonzero point")


def check_conditions(data: ProjectionData) -> dict:
    """Exact verification of the identities that make P a projection.

    Identities involving the bare square roots are checked at the squared
    level, which is equivalent for nonnegative data.  Each entry reports
    pass/fail plus a witness point for the first failure; a zero identity
    is decided by the exact `is_zero` of its difference, and nonnegativity
    by `negative_point`, exact for pieces of any degree.
    """
    d = data
    phi_a0 = dilate(d.a0, 2)
    phi_b0 = dilate(d.b0, 2)
    phi_a1sq = dilate(d.a1sq, 2)
    phi_b1sq = dilate(d.b1sq, 2)
    one = PiecewiseFunction.one()
    a_gap = d.a0 + phi_a0 - one
    b_gap = d.b0 + phi_b0 - one
    zero_checks: Dict[str, PiecewiseFunction] = {
        "a_split": phi_a0 - dilate(d.a0 * d.a0, 2)
                   - (d.a1sq + d.b1sq + phi_a1sq),
        "b_split": phi_b0 - dilate(d.b0 * d.b0, 2)
                   - (d.a1sq + d.b1sq + phi_b1sq),
        "a_unit_on_support": d.a1sq * (a_gap * a_gap),
        "b_unit_on_support": d.b1sq * (b_gap * b_gap),
        "a_shift_orth_a": d.a1sq * phi_a1sq,
        "a_shift_orth_b": d.a1sq * phi_b1sq,
        "b_shift_orth_a": d.b1sq * phi_a1sq,
        "b_shift_orth_b": d.b1sq * phi_b1sq,
        "cross_disjoint": d.a1sq * d.b1sq,
        "a_partition": (d.a0 + phi_b0 - one) * d.delta1,
        "b_partition": (phi_a0 + d.b0 - one) * d.delta2,
    }
    identities: Dict[str, dict] = {}
    for name, diff in zero_checks.items():
        point = None if diff.is_zero else _first_nonzero_point(diff)
        identities[name] = {"pass": point is None,
                            "first_failure": None if point is None else str(point)}
    for name, f in (("a_sq_nonneg", d.a1sq), ("b_sq_nonneg", d.b1sq)):
        point = negative_point(f)
        identities[name] = {"pass": point is None,
                            "first_failure": None if point is None else str(point)}
    return {"identities": identities,
            "pass": all(entry["pass"] for entry in identities.values())}


def kms_trace(data: ProjectionData) -> Fraction:
    """Value of the canonical trace-like state on P: (int a_0 + int b_0)/2.

    The off-diagonal terms carry gauge degree +-1 and die under the state;
    the dilated diagonal entries integrate like their originals.
    """
    return (integrate(data.a0) + integrate(data.b0)) / 2


def k0_class(data: ProjectionData) -> int:
    """K_0-class of P via the boundary map to winding numbers."""
    return (winding(dilate(data.a0 * data.delta1, 2))
            + winding(dilate(data.b0 * data.delta2, 2)))


# -- numeric engine --------------------------------------------------------
#
# Every point the engine touches is dyadic: the grid i/G, dilation by 2^a,
# and contraction to t/2 and (t+1)/2.  So a function is never evaluated at
# one point.  ``_sample(fn, size, phases)`` returns its values at k/size
# for every k < size, with size a power of two.  Dilation by d reads index
# (d*k) mod size of the child's table, and contraction reads indices k and
# k + size of the child's table of twice the size.  Every value comes from
# the same float operations, in the same order, as evaluating the node's
# formula at the float k/size, and those points are exact.  So a table
# does not depend on the path by which its points were reached.
#
# Constants fold when a node is built: a product of two constants, or a
# dilated or conjugated constant, is a constant, and a product with the
# constant 1 is its other factor.  So no table of a constant is built to
# be multiplied in, and a term whose right side is the constant 1 skips
# that multiply.  Since d and size are powers of two, index
# (start + d*k) mod size runs through a strided slice of the table, then
# round the residue class of start mod d, repeated.  So `_strided` serves
# dilation, the coarser reads of a finer table and the reads of
# `_add_term` along a term's affine line, and builds no list of indices.
# A leaf, or a dilation of one, is read straight from the leaf's table
# (`_lattice`), so no table of a dilated leaf is built.
#
# Most addends are exact zeros: a_0, b_0 and the square roots live on
# intervals of width 1/8 to 1/2.  So `PiecewiseFunction.evaluate_lattice`
# writes 0.0 for a zero piece, and `_add_term` forms a term's head and its
# addends only on the runs of indices where its left table is nonzero,
# reading just those entries of the phase and right tables along each
# line; a term whose left table is zero throughout reads no right or
# phase table and makes no bucket.  That is exact for the reason constant
# folding is.  Every table entry is finite, so where the left entry is a
# zero of either sign, the head and every addend along every line are
# zeros, and adding a zero to s gives s, except that it may turn the sign
# of a zero component.  Neither `abs`, the sup nor the buckets' `==` can
# see that sign, and the terms that are summed keep their order.  A bucket
# that only such terms would have named holds zeros, and its sup of 0.0
# cannot raise the maximum of sups that are all >= 0, which is 0.0 when
# there are none.  The phase of S_nu^adj that `_add_term` multiplies in is
# the conjugate of S_nu's, taken of each entry it reads: conjugation is
# exact, so that is the float a conjugated table would hold.
#
# Every table the engine keeps, a leaf's or a phase, word-phase or
# line-key table, depends on its key and size alone; a leaf's key is its
# node.  So the 12 `sample_element` calls of one `assemble_and_square`
# share one memo of them (``_SHARED_TABLES``, set for that call and reset
# when it returns); any other call makes its own.  No table outlives one
# verification.  The memo keeps one table of each key, read at any size
# that divides its length: k/size is the same float as (k*r)/(size*r), so
# a coarser table is a stride of it, the very floats building it anew
# would give.
#
# Plan, then sample.  Before any sampling, `_plan` walks the terms of every
# (element, grid) pair that will be sampled and records the largest size
# at which each key can be read: a term's left side and mu-phase at the
# grid, its right side and nu-phase at grid*2^|nu|, a contract node's
# child and phase at twice its own size, and the base phase exp(2 pi i t)
# at the size of each word table that has a letter 2.  A table is built
# when it is first read, at once at that largest size, and every later
# read is a stride of it.  So each key, leaves included, is built at most
# once per memo, and a key that no term reads, such as the mu-phase of a
# term whose left table is zero throughout, is never built.  The plan
# decides only when a table is built, never what it holds.
#
# The plan also records the grids each element is sampled at, under
# ("grids", elem).  `sample_element` sweeps an element once per memo, at
# the largest of them, G' say, and keeps under ("sup", elem, g) the sup at
# each planned grid g: the sup of every bucket's stride G'/g, which a
# later sampling at g returns.  That is the very float a sweep at g would
# give, as for G' = 2G and g = G: entry 2i of a line at 2G reads every
# table at (2i)/(2G), the float i/G, which entry i at G reads, and
# `_nonzero_runs` decides entry by entry whether a term adds there, so
# entry 2i gets the same addends, in the same order, as entry i at G.  A
# bucket that only the sweep at 2G makes holds zeros at its even entries,
# and its 0.0 cannot raise a maximum of sups that are all >= 0.  Only the
# sign of a zero may differ, and neither `abs` nor `max` sees it.  The
# memo keeps one float per (element, grid) and no kernel.
#
# A bucket is keyed by the integers (2^a, 2^b, j) of its line
# x = (2^a t + j)/2^b, divided by their gcd.  The triples (A, B, j) and
# (A', B', j') name the same line, that is A/B = A'/B' and j/B = j'/B'
# with j < B, exactly when one is 2^c times the other, since A, B, A' and
# B' are powers of two.  The gcd, a power of two, maps each triple to the
# one proportional triple whose entries have no common factor, so lines of
# different (|mu|, |nu|) meet in one bucket, as they did when keyed by
# the pair of fractions (A/B, j/B).


class _Fn:
    """Function on the circle as an expression tree, sampled on a lattice.

    ``kind`` is one of const, exact, sqrt, mul, conj, dilate, contract.
    The node builders fold constants (see the numeric engine above), so a
    const node is never the child of a conj or dilate node, and a mul node
    has at most one const factor, never the constant 1.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, *args):
        self.kind = kind
        self.args = args

    @classmethod
    def const(cls, c) -> "_Fn":
        return cls("const", complex(c))

    @classmethod
    def from_exact(cls, pw: PiecewiseFunction) -> "_Fn":
        return cls("exact", pw)

    @classmethod
    def sqrt_of(cls, pw: PiecewiseFunction) -> "_Fn":
        return cls("sqrt", pw)

    def is_one(self) -> bool:
        return self.kind == "const" and self.args[0] == 1

    def __mul__(self, other: "_Fn") -> "_Fn":
        if self.kind == "const" and other.kind == "const":
            return _Fn.const(self.args[0] * other.args[0])
        if other.is_one():
            return self
        if self.is_one():
            return other
        return _Fn("mul", self, other)

    def conjugate(self) -> "_Fn":
        if self.kind == "const":
            return _Fn.const(self.args[0].conjugate())
        return _Fn("conj", self)

    def dilated(self, d: int) -> "_Fn":
        return self if d == 1 or self.kind == "const" else _Fn("dilate", self, d)


def _strided(table: List[complex], start: int, step: int, count: int) -> List[complex]:
    """table[(start + step*i) % len(table)] for i < count.

    len(table) is a power of two and step is 0 or a power of two, so the
    reads run along one slice to the end of the table and then wrap round
    the residue class of start mod step, repeated.
    """
    n = len(table)
    start, step = start % n, step % n
    if not step:
        return [table[start]] * count
    run = table[start:start + step * count:step]
    if len(run) < count:
        cycle = table[start % step::step]
        more = count - len(run)
        run += cycle * (more // len(cycle)) + cycle[:more % len(cycle)]
    return run


# the shared memo of the numeric engine above
_SHARED_TABLES: ContextVar[Optional[dict]] = ContextVar("_SHARED_TABLES",
                                                        default=None)


def _finest(phases: dict, key, size: int, build) -> list:
    """The table under ``key``, memoised in ``phases``, for reads at ``size``.

    Its length is a multiple r of size, and the reads at size are its
    stride r: the points k/size are the same floats as (k*r)/(size*r), the
    very floats ``build(size)`` would make.  A missing or coarser table is
    built at the size `_plan` recorded for the key, if that is larger.
    """
    table = phases.get(key)
    if table is None or len(table) < size:
        table = phases[key] = build(max(size, phases.get(("size", key), 0)))
    return table


def _phase_table(scale: complex, size: int, phases: dict) -> List[complex]:
    """exp(scale * k/L) for k < L, memoised in ``phases`` (see `_finest`).

    At scale 0 every entry is exp(0j) = 1+0j exactly, so one object is
    shared by the whole table.
    """
    def build(size):
        if scale == 0:
            return [complex(1.0)] * size
        return [cmath.exp(scale * (k / size)) for k in range(size)]
    return _finest(phases, ("phase", scale), size, build)


def _leaf_table(fn: _Fn, size: int, phases: dict) -> List[complex]:
    """A leaf's values at k/L, memoised under the leaf (see `_finest`)."""
    def build(size):
        values = fn.args[0].evaluate_lattice(size)
        if fn.kind == "sqrt":
            # sqrt(max(v, 0.0)) with sqrt only of the positive entries
            # (most are zero): tiny negatives from the indicator edges
            # clamp to 0j, and a zero or NaN is kept as it is, since
            # max(-0.0, 0.0) and sqrt(-0.0) are both -0.0
            return [complex(math.sqrt(v)) if v > 0.0 else 0j if v < 0.0 else complex(v)
                    for v in values]
        return [complex(v) for v in values]
    return _finest(phases, fn, size, build)


def _lattice(fn: _Fn, size: int, phases: dict) -> Tuple[List[complex], int]:
    """(table, m) such that fn at k/size is table[(m*k) % len(table)].

    A leaf and a dilation of one are read from the leaf's own table; any
    other node is sampled at size, with m = 1.  m*size is a multiple of
    len(table), so k may also be read mod size.
    """
    kind = fn.kind
    if kind == "dilate":
        table, m = _lattice(fn.args[0], size, phases)
        return table, m * fn.args[1]
    if kind == "exact" or kind == "sqrt":
        table = _leaf_table(fn, size, phases)
        return table, len(table) // size
    return _sample(fn, size, phases), 1


def _sample(fn: _Fn, size: int, phases: dict) -> List[complex]:
    """Values of fn at k/size for k < size."""
    kind, args = fn.kind, fn.args
    if kind == "const":
        return [args[0]] * size
    if kind == "exact" or kind == "sqrt" or kind == "dilate":
        table, m = _lattice(fn, size, phases)
        return table if m == 1 else _strided(table, 0, m, size)
    if kind == "mul":
        f, g = args
        if f.kind == "const":
            c = f.args[0]
            return [c * y for y in _sample(g, size, phases)]
        return [x * y for x, y in zip(_sample(f, size, phases),
                                      _sample(g, size, phases))]
    if kind == "conj":
        return [z.conjugate() for z in _sample(args[0], size, phases)]
    # contract: at t = k/size, h is read at t/2 = k/(2 size) and at
    # (t+1)/2 = (k+size)/(2 size), each times exp(2 pi i d s)
    h, d = args
    child = _sample(h, 2 * size, phases)
    phase = _phase_table(2j * cmath.pi * d, 2 * size, phases)
    r = len(phase) // (2 * size)
    return [0.5 * (p * x + q * y) for p, x, q, y
            in zip(_strided(phase, 0, r, size), child,
                   _strided(phase, r * size, r, size), child[size:])]


@dataclass(frozen=True)
class FETerm:
    """left * S_mu * S_nu^adj * right, words over {1, 2}."""
    left: _Fn
    mu: Tuple[int, ...]
    nu: Tuple[int, ...]
    right: _Fn


class FuncElement:
    """Finite sum of sandwich terms over the two-isometry algebra."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[FETerm] = ()):
        self.terms = tuple(terms)

    @classmethod
    def sandwich(cls, mu: Sequence[int], f: _Fn, nu: Sequence[int]) -> "FuncElement":
        """S_mu f S_nu*; the middle function is pushed left through S_mu."""
        mu, nu = tuple(mu), tuple(nu)
        if not all(x in (1, 2) for x in mu + nu):
            raise ValueError("letters must be 1 or 2")
        left = f.dilated(2 ** len(mu))
        return cls((FETerm(left, mu, nu, _Fn.const(1.0)),))

    @classmethod
    def function(cls, f: _Fn) -> "FuncElement":
        return cls((FETerm(f, (), (), _Fn.const(1.0)),))

    def __add__(self, other: "FuncElement") -> "FuncElement":
        return FuncElement(self.terms + other.terms)

    def __sub__(self, other: "FuncElement") -> "FuncElement":
        minus = [FETerm(_Fn.const(-1.0) * t.left, t.mu, t.nu, t.right)
                 for t in other.terms]
        return FuncElement(self.terms + tuple(minus))

    def __mul__(self, other: "FuncElement") -> "FuncElement":
        out: List[FETerm] = []
        for s in self.terms:
            for t in other.terms:
                out.append(_term_product(s, t))
        return FuncElement(out)

    def adjoint(self) -> "FuncElement":
        return FuncElement([FETerm(t.right.conjugate(), t.nu, t.mu,
                                   t.left.conjugate()) for t in self.terms])


def _term_product(s: FETerm, t: FETerm) -> FETerm:
    h = s.right * t.left
    nu = list(s.nu)
    alpha = list(t.mu)
    while nu and alpha:
        # S_i* h S_j (i from nu, j from alpha) as a function: h averaged
        # over halved points, with phase
        h = _Fn("contract", h, alpha.pop(0) - nu.pop(0))
    if not nu:
        left = s.left * h.dilated(2 ** len(s.mu))
        return FETerm(left, s.mu + tuple(alpha), t.nu, t.right)
    right = h.dilated(2 ** len(t.nu)) * t.right
    return FETerm(s.left, s.mu, t.nu + tuple(nu), right)


def _word_phase(word: Tuple[int, ...], size: int, phases: dict) -> List[complex]:
    """Phase of S_word at k/L: exp(2 pi i 2^l t) for each letter 2 at l.

    Memoised in ``phases`` (see `_finest`).  A word without a letter 2
    shares one 1+0j object across the whole table.
    """
    def build(size):
        table = [complex(1.0)] * size
        for l, letter in enumerate(word):
            if letter == 2:
                base = _phase_table(2j * cmath.pi, size, phases)
                dilated = _strided(base, 0, len(base) // size * 2 ** l, size)
                table = [acc * b for acc, b in zip(table, dilated)]
        return table
    return _finest(phases, ("word", word), size, build)


def _plan(samplings: Sequence[Tuple[FuncElement, int]], phases: dict) -> None:
    """Record in ``phases`` the largest size each table can be read at.

    ``samplings`` are the (element, grid) pairs about to be sampled with
    this memo; see the numeric engine above.  A key's size is stored under
    ("size", key), a leaf being its own key, and nothing is built here.
    """
    def need(key, size):
        if phases.get(("size", key), 0) < size:
            phases[("size", key)] = size

    # every size an element is read at is its grid times a factor of the
    # term, so an element needs planning at its largest grid only; the
    # grids it is sampled at are kept for `sample_element`
    grids: Dict[FuncElement, int] = {}
    for elem, grid in samplings:
        grids[elem] = max(grid, grids.get(elem, 0))
        phases.setdefault(("grids", elem), set()).add(grid)
    reads: List[Tuple[_Fn, int]] = []
    for elem, grid in grids.items():
        for term in elem.terms:
            size = grid * 2 ** len(term.nu)
            reads += ((term.left, grid), (term.right, size))
            for word, at in ((term.mu, grid), (term.nu, size)):
                need(("word", word), at)
                if 2 in word:
                    need(("phase", 2j * cmath.pi), at)
    while reads:
        fn, size = reads.pop()
        kind, args = fn.kind, fn.args
        if kind == "exact" or kind == "sqrt":
            need(fn, size)
        elif kind == "mul":
            reads += ((args[0], size), (args[1], size))
        elif kind == "conj" or kind == "dilate":
            reads.append((args[0], size))
        elif kind == "contract":
            reads.append((args[0], 2 * size))
            need(("phase", 2j * cmath.pi * args[1]), 2 * size)


def sample_element(elem: FuncElement, grid: int) -> float:
    """Sup of the sampled operator kernel of the element.

    In the defining circle representation, a term contributes along the
    correspondence x = (2^a t + j) / 2^b; contributions sharing the same
    affine line are summed before taking absolute values, so exact
    operator cancellations show up as zeros here.  With t = i/grid the
    point x is the lattice point (2^a i + j grid) mod (grid 2^b) over
    grid 2^b, so both sides of a term are read from tables by index.

    The element is swept once per memo, at the largest grid `_plan`
    recorded for it, and the sup at each coarser planned grid is read off
    that kernel's strided entries (see the numeric engine above).
    """
    _check_grid(grid)
    phases = _SHARED_TABLES.get()
    if phases is None:
        phases = {}
        _plan([(elem, grid)], phases)
    sup = phases.get(("sup", elem, grid))
    if sup is not None:
        return sup
    grids = phases.get(("grids", elem), set()) | {grid}
    top = max(grids)
    buckets: Dict[Tuple[int, int, int], List[complex]] = {}
    for term in elem.terms:
        _add_term(buckets, term, top, phases)
    # the sup at stride s is the larger of the sup at stride 2s and that of
    # the entries in between, so each entry is read once
    coarsest = top // min(grids)
    sups = dict.fromkeys(grids, 0.0)
    for acc in buckets.values():
        step = coarsest
        bucket_sup = max(map(abs, acc[::step]))
        while True:
            if top // step in sups:
                sups[top // step] = max(sups[top // step], bucket_sup)
            if step == 1:
                break
            step //= 2
            bucket_sup = max(bucket_sup, max(map(abs, acc[step::2 * step])))
    for g, sup in sups.items():
        phases[("sup", elem, g)] = sup
    return sups[grid]


def _check_grid(grid: int) -> None:
    if grid < 1 or grid & (grid - 1):
        raise ValueError("grid must be a power of two")


def _line_keys(pow_a: int, pow_b: int, phases: dict) -> List[Tuple[int, int, int]]:
    """Bucket keys of the lines x = (pow_a t + j)/pow_b, j < pow_b; memoised.

    Each key is (pow_a, pow_b, j) divided by its gcd (see the numeric
    engine above).
    """
    key = ("lines", pow_a, pow_b)
    keys = phases.get(key)
    if keys is None:
        keys = phases[key] = []
        for j in range(pow_b):
            g = math.gcd(pow_a, pow_b, j)
            keys.append((pow_a // g, pow_b // g, j // g))
    return keys


_NONZERO_RUN = re.compile(b"\\x01+")


def _nonzero_runs(table: List[complex]) -> List[Tuple[int, int]]:
    """(lo, hi) of each maximal run of indices where table is nonzero."""
    return [run.span() for run in _NONZERO_RUN.finditer(bytes(map(bool, table)))]


def _add_term(buckets: dict, term: FETerm, grid: int, phases: dict) -> None:
    pow_a, pow_b = 2 ** len(term.mu), 2 ** len(term.nu)
    size = grid * pow_b
    left = _sample(term.left, grid, phases)
    runs = _nonzero_runs(left)
    if not runs:
        return
    mu_phase = _word_phase(term.mu, grid, phases)
    mu_step = len(mu_phase) // grid
    heads = [(lo, hi, [f * p / pow_b for f, p in
                       zip(left[lo:hi], _strided(mu_phase, mu_step * lo, mu_step, hi - lo))])
             for lo, hi in runs]
    keys = _line_keys(pow_a, pow_b, phases)
    nu_phase = _word_phase(term.nu, size, phases)
    nu_step = len(nu_phase) // size
    right, right_step = ((None, 0) if term.right.is_one()
                         else _lattice(term.right, size, phases))
    for j, key in enumerate(keys):
        acc = buckets.setdefault(key, [0j] * grid)
        for lo, hi, head in heads:
            # t = i/grid reads both sides at x = (pow_a i + j grid) mod size,
            # here from i = lo on
            x = j * grid + pow_a * lo
            phase = _strided(nu_phase, nu_step * x, nu_step * pow_a, hi - lo)
            if right is None:
                acc[lo:hi] = [s + h * p.conjugate() for s, h, p
                              in zip(acc[lo:hi], head, phase)]
            else:
                line = _strided(right, right_step * x, right_step * pow_a, hi - lo)
                acc[lo:hi] = [s + h * p.conjugate() * r for s, h, p, r
                              in zip(acc[lo:hi], head, phase, line)]


def _matrix_of(data: ProjectionData) -> List[List[FuncElement]]:
    a1 = _Fn.sqrt_of(data.a1sq)
    b1 = _Fn.sqrt_of(data.b1sq)
    phi_a0 = _Fn.from_exact(dilate(data.a0, 2))
    phi_b0 = _Fn.from_exact(dilate(data.b0, 2))
    S = FuncElement.sandwich
    p11 = S((1,), a1, ()) + FuncElement.function(phi_a0) + S((), a1, (1,))
    p12 = S((2,), a1, ()) + S((), b1, (2,))
    p21 = S((2,), b1, ()) + S((), a1, (2,))
    p22 = S((1,), b1, ()) + FuncElement.function(phi_b0) + S((), b1, (1,))
    return [[p11, p12], [p21, p22]]


def assemble_and_square(data: ProjectionData, grid: int) -> dict:
    """Assemble P, square it by operator rewriting, sample the residual.

    Returns the sampled sup of |P^2 - P| entrywise, the same figure on a
    doubled grid for stability, and the sampled self-adjointness defect.
    `sample_element` rejects a grid that is not a power of two.

    The 12 samplings run in the order self-adjointness at the grid, the
    residual at twice the grid, then at the grid, which is read off the
    doubled-grid kernels.  The first sampling builds the leaves, so that
    cost lands on a cheap element.  A table depends on its key and size
    alone, so the order moves no float.
    """
    p = _matrix_of(data)
    p2 = [[p[i][0] * p[0][j] + p[i][1] * p[1][j] for j in range(2)]
          for i in range(2)]
    entries = [(i, j) for i in range(2) for j in range(2)]
    residuals = [p2[i][j] - p[i][j] for i, j in entries]
    adjoints = [p[i][j] - p[j][i].adjoint() for i, j in entries]
    samplings = ([(elem, grid) for elem in adjoints]
                 + [(elem, 2 * grid) for elem in residuals]
                 + [(elem, grid) for elem in residuals])
    memo: dict = {}
    token = _SHARED_TABLES.set(memo)
    try:
        _plan(samplings, memo)
        sups = [sample_element(elem, g) for elem, g in samplings]
    finally:
        _SHARED_TABLES.reset(token)
    adj_defect, doubled, residual = max(sups[:4]), max(sups[4:8]), max(sups[8:])
    return {
        "grid": grid,
        "residual": residual,
        "residual_doubled": doubled,
        "grid_stable": abs(residual - doubled) < 1e-9,
        "self_adjoint_defect": adj_defect,
        "pass": residual < 1e-9 and abs(residual - doubled) < 1e-9
                and adj_defect == 0.0,
    }


def verify(data: ProjectionData, grid: int = DEFAULT_GRID) -> dict:
    """Both verifications plus the published trace and K0-class, one verdict.

    On data whose boundary curves do not close up there is no winding
    number: the report then gives `k0_class` as None and fails.  A grid
    past GRID_LIMIT, or not a power of two, is refused before any work.
    """
    if grid > GRID_LIMIT:
        raise ValueError(f"grid {int_str(grid)} is more than the limit of {GRID_LIMIT}")
    _check_grid(grid)
    conditions = check_conditions(data)
    square = assemble_and_square(data, grid=grid)
    trace = kms_trace(data)
    try:
        k0 = k0_class(data)
    except ValueError:
        k0 = None
    return {"conditions": conditions, "square": square, "trace": frac_str(trace),
            "k0_class": k0,
            "pass": (conditions["pass"] and square["pass"]
                     and trace == PUBLISHED_TRACE and k0 == PUBLISHED_K0_CLASS)}
