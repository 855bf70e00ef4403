"""Shift and solenoid representations.

Two families of representations drive the verification work:

* the shift representation on l^2(Z[1/m]): the unitary moves a basis
  label q to q + 1 and the j-th isometry sends q to (n/m) q + c_j, with
  c_j = j - 2 (variant A) or c_j = j - 1 (variant B).  Monomials act by
  partial injective affine maps on labels; this separation is why the
  trie-refinement zero test of the core algebra is exact.
* finite-dimensional representations attached to periodic points of the
  m-adic solenoid, built from generalized permutation matrices with exact
  `Fraction` phases.

Inside the shift representation a label q = p/m^e is the int pair (p, e),
normalised so that m does not divide p unless e = 0 (so e = 0 whenever
m = 1).  Each label has exactly one such pair, so labels compare as
tuples, and e is the least exponent with q m^e integral.  The three maps
act on pairs with integer arithmetic only:

* S_j (p, e) = (n p + c_j m^(e+1), e + 1), except that it is the integer
  n p/m + c_j when e = 0 and m | p.  Otherwise m does not divide p, hence
  not n p either, since gcd(m, n) = 1; so m does not divide the new
  numerator and the pair is normal.
* S_j* (p, e) is defined iff n | p - c_j m^e, and is then
  ((p - c_j m^e)/n, e - 1), or the integer m (p - c_j)/n when e = 0.
  The label (m/n)(q - c_j) is (p - c_j m^e)/(n m^(e-1)); since gcd(m, n)
  = 1, n leaves the denominator only by dividing the numerator, so the
  test is exact.  When e > 0, m divides neither p - c_j m^e nor, hence,
  its quotient by n.
* translation by k is (p + k m^e, e): when e > 0, m does not divide
  p + k m^e, since it does not divide p.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import AlgebraParams
from .exact import bounded_power, in_localization, int_str

_Label = Tuple[int, int]  # (p, e) standing for p/m^e, normalised

# the window P,Q of `rep check` and criterion 6: |p| <= P, e <= Q
DEFAULT_WINDOW = (256, 4)

# relation_residuals checks at most (2P+1)(Q+1) labels on the window P,Q
# (2P+1 when m = 1); in fact fewer, since p/m^e with m | p and e >= 1 is
# a label at e - 1: at (3, 5) the default 256,4 has 1 881, not 2 565
LABEL_LIMIT = 1 << 14
# n^2 + n + 1 checks per label; the acceptance sweep's largest window,
# (3, 5) at 256,4, has at most 79 515, and at this limit a run on small
# labels takes about 0.8 s (Python 3.11.7, 2 cores)
CHECK_LIMIT = 1 << 20
# a check costs about 1.4 us + 0.36 ns per bit of the largest label, the
# size of m^(Q+1), so it weighs 1 + bits(m^(Q+1)) // LABEL_BITS against
# CHECK_LIMIT; at that limit, e.g. (m, n) = (10, 7) at 1,2464, a run takes
# about 1.2 s while m has at most 1 000 digits (Python 3.11.7, 2 cores)
LABEL_BITS = 4096
# building the powers m^0 .. m^(Q+1) by multiplying by m costs about
# bits(m) * bits(m^k) bit products for m^k, at most b^2 (Q+1)(Q+2)/2 in
# all for b = bits(m); the largest one-label windows within every limit
# take at most about 0.25 s for m of 32 to 13 288 bits (Python 3.11.7,
# 2 cores)
POWER_LIMIT = 1 << 37
# `solenoid_orbits` visits every residue mod m^k - 1 once; at this limit
# `solenoid_orbits(2, 16)` takes about 0.017 s and
# `solenoid_periodic_points(2, 16)`, whose points each walk their orbit
# again to check their period, about 0.19-0.46 s (best of 3 and 5, Python
# 3.11.7, 2 cores, shared host)
RESIDUE_LIMIT = 1 << 16


def _letter_offset(j: int, variant: str) -> int:
    if variant == "A":
        return j - 2
    if variant == "B":
        return j - 1
    raise ValueError(f"unknown representation variant {variant!r}")


# The kernels below read m^t as powers[t], so that a window with large
# exponents pays for each power once; powers has at least e + 2 entries.


def _image(powers: List[int], n: int, c: int, p: int, e: int) -> _Label:
    """S_j on the label (p, e), where c = c_j."""
    m = powers[1]
    if e == 0 and p % m == 0:
        return n * (p // m) + c, 0
    return n * p + c * powers[e + 1], e + 1


def _preimage(powers: List[int], n: int, c: int, p: int, e: int) -> Optional[_Label]:
    """S_j* on the label (p, e), where c = c_j; None where S_j* e_q = 0."""
    r, rest = divmod(p - c * powers[e], n)
    if rest:
        return None
    return (r, e - 1) if e else (r * powers[1], 0)


def _translate(powers: List[int], k: int, p: int, e: int) -> _Label:
    """z^k on the label (p, e)."""
    return p + k * powers[e], e


def _powers(m: int, top: int) -> List[int]:
    """m^0 .. m^top, each from the one before."""
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * m)
    return powers


def _label(m: int, q: Fraction) -> _Label:
    """The normalised pair of q; ValueError when q is not in Z[1/m]."""
    if not in_localization(q, m):
        raise ValueError(f"{q} is not a basis label: it is not in Z[1/{m}]")
    e = 0
    while m ** e % q.denominator:
        e += 1
    return q.numerator * (m ** e // q.denominator), e


def _fraction(m: int, label: _Label) -> Fraction:
    p, e = label
    return Fraction(p, m ** e)


def isometry_image(params: AlgebraParams, j: int, variant: str, q: Fraction) -> Fraction:
    """Label of S_j e_q; ValueError when q is not in Z[1/m]."""
    params.check_letter(j)
    m = params.m
    p, e = _label(m, q)
    image = _image(_powers(m, e + 1), params.n, _letter_offset(j, variant), p, e)
    return _fraction(m, image)


def _window(m: int, num_bound: int, exp_bound: int,
            powers: List[int]) -> List[_Label]:
    """The labels p/m^e, |p| <= num_bound, 0 <= e <= exp_bound, ascending.

    ``powers`` holds m^0 .. m^exp_bound at least.  At e >= 1 a numerator
    divisible by m names the label (p/m)/m^(e-1), which the window already
    holds, so only the others are new.
    """
    if m == 1:
        exp_bound = 0
    numerators = range(-num_bound, num_bound + 1)
    labels = [(p, e) for e in range(exp_bound + 1) for p in numerators
              if e == 0 or p % m]
    # p/m^e < p'/m^e' iff p m^(E-e) < p' m^(E-e'), all integers
    scale = powers[exp_bound::-1]  # m^(E-e) at index e
    labels.sort(key=lambda label: label[0] * scale[label[1]])
    return labels


def window_labels(m: int, num_bound: int, exp_bound: int) -> List[Fraction]:
    """All labels p/m^e with |p| <= num_bound, 0 <= e <= exp_bound, deduplicated."""
    labels = _window(m, num_bound, exp_bound, _powers(m, exp_bound))
    return [_fraction(m, label) for label in labels]


def _checks_per_label(n: int) -> Dict[str, int]:
    """Relation checks made on each label, by relation."""
    return {"shift": n - 1, "wrap": 1, "orthogonality": n * n, "partition": 1}


def _bound_window(m: int, n: int, num_bound: int, exp_bound: int) -> None:
    """Refuse a window past LABEL_LIMIT labels, CHECK_LIMIT weighed checks
    or POWER_LIMIT bit products to build m^0 .. m^(Q+1).

    Labels are counted by the bound (2P+1)(Q+1), so nothing is enumerated;
    m^(Q+1), of more than (Q+1)(bits(m) - 1) bits, is formed only when that
    estimate leaves the window within the limit, and the table of powers
    that it tops is weighed first.  Every weight is at least the check
    count, so a window past CHECK_LIMIT checks is refused on the estimate.
    A refusal writes each size by `int_str`.
    """
    labels = (2 * num_bound + 1) * (exp_bound + 1 if m > 1 else 1)
    window = f"window {int_str(num_bound)},{int_str(exp_bound)}"
    if labels > LABEL_LIMIT:
        raise ValueError(f"{window} would check up to {int_str(labels)} "
                         f"labels, more than the limit of {LABEL_LIMIT}")
    checks = labels * sum(_checks_per_label(n).values())
    top = exp_bound + 1 if m > 1 else 0
    bits = top * (m.bit_length() - 1) + 1
    if checks * (1 + bits // LABEL_BITS) <= CHECK_LIMIT:
        _bound_powers(m, top, window)
        bits = (m ** top).bit_length()
    weight = checks * (1 + bits // LABEL_BITS)
    if weight > CHECK_LIMIT:
        raise ValueError(f"{window} at m = {int_str(m)}, n = {int_str(n)} "
                         f"would run up to {int_str(checks)} relation checks "
                         f"on labels of at least {bits} bits (m^{top}); at one more "
                         f"per {LABEL_BITS} bits they weigh {int_str(weight)}, "
                         f"more than the limit of {CHECK_LIMIT}")


def _bound_powers(m: int, top: int, window: str) -> None:
    """Refuse a table m^0 .. m^top past POWER_LIMIT bit products."""
    b = m.bit_length()
    products = b * b * top * (top + 1) // 2
    if products > POWER_LIMIT:
        raise ValueError(f"{window} would build the powers m^0 .. m^{top} of "
                         f"an m of {b} bits, up to {products} bit products, "
                         f"more than the limit of {POWER_LIMIT}")


def relation_residuals(params: AlgebraParams, variant: str,
                       num_bound: int = DEFAULT_WINDOW[0],
                       exp_bound: int = DEFAULT_WINDOW[1]) -> dict:
    """Check every defining relation on a finite label window, exactly.

    The window is grown adaptively: any label produced as an image is
    tracked and the enclosing (numerator, exponent) bounds are reported,
    so every relation instance over the base window is checkable and the
    coverage fraction is 1.  Violations are collected, never raised.
    The grown numerator bound is that of the reduced fraction p/m^e,
    which for composite m can be smaller than p (2/6 = 1/3).  A window
    past the label, check or label-size limit is refused before any work.
    """
    if num_bound < 0 or exp_bound < 0:
        raise ValueError(f"window bounds must be >= 0, got "
                         f"{int_str(num_bound)},{int_str(exp_bound)}")
    m, n = params.m, params.n
    _bound_window(m, n, num_bound, exp_bound)
    offsets = [_letter_offset(j, variant) for j in range(1, n + 1)]
    grown = [num_bound, exp_bound if m > 1 else 0]
    # labels reach exponent E + 1 at most: images add one to e <= E
    powers = _powers(m, grown[1] + 1)
    labels = _window(m, num_bound, exp_bound, powers)
    violations: List[dict] = []

    def track(label: _Label) -> None:
        p, e = label
        if e > grown[1]:
            grown[1] = e
        if abs(p) > grown[0]:
            grown[0] = max(grown[0], abs(p) // gcd(p, powers[e]))

    def show(label: Optional[_Label]) -> str:
        return str(None if label is None else _fraction(m, label))

    def bad(relation: str, q: _Label, detail: str) -> None:
        violations.append({"relation": relation, "label": show(q), "detail": detail})

    for q in labels:
        p, e = q
        images = [_image(powers, n, c, p, e) for c in offsets]  # S_1 q .. S_n q
        # z S_i = S_{i+1} for i < n
        for i in range(1, n):
            lhs = _translate(powers, 1, *images[i - 1])
            track(lhs)
            if lhs != images[i]:
                bad("z S_i = S_{i+1}", q, f"i={i}: {show(lhs)} != {show(images[i])}")
        # z S_n = S_1 z^m
        lhs = _translate(powers, 1, *images[-1])
        rhs = _image(powers, n, offsets[0], *_translate(powers, m, p, e))
        track(lhs)
        if lhs != rhs:
            bad("z S_n = S_1 z^m", q, f"{show(lhs)} != {show(rhs)}")
        # S_i* S_j = delta_ij
        for j, image in enumerate(images, 1):
            track(image)
            for i, c in enumerate(offsets, 1):
                w = _preimage(powers, n, c, *image)
                if i == j:
                    if w != q:
                        bad("S_i* S_i = 1", q, f"i={i}: got {show(w)}")
                elif w is not None:
                    bad("S_i* S_j = 0", q, f"i={i}, j={j}: landed on {show(w)}")
        # sum_i S_i S_i* = 1: exactly one annihilator defined, round trip exact
        hits = []
        for i, c in enumerate(offsets, 1):
            w = _preimage(powers, n, c, p, e)
            if w is not None:
                track(w)
                hits.append((i, w))
        if len(hits) != 1:
            bad("sum S_i S_i* = 1", q, f"defined for letters {[i for i, _ in hits]}")
        else:
            i, w = hits[0]
            if _image(powers, n, offsets[i - 1], *w) != q:
                bad("sum S_i S_i* = 1", q, f"round trip via i={i} failed")

    count = len(labels)
    counts = {relation: count * per_label
              for relation, per_label in _checks_per_label(n).items()}
    return {
        "variant": variant,
        "m": m,
        "n": n,
        "window": {"num_bound": num_bound, "exp_bound": exp_bound},
        "grown_window": {"num_bound": grown[0], "exp_bound": grown[1]},
        "labels": count,
        "checks": counts,
        "checked": sum(counts.values()),
        "coverage": 1.0,
        "violations": violations,
        "pass": not violations,
    }


# -- solenoid representations -----------------------------------------


@dataclass(frozen=True)
class SolenoidPeriodicPoint:
    """Exact-period-k point of the m-adic solenoid, as a residue r mod m^k - 1.

    Coordinates c_i = r * m^{(k-1)i} mod (m^k - 1) give the circle
    components x_i = exp(2 pi i c_i / (m^k - 1)); the backward shift acts
    on residues as multiplication by m^{k-1}.
    """

    m: int
    period: int
    residue: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.period < 1:
            raise ValueError("need m >= 2 and period >= 1")
        mod = self.modulus
        if not 0 <= self.residue < mod:
            raise ValueError("residue out of range")
        if len(self.coordinates()) != self.period:
            raise ValueError(f"residue {self.residue} does not have exact period "
                             f"{self.period} mod {mod}")

    @property
    def modulus(self) -> int:
        return self.m ** self.period - 1

    def coordinates(self) -> List[int]:
        mod = self.modulus
        return _orbit(self.residue, pow(self.m, self.period - 1, mod), mod)


def _orbit(r: int, step: int, mod: int) -> List[int]:
    """r, r step, r step^2, ... mod `mod`, up to where the walk is back at r.

    Called with step = m^(k-1), mod = m^k - 1: as m^k = 1 mod m^k - 1,
    step is the inverse of m there, so r -> r step permutes the residues,
    the walk closes, and its length is r's exact period, a divisor of k.
    """
    orbit, c = [r], r * step % mod
    while c != r:
        orbit.append(c)
        c = c * step % mod
    return orbit


def solenoid_orbits(m: int, k: int) -> List[List[int]]:
    """Exact-period-k residues grouped into backward-shift orbits.

    The residues mod m^k - 1 are walked once in ascending order, and the
    `_orbit` of each one not yet visited is kept when its length is k.  So
    every orbit starts at its least residue, and the orbits come in
    ascending order of their starts.  m^k is built by `bounded_power`:
    past RESIDUE_LIMIT within 17 factors.
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    if bounded_power(m, k, RESIDUE_LIMIT + 1) is None:
        raise ValueError(f"period {int_str(k)} at m = {int_str(m)} would "
                         f"enumerate m^k - 1 = {int_str(m)}^{int_str(k)} - 1 "
                         f"residues, more than the limit of {RESIDUE_LIMIT}")
    mod = m ** k - 1
    step = pow(m, k - 1, mod)
    visited = bytearray(mod)
    orbits = []
    for r in range(mod):
        if not visited[r]:
            orbit = _orbit(r, step, mod)
            for c in orbit:
                visited[c] = 1
            if len(orbit) == k:
                orbits.append(orbit)
    return orbits


def solenoid_periodic_points(m: int, k: int) -> List[SolenoidPeriodicPoint]:
    """All exact-period-k points, sorted by residue."""
    residues = sorted(r for orbit in solenoid_orbits(m, k) for r in orbit)
    return [SolenoidPeriodicPoint(m, k, r) for r in residues]


class PhaseMatrix:
    """Generalized permutation matrix with exact unit phases.

    Column j holds one nonzero entry, exp(2 pi i phases[j]) in row
    perm[j], each phase a Fraction reduced mod 1.  Products and adjoints
    of such matrices are again such matrices, so each operation is one
    pass over the columns.
    """

    __slots__ = ("perm", "phases")

    def __init__(self, perm: Iterable[int], phases: Iterable[Fraction]):
        self.perm = tuple(perm)
        self.phases = tuple(p % 1 for p in phases)
        size = len(self.perm)
        if len(self.phases) != size or sorted(self.perm) != list(range(size)):
            raise ValueError("a phase matrix needs a permutation of range(size) "
                             "and one phase per column")

    @property
    def size(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, size: int) -> "PhaseMatrix":
        return cls(range(size), [Fraction(0)] * size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseMatrix):
            return NotImplemented
        return self.perm == other.perm and self.phases == other.phases

    def __matmul__(self, other: "PhaseMatrix") -> "PhaseMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        # column j of other is phase q at row l; column l of self moves it
        # to row self.perm[l] and adds self.phases[l]
        return PhaseMatrix([self.perm[l] for l in other.perm],
                           [self.phases[l] + q for l, q in zip(other.perm, other.phases)])

    def adjoint(self) -> "PhaseMatrix":
        perm, phases = [0] * self.size, [Fraction(0)] * self.size
        for j, (i, p) in enumerate(zip(self.perm, self.phases)):
            perm[i], phases[i] = j, -p
        return PhaseMatrix(perm, phases)

    def is_unitary(self) -> bool:
        return (self @ self.adjoint()) == PhaseMatrix.identity(self.size) and \
               (self.adjoint() @ self) == PhaseMatrix.identity(self.size)

    def to_complex(self) -> List[List[complex]]:
        out = [[0j] * self.size for _ in range(self.size)]
        for j, (i, p) in enumerate(zip(self.perm, self.phases)):
            out[i][j] = cmath.exp(2j * cmath.pi * float(p))
        return out


def shift_unitary(size: int, corner_phase: Fraction) -> PhaseMatrix:
    """u e_j = e_{j+1} for j < size-1, u e_{size-1} = phase * e_0."""
    return PhaseMatrix([(j + 1) % size for j in range(size)],
                       [Fraction(0)] * (size - 1) + [corner_phase])


LaurentMonomial = Dict[int, int]  # coordinate index -> exponent


def coordinate_diagonal(point: SolenoidPeriodicPoint,
                        exponents: LaurentMonomial) -> PhaseMatrix:
    """rho_x(f) for f = prod_i x_i^{a_i}: diag(f(x), f(sx), ..., f(s^{k-1}x)).

    f(s^j x) has the phase sum_i a_i c_{i+j} / (m^k - 1), indices mod k,
    read off one walk of the orbit.
    """
    if any(i < 0 for i in exponents):
        raise ValueError("coordinate indices must be >= 0")
    k, mod, coords = point.period, point.modulus, point.coordinates()
    return PhaseMatrix(range(k), [
        Fraction(sum(a * coords[(i + j) % k] for i, a in exponents.items()), mod)
        for j in range(k)])


def precompose_shift_inverse(m: int, exponents: LaurentMonomial) -> LaurentMonomial:
    """Exponents of f∘σ^{-1}: x_i pulls back to x_{i-1}, and x_0 to x_0^m."""
    out: LaurentMonomial = {}
    for i, a in exponents.items():
        if i == 0:
            out[0] = out.get(0, 0) + m * a
        else:
            out[i - 1] = out.get(i - 1, 0) + a
    return {i: a for i, a in out.items() if a != 0}


def precompose_shift(point: SolenoidPeriodicPoint,
                     exponents: LaurentMonomial) -> PhaseMatrix:
    """rho_x(f∘σ), x_i moved to x_{i+1} (used to probe the wrong orientation)."""
    return coordinate_diagonal(point, {i + 1: a for i, a in exponents.items()})


def solenoid_rep_check(point: SolenoidPeriodicPoint, z_phase: Fraction,
                       exponents: LaurentMonomial) -> dict:
    """Verify unitarity and the covariance u rho(f) u* = rho(f∘σ^{-1}).

    Everything is exact phase arithmetic; a float recomputation of the
    covariance residual is included as an independent cross-check.
    """
    k = point.period
    u = shift_unitary(k, z_phase)
    rho_f = coordinate_diagonal(point, exponents)
    lhs = u @ rho_f @ u.adjoint()
    rhs = coordinate_diagonal(point, precompose_shift_inverse(point.m, exponents))
    wrong = precompose_shift(point, exponents)

    # independent float path
    un, fn = u.to_complex(), rho_f.to_complex()
    num = [[sum(un[i][a] * fn[a][b] * un[j][b].conjugate() for a in range(k)
                for b in range(k)) for j in range(k)] for i in range(k)]
    rn = rhs.to_complex()
    float_residual = max(abs(num[i][j] - rn[i][j]) for i in range(k) for j in range(k))

    unitary = u.is_unitary()
    return {
        "m": point.m,
        "period": k,
        "residue": point.residue,
        "z_phase": str(z_phase),
        "unitary": unitary,
        "covariance_exact": lhs == rhs,
        "orientations_distinct": rhs != wrong,
        "wrong_orientation_holds": lhs == wrong,
        "float_residual": float_residual,
        "pass": unitary and lhs == rhs and float_residual < 1e-12,
    }
