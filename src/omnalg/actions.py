"""Finite symmetries of the algebra and their combinatorics.

Covers the rotation character that scales the unitary by a root of unity
of order |n - m| (represented by its integer weight, never by cyclotomic
coefficients), the flip automorphism z -> z^{-1}, constructive rewriting
of weight-zero monomials into words over {z^(multiple of |n-m|), S_1,
S_1*}, and the generator witnesses for the power and z^k subalgebra
embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .algebra import AlgebraParams, Element, Monomial
from .exact import bounded_power, reduce_exponent


def rotation_modulus(params: AlgebraParams) -> int:
    mod = abs(params.n - params.m)
    if mod < 2:
        raise ValueError(f"rotation symmetry needs |n - m| >= 2, got {mod}")
    return mod


def rotation_weight(params: AlgebraParams, mon: Monomial) -> int:
    """Character weight of a monomial: sum(mu_i - 1) + k - sum(nu_j - 1), mod |n-m|.

    The rotation fixes S_1 and scales z; since S_i = z^{i-1} S_1 each
    letter contributes its index offset.  Weight zero characterizes the
    fixed-point subalgebra.
    """
    mod = rotation_modulus(params)
    w = sum(i - 1 for i in mon.mu) + mon.k - sum(j - 1 for j in mon.nu)
    return w % mod


def is_rotation_fixed(params: AlgebraParams, mon: Monomial) -> bool:
    return rotation_weight(params, mon) == 0


# -- flip automorphism -------------------------------------------------


def _flip_letter(params: AlgebraParams, i: int) -> Element:
    """Image of S_i under z -> z^{-1}, S_1 -> S_1, i.e. normalize(z^{-(i-1)} S_1)."""
    params.check_letter(i)
    return Element.unitary(params, -(i - 1)) * Element.isometry(params, 1)


def inversion_apply(x: Element) -> Element:
    """The order-two *-automorphism determined by z -> z^{-1}, S_1 -> S_1."""
    params = x.params
    out = Element.zero(params)
    for mon, c in x.items():
        img = Element.unit(params)
        for i in mon.mu:
            img = img * _flip_letter(params, i)
        img = img * Element.unitary(params, -mon.k)
        right = Element.unit(params)
        for j in mon.nu:
            right = right * _flip_letter(params, j)
        out = out + (img * right.adjoint()).scaled(c)
    return out


# -- fixed-point rewriting ---------------------------------------------

Token = Tuple  # ("z", exponent) | ("create",) | ("annihilate",)


@dataclass(frozen=True)
class GeneratorWord:
    """Word over {z-powers, S_1, S_1*} with every exponent in |n-m|Z."""

    params: AlgebraParams
    tokens: Tuple[Token, ...]

    def __post_init__(self) -> None:
        mod = rotation_modulus(self.params)
        for tok in self.tokens:
            if tok[0] == "z":
                if tok[1] % mod:
                    raise ValueError(f"exponent {tok[1]} not divisible by {mod}")
            elif tok[0] not in ("create", "annihilate"):
                raise ValueError(f"unknown token {tok!r}")

    def exponents(self) -> List[int]:
        return [tok[1] for tok in self.tokens if tok[0] == "z"]

    def to_element(self) -> Element:
        """The product of the tokens, multiplied in a balanced tree.

        A left-to-right product would copy the growing word once per
        token, quadratic in the word length L.  Here the stack holds the
        products of consecutive segments of strictly decreasing length, as
        the bits of a binary counter: after the i-th token its last two
        entries are merged once for each trailing zero bit of i, so a
        product only ever joins two segments of equal length.  Each letter
        is then copied O(log L) times, the work is O(L log L), and a word
        of L tokens still takes L products of elements.
        """
        params = self.params
        s1 = Element.isometry(params, 1)
        s1_adj = s1.adjoint()
        stack: List[Element] = []
        for i, tok in enumerate(self.tokens, 1):
            if tok[0] == "z":
                stack.append(Element.unitary(params, tok[1]))
            else:
                stack.append(s1 if tok[0] == "create" else s1_adj)
            while not i & 1:
                right = stack.pop()
                stack[-1] = stack[-1] * right
                i >>= 1
        acc = Element.unit(params)
        for factor in stack:
            acc = acc * factor
        return acc

    def represents(self, mon: Monomial) -> bool:
        """Whether the word multiplies out to mon, by the exact zero test."""
        target = Element.monomial(self.params, mon.mu, mon.k, mon.nu)
        return (self.to_element() - target).is_zero()

    def __str__(self) -> str:
        bits = []
        for tok in self.tokens:
            if tok[0] == "z":
                bits.append(f"z^{tok[1]}")
            elif tok[0] == "create":
                bits.append("S1")
            else:
                bits.append("S1*")
        return " ".join(bits) if bits else "1"


def _solve_residue(value: int, n: int, mod: int) -> int:
    """Least p in [0, mod) with value + p*n = 0 mod `mod`.

    n is invertible mod |n - m| because gcd(n, |n - m|) = gcd(n, m) = 1,
    so p = -value * n^-1 mod `mod` in closed form.
    """
    return (-value * pow(n, -1, mod)) % mod


def fixed_point_rewrite(params: AlgebraParams, mon: Monomial) -> GeneratorWord:
    """Rewrite a weight-zero monomial over the fixed-point generators.

    Each creation letter S_j is replaced by z^{gamma} S_1 z^{-pm} using
    z^{pn} S_1 = S_1 z^{pm}, with p the least residue making gamma a
    multiple of |n-m|; the annihilation side mirrors this, and all the
    stray central powers collect into one middle exponent.
    """
    mod = rotation_modulus(params)
    w = rotation_weight(params, mon)
    if w != 0:
        raise ValueError(f"monomial has rotation weight {w}, "
                         "not in the fixed-point subalgebra")
    tokens: List[Token] = []
    p_prev = 0
    for letter in mon.mu:
        base = (letter - 1) - p_prev * params.m
        p = _solve_residue(base, params.n, mod)
        tokens.append(("z", base + p * params.n))
        tokens.append(("create",))
        p_prev = p
    q_prev = 0
    deltas: List[int] = []
    for letter in mon.nu:
        base = (letter - 1) - q_prev * params.m
        q = _solve_residue(base, params.n, mod)
        deltas.append(base + q * params.n)
        q_prev = q
    middle = -p_prev * params.m + mon.k + q_prev * params.m
    if middle % mod:
        raise AssertionError(f"middle exponent {middle} escaped {mod}Z "
                             "despite zero weight")
    tokens.append(("z", middle))
    for d in reversed(deltas):
        tokens.append(("annihilate",))
        tokens.append(("z", -d))
    return GeneratorWord(params, tuple(tokens))


# -- subalgebra witness families ----------------------------------------


def _check_relations(params: AlgebraParams, unitary: Element, wrap: Element,
                     gens: List[Element]) -> dict:
    """Relation report for w = unitary and gens = T_1..T_c.

    shift: w T_j = T_{j+1}; wrap: w T_c = T_1 * wrap; orthogonality:
    T_i* T_j = delta_ij; completeness: sum T_j T_j* = 1.  Every check is
    an exact zero test.
    """
    count = len(gens)
    one = Element.unit(params)
    shift_ok = all((unitary * gens[j] - gens[j + 1]).is_zero()
                   for j in range(count - 1))
    wrap_ok = (unitary * gens[-1] - gens[0] * wrap).is_zero()
    orth_ok = True
    for i in range(count):
        for j in range(count):
            prod = gens[i].adjoint() * gens[j]
            target = one if i == j else Element.zero(params)
            if not (prod - target).is_zero():
                orth_ok = False
    total = Element.zero(params)
    for g in gens:
        total = total + g * g.adjoint()
    complete_ok = (total - one).is_zero()
    checks = (("shift", count - 1, shift_ok), ("wrap", 1, wrap_ok),
              ("orthogonality", count * count, orth_ok),
              ("completeness", 1, complete_ok))
    return {"relations": {name: {"checked": cnt, "ok": ok}
                          for name, cnt, ok in checks},
            "pass": all(ok for _, _, ok in checks)}


# both witness families refuse more generators than this: orthogonality
# makes c^2 zero tests for c generators.  The largest requests it admits,
# power at (1, 3) with k = 4 and at (1, 81) with k = 1, and zk at (1, 81),
# take about 0.2-0.3 s each as a fresh `omnalg` process (Python 3.11.7,
# 2 cores)
GENERATOR_LIMIT = 81


def _check_witness_args(params: AlgebraParams, k: int) -> None:
    """Refuse a witness request before any generator is built.

    The relations go through the exact zero test, which needs n >= 2, so
    n = 1 is refused here instead of after building S_1^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if params.n < 2:
        raise ValueError(f"subalgebra witnesses require n >= 2, got {params.n}")


def subalgebra_witness_power(params: AlgebraParams, k: int) -> dict:
    """Witness that z and S_1^k generate a copy of the (m^k, n^k) relations.

    Builds T_j = z^{j-1} S_1^k for j = 1..n^k and verifies the shifted
    relations with z^{m^k} in the wrap, pairwise orthogonality, and
    completeness, all through the exact zero test.
    """
    _check_witness_args(params, k)
    count = bounded_power(params.n, k, GENERATOR_LIMIT)
    if count is None:
        raise ValueError(f"n^k = {params.n}^{k} exceeds size bound {GENERATOR_LIMIT}")
    s1k = Element.isometry(params, 1) ** k
    gens = [Element.unitary(params, j) * s1k for j in range(count)]
    report = _check_relations(params, Element.unitary(params, 1),
                              Element.unitary(params, params.m ** k), gens)
    report.update({"kind": "power", "k": k, "generators": count})
    return report


def subalgebra_witness_zk(params: AlgebraParams, k: int) -> dict:
    """Witness that z^k and S_1 generate the whole algebra's relations.

    Requires gcd(k, n) = 1; otherwise k is first reduced by stripping the
    shared prime factors (the reduction the inclusion argument performs)
    and the reduced exponent is reported.  Relations are the defining
    ones with w = z^k in place of z and T_q = z^{(q-1)k} S_1 in place of
    S_q; the residue table (q-1)k = l_q + n p_q must traverse all of Z_n.
    There are n generators, refused past `GENERATOR_LIMIT`.
    """
    _check_witness_args(params, k)
    n = params.n
    if n > GENERATOR_LIMIT:
        raise ValueError(f"n = {n} exceeds size bound {GENERATOR_LIMIT}")
    reduced = reduce_exponent(k, n)
    ltable = [((q - 1) * reduced) % n for q in range(1, n + 1)]
    ptable = [((q - 1) * reduced) // n for q in range(1, n + 1)]
    if sorted(ltable) != list(range(n)):
        raise AssertionError(f"residue table {ltable} is not a permutation of Z_{n}")

    w = Element.unitary(params, reduced)
    s1 = Element.isometry(params, 1)
    gens = [Element.unitary(params, (q - 1) * reduced) * s1 for q in range(1, n + 1)]
    report = _check_relations(params, w, Element.unitary(params, reduced * params.m), gens)
    report.update({"kind": "zk", "k": k, "reduced_k": reduced,
                   "l_table": ltable, "p_table": ptable, "generators": n})
    return report
