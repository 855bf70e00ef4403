"""Dimension-growth entropy machinery and the matrix compression map.

The growth estimate tracks the exact linear dimension of the span of a
monomial window together with its images under the canonical
endomorphism, term by term.  Dimensions are ranks of exact coefficient
matrices: every element is refined so all annihilation words share one
length, at which point distinct triples are linearly independent and a
fraction-free sparse echelon pass over Gaussian-integer rows gives the
rank with no sampling involved.

The compression map sends x to the matrix (S_mu^* x S_nu) over all
length-r words; for admissible inputs each entry collapses to a single
partial-isometry monomial, only two consecutive unitary exponents occur
across the whole matrix, and each monomial's positions form a partial
permutation pattern, which is the structure theorem verified by
``rho_matrix``.  Most entries are zero, and the lexicographic order of
the words tells which ones before any product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import AlgebraParams, Element, Monomial, all_words
from .exact import QQi, bounded_power

Word = Tuple[int, ...]
# a Gaussian integer re + im*i as the pair (re, im)
GaussInt = Tuple[int, int]


def window_size(params: AlgebraParams, s: int) -> int:
    n = params.n
    words = s + 1 if n == 1 else (n ** (s + 1) - 1) // (n - 1)
    return words * words * (2 * n ** s + 1)


# `monomial_window` refuses a window of more monomials than this
WINDOW_LIMIT = 200_000


def monomial_window(params: AlgebraParams, s: int) -> List[Monomial]:
    """All monomials with word lengths <= s and |exponent| <= n^s."""
    if s < 0:
        raise ValueError("window parameter must be >= 0")
    # the window holds more than n^s monomials; refuse before building n^s
    if bounded_power(params.n, s, WINDOW_LIMIT) is None:
        raise ValueError(f"window size exceeds bound {WINDOW_LIMIT}: "
                         f"it is more than n^s = {params.n}^{s}")
    count = window_size(params, s)
    if count > WINDOW_LIMIT:
        raise ValueError(f"window size {count} exceeds bound {WINDOW_LIMIT}")
    words: List[Word] = []
    for length in range(s + 1):
        words.extend(all_words(params.n, length))
    kmax = params.n ** s
    out = [Monomial(mu, k, nu)
           for mu in words for k in range(-kmax, kmax + 1) for nu in words]
    assert len(out) == count
    return out


# -- exact rank over refined rows ----------------------------------------


class _Echelon:
    """Incremental sparse echelon over the Gaussian integers Z[i].

    A Gaussian-rational row is scaled once by the lcm L of the
    denominators of all its real and imaginary parts, so its entries
    become Gaussian integers, stored as (re, im) pairs of ints.  A row
    whose leading key already has a pivot is reduced by

        row <- p * row - c * pivot,

    with p the pivot's and c the row's leading entry, which cancels the
    leading key; the row is then divided by the integer gcd of all its
    parts, and pivots are stored in that same primitive form.

    Why the rank is the rank over Q(i): Z[i] is an integral domain whose
    field of fractions is Q(i), so each step is invertible over Q(i).
    Scaling by L or dividing by a gcd multiplies by a non-zero rational,
    and as p != 0 the old row is (new row + c * pivot) / p, so every step
    leaves the Q(i)-span of the rows inserted so far unchanged.  A row
    reduces to nothing exactly when it lies in the span of the pivots,
    and pivots with distinct leading keys are linearly independent, so
    `rank` counts the dimension of that span.  No Fraction or QQi is
    built inside the elimination loop.
    """

    def __init__(self) -> None:
        self.pivots: Dict[Monomial, Dict[Monomial, GaussInt]] = {}

    def insert(self, row: Dict[Monomial, QQi]) -> bool:
        """Reduce row against the basis; returns True if rank grew."""
        work = _integral_row(row)
        while work:
            key = min(work)
            piv = self.pivots.get(key)
            if piv is None:
                self.pivots[key] = work
                return True
            work = _eliminate(work, piv, key)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _integral_row(row: Dict[Monomial, QQi]) -> Dict[Monomial, GaussInt]:
    """Scale a Gaussian-rational row to primitive Gaussian-integer form."""
    parts = [(key, v.gaussian()) for key, v in row.items() if not v.is_zero()]
    scale = math.lcm(*(d for _, (_, _, d) in parts))
    out = {}
    for key, (a, b, d) in parts:
        s = scale // d
        out[key] = (a * s, b * s)
    return _primitive(out)


def _eliminate(row: Dict[Monomial, GaussInt], piv: Dict[Monomial, GaussInt],
               key: Monomial) -> Dict[Monomial, GaussInt]:
    """p * row - c * piv in primitive form, p and c the entries at key."""
    pr, pi = piv[key]
    cr, ci = row[key]
    if pi == 0 and pr == 1:  # about half the growth-table pivots lead with 1
        out = dict(row)
    else:
        out = {k: (pr * a - pi * b, pr * b + pi * a)
               for k, (a, b) in row.items()}
    for k, (a, b) in piv.items():
        x, y = out.get(k, (0, 0))
        x -= cr * a - ci * b
        y -= cr * b + ci * a
        if x or y:
            out[k] = (x, y)
        else:
            out.pop(k, None)
    return _primitive(out)


def _primitive(row: Dict[Monomial, GaussInt]) -> Dict[Monomial, GaussInt]:
    """Divide out the integer gcd of every real and imaginary part."""
    g = math.gcd(*(part for pair in row.values() for part in pair))
    if g > 1:
        return {k: (a // g, b // g) for k, (a, b) in row.items()}
    return row


# -- growth table -----------------------------------------------------------

# `entropy_estimate` refuses a request whose echelon work estimate, rows
# inserted x terms of the longest refined row + _REFINE_WEIGHT x refined
# terms, passes this limit.  A row reduced against a pivot updates at most
# the entries of both, and building a refined term level by level, then
# scaling it to Gaussian integers, costs about as much as 64 such updates.
# Near the limit a request takes at most about 1.4 s and 115 MB peak RSS
# (Python 3.11.7, 2 cores); at n = 2, s = 0 it admits n_max <= 10.
ECHELON_WORK_LIMIT = 1 << 23
_REFINE_WEIGHT = 64


@dataclass(frozen=True)
class EntropyRow:
    depth: int
    dimension: int
    slope: Optional[float]
    normalized: float


@dataclass(frozen=True)
class EntropyTable:
    m: int
    n: int
    s: int
    rows: Tuple[EntropyRow, ...]
    truncated: bool = False
    warning: Optional[str] = None

    @property
    def growth_rate(self) -> Optional[float]:
        for row in reversed(self.rows):
            if row.slope is not None:
                return row.slope
        # truncation can stop the sweep before any row exists
        return self.rows[-1].normalized if self.rows else None

    def dimensions(self) -> List[int]:
        return [row.dimension for row in self.rows]

    def to_json_obj(self) -> dict:
        return {
            "m": self.m, "n": self.n, "s": self.s,
            "rows": [{"N": r.depth, "dimension": r.dimension,
                      "slope": r.slope, "normalized": r.normalized}
                     for r in self.rows],
            "growth_rate": self.growth_rate,
            "log_n": math.log(self.n),
            "truncated": self.truncated,
            "warning": self.warning,
        }


def _terms_per_depth(n: int, s: int, level: int, bound: int) -> Optional[int]:
    """Terms one depth of the growth table refines to `level` (n >= 2).

    The window of `monomial_window` pairs W = 1 + n + ... + n^s words mu
    and 2n^s + 1 exponents with the n^L words nu of each length L <= s,
    so it holds W (2n^s + 1) n^L monomials with |nu| = L.  Each refines
    to n^(level - L) terms, so the window refines to (s + 1) W (2n^s + 1)
    n^level terms, and so does every later batch (see `entropy_estimate`).
    None, as soon as n^level, the largest single power, passes `bound`,
    so no astronomic power is built; otherwise the exact count, which
    may still pass `bound`.
    """
    power = bounded_power(n, level, bound)
    if power is None:
        return None
    words = (n ** (s + 1) - 1) // (n - 1)
    return (s + 1) * words * (2 * n ** s + 1) * power


def entropy_estimate(params: AlgebraParams, s: int, n_max: int,
                     term_bound: int = 5_000_000) -> EntropyTable:
    """Dimension growth of the window under the canonical endomorphism.

    Tracks D_N = dim span of the window monomials together with the
    individual terms of their first N-1 endomorphism images.  Terms of
    the level-l image all share annihilation length l + s at most, so
    one refinement level serves every batch and ranks accumulate in a
    single echelon pass.  Requires m = 1 and n >= 2.

    Every depth refines the same number of terms: the batch one depth
    deeper puts each of n letters in front of the nu of each monomial,
    so it holds n times as many monomials whose refinements are n times
    shorter.  The depths that `term_bound` admits, and so the echelon
    work estimate (the longest refined row is that of a window monomial
    with nu = ()), are known before any row is built; an estimate past
    `ECHELON_WORK_LIMIT` raises ValueError.
    """
    if params.m != 1:
        raise ValueError("growth estimate requires m = 1")
    if params.n < 2:
        raise ValueError(f"growth estimate requires n >= 2, got {params.n}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if term_bound < 1:
        raise ValueError(f"term bound {term_bound} must be >= 1")
    n = params.n
    window = monomial_window(params, s)
    level = (n_max - 1) + s
    per_depth = _terms_per_depth(n, s, level, term_bound)
    if per_depth is None or per_depth > term_bound:
        depths = 0
    else:
        depths = min(n_max, term_bound // per_depth)
        inserted = len(window) * (n ** depths - 1) // (n - 1)
        refined = depths * per_depth
        work = inserted * n ** level + _REFINE_WEIGHT * refined
        if work > ECHELON_WORK_LIMIT:
            raise ValueError(f"echelon work estimate {work} ({inserted} rows, "
                             f"{refined} refined terms) exceeds the limit "
                             f"{ECHELON_WORK_LIMIT}")
    ech = _Echelon()
    rows: List[EntropyRow] = []
    batch = window
    prev_dim: Optional[int] = None
    for depth in range(1, depths + 1):
        for mon in batch:
            elem = Element.monomial(params, mon.mu, mon.k, mon.nu)
            ech.insert(dict(elem.refine_to_level(level).items()))
        dim = ech.rank
        slope = None if prev_dim is None else math.log(dim) - math.log(prev_dim)
        rows.append(EntropyRow(depth, dim, slope, math.log(dim) / depth))
        prev_dim = dim
        batch = [Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu)
                 for mon in batch for i in range(1, n + 1)]
    for earlier, later in zip(rows, rows[1:]):
        assert later.dimension >= earlier.dimension
    truncated = depths < n_max
    warning = None
    if truncated:
        total = "" if per_depth is None else f" {(depths + 1) * per_depth}"
        warning = (f"stopped at depth {depths}: refined term "
                   f"count{total} would exceed bound {term_bound}")
    return EntropyTable(params.m, params.n, s, tuple(rows), truncated, warning)


# -- matrix compression map -------------------------------------------------


def _comparable_indices(n: int, r: int, words: Iterable[Word]) -> List[int]:
    """Sorted indices into all_words(n, r) of the words comparable with one of `words`.

    `all_words` lists the words in lexicographic order, so the index of w
    is its base-n value sum_t (w_t - 1) n^(r - 1 - t).  The words of length
    r that extend a word b with |b| <= r are therefore one block: the
    n^(r - |b|) consecutive indices from value(b) n^(r - |b|) on.  A word b
    longer than r extends exactly one of them, b[:r], the block of b[:r].
    """
    out = set()
    for b in {b[:r] for b in words}:
        width = n ** (r - len(b))
        start = 0
        for letter in b:
            start = start * n + letter - 1
        out.update(range(start * width, (start + 1) * width))
    return sorted(out)


def rho_matrix(params: AlgebraParams, mon: Monomial, r: int, l: int,
               s: int) -> Tuple[List[List[Element]], dict]:
    """Compress the l-th endomorphism image of a monomial to matrix form.

    Returns the n^r x n^r matrix with entry (mu, nu) = S_mu^* Phi^l(x) S_nu
    plus a report checking the structure theorem: each entry is a single
    coefficient-one monomial whose surviving word has length equal to the
    input's creation/annihilation surplus, at most two consecutive unitary
    exponents occur across the matrix, the base exponent respects the
    window bound, and the positions carrying any fixed monomial form a
    partial permutation.

    Only the entries that can survive are formed.  By `mul_monomials`,
    S_a* S_b is zero unless one of the words a, b is a prefix of the other
    (they are comparable).  Here Phi^l(S_mu z^k S_nu*) is the sum over
    |w| = l of S_(w mu) z^k S_(w nu)*, so row i, S_(w_i)* Phi^l(x), is
    zero unless w_i is comparable with the creation word of some term;
    and entry (i, j), row_i S_(w_j), is zero unless w_j is comparable with
    the annihilation word of some term of row_i.  `_comparable_indices`
    lists those i and j; every other entry is the product that the dense
    double loop would form with no surviving term, the zero element.
    The formed entries are the same products in the same order, so the
    matrix and the report are equal to those of the dense loop.
    """
    if params.m != 1:
        raise ValueError("matrix compression requires m = 1")
    if len(mon.mu) > s or len(mon.nu) > s:
        raise ValueError(f"word length {max(len(mon.mu), len(mon.nu))} "
                         f"violates the window bound s = {s}")
    if abs(mon.k) > params.n ** s:
        raise ValueError(f"exponent {mon.k} violates the window bound "
                         f"n^s = {params.n ** s}")
    if not 1 <= l <= r - s:
        raise ValueError(f"iteration depth {l} violates 1 <= l <= r - s = {r - s}")

    x = Element.monomial(params, mon.mu, mon.k, mon.nu)
    for _ in range(l):
        x = x.canonical_endo()
    words = list(all_words(params.n, r))
    lifts = [Element.monomial(params, w, 0, ()) for w in words]
    # surplus letters survive into each entry as a word of this length
    surplus = len(mon.mu) - len(mon.nu)
    want_mu, want_nu = max(surplus, 0), max(-surplus, 0)
    # an entry no surviving product reaches is the zero element; elements
    # are never mutated, so one zero instance fills all of them
    zero = Element.zero(params)
    matrix = [[zero] * len(words) for _ in words]
    groups: Dict[Monomial, List[Tuple[int, int]]] = {}
    entries_ok = True
    nonzero = 0
    for i in _comparable_indices(params.n, r, (t.mu for t, _ in x.items())):
        row = matrix[i]
        left = lifts[i].adjoint() * x
        for j in _comparable_indices(params.n, r, (t.nu for t, _ in left.items())):
            entry = left * lifts[j]
            row[j] = entry
            if not entry:
                continue
            nonzero += 1
            terms = list(entry.items())
            if len(terms) != 1:
                entries_ok = False
                continue
            emon, coeff = terms[0]
            if (len(emon.mu) != want_mu or len(emon.nu) != want_nu
                    or coeff != QQi.of(1)):
                entries_ok = False
                continue
            groups.setdefault(emon, []).append((i, j))

    exps = sorted({g.k for g in groups})
    consecutive = (len(exps) <= 1
                   or (len(exps) == 2 and exps[1] == exps[0] + 1))
    kbound = params.n ** s
    if not exps:
        q_bound_ok = True
    elif len(exps) == 2:
        q_bound_ok = abs(exps[0]) <= kbound
    else:
        q_bound_ok = abs(exps[0]) <= kbound or abs(exps[0] - 1) <= kbound
    partial_perm = True
    for positions in groups.values():
        rows_seen = [i for i, _ in positions]
        cols_seen = [j for _, j in positions]
        if len(set(rows_seen)) != len(rows_seen) or len(set(cols_seen)) != len(cols_seen):
            partial_perm = False
    report = {
        "size": len(words),
        "nonzero_entries": nonzero,
        "surplus_word_length": surplus,
        "entries_well_formed": entries_ok,
        "exponents": exps,
        "consecutive": consecutive,
        "base_exponent_bounded": q_bound_ok,
        "partial_permutations": partial_perm,
        "pass": entries_ok and consecutive and q_bound_ok and partial_perm,
    }
    return matrix, report
