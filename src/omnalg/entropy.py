"""Dimension-growth entropy machinery and the matrix compression map.

The growth estimate tracks the exact linear dimension of the span of a
monomial window together with its images under the canonical
endomorphism, term by term.  Dimensions are ranks of exact coefficient
matrices: every monomial is refined so all annihilation words share one
length, at which point distinct triples are linearly independent.  A
single monomial's refinement needs no merge and has unit coefficients
(its terms never meet; see `_refined_row`), so every row is a 0/1
integer row, and the rank of a real matrix is the same over Q as over
Q(i); a fraction-free sparse echelon pass over the integers gives the
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
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .algebra import AlgebraParams, Element, Monomial, _expand, all_words
from .exact import QQi, bounded_power

Word = Tuple[int, ...]


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


def _refined_row(params: AlgebraParams, mon: Monomial, level: int) -> Dict[Monomial, int]:
    """The monomial refined to |nu| = level, as the integer row {term: 1}.

    `level - |nu|` rounds of `algebra._expand` rewrite each term by the
    unit relation sum_d S_d S_d* = 1 into its n children.  The children of
    one term are pairwise distinct, since each child's nu gains a
    different letter d; and two distinct terms of one round have distinct
    children, since their nu differ in a prefix, or their nu agree and
    (mu, k) -> (mu j, k') is injective for each letter d (`shift_through`
    recovers t = (d - 1) + k from j and k' as t = n k'/m + j - 1).  So no
    two terms of the refinement ever meet, nothing needs to be merged, and
    every coefficient stays the monomial's own, 1.  This is the row that
    `Element.monomial(...).refine_to_level(level)` gives, with no Element
    and no QQi built.
    """
    terms: Iterable = ((mon, 1),)
    for _ in range(level - len(mon.nu)):
        terms = _expand(params, terms)
    return dict(terms)


class _Echelon:
    """Incremental sparse echelon over the integers.

    Rows map keys to non-zero ints; the keys are hashable and totally
    ordered, and `entropy_estimate` numbers its refined terms.  A row
    whose leading key already has a pivot is reduced by

        row <- p * row - c * pivot,

    with p the pivot's and c the row's leading entry, each first divided
    by gcd(p, c), which cancels the leading key; the row is then divided
    by the gcd of all its entries, and pivots are stored as they come out
    of that reduction.

    Why the rank is the rank over Q: Z is an integral domain whose field
    of fractions is Q.  Dividing by a gcd multiplies by a non-zero
    rational, and as p != 0 the old row is (new row + c * pivot) / p, so
    every step leaves the Q-span of the rows inserted so far unchanged.
    A row reduces to nothing exactly when it lies in the span of the
    pivots, and pivots with distinct leading (least) keys are linearly
    independent, so `rank` counts the dimension of that span.

    Why that is the rank the growth table needs: the rows of
    `entropy_estimate` are the refinements of single monomials, whose
    coefficients are all 1 (`_refined_row`), and the rank of a real
    matrix is the same over Q and over Q(i): if real rows r_j satisfy
    sum (a_j + b_j i) r_j = 0 with a_j, b_j rational, the real and
    imaginary parts give sum a_j r_j = 0 and sum b_j r_j = 0, so a
    dependency over Q(i) has a non-trivial one over Q.  No Fraction, QQi
    or float is built anywhere in the elimination.
    """

    def __init__(self) -> None:
        self.pivots: Dict[Hashable, Dict[Hashable, int]] = {}

    def insert(self, row: Dict[Hashable, int]) -> bool:
        """Reduce row against the basis; returns True if rank grew.

        The row is not copied: if it becomes a pivot as it is, the echelon
        keeps the caller's dict.
        """
        while row:
            key = min(row)
            piv = self.pivots.get(key)
            if piv is None:
                self.pivots[key] = row
                return True
            row = _eliminate(row, piv, key)
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(row: Dict[Hashable, int], piv: Dict[Hashable, int],
               key: Hashable) -> Dict[Hashable, int]:
    """p * row - c * piv in primitive form, p and c the entries at key."""
    p, c = piv[key], row[key]
    g = math.gcd(p, c)
    p, c = p // g, c // g
    # the growth-table rows have unit entries, so p = 1 is the common case
    out = dict(row) if p == 1 else {k: p * a for k, a in row.items()}
    for k, a in piv.items():
        x = out.get(k, 0) - c * a
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def _primitive(row: Dict[Hashable, int]) -> Dict[Hashable, int]:
    """Divide out the gcd of every entry."""
    g = math.gcd(*row.values())
    if g > 1:
        return {k: a // g for k, a in row.items()}
    return row


# -- growth table -----------------------------------------------------------

# `entropy_estimate` refuses a request whose echelon work estimate, rows
# inserted x terms of the longest refined row + _REFINE_WEIGHT x refined
# terms, passes this limit.  A row reduced against a pivot updates at most
# the entries of both.  The weight 64 was set when a refined term was built
# through `Element` and `QQi` arithmetic; `_refined_row` builds one for
# less, and the weight is kept so that the same requests are refused.  Of
# the 31 admitted requests with an estimate from 3 000 000 to the limit, the
# slowest (n = 2, s = 3, n_max = 3) takes about 0.5-0.8 s and the largest
# (n = 39, s = 0, n_max = 3) 64 MB peak RSS, each `omnalg entropy` in a
# fresh interpreter (Python 3.11.7, 2 cores, shared host); at n = 2,
# s = 0 the limit admits n_max <= 10.
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
    """The growth table of `entropy_estimate`, one row per depth.

    `entropy_estimate` answers with every depth or refuses, so `truncated`
    and `warning` always keep their defaults, False and None.  They stay
    because the entropy results of an `omnalg-report/1` run report carry
    both keys, and the benchmark's algebra-deep gate reads `truncated`.
    """

    m: int
    n: int
    s: int
    rows: Tuple[EntropyRow, ...]
    truncated: bool = False
    warning: Optional[str] = None

    @property
    def growth_rate(self) -> float:
        for row in reversed(self.rows):
            if row.slope is not None:
                return row.slope
        return self.rows[-1].normalized

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


def entropy_estimate(params: AlgebraParams, s: int, n_max: int) -> EntropyTable:
    """Dimension growth of the window under the canonical endomorphism.

    Tracks D_N = dim span of the window monomials together with the
    individual terms of their first N-1 endomorphism images.  Terms of
    the level-l image all share annihilation length l + s at most, so
    one refinement level serves every batch and ranks accumulate in a
    single echelon pass.  Requires m = 1 and n >= 2.

    Each row is one monomial refined to that level.  Its terms are
    pairwise distinct and each has coefficient 1, so it needs no merge and
    is the integer row {term: 1} (`_refined_row`).  The matrix of these
    rows is real, and a real matrix has the same rank over Q as over
    Q(i), so `_Echelon` ranks it over the integers and every dimension is
    the dimension of the complex span.

    Every depth refines the same number of terms: the batch one depth
    deeper puts each of n letters in front of the nu of each monomial,
    so it holds n times as many monomials whose refinements are n times
    shorter.  So the echelon work estimate over all `n_max` depths (the
    longest refined row is that of a window monomial with nu = ()) is
    known before any row is built; an estimate past `ECHELON_WORK_LIMIT`
    raises ValueError, and otherwise the table has all `n_max` rows.
    """
    if params.m != 1:
        raise ValueError("growth estimate requires m = 1")
    if params.n < 2:
        raise ValueError(f"growth estimate requires n >= 2, got {params.n}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = params.n
    window = monomial_window(params, s)
    level = (n_max - 1) + s
    # every row inserted costs at least n^level, so the estimate passes the
    # limit as soon as n^level does, and that power is never formed
    per_depth = _terms_per_depth(n, s, level, ECHELON_WORK_LIMIT)
    if per_depth is None:
        raise ValueError(f"echelon work estimate exceeds the limit "
                         f"{ECHELON_WORK_LIMIT}: it is more than n^level = "
                         f"{n}^{level}")
    inserted = len(window) * (n ** n_max - 1) // (n - 1)
    refined = n_max * per_depth
    work = inserted * n ** level + _REFINE_WEIGHT * refined
    if work > ECHELON_WORK_LIMIT:
        raise ValueError(f"echelon work estimate {work} ({inserted} rows, "
                         f"{refined} refined terms) exceeds the limit "
                         f"{ECHELON_WORK_LIMIT}")
    ech = _Echelon()
    # each refined term is numbered when it first appears, so the echelon
    # hashes and compares ints instead of the words of a Monomial
    index: Dict[Monomial, int] = {}
    rows: List[EntropyRow] = []
    batch = window
    prev_dim: Optional[int] = None
    for depth in range(1, n_max + 1):
        for mon in batch:
            ech.insert({index.setdefault(term, len(index)): 1
                        for term in _refined_row(params, mon, level)})
        dim = ech.rank
        slope = None if prev_dim is None else math.log(dim) - math.log(prev_dim)
        rows.append(EntropyRow(depth, dim, slope, math.log(dim) / depth))
        prev_dim = dim
        if depth < n_max:  # no batch is built past the last depth
            batch = [Monomial((i,) + mon.mu, mon.k, (i,) + mon.nu)
                     for mon in batch for i in range(1, n + 1)]
    for earlier, later in zip(rows, rows[1:]):
        assert later.dimension >= earlier.dimension
    return EntropyTable(params.m, params.n, s, tuple(rows))


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
