"""Dimension-growth entropy machinery and the matrix compression map.

The growth estimate tracks the exact linear dimension of the span of a
monomial window together with its images under the canonical
endomorphism, term by term.  Every monomial is refined so all
annihilation words share one length, at which point distinct triples are
linearly independent.  A monomial refines to its descendants in the
refinement forest (`algebra._expand`), each with coefficient 1, so two
refinements are nested or disjoint, and a dimension is a count: the
number of monomials whose refinement keeps a term that no monomial below
it covers, its private part.  No row is built and nothing is eliminated.

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
from .exact import QQi, bounded_power, int_str

Word = Tuple[int, ...]


def window_size(params: AlgebraParams, s: int) -> int:
    n = params.n
    words = s + 1 if n == 1 else (n ** (s + 1) - 1) // (n - 1)
    return words * words * (2 * n ** s + 1)


def monomial_window(params: AlgebraParams, s: int) -> List[Monomial]:
    """All monomials with word lengths <= s and |exponent| <= n^s.

    No limit of its own: `entropy_estimate` weighs the window before it
    builds it.
    """
    words: List[Word] = []
    for length in range(s + 1):
        words.extend(all_words(params.n, length))
    kmax = params.n ** s
    return [Monomial(mu, k, nu)
            for mu in words for k in range(-kmax, kmax + 1) for nu in words]


# -- growth table -----------------------------------------------------------

# `entropy_estimate` refuses a request whose forest node estimate,
# M (level + 1), passes this limit: the count holds the M members of all
# depths in `members` and their strict ancestors in `above`, at most
# `level` per member, since a step to the parent drops one letter from mu
# and one from nu.  Each recount walks a node of `above` at most once, from
# the nearest member above it.  Of the admitted requests with n <= 2 999
# and s <= 24, the heaviest, such as (n, s, n_max) = (170, 0, 3), (39, 1, 1)
# and (2, 1, 9), take about 0.3 s and 38-40 MB peak RSS each as `omnalg
# entropy` in a fresh interpreter, where (2, 0, 1) takes 0.13 s and 18 MB;
# the count alone takes 0.15-0.18 s (Python 3.11.7, 2 cores, shared host).
# At n = 2, s = 0 the limit admits n_max <= 12.
FOREST_NODE_LIMIT = 1 << 18


@dataclass(frozen=True)
class EntropyRow:
    depth: int
    dimension: int
    slope: Optional[float]
    normalized: float


@dataclass(frozen=True)
class EntropyTable:
    """The growth table of `entropy_estimate`, one row per depth.

    `entropy_estimate` answers with every depth or refuses, so a table is
    never truncated and carries no warning.  `to_json_obj` still writes
    both keys, False and None, as the entropy results of an
    `omnalg-report/1` run report carry them, and the class constant
    `truncated` stays because the benchmark's algebra-deep gate reads it.
    """

    truncated = False

    m: int
    n: int
    s: int
    rows: Tuple[EntropyRow, ...]

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
            "truncated": False,
            "warning": None,
        }


def entropy_estimate(params: AlgebraParams, s: int, n_max: int) -> EntropyTable:
    """Dimension growth of the window under the canonical endomorphism.

    Tracks D_N = dim span of the window monomials together with the
    individual terms of their first N-1 endomorphism images: the members
    at depth N.  Terms of the level-l image all share annihilation length
    l + s at most, so one refinement level serves every depth.  Requires
    m = 1 and n >= 2.

    Refined to that level, a member is the sum of its descendants in the
    refinement forest (`algebra._expand`), each with coefficient 1, and
    distinct monomials at one level are linearly independent
    (`Element.is_zero`).  So D_N is the rank of the indicators of these
    descendant sets.  Two of them are nested when one member lies below
    the other and disjoint otherwise, and distinct members give distinct
    sets, as every monomial has n >= 2 children.  For a member A, let
    P(A), its private part, be its set minus those of the members
    strictly below it.  The private parts are pairwise disjoint, and each
    member's set is the disjoint union of the private parts of the
    members at or below it, so by induction on the forest the indicators
    of the sets and of the private parts span the same space, over Q(i)
    as over any field.  The nonempty private parts are disjoint, hence
    independent: D_N is the number of members with a nonempty private
    part, counted again at each depth.

    The count is one loop over plain (mu, k, nu) tuples, with the closed
    forms of a monomial's parent and children (`algebra._expand`) at m = 1
    written into it.  Each member of a batch joins `members`, and its strict
    ancestors join `above`; the climb stops at the first one already there,
    which brings its own.  A member not in `above` has no member below it
    and keeps its whole refinement.  Otherwise the walk goes down from its
    children: a member child is covered; a child in neither set has no
    member at or below it, so its descendants at the common level are the
    member's own, and the member is counted; a child in `above` is walked in
    turn.  A node in `above` lies strictly above a member, hence above the
    common level, so every node walked lies at or above that level and the
    walk needs no level of its own.  The batches one depth deeper are tuples
    too, which hash and compare equal to the window's `Monomial`s.

    The window holds W^2 (2n^s + 1) monomials (`window_size`), W = 1 + n
    + ... + n^s, and the batch one depth deeper puts each of n letters in
    front of the mu and nu of each monomial of the last, so the `n_max`
    depths hold M = W^2 (2n^s + 1)(n^n_max - 1)/(n - 1) members.  A member
    at depth N has words of at most s + N - 1 <= level letters, and each
    step to the parent drops one letter of each, so it has at most `level`
    strict ancestors, and the count holds at most M (level + 1) forest
    nodes.  An estimate past `FOREST_NODE_LIMIT` raises ValueError before
    the window is built, and otherwise the table has all `n_max` rows.  The
    last batch alone holds n^(n_max - 1) times the window's more than n^s
    monomials, so the estimate is more than n^level, and a request whose
    n^level passes the limit is refused before that power is formed.
    """
    if params.m != 1:
        raise ValueError("growth estimate requires m = 1")
    if params.n < 2:
        raise ValueError(f"growth estimate requires n >= 2, got {params.n}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if s < 0:
        raise ValueError("window parameter must be >= 0")
    n = params.n
    level = (n_max - 1) + s
    if bounded_power(n, level, FOREST_NODE_LIMIT) is None:
        raise ValueError(f"forest node estimate exceeds the limit "
                         f"{FOREST_NODE_LIMIT}: it is more than n^level = "
                         f"{int_str(n)}^{int_str(level)}")
    # n^s and n^(n_max - 1) are at most n^level, so these sizes are small
    total = window_size(params, s) * (n ** n_max - 1) // (n - 1)
    nodes = total * (level + 1)
    if nodes > FOREST_NODE_LIMIT:
        raise ValueError(f"forest node estimate {nodes} ({total} members, "
                         f"level {level}) exceeds the limit "
                         f"{FOREST_NODE_LIMIT}")
    members: set = set()
    above: set = set()
    # no word has a letter at level 0; at level >= 1, n <= n^level passed
    # the check above, so this table is small
    letters = [(d,) for d in range(1, n + 1)] if level else []
    rows: List[EntropyRow] = []
    batch = monomial_window(params, s)
    prev_dim: Optional[int] = None
    for depth in range(1, n_max + 1):
        for mon in batch:
            members.add(mon)
            # the parent of `_expand` at m = 1; an ancestor already in
            # `above` brings its own ancestors
            mu, k, nu = mon
            while mu and nu:
                k = n * k + mu[-1] - nu[-1]
                mu, nu = mu[:-1], nu[:-1]
                up = (mu, k, nu)
                if up in above:
                    break
                above.add(up)
        dim = 0
        for mon in members:
            if mon not in above:
                dim += 1
                continue
            stack = [mon]
            while stack:
                mu, k, nu = stack.pop()
                # `_expand` at m = 1: the child for the letter d
                for t, d in enumerate(letters, k):
                    q, r = divmod(t, n)
                    child = (mu + letters[r], q, nu + d)
                    if child in members:
                        continue
                    if child not in above:
                        break
                    stack.append(child)
                else:
                    continue
                dim += 1  # a child with no member at or below it
                break
        slope = None if prev_dim is None else math.log(dim) - math.log(prev_dim)
        rows.append(EntropyRow(depth, dim, slope, math.log(dim) / depth))
        prev_dim = dim
        if depth < n_max:  # no batch is built past the last depth
            batch = [(d + mu, k, d + nu)
                     for mu, k, nu in batch for d in letters]
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
    # at m = 1 no exponent passes |k| <= n^s: pushing z^k through a letter
    # gives floor((j - 1 + k)/n), no larger in size; the lifts carry z^0
    q_bound_ok = not exps or abs(exps[0]) <= params.n ** s
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
