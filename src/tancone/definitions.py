"""The paper's definitions of the counted objects and of the maps between
them, written directly rather than for speed.

The verifier counts five columns from tables built for speed (see
``verify``).  This module holds what those tables are checked against:
special multisets and the boundedness of chains, semistandard and
bounded bitableaux with their delta sequences, standard monomials on the
variety with their evaluation, the degree-doubling and degree-halving
injections, the explicit patch matrix and its isotropy, minimal
generators of a monomial ideal, and the basis statement for one degree.
It also holds, on tuples, what the verifier reads off bitsets: chain
values, the candidate rows of a bitableau and the plain pairs.
Every row value here comes from ``bound_value``; no definition reads a
fast path's memo or table, and no module of the verifier imports this
one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, combinations_with_replacement
from operator import add, le

from .brsk import NEG, POS, NotchedBitableau, Row, brsk_map
from .grid import (
    Multiset,
    Point,
    bound_value,
    chain_gt,
    chain_parts,
    is_upper,
    sharp_point,
    upper_points,
)
from .indexsets import (
    AdmissiblePair,
    Index,
    admissible_pairs,
    bruhat_leq,
    enumerate_indices,
    star,
)
from .patch import PatchMatrix, pair_minor
from .ring import Poly, monomials_outside, normal_form

# ---------------------------------------------------------------------------
# the grid: special multisets and chains


def sharp_multiset(m: Multiset, d: int) -> Multiset:
    out: Multiset = {}
    for p, k in m.items():
        q = sharp_point(p, d)
        out[q] = out.get(q, 0) + k
    return out


def double_multiset(m: Multiset, d: int) -> Multiset:
    """U -> U union U#; always special."""
    out = dict(m)
    for p, k in sharp_multiset(m, d).items():
        out[p] = out.get(p, 0) + k
    return out


def is_diagonal(p: Point, d: int) -> bool:
    r, c = p
    return r == star(c, d)


def is_special(m: Multiset, d: int) -> bool:
    """Invariant under sharp, with even multiplicity on the diagonal."""
    if sharp_multiset(m, d) != m:
        return False
    return all(k % 2 == 0 for p, k in m.items() if is_diagonal(p, d))


def special_multisets(beta: Index, d: int, m: int):
    """Every special multiset of degree 2m, one by one: the doubles
    U union U# of the multisets U of degree m on the upper region."""
    for combo in combinations_with_replacement(upper_points(beta, d), m):
        u: Multiset = {}
        for p in combo:
            u[p] = u.get(p, 0) + 1
        yield double_multiset(u, d)


def sqrt_special(m: Multiset, d: int) -> Multiset:
    """Inverse of doubling: fold strictly-lower points up, then halve.

    Raises on a non-special input (odd folded multiplicity, or a folded
    profile that is not sharp-symmetric).
    """
    folded: Multiset = {}
    for p, k in m.items():
        q = p if is_upper(p, d) else sharp_point(p, d)
        folded[q] = folded.get(q, 0) + k
    root: Multiset = {}
    for p, k in folded.items():
        if k % 2:
            raise ValueError(f"multiset is not special: odd count at {p}")
        root[p] = k // 2
    if double_multiset(root, d) != m:
        raise ValueError("multiset is not special: not sharp-symmetric")
    return root


def is_chain(points) -> bool:
    """Strictly decreasing in the double inequality; empty chains allowed."""
    return all(chain_gt(a, b) for a, b in zip(points, points[1:]))


def initial_chain(f: Poly):
    """Support of the initial monomial as a chain, or None.

    Returns the points sorted into decreasing chain order when the
    initial monomial is squarefree and its support is a chain; a repeated
    variable can never sit inside a strictly decreasing chain.
    """
    lm = f.leading_monomial()
    if any(e > 1 for e in lm):
        return None
    pts = [f.ring.variables[i] for i, e in enumerate(lm) if e == 1]
    pts.sort(key=lambda q: (-q[0], q[1]))
    if not is_chain(pts):
        return None
    return tuple(pts)


def chain_value(points, beta: Index) -> Index:
    """The value of a chain part, ``bound_value`` of its rows and columns:
    the tuple oracle of the bitset values of
    ``grid.multiset_chain_values`` and ``PatchMatrix.generator``."""
    rows, cols = zip(*points) if points else ((), ())
    return bound_value(rows, cols, beta)


def is_upper_chain(points, d: int) -> bool:
    return is_chain(points) and all(is_upper(p, d) for p in points)


def enumerate_chains(points, nonempty: bool = True):
    """Every chain supported on ``points`` (each point used at most once)."""
    ordered = sorted(set(points), key=lambda p: (-p[0], p[1]))
    chains = [()]
    for n in range(1, len(ordered) + 1):
        for sub in combinations(ordered, n):
            if is_chain(sub):
                chains.append(sub)
    return chains[1:] if nonempty else chains


def fold_chain(points, d: int) -> tuple[Point, ...]:
    """Replace strictly-lower chain entries by their mirrors."""
    return tuple(p if is_upper(p, d) else sharp_point(p, d) for p in points)


def chain_bounded(points, alpha: Index, gamma: Index, beta: Index) -> bool:
    """alpha <= value(negative part) and value(positive part) <= gamma.

    Empty parts impose no constraint.
    """
    pos, neg = chain_parts(points)
    if neg and not bruhat_leq(alpha, chain_value(neg, beta)):
        return False
    if pos and not bruhat_leq(chain_value(pos, beta), gamma):
        return False
    return True


def multiset_bounded(m: Multiset, alpha: Index, gamma: Index, beta: Index) -> bool:
    """Every chain drawn from the support is bounded."""
    return all(chain_bounded(ch, alpha, gamma, beta) for ch in enumerate_chains(m))


# ---------------------------------------------------------------------------
# bitableaux


def row_values(t: NotchedBitableau, beta: Index) -> tuple[Index, ...]:
    """The value (beta minus Q) union P of every row; ``bound_value``
    raises on a row that has none."""
    return tuple(bound_value(r.p, r.q, beta) for r in t.rows)


def _row_well_formed(r, beta: Index, d: int) -> bool:
    """Nonempty, P and Q strictly increasing of equal length inside
    [1, 2d], P outside beta and Q inside it."""
    bset = set(beta)
    if not r.p or len(r.p) != len(r.q):
        return False
    if list(r.p) != sorted(set(r.p)) or list(r.q) != sorted(set(r.q)):
        return False
    if set(r.p) & bset or not set(r.q) <= bset:
        return False
    return all(1 <= x <= 2 * d for x in r.p + r.q)


def is_semistandard(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Well-formed rows, negative block first, whose values weakly increase
    through beta: each NEG value at or below it, each POS one at or above."""
    if not all(_row_well_formed(r, beta, d) for r in t.rows):
        return False
    signs = [r.sign for r in t.rows]
    if signs != sorted(signs):
        return False
    vals = row_values(t, beta)
    for a, b in zip(vals, vals[1:]):
        if not bruhat_leq(a, b):
            return False
    for r, v in zip(t.rows, vals):
        if r.sign == NEG and not bruhat_leq(v, beta):
            return False
        if r.sign == POS and not bruhat_leq(beta, v):
            return False
    return True


def delta_sequence(t: NotchedBitableau, beta: Index) -> tuple[Index, ...]:
    """Row values, with beta wedged between the blocks when the count is odd."""
    vals = list(row_values(t, beta))
    if len(vals) % 2 == 1:
        vals.insert(len(t.negative_rows()), tuple(beta))
    return tuple(vals)


def is_bounded_bitableau(
    t: NotchedBitableau, alpha: Index, gamma: Index, beta: Index
) -> bool:
    """alpha <= first delta value and last delta value <= gamma."""
    if not t.rows:
        return True
    delta = delta_sequence(t, beta)
    return bruhat_leq(alpha, delta[0]) and bruhat_leq(delta[-1], gamma)


def _starred_row_values(beta: Index, d: int):
    """Values usable as rows of an on-starred bitableau, with box weights
    and signs, in lex order: the oracle on tuples of the candidates that
    ``brsk.enumerate_on_starred`` reads off bit data.

    Mirror symmetry of a row forces its value into I(d); rows are
    nonempty, so the value beta itself is excluded, and semistandardness
    needs comparability with beta.
    """
    out = []
    for v in enumerate_indices(d):
        if v == tuple(beta):
            continue
        if bruhat_leq(v, beta):
            out.append((v, len(set(v) - set(beta)), NEG))
        elif bruhat_leq(beta, v):
            out.append((v, len(set(v) - set(beta)), POS))
    return tuple(out)


def _row_from_value(v: Index, beta: Index, sign: int) -> Row:
    """The row (P, Q) whose value (beta minus Q) union P is v."""
    p = tuple(sorted(set(v) - set(beta)))
    q = tuple(sorted(set(beta) - set(v)))
    return Row(p=p, q=q, sign=sign)


def top_bot_of_chain(chain, beta: Index, d: int) -> tuple[Index, Index]:
    """(bottom row value, top row value) of the doubled chain's bitableau."""
    if not chain:
        raise ValueError("chain must be nonempty")
    if not is_upper_chain(tuple(chain), d):
        raise ValueError("not an extended upper chain")
    m = double_multiset({p: 1 for p in chain}, d)
    vals = row_values(brsk_map(m, beta, d), beta)
    return vals[-1], vals[0]


# ---------------------------------------------------------------------------
# standard monomials


@lru_cache(maxsize=None)
def admissible_pair_by_ends(d: int) -> dict[tuple[Index, Index], AdmissiblePair]:
    """Lookup (top, bot) -> pair.  Not every top >= bot is admissible."""
    return {(p.top, p.bot): p for p in admissible_pairs(d)}


def pair_is_plain(pair: AdmissiblePair, beta: Index) -> bool:
    """Not (beta, beta), and beta is above the top or below the bottom:
    the oracle of the plain pairs that ``verify._standard_chains`` reads
    off the pairs' Bruhat masks."""
    if pair.top == tuple(beta) and pair.bot == tuple(beta):
        return False
    return bruhat_leq(pair.top, beta) or bruhat_leq(beta, pair.bot)


def pair_leq(w1: AdmissiblePair, w2: AdmissiblePair) -> bool:
    """Order used in standard-monomial chains: w1 <= w2 iff top(w1) <= bot(w2)."""
    return bruhat_leq(w1.top, w2.bot)


def is_standard(pairs, beta: Index) -> bool:
    if not all(pair_is_plain(w, beta) for w in pairs):
        return False
    return all(pair_leq(a, b) for a, b in zip(pairs, pairs[1:]))


def is_standard_on_y(pairs, alpha: Index, beta: Index, gamma: Index) -> bool:
    if not is_standard(pairs, beta):
        return False
    if not pairs:
        return True
    return bruhat_leq(alpha, pairs[0].bot) and bruhat_leq(pairs[-1].top, gamma)


def monomial_degree(pairs, beta: Index) -> int:
    return sum(w.beta_degree(beta) for w in pairs)


def _standard_sequences(beta: Index, d: int, max_degree: int):
    """Every nonempty standard pair sequence of degree <= max_degree at
    this beta, tagged (pairs, degree, bot of first, top of last), by DFS.

    Every plain pair has positive beta-degree: the one pair of degree 0
    is (beta, beta)."""
    plain = [w for w in admissible_pairs(d) if pair_is_plain(w, beta)]
    found = []

    def extend(seq, degree):
        for w in plain:
            total = degree + w.beta_degree(beta)
            if total > max_degree:
                continue
            if seq and not pair_leq(seq[-1], w):
                continue
            nxt = seq + [w]
            found.append((tuple(nxt), total, nxt[0].bot, nxt[-1].top))
            extend(nxt, total)

    extend([], 0)
    return found


def enumerate_standard_on_y(
    alpha: Index, beta: Index, gamma: Index, d: int, max_degree: int
):
    """Standard monomials on the variety, grouped by degree.

    Index 0 holds the empty monomial; sequences appear in a fixed
    deterministic order.
    """
    by_degree: list[list[tuple[AdmissiblePair, ...]]] = [
        [] for _ in range(max_degree + 1)
    ]
    by_degree[0].append(())
    for pairs, degree, bot0, top1 in _standard_sequences(tuple(beta), d, max_degree):
        if bruhat_leq(alpha, bot0) and bruhat_leq(top1, gamma):
            by_degree[degree].append(pairs)
    return by_degree


def evaluate(pairs, matrix: PatchMatrix) -> Poly:
    """Product of the pairs' minors; 1 for the empty sequence."""
    out = matrix.ring.one()
    for w in pairs:
        out = out * pair_minor(matrix, w)
    return out


# ---------------------------------------------------------------------------
# the two counting maps


def doubling_injection(mono, ring, d: int) -> Multiset:
    """Monomial (exponent tuple over the patch variables) -> U union U#."""
    u: Multiset = {}
    for i, e in enumerate(mono):
        if e:
            u[ring.variables[i]] = e
    if not u:
        raise ValueError("the empty monomial has no doubled multiset")
    return double_multiset(u, d)


def halving_injection(
    t: NotchedBitableau, beta: Index, d: int
) -> tuple[AdmissiblePair, ...]:
    """Pair off the value sequence of an on-starred bitableau.

    beta is wedged between the blocks once when the total row count is
    odd, twice when the negative and positive blocks are both odd, so
    that no pair straddles the blocks.  Raises ValueError if some value
    pair fails to be admissible (the bitableau is then outside the
    correspondence's image).
    """
    n = len(t.negative_rows())
    p = len(t.positive_rows())
    delta = list(row_values(t, beta))
    if (n + p) % 2 == 1:
        delta.insert(n, tuple(beta))
    elif n % 2 == 1 and p % 2 == 1:
        delta.insert(n, tuple(beta))
        delta.insert(n, tuple(beta))
    lookup = admissible_pair_by_ends(d)
    pairs = []
    for i in range(0, len(delta), 2):
        bot, top = delta[i], delta[i + 1]
        w = lookup.get((top, bot))
        if w is None:
            raise ValueError(f"values ({top}, {bot}) do not form an admissible pair")
        pairs.append(w)
    return tuple(pairs)


# ---------------------------------------------------------------------------
# the patch matrix


def form_eps(i: int, d: int) -> int:
    """<e_i, e_{i*}> for the standard skew form."""
    return 1 if i <= d else -1


def patch_entries(patch: PatchMatrix) -> dict[tuple[int, int], Poly]:
    """Every entry (r, c) of the 2d x d patch matrix as a polynomial: the
    identity on beta's rows, and elsewhere the signed variable that
    ``patch.signed_vars`` names."""
    ring = patch.ring
    entries = {}
    for r in range(1, 2 * patch.d + 1):
        for c in patch.beta:
            if r in patch.beta:
                entries[(r, c)] = ring.one() if r == c else ring.zero()
            else:
                var, sign = patch.signed_vars[(r, c)]
                entries[(r, c)] = ring.gen(ring.variables[var]).scale(sign)
    return entries


def column_inner_products(entries, beta: Index, d: int) -> list[Poly]:
    """<u_c, u_c'> for all column pairs of the matrix ``entries``, as
    polynomials.

    The form is <x, y> = sum_j eps_j x_j y_{j*}; isotropy of the patch
    means every one of these vanishes identically.
    """
    return [
        reduce(
            add,
            (
                (entries[(j, c)] * entries[(star(j, d), c2)]).scale(form_eps(j, d))
                for j in range(1, 2 * d + 1)
            ),
        )
        for i, c in enumerate(beta)
        for c2 in beta[i + 1 :]
    ]


# ---------------------------------------------------------------------------
# the basis statement


def minimal_monomial_generators(monos) -> list[tuple]:
    """Minimal generating set of the monomial ideal spanned by the
    exponent tuples ``monos``, ascending in the term order: the oracle
    of the packed ``ring.minimal_leads``."""
    uniq = sorted(set(monos), key=lambda m: (sum(m), m))
    minimal: list[tuple] = []
    for m in uniq:
        if not any(all(map(le, g, m)) for g in minimal):
            minimal.append(m)
    return minimal


def _exact_rank(rows) -> int:
    """Rank of a list of dict-rows {column: Fraction} by exact elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        r = {k: Fraction(v) for k, v in row.items() if v}
        while r:
            col = min(r)
            if col in pivots:
                factor = r[col] / pivots[col][col]
                for k, v in pivots[col].items():
                    nv = r.get(k, Fraction(0)) - factor * v
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
            else:
                pivots[col] = r
                rank += 1
                break
    return rank


def standard_basis_agrees(
    gens, groebner, matrix: PatchMatrix, alpha, beta, gamma, d, degree
) -> bool:
    """Degree slice of the basis statement: the evaluations of the
    standard monomials are independent mod the ideal and match the
    staircase count of its initial ideal."""
    ring = matrix.ring
    init_gens = [g.leading_monomial() for g in groebner]
    staircase = monomials_outside(init_gens, ring.nvars, degree)
    sms = enumerate_standard_on_y(alpha, beta, gamma, d, degree)[degree]
    if len(sms) != len(staircase):
        return False
    col = {m: i for i, m in enumerate(staircase)}
    rows = []
    for pairs in sms:
        nf = normal_form(evaluate(pairs, matrix), groebner)
        row = {}
        for m, c in nf.terms.items():
            m = ring.unpack(m)
            if m not in col:  # remainder escaped the staircase: not a GB
                return False
            row[col[m]] = c
        rows.append(row)
    return _exact_rank(rows) == len(staircase)
