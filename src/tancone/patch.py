"""Affine patch at a fixed point: coordinate matrix, minors, the
tangent-cone ideal generators, and the distinguished Groebner set.

The patch matrix is 2d x d with identity rows on beta; the remaining
entries are the upper-region coordinates, with each strictly-lower
position (r, c) identified to +/- the mirrored coordinate X(c*, r*).
The sign follows the split rule (``mirror_sign``) and the symplectic
form is the standard one (``form_eps``).  Of the readings of the
paper's boundary convention, this is the one that makes the patch
columns isotropic identically in the variables for every beta at every
d; the tests check that with ``column_inner_products`` for d <= 5, and
check that the strict-inequality reading fails at d = 2.  Reports name
the choice by ``FORM_LABEL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .grid import (
    chain_value,
    is_chain,
    is_positive,
    is_upper,
    sharp_point,
    upper_points,
)
from .indexsets import (
    AdmissiblePair,
    Index,
    admissible_pairs,
    bruhat_leq,
    is_isotropic,
    star,
)
from .ring import Poly, PolyRing


FORM_LABEL = "form=standard;rule=split"


def form_eps(i: int, d: int) -> int:
    """<e_i, e_{i*}> for the standard skew form."""
    return 1 if i <= d else -1


def mirror_sign(r: int, c: int, d: int) -> int:
    """Sign in X(r,c) = sign * X(c*, r*): minus when r and c* lie on
    opposite sides of d, with c* = d counted on the low side."""
    return -1 if (r > d) != (star(c, d) > d) else 1


class PatchMatrix:
    """2d x d coordinate matrix of the affine patch at e_beta.

    ``entries`` holds every entry as a polynomial; ``signed_vars`` holds
    each entry outside beta's rows as the (variable index, sign) it is
    built from, which is what ``minor`` reads.
    """

    def __init__(self, beta: Index, d: int, ring: PolyRing):
        self.beta = tuple(beta)
        self.d = d
        self.ring = ring
        self.entries: dict[tuple[int, int], Poly] = {}
        self.signed_vars: dict[tuple[int, int], tuple[int, int]] = {}
        self._minors: dict[Index, Poly] = {}
        bset = set(beta)
        for r in range(1, 2 * d + 1):
            for c in beta:
                if r in bset:
                    self.entries[(r, c)] = ring.one() if r == c else ring.zero()
                    continue
                if is_upper((r, c), d):
                    var, s = (r, c), 1
                else:
                    var, s = sharp_point((r, c), d), mirror_sign(r, c, d)
                self.signed_vars[(r, c)] = (ring.index[var], s)
                self.entries[(r, c)] = ring.gen(var).scale(s)

    def entry(self, r: int, c: int) -> Poly:
        return self.entries[(r, c)]

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus theta.

        Those rows lie outside beta, so every entry used is +/- one
        variable, and the Leibniz sum runs over ``signed_vars`` with
        integer signs.  The result is memoized per theta on this matrix,
        so every case verified on this patch shares it; the returned
        polynomial must not be mutated.
        """
        theta = tuple(theta)
        cached = self._minors.get(theta)
        if cached is not None:
            return cached
        rows = sorted(set(theta) - set(self.beta))
        cols = sorted(set(self.beta) - set(theta))
        if len(rows) != len(cols):
            raise ValueError("theta and beta must have the same size")
        k = len(rows)
        cells = [[self.signed_vars[(r, c)] for c in cols] for r in rows]
        acc: dict[tuple, int] = {}
        for perm in permutations(range(k)):
            sign = _perm_sign(perm)
            exps = [0] * self.ring.nvars
            for i in range(k):
                var, s = cells[i][perm[i]]
                exps[var] += 1
                sign *= s
            mono = tuple(exps)
            acc[mono] = acc.get(mono, 0) + sign
        result = self.ring.poly(acc)
        self._minors[theta] = result
        return result


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def column_inner_products(matrix: PatchMatrix):
    """<u_c, u_c'> for all column pairs, as polynomials.

    The form is <x, y> = sum_j eps_j x_j y_{j*}; isotropy of the patch
    means every one of these vanishes identically.
    """
    d = matrix.d
    prods = []
    for i, c in enumerate(matrix.beta):
        for c2 in matrix.beta[i + 1 :]:
            acc = matrix.ring.zero()
            for j in range(1, 2 * d + 1):
                eps = form_eps(j, d)
                acc = acc + (
                    matrix.entries[(j, c)] * matrix.entries[(star(j, d), c2)]
                ).scale(eps)
            prods.append(acc)
    return prods


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    """A fresh patch at e_beta over Q (p = 0) or F_p, with an empty minor memo."""
    if not is_isotropic(beta, d):
        raise ValueError(f"{beta} is not isotropic")
    return PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))


def pair_minor(matrix: PatchMatrix, pair: AdmissiblePair) -> Poly:
    """f attached to an admissible pair: the minor of the lex-smaller
    orbit representative, scaled to initial coefficient 1."""
    return matrix.minor(pair.rep).monic()


@dataclass
class GeneratorSet:
    """Eq-style generating set of the tangent-cone ideal on the patch."""

    alpha: Index
    beta: Index
    gamma: Index
    d: int
    ring: PolyRing
    matrix: PatchMatrix
    pairs: list[AdmissiblePair]
    polys: list[Poly]


def generator_set(alpha: Index, gamma: Index, patch: PatchMatrix) -> GeneratorSet:
    """Minors f for every admissible pair (x, y) with alpha !<= y or x !<= gamma,
    on the patch at beta."""
    beta, d = patch.beta, patch.d
    _require_triple(alpha, beta, gamma, d)
    pairs = []
    polys = []
    for pair in admissible_pairs(d):
        if not bruhat_leq(alpha, pair.bot) or not bruhat_leq(pair.top, gamma):
            pairs.append(pair)
            polys.append(pair_minor(patch, pair))
    return GeneratorSet(
        alpha=tuple(alpha),
        beta=beta,
        gamma=tuple(gamma),
        d=d,
        ring=patch.ring,
        matrix=patch,
        pairs=pairs,
        polys=polys,
    )


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


def good_subset(gens: GeneratorSet) -> tuple[list[AdmissiblePair], list[Poly]]:
    """Pairs of the generator set whose initial monomial is a one-signed
    upper chain violating the matching bound."""
    good_pairs = []
    good_polys = []
    for pair, f in zip(gens.pairs, gens.polys):
        ch = initial_chain(f)
        if ch is None:
            continue
        assert all(is_upper(q, gens.d) for q in ch)
        signs = {is_positive(q) for q in ch}
        if len(signs) != 1:
            continue
        value = chain_value(ch, gens.beta)
        if signs == {True}:
            if not bruhat_leq(value, gens.gamma):
                good_pairs.append(pair)
                good_polys.append(f)
        else:
            if not bruhat_leq(gens.alpha, value):
                good_pairs.append(pair)
                good_polys.append(f)
    return good_pairs, good_polys


def _require_triple(alpha, beta, gamma, d):
    for v in (alpha, beta, gamma):
        if not is_isotropic(v, d):
            raise ValueError(f"{v} is not isotropic")
    if not (bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma)):
        raise ValueError("need alpha <= beta <= gamma")
