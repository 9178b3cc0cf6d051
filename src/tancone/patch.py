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
from functools import lru_cache
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
    """2d x d coordinate matrix of the affine patch at e_beta."""

    def __init__(self, beta: Index, d: int, ring: PolyRing):
        self.beta = tuple(beta)
        self.d = d
        self.ring = ring
        self.entries: dict[tuple[int, int], Poly] = {}
        bset = set(beta)
        for r in range(1, 2 * d + 1):
            for c in beta:
                if r in bset:
                    self.entries[(r, c)] = ring.one() if r == c else ring.zero()
                elif is_upper((r, c), d):
                    self.entries[(r, c)] = ring.gen((r, c))
                else:
                    s = mirror_sign(r, c, d)
                    self.entries[(r, c)] = ring.gen(sharp_point((r, c), d)).scale(s)

    def entry(self, r: int, c: int) -> Poly:
        return self.entries[(r, c)]

    def column(self, c: int) -> list[Poly]:
        return [self.entries[(r, c)] for r in range(1, 2 * self.d + 1)]

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus theta."""
        rows = sorted(set(theta) - set(self.beta))
        cols = sorted(set(self.beta) - set(theta))
        if len(rows) != len(cols):
            raise ValueError("theta and beta must have the same size")
        k = len(rows)
        if k == 0:
            return self.ring.one()
        total = self.ring.zero()
        for perm in permutations(range(k)):
            sign = _perm_sign(perm)
            term = self.ring.one()
            for i in range(k):
                term = term * self.entries[(rows[i], cols[perm[i]])]
            total = total + term.scale(sign)
        return total


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


@lru_cache(maxsize=None)
def _patch_cached(beta: Index, d: int, p: int) -> PatchMatrix:
    ring = PolyRing.for_patch(beta, d, p=p)
    return PatchMatrix(beta, d, ring)


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    if not is_isotropic(beta, d):
        raise ValueError(f"{beta} is not isotropic")
    return _patch_cached(tuple(beta), d, p)


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


def generator_set(
    alpha: Index, beta: Index, gamma: Index, d: int, p: int = 0
) -> GeneratorSet:
    """Minors f for every admissible pair (x, y) with alpha !<= y or x !<= gamma."""
    _require_triple(alpha, beta, gamma, d)
    matrix = build_patch(beta, d, p)
    pairs = []
    polys = []
    for pair in admissible_pairs(d):
        if not bruhat_leq(alpha, pair.bot) or not bruhat_leq(pair.top, gamma):
            pairs.append(pair)
            polys.append(pair_minor(matrix, pair))
    return GeneratorSet(
        alpha=tuple(alpha),
        beta=tuple(beta),
        gamma=tuple(gamma),
        d=d,
        ring=matrix.ring,
        matrix=matrix,
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
