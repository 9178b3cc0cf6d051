"""Affine patch at a fixed point: coordinate matrix, minors, the
tangent-cone ideal generators, and the distinguished Groebner set.

A generator and the fact of its initial chain depend only on the orbit
representative and the fixed point, so the patch holds one memo entry
per representative, shared by every case verified on it.

The patch matrix is 2d x d with identity rows on beta; the remaining
entries are the upper-region coordinates, with each strictly-lower
position (r, c) identified to +/- the mirrored coordinate X(c*, r*).
The sign follows the split rule (``mirror_sign``) and the symplectic
form is the standard one (``definitions.form_eps``).  Of the readings of
the paper's boundary convention, this is the one that makes the patch
columns isotropic identically in the variables for every beta at every
d; the tests check that with ``definitions.column_inner_products`` on
the explicit matrix ``definitions.patch_entries`` for d <= 5, and check
that the strict-inequality reading fails at d = 2.  Reports name the
choice by ``FORM_LABEL``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .grid import (
    chain_value,
    is_chain,
    is_positive,
    is_upper,
    sharp_point,
)
from .indexsets import (
    AdmissiblePair,
    Index,
    _Record,
    admissible_pairs,
    bruhat_leq,
    is_isotropic,
    star,
)
from .ring import Poly, PolyRing


FORM_LABEL = "form=standard;rule=split"


def mirror_sign(r: int, c: int, d: int) -> int:
    """Sign in X(r,c) = sign * X(c*, r*): minus when r and c* lie on
    opposite sides of d, with c* = d counted on the low side."""
    return -1 if (r > d) != (star(c, d) > d) else 1


class PatchMatrix:
    """2d x d coordinate matrix of the affine patch at e_beta.

    Beta's rows are the identity; ``signed_vars`` holds every other entry
    as the (variable index, sign) it is built from, which is what
    ``minor`` reads (``definitions.patch_entries`` builds the explicit
    matrix).  ``generator`` memoizes each theta's monic minor and chain
    fact together, so neither is computed twice on one patch.
    """

    def __init__(self, beta: Index, d: int, ring: PolyRing):
        self.beta = tuple(beta)
        self.d = d
        self.ring = ring
        self.signed_vars: dict[tuple[int, int], tuple[int, int]] = {}
        self._generators: dict[Index, tuple[Poly, tuple[bool, Index] | None]] = {}
        for r in range(1, 2 * d + 1):
            if r in self.beta:
                continue
            for c in self.beta:
                if is_upper((r, c), d):
                    var, s = (r, c), 1
                else:
                    var, s = sharp_point((r, c), d), mirror_sign(r, c, d)
                self.signed_vars[(r, c)] = (ring.index[var], s)

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus theta.

        Those rows lie outside beta, so every entry used is +/- one
        variable, and the Leibniz sum runs over ``signed_vars`` with
        integer signs.  Built afresh on every call.
        """
        rows = sorted(set(theta) - set(self.beta))
        cols = sorted(set(self.beta) - set(theta))
        if len(rows) != len(cols):
            raise ValueError("theta and beta must have the same size")
        cells = [[self.signed_vars[(r, c)] for c in cols] for r in rows]
        acc: dict[tuple, int] = {}
        for perm, sign in _signed_permutations(len(rows)):
            exps = [0] * self.ring.nvars
            for row, j in zip(cells, perm):
                var, s = row[j]
                exps[var] += 1
                sign *= s
            mono = tuple(exps)
            acc[mono] = acc.get(mono, 0) + sign
        return self.ring.poly(acc)

    def generator(self, theta: Index) -> tuple[Poly, tuple[bool, Index] | None]:
        """(monic minor, chain fact) of theta, memoized; the polynomial
        must not be mutated.  The minor is homogeneous, so it is scaled to
        initial coefficient 1 and given its divisor record in one step
        (``Poly.monic_homogeneous``).  The fact is (whether every point is
        positive, chain value at beta) of its initial chain when that
        chain is one-signed, else None (no chain, or a mixed-sign one)."""
        theta = tuple(theta)
        entry = self._generators.get(theta)
        if entry is None:
            f = self.minor(theta).monic_homogeneous()
            fact = None
            ch = initial_chain(f)
            if ch is not None:
                assert all(is_upper(q, self.d) for q in ch)
                signs = {is_positive(q) for q in ch}
                if len(signs) == 1:
                    fact = (signs.pop(), chain_value(ch, self.beta))
            entry = self._generators[theta] = (f, fact)
        return entry


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every (permutation of range(k), its sign), built once per size k:
    the sign is -1 to the number of inversions."""
    out = []
    for perm in permutations(range(k)):
        inversions = sum(
            perm[i] > perm[j] for i in range(k) for j in range(i + 1, k)
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    """A fresh patch at e_beta over Q (p = 0) or F_p, with an empty memo.
    A beta that is not isotropic is refused by the ring's grid
    (``grid.grid_points``) before the matrix is built."""
    return PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))


def pair_minor(matrix: PatchMatrix, pair: AdmissiblePair) -> Poly:
    """f attached to an admissible pair: the minor of the lex-smaller
    orbit representative, scaled to initial coefficient 1."""
    return matrix.generator(pair.rep)[0]


class GeneratorSet(_Record):
    """Eq-style generating set of the tangent-cone ideal on the patch."""

    __slots__ = ("alpha", "gamma", "matrix", "pairs", "polys")

    def __init__(
        self,
        alpha: Index,
        gamma: Index,
        matrix: PatchMatrix,
        pairs: list[AdmissiblePair],
        polys: list[Poly],
    ):
        self.alpha = alpha
        self.gamma = gamma
        self.matrix = matrix
        self.pairs = pairs
        self.polys = polys


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
        gamma=tuple(gamma),
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
    upper chain violating the matching bound: a positive chain whose
    value is not at or below gamma, or a negative one whose value is not
    at or above alpha.  Each generator's chain fact is read from the
    patch (``PatchMatrix.generator``), so a case makes one Bruhat test
    per generator with a one-signed chain."""
    patch, alpha, gamma = gens.matrix, gens.alpha, gens.gamma
    good_pairs = []
    good_polys = []
    for pair, f in zip(gens.pairs, gens.polys):
        fact = patch.generator(pair.rep)[1]
        if fact is None:
            continue
        positive, value = fact
        if positive:
            if bruhat_leq(value, gamma):
                continue
        elif bruhat_leq(alpha, value):
            continue
        good_pairs.append(pair)
        good_polys.append(f)
    return good_pairs, good_polys


def _require_triple(alpha, beta, gamma, d):
    for v in (alpha, beta, gamma):
        if not is_isotropic(v, d):
            raise ValueError(f"{v} is not isotropic")
    if not (bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma)):
        raise ValueError("need alpha <= beta <= gamma")
