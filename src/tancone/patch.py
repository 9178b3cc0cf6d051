"""Affine patch at a fixed point: coordinate matrix, minors, the
tangent-cone ideal generators, and the distinguished Groebner set.

The patch memoizes each orbit representative's monic minor and chain
fact for every case verified on it.  A minor is expanded along its last
row over a memo of strict sub-minors keyed by (rows, cols), so a patch
builds each sub-minor once for every minor that contains it, and drops
them with the patch when a sweep is done with its beta.  Monomials are
the ring's packed integers (``PolyRing.pack``), one big-endian byte per
variable in ring order below the total degree: each variable's unit
carries one degree unit too, so a term times a variable is one integer
addition and the expansion yields the kernel's monomials directly, in
which integer order is the term order.  That is exact because a variable
fills at most two cells, X(r, c) and its mirror, so no exponent of a
minor exceeds 2 and no guard bit is ever reached.

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

from itertools import compress, filterfalse

from ._kernel_py import _inv
from .grid import (
    chain_gt,
    chain_value,
    is_positive,
    is_upper,
    sharp_point,
)
from .indexsets import (
    AdmissiblePair,
    Index,
    admissible_pairs,
    bruhat_leq,
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
    as the (variable index, sign) it is built from, which is what the
    minors read (``definitions.patch_entries`` builds the explicit
    matrix).  ``_minors`` holds the strict sub-minors, packed, and
    ``_generators`` each theta's monic minor and chain fact.
    """

    def __init__(self, beta: Index, d: int, ring: PolyRing):
        self.beta = tuple(beta)
        self.d = d
        self.ring = ring
        self.signed_vars: dict[tuple[int, int], tuple[int, int]] = {}
        n = ring.nvars
        self._units = [ring.pack((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]
        self._minors: dict[tuple[tuple, tuple], dict[int, int]] = {}
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

    def _expand(self, rows: tuple, cols: tuple) -> dict[int, int]:
        """{packed monomial: integer coefficient} of the minor on rows x
        cols: sum_j (-1)^(k-1+j) X(r, c_j) minor(rows - r, cols - c_j), r
        the last row, each sub-minor read from or put in ``_minors``."""
        if len(rows) < 2:
            if not rows:
                return {0: 1}
            var, s = self.signed_vars[(rows[0], cols[0])]
            return {self._units[var]: s}
        head, last = rows[:-1], rows[-1]
        memo = self._minors
        acc: dict[int, int] = {}
        get = acc.get
        sign = -1 if len(head) % 2 else 1
        for j, c in enumerate(cols):
            var, s = self.signed_vars[(last, c)]
            unit = self._units[var]
            s *= sign
            sign = -sign
            key = (head, cols[:j] + cols[j + 1 :])
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = self._expand(*key)
            for m, v in sub.items():
                m += unit
                acc[m] = get(m, 0) + s * v
        return {m: v for m, v in acc.items() if v}

    def _packed_minor(self, theta: Index) -> dict[int, int]:
        """``_expand`` on rows theta - beta, columns beta - theta, recalled
        if already a sub-minor, with its coefficients reduced mod p over
        F_p."""
        rows = tuple(filterfalse(set(self.beta).__contains__, sorted(theta)))
        cols = tuple(filterfalse(set(theta).__contains__, self.beta))
        if len(rows) != len(cols):
            raise ValueError("theta and beta must have the same size")
        packed = self._minors.get((rows, cols))
        if packed is None:
            packed = self._expand(rows, cols)
        p = self.ring.p
        return {m: c % p for m, c in packed.items() if c % p} if p else packed

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus theta."""
        return Poly(self.ring, self._packed_minor(theta))

    def generator(self, theta: Index) -> tuple[Poly, tuple[bool, Index] | None]:
        """(monic minor, chain fact) of theta, memoized; the polynomial
        must not be mutated.  A minor vanishing over F_p gives (zero, None).

        The expansion's terms are already the kernel's packed monomials,
        so no term is unpacked: the lead is the integer maximum of the
        terms left mod p, one pass scales them to lead coefficient 1, and
        the divisor record is (lead, 1, the other terms).  The lead alone
        is unpacked, for the fact: (all points positive, chain value at
        beta) of the lead's support, read off in chain order (the ring's
        variable order), if that is a squarefree one-signed chain."""
        theta = tuple(theta)
        entry = self._generators.get(theta)
        if entry is not None:
            return entry
        ring, p = self.ring, self.ring.p
        terms = self._packed_minor(theta)
        if not terms:
            entry = self._generators[theta] = (ring.zero(), None)
            return entry
        top = max(terms)
        inv = _inv(terms[top], p)
        if inv != 1:
            terms = {m: c * inv % p if p else c * inv for m, c in terms.items()}
        tail = dict(terms)
        del tail[top]
        f = Poly(ring, terms, (top, 1, tuple(tail.items())))
        lead = ring.unpack(top)
        fact = None
        if max(lead) == 1:
            pts = list(compress(ring.variables, lead))
            if all(map(chain_gt, pts, pts[1:])):
                signs = set(map(is_positive, pts))
                if len(signs) == 1:
                    fact = (signs.pop(), chain_value(pts, self.beta))
        entry = self._generators[theta] = (f, fact)
        return entry


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    """A fresh patch at e_beta over Q (p = 0) or F_p, with an empty memo.
    A beta that is not isotropic is refused by the ring's grid
    (``grid.grid_points``) before the matrix is built."""
    return PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))


def pair_minor(matrix: PatchMatrix, pair: AdmissiblePair) -> Poly:
    """f attached to an admissible pair: the minor of the lex-smaller
    orbit representative, scaled to initial coefficient 1."""
    return matrix.generator(pair.rep)[0]


def generator_set(
    alpha: Index, gamma: Index, patch: PatchMatrix
) -> tuple[list[AdmissiblePair], list[Poly]]:
    """(pairs, minors f) for every admissible pair (x, y) with alpha !<= y
    or x !<= gamma, on the patch at beta."""
    pairs = []
    polys = []
    for pair in admissible_pairs(patch.d):
        if not bruhat_leq(alpha, pair.bot) or not bruhat_leq(pair.top, gamma):
            pairs.append(pair)
            polys.append(pair_minor(patch, pair))
    return pairs, polys


def good_subset(
    alpha: Index, gamma: Index, patch: PatchMatrix, pairs: list[AdmissiblePair]
) -> tuple[list[AdmissiblePair], list[Poly]]:
    """Those of ``pairs`` (the generator set's) whose initial monomial is
    a one-signed upper chain violating the matching bound: a positive
    chain whose value is not at or below gamma, or a negative one whose
    value is not at or above alpha.  Each generator's monic minor and
    chain fact are read together from the patch
    (``PatchMatrix.generator``), so a case makes one Bruhat test per
    generator with a one-signed chain."""
    good_pairs = []
    good_polys = []
    for pair in pairs:
        f, fact = patch.generator(pair.rep)
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
