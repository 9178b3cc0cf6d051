"""Index combinatorics for the Lagrangian Grassmannian.

Fixed-point indices are strictly increasing d-tuples drawn from
{1, ..., 2d}.  ``I(d, 2d)`` is the full set of d-subsets; the isotropic
subset ``I(d)`` consists of those v with v and v* disjoint, where
j* = 2d+1-j.  All functions work with plain sorted tuples of ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import le

Index = tuple[int, ...]

# the largest d accepted: three sampled d = 8, degree 1 cases take about
# 0.3-0.5 s CPU and 26 MiB on a 2-core VM; d = 9 is not measured
MAX_D = 8

# the most boxes ``brsk`` takes, as the total multiplicity of a multiset or
# the boxes of a bitableau (and its rows, as an empty row costs as much to
# scan): bounded insertion is quadratic in the boxes, and the slowest input
# admitted, one point repeated 1,000 times, takes about 1 s to invert
MAX_BRSK_BOXES = 1000

# the most degree-m monomials, over m = 0..max_degree, that one case may
# ask for: C(n + max_degree, n) with n = d(d+1)/2 patch variables, which
# the staircase keeps as degree tables for the whole run.  Alone it would
# admit d = 4 at degree 13, d = 5 at degree 9 and d = 7 at degree 6
# (1,344,904); MAX_BITABLEAU_WORK is the tighter bound from d = 2 up.
MAX_TABLE_MONOMIALS = 1_500_000

# the most box pairs, summed over the on-starred bitableaux with up to
# 2 max_degree boxes at one fixed point, that one case may ask the
# certificate to enumerate and test: a fixed point has C(n - 1 + m, n - 1)
# of them with 2m boxes, so the sum over m of m C(n - 1 + m, n - 1), which
# is n C(n + max_degree, n + 1).  It admits d = 2 at degree 61 (1,906,128),
# d = 3 at degree 17, d = 4 at degree 10 (1,679,600), d = 5 at degree 7,
# d = 6 at degree 6 (1,695,330), d = 7 at degree 5 and d = 8 at degree 4,
# but not d = 7 at degree 6 (7,791,168).
MAX_BITABLEAU_WORK = 2_000_000


def star(j: int, d: int) -> int:
    """Mirror index j* = 2d+1-j.  Involution on [1, 2d]."""
    if not 1 <= j <= 2 * d:
        raise ValueError(f"index {j} outside [1, {2 * d}]")
    return 2 * d + 1 - j


def star_set(v, d: int) -> Index:
    """Apply ``star`` to every entry, returning a sorted tuple."""
    return tuple(sorted(star(j, d) for j in v))


def is_isotropic(v, d: int) -> bool:
    """True when v is disjoint from its own mirror v*."""
    return not set(v) & set(star_set(v, d))


@lru_cache(maxsize=None)
def enumerate_indices(d: int, ambient_only: bool = False) -> tuple[Index, ...]:
    """All of I(d,2d) (``ambient_only``) or its isotropic subset I(d).

    Lexicographic order; cached since the sets are reused constantly.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > MAX_D:
        raise ValueError(f"d must be <= {MAX_D}, got {d}")
    allsets = combinations(range(1, 2 * d + 1), d)
    if ambient_only:
        return tuple(allsets)
    return tuple(v for v in allsets if is_isotropic(v, d))


def parse_index(text: str, d: int) -> Index:
    """Parse the textual form "1,3" (ASCII decimal digits between the
    commas, nothing else) into a validated tuple."""
    parts = text.split(",")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"cannot parse index {text!r}")
    entries = tuple(map(int, parts))
    if len(entries) != d:
        raise ValueError(f"index {text!r} must have {d} entries")
    if list(entries) != sorted(set(entries)):
        raise ValueError(f"index {text!r} must be strictly increasing")
    if entries and not (1 <= entries[0] and entries[-1] <= 2 * d):
        raise ValueError(f"index {text!r} has entries outside [1, {2 * d}]")
    return entries


def format_index(v) -> str:
    return ",".join(str(j) for j in v)


def bruhat_leq(v, w) -> bool:
    """Componentwise order on sorted tuples: v <= w iff v_i <= w_i."""
    if len(v) != len(w):
        raise ValueError("cannot compare indices of different lengths")
    return all(map(le, v, w))


def bruhat_mask(v, d: int) -> int:
    """Bruhat order as bit containment: the low v_i bits of the i-th block
    of 2d + 1 bits (none for v_i <= 0), so that for equal-length v and w
    with entries in [0, 2d + 1], ``bruhat_leq(v, w)`` holds exactly when
    ``bruhat_mask(v, d) & ~bruhat_mask(w, d) == 0``.  On such tuples the
    mask is injective, and AND is the meet and OR the join (``join_meet``):
    a block's low max(a, b) bits are the OR of its low a and low b bits,
    and its low min(a, b) bits their AND.

    Also exact on sorted tuples of equal length that agree at every
    position where either holds an entry outside that range: a larger
    entry only overflows into the blocks of the larger entries above it,
    and a smaller one sets nothing.
    """
    width = 2 * d + 1
    return sum(((1 << x) - 1) << (i * width) for i, x in enumerate(v) if x > 0)


def index_bits(v) -> int:
    """The entries of v as a bitset, bit j for entry j."""
    bits = 0
    for j in v:
        bits |= 1 << j
    return bits


def bits_index(bits: int) -> Index:
    """The sorted tuple of the set bits' positions: the inverse of
    ``index_bits``."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def isotropic_masks(d: int) -> dict[Index, tuple[int, int]]:
    """v -> (``index_bits(v)``, ``bruhat_mask(v, d)``) for every v in I(d),
    in lex order: the bit data on I(d) that the starred candidates and
    a sweep's up-sets read, computed once per d."""
    return {v: (index_bits(v), bruhat_mask(v, d)) for v in enumerate_indices(d)}


def join_meet(v, w) -> tuple[Index, Index]:
    """Componentwise (max, min) of two sorted tuples; both stay sorted."""
    if len(v) != len(w):
        raise ValueError("cannot combine indices of different lengths")
    join = tuple(max(a, b) for a, b in zip(v, w))
    meet = tuple(min(a, b) for a, b in zip(v, w))
    return join, meet


def sharp(theta, d: int) -> Index:
    """The involution theta -> (complement of theta)* on I(d,2d).

    Its fixed points are exactly the isotropic indices.
    """
    comp = [j for j in range(1, 2 * d + 1) if j not in set(theta)]
    return star_set(comp, d)


class _Record:
    """A value type whose fields are its ``__slots__``: equality, ``repr``
    and pickling are read off them, as a dataclass would generate them.
    A record equals only a record of its own class with equal fields,
    never a plain tuple, and pickles as its constructor applied to its
    fields.  Unhashable, since its fields may change.

    Plain slotted classes rather than dataclasses keep the import of
    ``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``) and
    one ``exec`` per class out of the CLI's start-up.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class _FrozenRecord(_Record):
    """A hashable record whose fields are set once, by its ``__init__``
    through ``object.__setattr__``; assigning or deleting one raises."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AdmissiblePair(_FrozenRecord):
    """A pair top >= bot in I(d) realised by a sharp-orbit {theta, theta#}.

    ``rep`` is the lexicographically smaller orbit representative; the
    minor attached to the pair is computed from it.
    """

    __slots__ = ("top", "bot", "rep")

    def __init__(self, top: Index, bot: Index, rep: Index):
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bot", bot)
        object.__setattr__(self, "rep", rep)

    def beta_degree(self, beta) -> int:
        return len(set(self.rep) - set(beta))


@lru_cache(maxsize=None)
def admissible_pairs(d: int) -> tuple[AdmissiblePair, ...]:
    """One AdmissiblePair per distinct (join, meet) of a sharp-orbit.

    From d = 4 on, distinct orbits can share their (join, meet) pair (the
    orbit minors then satisfy one linear relation on the Grassmannian),
    so pairs are deduplicated by their ends and the orbit with the lex
    smallest representative is kept as canonical.  Lex order of reps.
    """
    by_ends: dict[tuple[Index, Index], Index] = {}
    seen = set()
    for theta in enumerate_indices(d, ambient_only=True):
        if theta in seen:
            continue
        mate = sharp(theta, d)
        seen.add(theta)
        seen.add(mate)
        rep = min(theta, mate)
        ends = join_meet(theta, mate)
        if ends not in by_ends or rep < by_ends[ends]:
            by_ends[ends] = rep
    return tuple(
        AdmissiblePair(top=top, bot=bot, rep=rep)
        for (top, bot), rep in sorted(by_ends.items(), key=lambda kv: kv[1])
    )


@lru_cache(maxsize=None)
def pair_masks(d: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(reps, tops, bots) over ``admissible_pairs(d)``: each pair's
    ``index_bits(rep)``, so that its beta-degree is
    ``(rep & ~index_bits(beta)).bit_count()``, and the ``bruhat_mask``s
    of its top and bot."""
    pairs = admissible_pairs(d)
    return (
        tuple(index_bits(pair.rep) for pair in pairs),
        tuple(bruhat_mask(pair.top, d) for pair in pairs),
        tuple(bruhat_mask(pair.bot, d) for pair in pairs),
    )


def pairs_outside(alpha: Index, gamma: Index, d: int) -> list[AdmissiblePair]:
    """The admissible pairs (top, bot) with alpha !<= bot or top !<= gamma,
    in the order of ``admissible_pairs(d)``: one pass beside their masks
    (``pair_masks``), each order test one AND, as mask containment is
    Bruhat order."""
    _, tops, bots = pair_masks(d)
    above, below = bruhat_mask(alpha, d), ~bruhat_mask(gamma, d)
    return [
        pair
        for pair, top, bot in zip(admissible_pairs(d), tops, bots)
        if above & ~bot or top & below
    ]
