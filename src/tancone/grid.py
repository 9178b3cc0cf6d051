"""The coordinate grid attached to a fixed point, its regions and chains.

A grid point is a plain pair (r, c) with r a row outside beta and c a
column in beta.  Because beta is isotropic, the complement of beta is
exactly beta*, so the mirror (r, c) -> (c*, r*) maps the grid to itself
and fixes the diagonal r = c*.

Multisets on the grid are dicts {point: multiplicity > 0}.  Chains are
tuples of points strictly decreasing in the order
(R, C) > (r, c)  iff  R > r and C < c.
"""

from __future__ import annotations

from itertools import combinations

from .indexsets import Index, bruhat_leq, is_isotropic, star

Point = tuple[int, int]
Multiset = dict[Point, int]


def grid_points(beta: Index, d: int) -> tuple[Point, ...]:
    """All d*d points (r, c): r not in beta, c in beta.  Lex order."""
    if not is_isotropic(beta, d):
        raise ValueError(f"{beta} is not isotropic")
    rows = [r for r in range(1, 2 * d + 1) if r not in set(beta)]
    return tuple((r, c) for r in rows for c in beta)


def is_upper(p: Point, d: int) -> bool:
    """Upper region: r <= c*.  Its complement is the strictly-lower region."""
    r, c = p
    return r <= star(c, d)


def is_diagonal(p: Point, d: int) -> bool:
    r, c = p
    return r == star(c, d)


def is_positive(p: Point) -> bool:
    """r > c.  (r = c cannot occur: r is outside beta, c inside.)"""
    return p[0] > p[1]


def upper_points(beta: Index, d: int) -> tuple[Point, ...]:
    """The upper region; these index the patch coordinates.  Size d(d+1)/2."""
    return tuple(p for p in grid_points(beta, d) if is_upper(p, d))


def sharp_point(p: Point, d: int) -> Point:
    r, c = p
    return (star(c, d), star(r, d))


def sharp_multiset(m: Multiset, d: int) -> Multiset:
    out: Multiset = {}
    for p, k in m.items():
        q = sharp_point(p, d)
        out[q] = out.get(q, 0) + k
    return out


def is_special(m: Multiset, d: int) -> bool:
    """Invariant under sharp, with even multiplicity on the diagonal."""
    if sharp_multiset(m, d) != m:
        return False
    return all(k % 2 == 0 for p, k in m.items() if is_diagonal(p, d))


def double_multiset(m: Multiset, d: int) -> Multiset:
    """U -> U union U#; always special."""
    out = dict(m)
    for p, k in sharp_multiset(m, d).items():
        out[p] = out.get(p, 0) + k
    return out


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


# ---------------------------------------------------------------------------
# chains


def chain_gt(a: Point, b: Point) -> bool:
    return a[0] > b[0] and a[1] < b[1]


def is_chain(points) -> bool:
    """Strictly decreasing in the double inequality; empty chains allowed."""
    return all(chain_gt(a, b) for a, b in zip(points, points[1:]))


def is_upper_chain(points, d: int) -> bool:
    return is_chain(points) and all(is_upper(p, d) for p in points)


def chain_parts(points) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(positive part, negative part)."""
    pos = tuple(p for p in points if is_positive(p))
    neg = tuple(p for p in points if not is_positive(p))
    return pos, neg


def enumerate_chains(points, nonempty: bool = True):
    """Every chain supported on ``points`` (each point used at most once)."""
    ordered = sorted(set(points), key=lambda p: (-p[0], p[1]))
    chains = [()]
    for n in range(1, len(ordered) + 1):
        for sub in combinations(ordered, n):
            if is_chain(sub):
                chains.append(sub)
    return chains[1:] if nonempty else chains


def maximal_paths(points):
    """Chains in the support not extendable by another support point.

    These are the maximal paths of the support's cover DAG (a covers b
    when chain_gt(a, b) and no support point lies strictly between), so
    a DFS from each maximal point down its covers finds them all.
    """
    support = sorted(set(points), key=lambda p: (-p[0], p[1]))
    covers = {}
    for a in support:
        below = [b for b in support if chain_gt(a, b)]
        covers[a] = [b for b in below if not any(chain_gt(c, b) for c in below)]
    covered = {b for bs in covers.values() for b in bs}
    paths = []

    def descend(path):
        nxt = covers[path[-1]]
        if not nxt:
            paths.append(tuple(path))
        for b in nxt:
            descend(path + [b])

    for a in support:
        if a not in covered:
            descend([a])
    return paths


def fold_chain(points, d: int) -> tuple[Point, ...]:
    """Replace strictly-lower chain entries by their mirrors."""
    return tuple(p if is_upper(p, d) else sharp_point(p, d) for p in points)


# ---------------------------------------------------------------------------
# bounds


def bound_value(rows, cols, beta: Index) -> Index:
    """(beta minus cols) union rows, sorted.  The value of a chain part."""
    rows = set(rows)
    cols = set(cols)
    bset = set(beta)
    if rows & bset:
        raise ValueError("row indices must avoid beta")
    if not cols <= bset:
        raise ValueError("column indices must lie in beta")
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    return tuple(sorted((bset - cols) | rows))


def chain_value(points, beta: Index) -> Index:
    return bound_value([p[0] for p in points], [p[1] for p in points], beta)


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


def multiset_chain_values(m: Multiset, beta: Index):
    """Values of positive/negative parts over all maximal support chains.

    Returns (pos_values, neg_values) as sorted tuples; enough to decide
    boundedness against any (alpha, gamma) since subchains of a bounded
    chain are bounded.  Only the support ``m.keys()`` is read, so the
    result is the key of the weighted cell that every special multiset on
    this support shares (``verify._special_profiles``).
    """
    pos_vals = set()
    neg_vals = set()
    for ch in maximal_paths(m.keys()):
        pos, neg = chain_parts(ch)
        if pos:
            pos_vals.add(chain_value(pos, beta))
        if neg:
            neg_vals.add(chain_value(neg, beta))
    return tuple(sorted(pos_vals)), tuple(sorted(neg_vals))


def multiset_bounded(m: Multiset, alpha: Index, gamma: Index, beta: Index) -> bool:
    """Every chain drawn from the support is bounded."""
    pos_vals, neg_vals = multiset_chain_values(m, beta)
    return all(bruhat_leq(alpha, v) for v in neg_vals) and all(
        bruhat_leq(v, gamma) for v in pos_vals
    )


def multiset_to_json(m: Multiset) -> list[dict]:
    return [
        {"r": r, "c": c, "mult": m[(r, c)]} for (r, c) in sorted(m.keys())
    ]


def json_field(obj, key: str, what: str):
    """``obj[key]`` of a parsed JSON object; ValueError naming the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} is missing key {key!r}")
    return obj[key]


def json_int(value, what: str) -> int:
    """``value`` as an int; ValueError naming ``what`` when it is not one."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def multiset_from_json(items) -> Multiset:
    """Inverse of multiset_to_json; malformed input raises ValueError."""
    if not isinstance(items, list):
        raise ValueError(
            f"a multiset must be a JSON list of {{r, c, mult}} objects, "
            f"got {type(items).__name__}"
        )
    out: Multiset = {}
    for i, it in enumerate(items):
        what = f"multiset entry {i}"
        r, c, k = (
            json_int(json_field(it, key, what), f"{what} {key!r}")
            for key in ("r", "c", "mult")
        )
        if k <= 0:
            raise ValueError("multiplicities must be positive")
        out[(r, c)] = out.get((r, c), 0) + k
    return out
