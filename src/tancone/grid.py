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

from itertools import filterfalse

from .indexsets import Index, bits_index, index_bits, is_isotropic, star

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


def is_positive(p: Point) -> bool:
    """r > c.  (r = c cannot occur: r is outside beta, c inside.)"""
    return p[0] > p[1]


def upper_points(beta: Index, d: int) -> tuple[Point, ...]:
    """The upper region; these index the patch coordinates.  Size d(d+1)/2."""
    return tuple(p for p in grid_points(beta, d) if is_upper(p, d))


def sharp_point(p: Point, d: int) -> Point:
    r, c = p
    return (star(c, d), star(r, d))


# ---------------------------------------------------------------------------
# chains


def chain_gt(a: Point, b: Point) -> bool:
    return a[0] > b[0] and a[1] < b[1]


def chain_parts(points) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(positive part, negative part)."""
    return tuple(filter(is_positive, points)), tuple(filterfalse(is_positive, points))


def maximal_paths(points):
    """Chains in the support not extendable by another support point.

    These are the maximal paths of the support's cover DAG (a covers b
    when chain_gt(a, b) and no support point lies strictly between), so
    a DFS from each maximal point down its covers finds them all.  The
    support is sorted by descending row, so every point below a comes
    after it.
    """
    support = sorted(set(points), key=lambda p: (-p[0], p[1]))
    covers = {}
    for i, a in enumerate(support):
        below = [b for b in support[i + 1 :] if chain_gt(a, b)]
        covers[a] = [b for b in below if not any(chain_gt(c, b) for c in below)]
    covered = {b for bs in covers.values() for b in bs}
    paths = []
    stack = [(a,) for a in reversed(support) if a not in covered]
    while stack:
        path = stack.pop()
        nxt = covers[path[-1]]
        if nxt:
            stack.extend(path + (b,) for b in reversed(nxt))
        else:
            paths.append(path)
    return paths


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


def _part_value(rows: int, cols: int, beta_bits: int) -> int:
    """``bound_value`` on bitsets (bit j for index j): (beta minus cols)
    union rows, with its three checks."""
    if rows & beta_bits:
        raise ValueError("row indices must avoid beta")
    if cols & ~beta_bits:
        raise ValueError("column indices must lie in beta")
    if rows.bit_count() != cols.bit_count():
        raise ValueError("row and column sets must have equal size")
    return beta_bits & ~cols | rows


def multiset_chain_values(m, beta: Index):
    """Values of positive/negative parts over all maximal support chains.

    Returns (pos_values, neg_values) as sorted tuples; enough to decide
    boundedness against any (alpha, gamma), which
    ``definitions.multiset_bounded`` decides over every chain, since
    subchains of a bounded chain are bounded, and by the componentwise
    min of the negative values and max of the positive ones, since Bruhat
    order is componentwise.  Only the support is read: ``m`` is a
    multiset, whose keys are read, or any iterable of its points, as
    ``verify._sign_supports`` passes a doubled support, keying its cell
    by that min or max; every special multiset on the support shares the
    result.

    Each part's value is formed on bitsets, its rows' and columns' bits
    gathered in one pass over the chain (``_part_value``), and only the
    distinct values are turned back into tuples; ``definitions.chain_value``
    is the tuple oracle.
    """
    beta_bits = index_bits(beta)
    pos_vals = set()
    neg_vals = set()
    for ch in maximal_paths(m):
        pos_rows = pos_cols = neg_rows = neg_cols = 0
        for r, c in ch:
            if r > c:
                pos_rows |= 1 << r
                pos_cols |= 1 << c
            else:
                neg_rows |= 1 << r
                neg_cols |= 1 << c
        if pos_rows:
            pos_vals.add(_part_value(pos_rows, pos_cols, beta_bits))
        if neg_rows:
            neg_vals.add(_part_value(neg_rows, neg_cols, beta_bits))
    return (
        tuple(sorted(map(bits_index, pos_vals))),
        tuple(sorted(map(bits_index, neg_vals))),
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
    """``value`` when it is a JSON integer; ValueError naming ``what`` for
    anything else, a float, a boolean or a numeric string included."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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
