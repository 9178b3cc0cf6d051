"""The ring's one monomial layout, checked against exponent tuples.

A packed monomial has an 8-bit field per variable, big-endian in ring
order, whose top bit is a guard, and the total degree above them.  The
kernel relies on four laws, each checked here on random tuples that
include the extreme exponents 0 and 127: the integer order is the
(degree, exponents) order, a product is an addition, a divides b exactly
when ``(b - a) & guards`` is zero, and ``mono_lcm`` is the field-wise
max.  An exponent of 128 is an error wherever it would arise, never a
carry into the neighbouring field.
"""

import random

import pytest

from tancone._kernel_py import mono_lcm, spoly
from tancone.ring import PolyRing, normal_form

MAX_EXPONENT = 127  # below each field's guard bit

EXTREMES = (0, 0, 1, 2, 126, 127)


def random_exponents(rng, nvars):
    return tuple(
        rng.choice(EXTREMES) if rng.random() < 0.5 else rng.randint(0, MAX_EXPONENT)
        for _ in range(nvars)
    )


def random_pairs(count, seed):
    """(ring, a, b) with 1..36 variables, 36 being the d = 8 patch's."""
    rng = random.Random(seed)
    rings = {n: PolyRing(range(n)) for n in range(1, 37)}
    for _ in range(count):
        ring = rings[rng.randint(1, 36)]
        a = random_exponents(rng, ring.nvars)
        b = random_exponents(rng, ring.nvars)
        # often b near a or off a's support, so that a share of the draws
        # is divisible and a share coprime
        mode = rng.random()
        if mode < 0.4:
            b = tuple(min(MAX_EXPONENT, e + rng.choice((0, 0, 1, 5))) for e in a)
        elif mode < 0.6:
            b = tuple(0 if x else y for x, y in zip(a, b))
        yield ring, a, b


def test_pack_unpack_round_trip():
    for ring, a, b in random_pairs(2_000, 1):
        for exps in (a, b):
            m = ring.pack(exps)
            assert ring.unpack(m) == exps
            assert m >> ring.shift == sum(exps)
            assert not m & ring.guards
    ring = PolyRing(())
    assert ring.pack(()) == 0 and ring.unpack(0) == ()


def test_a_unit_is_the_packed_variable():
    for n in (1, 2, 15, 36):
        ring = PolyRing(range(n))
        for i in range(n):
            assert ring.unit(i) == ring.pack((0,) * i + (1,) + (0,) * (n - 1 - i))


def test_integer_order_is_the_term_order():
    below = equal = 0
    for ring, a, b in random_pairs(10_000, 2):
        ka, kb = (sum(a), a), (sum(b), b)
        pa, pb = ring.pack(a), ring.pack(b)
        assert (pa < pb) == (ka < kb) and (pa == pb) == (ka == kb), (a, b)
        below += ka < kb
        equal += ka == kb
    assert below > 1_000 and equal > 100


def test_product_divisibility_and_lcm_match_the_tuples():
    divides = coprime = 0
    for ring, a, b in random_pairs(10_000, 3):
        pa, pb, g = ring.pack(a), ring.pack(b), ring.guards
        tuple_divides = all(x <= y for x, y in zip(a, b))
        assert (not (pb - pa) & g) == tuple_divides, (a, b)
        divides += tuple_divides
        lcm = tuple(map(max, a, b))
        assert mono_lcm(pa, pb, g) == mono_lcm(pb, pa, g) == ring.pack(lcm), (a, b)
        product = tuple(x + y for x, y in zip(a, b))
        if max(product) <= MAX_EXPONENT:
            assert pa + pb == ring.pack(product)
            assert not (pa + pb) & g
        else:
            assert (pa + pb) & g  # the guard bit of the overflowing field
        is_coprime = not any(x and y for x, y in zip(a, b))
        assert (mono_lcm(pa, pb, g) == pa + pb) == is_coprime, (a, b)
        coprime += is_coprime
    assert divides > 1_000 and coprime > 1_000


@pytest.fixture
def xy():
    """Two variables x > y over Q."""
    ring = PolyRing(("x", "y"))
    return ring, ring.gen("x"), ring.gen("y")


def power(f, k):
    out = f.ring.one()
    for _ in range(k):
        out = out * f
    return out


def test_an_exponent_of_128_is_refused_by_the_ring(xy):
    ring, x, y = xy
    for exps in ((128, 0), (0, 128), (255, 1), (-1, 0)):
        with pytest.raises(ValueError):
            ring.pack(exps)
        with pytest.raises(ValueError):
            ring.poly({exps: 1})
    with pytest.raises(ValueError):
        ring.pack((1, 2, 3))
    assert ring.poly({(127, 127): 1}).leading_monomial() == (127, 127)


def test_a_product_past_127_raises(xy):
    ring, x, y = xy
    top = power(x, 127)
    assert top.leading_monomial() == (127, 0)
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        power(y, 64) * power(y, 64)


def test_normal_form_raises_on_a_product_past_127(xy):
    ring, x, y = xy
    # y^3 leads y^3 + x^2 by degree, and its quotient x^k carries the tail
    g = power(y, 3) + power(x, 2)
    assert g.leading_monomial() == (0, 3)
    f = power(x, 125) * power(y, 3)
    assert normal_form(f, [g]) == power(x, 127).scale(-1)
    with pytest.raises(OverflowError):
        normal_form(power(x, 126) * power(y, 3), [g])


def test_spoly_raises_on_a_product_past_127(xy):
    ring, x, y = xy
    f = power(y, 3) + power(x, 2)
    ok = power(x, 125) * y
    s = spoly(f.terms, ok.terms, 0, ring.guards)
    assert {ring.unpack(m): c for m, c in s.items()} == {(127, 0): 1}
    with pytest.raises(OverflowError):
        spoly(f.terms, (power(x, 126) * y).terms, 0, ring.guards)
