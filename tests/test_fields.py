import math

import pytest

from kronscale.errors import DivisionByZero, ParseError
from kronscale.fields import (
    DEFAULT_PRIME,
    REDUCTION_POLY_LOW,
    GF2Field,
    PrimeField,
    Rng,
    _clmul,
    gf2,
    parse_field_spec,
    prime_field,
)


def _poly_divmod_gf2(a: int, b: int):
    # long division of binary polynomials
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _schoolbook_mul(field, a: int, b: int) -> int:
    # bit-serial carryless product, then long division by the field poly
    prod = 0
    for bit in range(field.w):
        if b >> bit & 1:
            prod ^= a << bit
    return _poly_divmod_gf2(prod, field.poly)[1]


def _poly_gcd_gf2(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_divmod_gf2(a, b)[1]
    return a


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def test_reduction_polys_are_irreducible():
    # f irreducible of degree w  <=>  x^(2^w) == x mod f and
    # gcd(x^(2^(w/p)) - x, f) == 1 for every prime p | w (here only p=2).
    for w, low in REDUCTION_POLY_LOW.items():
        f = (1 << w) | low
        field = GF2Field(w)
        x = 2
        frob = x
        for _ in range(w):
            frob = field.mul(frob, frob)
        assert frob == x, f"x^(2^{w}) != x for width {w}"
        half = x
        for _ in range(w // 2):
            half = field.mul(half, half)
        assert _poly_gcd_gf2(half ^ x, f) == 1, f"poly for width {w} not irreducible"


@pytest.mark.parametrize("w", [8, 16, 32, 64])
def test_gf2_mul_matches_schoolbook_oracle(w):
    field = gf2(w)
    ones = field.mask
    half = ones ^ (ones >> (w // 2))
    edges = [0, 1, 2, ones, 1 << (w - 1), field.poly_low,
             ones // 3, ones // 3 * 2, half, ones ^ half]
    rng = Rng(2029)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(field.random(rng), field.random(rng)) for _ in range(2000)]
    want = [_schoolbook_mul(field, a, b) for a, b in pairs]
    for (a, b), prod in zip(pairs, want):
        assert field.mul(a, b) == prod, (hex(a), hex(b))
    # the batch multiply, on batches of the leading pairs; the first 100
    # are the edge pairs
    for length in (0, 1, 2, 63, 64, 65, 1500):
        xs, ys = [a for a, _ in pairs[:length]], [b for _, b in pairs[:length]]
        assert field.mul_many(xs, ys) == want[:length], length


@pytest.mark.parametrize("w", [8, 16, 32, 64])
def test_gf2_mul_many_window_kernel_edges(w):
    # the window kernel against scalar mul on operands that fill a lane's
    # edges: every pair of 0, 1, the top bit and 2^w - 1, alone, beside an
    # all-ones lane on either side, and between two all-ones lanes, so a
    # borrow or carry that left its lane would show in a neighbour
    field = gf2(w)
    ones = field.mask
    edges = [0, 1, 1 << (w - 1), ones]
    assert field.mul_many([], []) == []
    for a in edges:
        for b in edges:
            for xs, ys in (([a], [b]), ([a, ones], [b, ones]), ([ones, a], [ones, b]),
                           ([ones, a, ones], [ones, b, ones])):
                want = [field.mul(x, y) for x, y in zip(xs, ys)]
                assert field.mul_many(xs, ys) == want, (hex(a), hex(b), len(xs))


@pytest.mark.parametrize("spec", ["p=101", "p=2305843009213693951", "gf2 w=8", "gf2 w=16",
                                  "gf2 w=32", "gf2 w=64"])
def test_batch_ops_match_scalar_ops(spec):
    field = parse_field_spec(spec)
    rng = Rng(31)
    xs = [field.random(rng) for _ in range(200)]
    ys = [field.random(rng) for _ in range(200)]
    assert field.mul_many(xs, ys) == [field.mul(a, b) for a, b in zip(xs, ys)]
    assert field.mul_many([], []) == []
    assert field.mul_many(xs[:1], ys[:1]) == [field.mul(xs[0], ys[0])]
    # groups (k, n): n sums of k values each, laid out row by row
    groups, sums, start = [], [], 0
    while start < len(xs):
        k = 1 + rng.below(5)
        n = min(1 + rng.below(4), (len(xs) - start) // k)
        if not n:
            k, n = len(xs) - start, 1
        groups.append((k, n))
        for _ in range(n):
            acc = field.zero
            for v in xs[start:start + k]:
                acc = field.add(acc, v)
            sums.append(acc)
            start += k
    assert field.sum_many(xs, groups) == sums
    assert field.sum_many(tuple(xs), groups) == sums
    # rows wider than the group is tall, and the other way round
    for k, n in ((140, 1), (30, 2), (2, 30), (5, 5)):
        want = []
        for i in range(n):
            acc = field.zero
            for v in xs[i * k:(i + 1) * k]:
                acc = field.add(acc, v)
            want.append(acc)
        assert field.sum_many(xs[:k * n], [(k, n)]) == want
    assert field.sum_many([], []) == []


def test_default_prime():
    assert DEFAULT_PRIME == 2**61 - 1
    PrimeField(DEFAULT_PRIME)  # must not raise


def test_mul_mod_7():
    f = prime_field(7)
    assert f.mul(3, 5) == 1  # 15 mod 7


def test_char2_self_cancel():
    g = gf2(8)
    a = 0xA7
    assert g.add(a, a) == 0


@pytest.mark.parametrize("spec", ["p=2305843009213693951", "p=101", "gf2 w=8", "gf2 w=16",
                                  "gf2 w=32", "gf2 w=64"])
def test_inverse_against_extended_euclid(spec):
    field = parse_field_spec(spec)
    rng = Rng(42)
    for _ in range(100):
        a = field.random(rng, nonzero=True)
        inv = field.inv(a)
        assert field.mul(inv, a) == field.one
        if field.kind == "prime":
            g, x, _ = _ext_gcd(a, field.p)
            assert g == 1 and x % field.p == inv
        else:
            # extended Euclid over GF(2)[x] as an independent oracle
            r0, r1 = field.poly, a
            s0, s1 = 0, 1
            while r1:
                q, rem = _poly_divmod_gf2(r0, r1)
                r0, r1 = r1, rem
                s0, s1 = s1, s0 ^ field._reduce(_clmul(q, s1))
            assert r0 == 1 and field._reduce(s0) == inv


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        prime_field(7).inv(0)
    with pytest.raises(DivisionByZero):
        gf2(16).inv(0)


def test_rng_determinism():
    f = prime_field()
    a = f.random(Rng(1))
    b = f.random(Rng(1))
    assert a == b
    s1 = [Rng(99).next_u64() for _ in range(4)]
    s2 = [Rng(99).next_u64() for _ in range(4)]
    assert s1 == s2


def test_uniformity_mod_5():
    f = prime_field(5)
    rng = Rng(2024)
    counts = [0] * 5
    n = 10_000
    for _ in range(n):
        counts[f.random(rng)] += 1
    expected = n / 5
    sigma = math.sqrt(n * (1 / 5) * (4 / 5))
    for c in counts:
        assert abs(c - expected) <= 5 * sigma


def test_nonzero_never_zero():
    g = gf2(8)
    rng = Rng(5)
    for _ in range(10_000):
        assert g.random(rng, nonzero=True) != 0


@pytest.mark.parametrize("spec", ["p=2305843009213693951", "p=5", "gf2 w=8", "gf2 w=16",
                                  "gf2 w=32", "gf2 w=64"])
def test_field_axioms_random_triples(spec):
    field = parse_field_spec(spec)
    rng = Rng(7)
    for _ in range(1000):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("w", [8, 16, 32, 64])
def test_gf2_frobenius(w):
    g = gf2(w)
    rng = Rng(11)
    for _ in range(200):
        a, b = g.random(rng), g.random(rng)
        lhs = g.mul(g.add(a, b), g.add(a, b))
        rhs = g.add(g.mul(a, a), g.mul(b, b))
        assert lhs == rhs


def test_equal_fields_are_interchangeable_values():
    # a field keeps no tables and no cache: fields built separately are
    # distinct objects that compare and hash equal by spec string
    pairs = [(GF2Field(32), gf2(32)), (PrimeField(101), prime_field(101)),
             (GF2Field(8), parse_field_spec("gf2   w=8"))]
    for built, made in pairs:
        assert built is not made
        assert built == made and hash(built) == hash(made)
    assert gf2(32) is not gf2(32)
    assert gf2(32) != gf2(16) and prime_field(101) != prime_field(103)


@pytest.mark.parametrize("make, arg, spec", [(prime_field, 4, "p=4"), (gf2, 7, "gf2 w=7")],
                         ids=["prime_field", "gf2"])
def test_constructors_raise_the_fields_value_error(make, arg, spec):
    # a field built in code raises its class's ValueError; only the spec
    # text parser turns it into a ParseError
    with pytest.raises(ValueError):
        make(arg)
    with pytest.raises(ParseError):
        parse_field_spec(spec)


def test_spec_string_roundtrip():
    for spec in ("p=101", "gf2 w=16"):
        assert parse_field_spec(spec).spec_string() == spec


def test_pow():
    f = prime_field(101)
    assert f.pow(3, 0) == 1
    assert f.pow(3, 5) == pow(3, 5, 101)
    assert f.pow(3, -1) == f.inv(3)
    g = gf2(16)
    a = 0x4321
    assert g.pow(a, 3) == g.mul(a, g.mul(a, a))
