"""Exact field arithmetic over prime fields and GF(2^w), plus seeded randomness.

Field elements are plain canonical ints (residue mod p, or a w-bit
polynomial bitmask); all operations go through a Field object so values
serialize bit-exactly.  A field is a plain value: it holds its modulus or
width and no tables, costs nothing to build, and compares and hashes equal
to every field with the same spec string.  GF(2^w) has one scalar
multiply at every width, the bit-serial carryless product and reduction.

Every field also has two batch operations, which circuit evaluation calls
once per level: `mul_many(xs, ys)`, the products of two equal-length
operand sequences, and `sum_many(values, groups)`, the sums of
consecutive runs of values: a group (k, n) takes the next k * n values
as n rows of k and sums each row.  Both return canonical values.  A
prime field also has `mul_many_unreduced(xs, ys)`, the integer products
below p^2, for the products that only sums read: its `sum_many` reduces
each sum mod p, so a sum of such products is reduced once.  Other
fields set `mul_many_unreduced` to None.  Over GF(2^w) `mul_many`
multiplies all its pairs at once in the lanes of one Python int, a 4-bit
window at a time, at every width, and `sum_many` XORs a group's k
columns, each one strided slice, or, when the group has more columns
than rows, each row by one `reduce`.

The random generator is SplitMix64, a fixed, versioned, splittable
generator: identical seeds give identical streams on every platform.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import reduce

from .errors import DivisionByZero, ParseError

# Largest prime below 2^61 (Mersenne M61); leaves headroom for 128-bit
# intermediate products in Python ints and for int64 hosts downstream.
DEFAULT_PRIME = (1 << 61) - 1

# Low part of the fixed reduction polynomial x^w + low per width, from the
# standard table of low-weight irreducible binary polynomials.
REDUCTION_POLY_LOW = {
    8: 0x1B,    # x^8 + x^4 + x^3 + x + 1
    16: 0x2B,   # x^16 + x^5 + x^3 + x + 1
    32: 0x8D,   # x^32 + x^7 + x^3 + x^2 + 1
    64: 0x1B,   # x^64 + x^4 + x^3 + x + 1
}

_MASK64 = (1 << 64) - 1


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rng:
    """SplitMix64: 64-bit seeded splittable generator (version 1)."""

    __slots__ = ("state",)

    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def split(self) -> "Rng":
        """Child generator with an independent stream; parent advances once."""
        return Rng(self.next_u64())

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        bits = (n - 1).bit_length()
        while True:
            v = self.next_u64() >> (64 - bits) if bits else 0
            if v < n:
                return v

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


class Field:
    """Common interface; concrete fields below."""

    kind = None
    # the batch product that leaves reduction to the sums; PrimeField has one
    mul_many_unreduced = None

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<Field {self.spec_string()}>"

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())


class PrimeField(Field):
    """Z_p for a prime p < 2^62; elements are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= (1 << 62) or not _is_probable_prime(p):
            raise ValueError(f"modulus must be a prime < 2^62, got {p}")
        self.p = p
        self.characteristic = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def spec_string(self):
        return f"p={self.p}"

    def add(self, a, b):
        s = a + b
        p = self.p
        return s - p if s >= p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return a * b % self.p

    def mul_many(self, xs, ys) -> list:
        return list(map(self.p.__rmod__, map(operator.mul, xs, ys)))

    def mul_many_unreduced(self, xs, ys) -> list:
        """The integer products, below p^2: a value only `sum_many` may read."""
        return list(map(operator.mul, xs, ys))

    def sum_many(self, values, groups) -> list:
        p = self.p
        out, start = [], 0
        for k, n in groups:
            stop = start + k * n
            rows = zip(*[iter(values[start:stop])] * k)
            out += map(p.__rmod__, map(sum, rows))
            start = stop
        return out

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def random(self, rng: Rng, nonzero: bool = False):
        while True:
            v = rng.below(self.p)
            if v or not nonzero:
                return v

    def format_value(self, v):
        return str(v)

    def parse_value(self, s):
        v = int(s, 0)
        if not 0 <= v < self.p:
            raise ValueError(f"value {s} not reduced mod {self.p}")
        return v


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        lsb = b & -b
        r ^= a * lsb
        b ^= lsb
    return r


class GF2Field(Field):
    """GF(2^w) for w in {8, 16, 32, 64} with a fixed reduction polynomial.

    Elements are w-bit ints.  `mul` is the bit-serial carryless product
    (`_clmul`) reduced modulo the field polynomial (`_reduce`).
    `mul_many` packs all its operands into one int, one lane each, and
    forms every carryless product at once by a Horner scheme over 4-bit
    windows of y: one subtraction per bit makes the mask that selects
    x << k, and each lane's headroom (at least w - 1 free bits above the
    operand, and a mask bit above x << 3) keeps borrows and products
    inside it.  It then folds by the set bits of the polynomial's low
    part.  `sum_many` XORs the columns of each arity group, or its rows
    when they are wider than the group is tall.  The field keeps no
    tables.
    """

    kind = "gf2"

    def __init__(self, w: int):
        if w not in REDUCTION_POLY_LOW:
            raise ValueError(f"unsupported GF(2^w) width {w}")
        self.w = w
        self.poly_low = REDUCTION_POLY_LOW[w]
        self.poly = (1 << w) | self.poly_low
        self.mask = (1 << w) - 1
        self.characteristic = 2
        self.order = 1 << w
        self.zero = 0
        self.one = 1
        self.folds = tuple(s for s in range(w) if self.poly_low >> s & 1)

    def spec_string(self):
        return f"gf2 w={self.w}"

    def _reduce(self, x: int) -> int:
        w = self.w
        low = self.poly_low
        while x >> w:
            hi = x >> w
            x = (x & self.mask) ^ _clmul(hi, low)
        return x

    def mul(self, a, b):
        return self._reduce(_clmul(a, b))

    def mul_many(self, xs, ys) -> list:
        """Exact GF(2^w) products of the pairs (xs[i], ys[i]), all at once.

        Each operand list is packed into one Python int, read in the host's
        byte order so that each operand fills one 64-bit word; at w = 64 the
        operands alternate with zero words.  Either way each operand has at
        least w - 1 free bits above it, or is the top word, so its carryless
        product never reaches the next operand.

        The product is a Horner scheme over the nibbles of y, from the top:
        shift the partial product up by 4, then add x shifted by k wherever
        bit k of the nibble is set, for k = 0..3.  The selecting mask comes
        from one subtraction per bit, `(ones << (w + k)) - (bit k of y)`,
        which is either the single bit w + k, among the free bits, or the
        bits k..w + k - 1 of each lane: the borrow never leaves the lane, and
        x << k, at most w + k bits, never meets the lone bit.  After each shift the partial product
        is x times the top nibbles of y, shifted, so it never has more bits
        than the full product.  Two folds by x^w = the sum of x^s over the fold
        shifts s (the set bits of REDUCTION_POLY_LOW[w]) reduce each
        product's w - 1 high bits, then the few bits the first fold pushed
        past bit w - 1.
        """
        w, folds = self.w, self.folds
        words = 1 if w <= 32 else 2
        a = array("Q", xs)
        n = len(a)
        lanes = array("Q", bytes(8 * words * n))

        def pack(values) -> int:
            lanes[::words] = values
            return int.from_bytes(lanes, sys.byteorder)

        x, y, ones = pack(a), pack(array("Q", ys)), pack(array("Q", [1]) * n)
        window = [(x << k, ones << k, ones << (w + k)) for k in range(4)]
        r = 0
        for p in range(w - 4, -1, -4):
            t = y >> p
            r <<= 4
            for xk, bit, top in window:
                r ^= xk & (top - (t & bit))
        low = (ones << w) - ones
        for _ in range(2):
            h = (r >> w) & low
            r &= low
            for s in folds:
                r ^= h << s
        return array("Q", r.to_bytes(8 * words * n, sys.byteorder))[::words].tolist()

    def add(self, a, b):
        return a ^ b

    sub = add

    def sum_many(self, values, groups) -> list:
        xor = operator.xor
        out, start = [], 0
        for k, n in groups:
            stop = start + k * n
            if k > n:
                out += [reduce(xor, values[i:i + k]) for i in range(start, stop, k)]
            else:
                acc = values[start:stop:k]
                for c in range(start + 1, start + k):
                    acc = list(map(xor, acc, values[c:stop:k]))
                out += acc
            start = stop
        return out

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def random(self, rng: Rng, nonzero: bool = False):
        while True:
            v = rng.next_u64() & self.mask
            if v or not nonzero:
                return v

    def format_value(self, v):
        return f"0x{v:x}"

    def parse_value(self, s):
        v = int(s, 0)
        if v >> self.w:
            raise ValueError(f"value {s} wider than {self.w} bits")
        return v


def parse_field_spec(spec: str) -> Field:
    """Parse the field spec grammar: ``p=<prime>`` or ``gf2 w=<8|16|32|64>``."""
    key = " ".join(spec.split())
    try:
        if key.startswith("p="):
            return PrimeField(int(key[2:]))
        if key.startswith("gf2 w="):
            return GF2Field(int(key[6:]))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unrecognized field spec {spec!r}")


def prime_field(p: int = DEFAULT_PRIME) -> PrimeField:
    """Z_p constructor."""
    return PrimeField(p)


def gf2(w: int) -> GF2Field:
    """GF(2^w) constructor."""
    return GF2Field(w)
