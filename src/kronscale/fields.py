"""Exact field arithmetic over prime fields and GF(2^w), plus seeded randomness.

Field elements are plain canonical ints (residue mod p, or a w-bit
polynomial bitmask); all operations go through a Field object so values
serialize bit-exactly.  A field is a plain value: it holds its modulus or
width and no tables, costs nothing to build, and compares and hashes equal
to every field with the same spec string.  GF(2^w) has one scalar
multiply at every width, the bit-serial carryless product and reduction.

Every field also has one batch operation, which circuit evaluation
calls once per level: `dot_many(xs, ys, plains, groups)`.  A group
(k, j, n) is n gates, each the sum of k products xs[i] * ys[i] and j
plain values, laid out column by column: column c holds argument c of
each gate.  It returns one canonical value per gate and reduces each sum
once, not each product.

The random generator is SplitMix64, a fixed, versioned, splittable
generator: identical seeds give identical streams on every platform.
"""

from __future__ import annotations

import operator
import sys
from array import array

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

    def dot_many(self, xs, ys, plains, groups) -> list:
        """Per gate of each group (k, j, n): its k integer products and j
        plains summed, then reduced once.  A group sums its columns as
        whole slices, or, when it has more columns than gates, each gate's
        strided row."""
        p = self.p
        products = list(map(operator.mul, xs, ys))
        out, start, pstart = [], 0, 0
        for k, j, n in groups:
            stop, pstop = start + k * n, pstart + j * n
            if k + j > n:
                out += [(sum(products[i:stop:n]) + sum(plains[t:pstop:n])) % p
                        for i, t in zip(range(start, start + n), range(pstart, pstart + n))]
            else:
                cols = [products[i:i + n] for i in range(start, stop, n)]
                cols += [plains[i:i + n] for i in range(pstart, pstop, n)]
                sums = cols[0]
                for col in cols[1:]:
                    sums = map(operator.add, sums, col)
                out += map(p.__rmod__, sums)
            start, pstart = stop, pstop
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


def _xor_columns(v: int, cols: int, bits: int) -> int:
    """The XOR of the `cols` consecutive `bits`-bit columns of v, by
    halving: the upper half of the columns is XORed onto the lower."""
    while cols > 1:
        half = cols // 2
        keep = (cols - half) * bits
        v = (v >> keep) ^ (v & ((1 << keep) - 1))
        cols -= half
    return v


class GF2Field(Field):
    """GF(2^w) for w in {8, 16, 32, 64} with a fixed reduction polynomial.

    Elements are w-bit ints.  `mul` is the bit-serial carryless product
    (`_clmul`) reduced modulo the field polynomial (`_reduce`), and
    `dot_many` the packed batch kernel.  The field keeps no tables.
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

    def dot_many(self, xs, ys, plains, groups) -> list:
        """Per gate of each group (k, j, n): the XOR of its k carryless
        products and j plains, folded once.

        Each operand list is packed into one Python int, read in the host's
        byte order so that each operand fills one 64-bit word; at w = 64 the
        operands alternate with zero words, each in the low word of its
        128-bit lane.  Either way each operand has at least w - 1 free bits
        above it in its lane, so its carryless product stays in the lane,
        and a run of whole lanes is a run of bytes.

        The product is a Horner scheme over the nibbles of y, from the top:
        shift the partial product up by 4, then add x shifted by k wherever
        bit k of the nibble is set, for k = 0..3.  The selecting mask comes
        from one subtraction per bit, `(ones << (w + k)) - (bit k of y)`:
        either the lone bit w + k, among the free bits, or the bits
        k..w + k - 1 of each lane, so the borrow stays in the lane, and
        x << k, at most w + k bits, never meets the lone bit.  The partial
        product, x times the top nibbles of y, never outgrows the product.

        A group's columns are runs of n lanes, XORed into one run by
        `_xor_columns`, its plains' likewise.  Two folds by x^w = the sum
        of x^s over the set bits s of REDUCTION_POLY_LOW[w] then reduce
        each sum's w - 1 high bits, then the few bits the first fold
        pushed past bit w - 1; they leave a plain, below x^w, as it is.
        """
        w, folds = self.w, self.folds
        words = 1 if w <= 32 else 2
        lane = 8 * words                    # bytes per lane
        order = sys.byteorder
        low_word = words - 1 if order == "big" else 0

        def pack(values) -> array:
            lanes = array("Q", values)
            if words == 2:
                lanes, wide = array("Q", bytes(16 * len(lanes))), lanes
                lanes[low_word::2] = wide
            return lanes

        def columns(data: bytes, start: int, cols: int, width: int) -> int:
            """The XOR of `cols` runs of `width` bytes of data from start."""
            run = data[start:start + cols * width]
            return _xor_columns(int.from_bytes(run, order), cols, 8 * width)

        gates = sum(n for _, _, n in groups)
        ones = int.from_bytes(pack([1]).tobytes() * max(len(xs), gates), order)
        x, y = int.from_bytes(pack(xs), order), int.from_bytes(pack(ys), order)
        window = [(x << k, ones << k, ones << (w + k)) for k in range(4)]
        r = 0
        for p in range(w - 4, -1, -4):
            t = y >> p
            r <<= 4
            for xk, bit, top in window:
                r ^= xk & (top - (t & bit))
        if len(groups) == 1:
            # one group: its columns are all of r, with no bytes to cut
            ((k, j, n),) = groups
            bits, plain = 8 * lane * n, int.from_bytes(pack(plains), order)
            r = _xor_columns(r, k, bits) ^ _xor_columns(plain, j, bits)
        else:
            products, plain_lanes = r.to_bytes(lane * len(xs), order), pack(plains).tobytes()
            runs, start, pstart = [], 0, 0
            for k, j, n in groups:
                width = lane * n
                acc = columns(products, start, k, width) ^ columns(plain_lanes, pstart, j, width)
                runs.append(acc.to_bytes(width, order))
                start += k * width
                pstart += j * width
            r = int.from_bytes(b"".join(runs), order)
        low = (ones << w) - ones
        for _ in range(2):
            h = (r >> w) & low
            r &= low
            for s in folds:
                r ^= h << s
        return array("Q", r.to_bytes(lane * gates, order))[low_word::words].tolist()

    def add(self, a, b):
        return a ^ b

    sub = add

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
