"""Exact field arithmetic over prime fields and GF(2^w), plus seeded randomness.

Field elements are plain canonical ints (residue mod p, or a w-bit
polynomial bitmask); all operations go through a Field object so values
serialize bit-exactly.  A field is a plain value: it holds its modulus or
width and no tables, costs nothing to build, and compares and hashes equal
to every field with the same spec string.  GF(2^w) has one scalar
multiply at every width, the bit-serial carryless product and reduction.

Every field also has a batch operation, a kernel factory that circuit
evaluation calls once per level of a circuit's plan:
`dot_kernel(groups)`.  A group (k, j, n) is n gates, each the sum of k
products xs[i] * ys[i] and j plain values, laid out column by column:
column c holds argument c of each gate.  The factory binds all the work
that depends on the groups alone, such as slice bounds, lane masks and
cut offsets, and returns the kernel, `kernel(xs, ys, plains)`, which
does only the operand work.  The kernel returns the list of one
canonical value per gate, reduces each sum once, not each product, and
keeps no state between calls.  Its sibling `random_kernel(count,
nonzero)` prepares the draw of `count` random elements that a sieve
makes on every trial; GF(2^w) runs the generator over packed lanes.

The random generator is SplitMix64, a fixed, versioned, splittable
generator: identical seeds give identical streams on every platform.
"""

from __future__ import annotations

import operator
import struct

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

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<Field {self.spec_string()}>"

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def random_kernel(self, count: int, nonzero: bool = False):
        """The draw of `count` elements: a function of an Rng that returns
        what `count` calls of `random(rng, nonzero)` return, in order, and
        leaves the Rng in the state they leave it in."""
        random = self.random
        return lambda rng: [random(rng, nonzero) for _ in range(count)]


class PrimeField(Field):
    """Z_p for a prime p < 2^62; elements are ints in [0, p)."""

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

    def dot_kernel(self, groups):
        """The level kernel of `groups`: a function of (xs, ys, plains)
        that, per gate of each group (k, j, n), sums its k integer
        products and j plains and reduces the sum once.  A group sums its
        columns as whole slices, or, when it has more columns than gates,
        each gate's strided row; the slices are cut here, once."""
        p = self.p
        # per group: whether it sums rows, then its product and its plain
        # slices, one per gate's strided row or one per whole column
        paths = []
        start = pstart = 0
        for k, j, n in groups:
            stop, pstop = start + k * n, pstart + j * n
            if k + j > n:
                paths.append((True, [slice(i, stop, n) for i in range(start, start + n)],
                              [slice(t, pstop, n) for t in range(pstart, pstart + n)]))
            else:
                paths.append((False, [slice(i, i + n) for i in range(start, stop, n)],
                              [slice(t, t + n) for t in range(pstart, pstop, n)]))
            start, pstart = stop, pstop

        def kernel(xs, ys, plains) -> list:
            products = list(map(operator.mul, xs, ys))
            out = []
            for rows, cuts, plain_cuts in paths:
                if rows:
                    out += [(sum(products[a]) + sum(plains[b])) % p
                            for a, b in zip(cuts, plain_cuts)]
                else:
                    cols = [products[c] for c in cuts] + [plains[c] for c in plain_cuts]
                    sums = cols[0]
                    for col in cols[1:]:
                        sums = map(operator.add, sums, col)
                    out += map(p.__rmod__, sums)
            return out

        return kernel

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


def _column_steps(cols: int, bits: int) -> tuple:
    """The (shift, low mask) steps that XOR `cols` consecutive `bits`-bit
    columns of an int into the lowest, by halving: each step XORs the
    upper half of the columns onto the lower, v = (v >> shift) ^ (v & low)."""
    steps = []
    while cols > 1:
        half = cols // 2
        keep = (cols - half) * bits
        steps.append((keep, (1 << keep) - 1))
        cols -= half
    return tuple(steps)


# the struct code of a lane of each width in bits: an unsigned int of
# 16, 32 or 64 bits, or at 128 a 64-bit word beside a zero word
_LANE = {16: "H", 32: "I", 64: "Q", 128: "Q8x"}


def _lanes(bits: int, count: int) -> struct.Struct:
    """`count` lanes of `bits` bits, packed little-endian: read back with
    int.from_bytes(..., "little"), lane i holds bits [bits * i, bits * (i + 1))."""
    code = _LANE[bits]
    return struct.Struct(f"<{count}{code}" if len(code) == 1 else "<" + code * count)


class GF2Field(Field):
    """GF(2^w) for w in {8, 16, 32, 64} with a fixed reduction polynomial.

    Elements are w-bit ints.  `mul` is the bit-serial carryless product
    (`_clmul`) reduced modulo the field polynomial (`_reduce`), and
    `dot_kernel` prepares the packed batch kernel.  The field keeps no
    tables.
    """

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

    def dot_kernel(self, groups):
        """The level kernel of `groups`: a function of (xs, ys, plains)
        that, per gate of each group (k, j, n), XORs its k carryless
        products and j plains and folds the sum once.

        Each operand list is packed into one Python int of 2w-bit lanes,
        lane 0 lowest (_lanes; at w = 64 a lane is the operand's word
        beside a zero word).  Each operand has w free bits above it in its
        lane, so its carryless product, of 2w - 1 bits, stays in the lane.

        The product is a Horner scheme over the nibbles of y, from the top:
        shift the partial product up by 4, then add x shifted by k wherever
        bit k of the nibble is set, for k = 0..3.  The selecting mask comes
        from one subtraction per bit, `(ones << (w + k)) - (bit k of y)`:
        either the lone bit w + k, among the free bits, or the bits
        k..w + k - 1 of each lane, so the borrow stays in the lane, and
        x << k, at most w + k bits, never meets the lone bit.  The partial
        product, x times the top nibbles of y, never outgrows the product.

        A group's columns are runs of n lanes, cut out of the product int
        by a shift and a mask and XORed into one run by halving, its
        plains' likewise; the run is XORed in at the group's first gate
        lane.  Two folds by x^w = the sum of x^s over the set bits s of
        REDUCTION_POLY_LOW[w] then reduce each sum's w - 1 high bits, then
        the few bits the first fold pushed past bit w - 1; they leave a
        plain, below x^w, as it is.

        Everything that depends on the shape alone (the lane masks, each
        group's cuts and halving steps, the fold mask) is bound here, so
        a call does only the operand work.
        """
        w, folds = self.w, self.folds
        bits = 2 * w
        size = sum(k * n for k, _, n in groups)
        psize = sum(j * n for _, j, n in groups)
        gates = sum(n for _, _, n in groups)
        pack, pack_plains, gate_lanes = (_lanes(bits, size).pack, _lanes(bits, psize).pack,
                                         _lanes(bits, gates))
        unpack = gate_lanes.unpack
        ones = int.from_bytes(pack(*[1] * size), "little")
        masks = tuple((ones << k, ones << (w + k)) for k in range(4))
        nibbles = range(w - 4, -1, -4)
        gate_ones = int.from_bytes(gate_lanes.pack(*[1] * gates), "little")
        low = (gate_ones << w) - gate_ones
        nbytes = bits // 8 * gates
        # per run of columns: (0 for products or 1 for plains, its lowest
        # bit, its mask, its halving steps, the lowest bit of its gates)
        cuts = []
        start = pstart = first = 0
        for k, j, n in groups:
            run = bits * n
            for source, lane_at, cols in ((0, start, k), (1, pstart, j)):
                if cols:
                    cuts.append((source, bits * lane_at, (1 << run * cols) - 1,
                                 _column_steps(cols, run), bits * first))
            start, pstart, first = start + k * n, pstart + j * n, first + n

        def kernel(xs, ys, plains) -> list:
            x, y = int.from_bytes(pack(*xs), "little"), int.from_bytes(pack(*ys), "little")
            window = [(x << k, bit, top) for k, (bit, top) in enumerate(masks)]
            r = 0
            for p in nibbles:
                t = y >> p
                r <<= 4
                for xk, bit, top in window:
                    r ^= xk & (top - (t & bit))
            sources = (r, int.from_bytes(pack_plains(*plains), "little"))
            r = 0
            for source, lowest, mask, steps, gate_at in cuts:
                v = (sources[source] >> lowest) & mask
                for shift, keep in steps:
                    v = (v >> shift) ^ (v & keep)
                r ^= v << gate_at
            for _ in range(2):
                h = (r >> w) & low
                r &= low
                for s in folds:
                    r ^= h << s
            return list(unpack(r.to_bytes(nbytes, "little")))

        return kernel

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

    def random_kernel(self, count: int, nonzero: bool = False):
        """The draw of `count` elements, equal to `count` calls of
        `random(rng, nonzero)`, with SplitMix64 run over 128-bit lanes of
        one int.

        Draw i reads the state s + (i + 1) * GOLDEN, for the Rng's state s.
        Each lane holds one 64-bit value with 64 free bits above it, so a
        product with a 64-bit constant stays in its lane, and a right
        shift brings only the next lane's low bits into the free bits,
        which the lane mask clears.  A rejected zero makes `random` draw
        once more and shifts every later draw, so from the first zero on
        the draw falls back to `random`.
        """
        golden = Rng.GOLDEN
        lanes = _lanes(128, count)
        ones = int.from_bytes(lanes.pack(*[1] * count), "little")
        states = int.from_bytes(lanes.pack(*[(i + 1) * golden & _MASK64
                                             for i in range(count)]), "little")
        low, wide = ones * _MASK64, ones * self.mask
        unpack, nbytes = lanes.unpack, 16 * count
        random = self.random

        def draw(rng: Rng) -> list:
            s = rng.state
            z = (s * ones + states) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            values = list(unpack(((z ^ (z >> 31)) & wide).to_bytes(nbytes, "little")))
            rng.state = (s + count * golden) & _MASK64
            if nonzero and 0 in values:
                first = values.index(0)
                rng.state = (s + (first + 1) * golden) & _MASK64
                values[first:] = [random(rng, True) for _ in range(first, count)]
            return values

        return draw

    def format_value(self, v):
        return f"0x{v:x}"

    def parse_value(self, s):
        v = int(s, 0)
        if v >> self.w:
            raise ValueError(f"value {s} wider than {self.w} bits")
        return v


def parse_field_spec(spec: str, line: int | None = None) -> Field:
    """Parse the field spec grammar: ``p=<prime>`` or ``gf2 w=<8|16|32|64>``;
    a ParseError names `line`, the spec's line in the file it came from."""
    key = " ".join(spec.split())
    try:
        if key.startswith("p="):
            return PrimeField(int(key[2:]))
        if key.startswith("gf2 w="):
            return GF2Field(int(key[6:]))
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc
    raise ParseError(f"unrecognized field spec {spec!r}", line)


def prime_field(p: int = DEFAULT_PRIME) -> PrimeField:
    """Z_p constructor."""
    return PrimeField(p)


def gf2(w: int) -> GF2Field:
    """GF(2^w) constructor."""
    return GF2Field(w)
