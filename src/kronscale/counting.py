"""Exact counting applications: permanent, hafnian, set partitions.

Each application has a circuit route (skew generating polynomial plus
coefficient extraction, or the subset-DP-plus-tripartition combine for the
permanent) and an independent brute-force oracle used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, CircuitBuilder, evaluate
from .coeffx import extract_coefficient
from .errors import (DivisibilityError, ParityError, ParseError, ShapeError, TooLarge,
                     content_lines, int_fields, records)
from .fields import Field, prime_field
from .scaling import PScalingScheme


@dataclass(frozen=True)
class SquareMatrix:
    field: Field
    entries: tuple          # row-major tuple of tuples
    symmetric: bool = False

    @property
    def n(self) -> int:
        return len(self.entries)

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.n:
                raise ShapeError("matrix is not square")
        if self.symmetric and _asymmetric_row(self.entries) is not None:
            raise ShapeError("symmetric flag on an asymmetric matrix")


def _asymmetric_row(entries):
    """The lower row i of the first pair (i, j), j < i, with entries[i][j]
    != entries[j][i], row by row; None for a symmetric matrix."""
    for i, row in enumerate(entries):
        for j in range(i):
            if row[j] != entries[j][i]:
                return i
    return None


def matrix_input_name(i: int, j: int) -> str:
    """Matrix entry inputs are named a:{i,j} with 1-based row and column."""
    return f"a:{{{i},{j}}}"


def matrix_assignment(mat: SquareMatrix) -> dict:
    asg = {}
    for i in range(mat.n):
        for j in range(mat.n):
            asg[matrix_input_name(i + 1, j + 1)] = mat.entries[i][j]
    return asg


def parse_matrix_file(text: str, field: Field, symmetric: bool = False) -> SquareMatrix:
    """Matrix file: first line n, then n rows of field values."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty matrix file")
    (n,) = int_fields(lines[0][1].split(), "'n' header", lines[0][0], (1,))
    rows = []
    for lineno, ln in records(lines, n, "rows"):
        toks = ln.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries", lineno)
        try:
            rows.append(tuple(field.parse_value(t) for t in toks))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if symmetric:
        i = _asymmetric_row(rows)
        if i is not None:
            raise ParseError("symmetric flag on an asymmetric matrix", lines[i + 1][0])
    return SquareMatrix(field, tuple(rows), symmetric=symmetric)


def permanent_ryser(mat: SquareMatrix):
    """Inclusion-exclusion permanent in O(2^n * n) field operations."""
    n = mat.n
    if n > 24:
        raise TooLarge("ryser capped at n <= 24")
    if n == 0:
        return mat.field.one
    f = mat.field
    row_sums = [f.zero] * n
    total = f.zero
    gray = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        changed = (g ^ gray).bit_length() - 1
        gray = g
        if (g >> changed) & 1:
            for i in range(n):
                row_sums[i] = f.add(row_sums[i], mat.entries[i][changed])
        else:
            for i in range(n):
                row_sums[i] = f.sub(row_sums[i], mat.entries[i][changed])
        prod = f.one
        for i in range(n):
            prod = f.mul(prod, row_sums[i])
        if (g.bit_count() + n) % 2 == 0:
            total = f.add(total, prod)
        else:
            total = f.sub(total, prod)
    return total


def permanent_skew_circuit(n: int, field: Field):
    """The 1-skew generating polynomial: product over columns of the
    x-weighted column sums; the coefficient of x_1...x_n is the permanent."""
    bld = CircuitBuilder(field)
    xs = [bld.inp(f"x:{{{i}}}") for i in range(1, n + 1)]
    acc = None
    for j in range(1, n + 1):
        col = bld.add(*[bld.mul(xs[i - 1], bld.inp(matrix_input_name(i, j)))
                        for i in range(1, n + 1)])
        acc = col if acc is None else bld.mul(acc, col)
    bld.set_outputs([acc])
    return bld.build(), [f"x:{{{i}}}" for i in range(1, n + 1)]


def permanent_via_extraction(mat: SquareMatrix, method: str = "direct") -> int:
    circ, xvars = permanent_skew_circuit(mat.n, mat.field)
    out = extract_coefficient(circ, xvars, method)
    return evaluate(out, matrix_assignment(mat))[0]


def build_permanent_circuit(n: int, field: Field | None = None, dec_source=None,
                            b: int = 1, g: int | None = None) -> Circuit:
    """Subset-DP bottom plus tripartitioning combine.

    Rows split into three contiguous blocks of n/3; block gates g^l_U hold
    the partial-matching sums over column sets U, and the block triples are
    joined through the P_{n/3}[[n]] circuit.
    """
    field = field or prime_field()
    if n % 3 != 0:
        raise DivisibilityError(f"permanent combine needs 3 | n, got {n}")
    q = n // 3
    bld = CircuitBuilder(field)
    a_in = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a_in[(i, j)] = bld.inp(matrix_input_name(i, j))
    block_tables = []
    for l in range(3):
        prev = {}
        for j in range(1, n + 1):
            prev[1 << (j - 1)] = a_in[(l * q + 1, j)]
        for size in range(2, q + 1):
            row = l * q + size
            cur = {}
            for mask, gate in prev.items():
                for j in range(1, n + 1):
                    bit = 1 << (j - 1)
                    if mask & bit:
                        continue
                    term = bld.mul(a_in[(row, j)], gate)
                    new = mask | bit
                    seen = cur.get(new)
                    if seen is None:
                        cur[new] = [term]
                    else:
                        seen.append(term)
            prev = {m: bld.add(*gs) for m, gs in cur.items()}
        block_tables.append(prev)
    bottom_arcs = bld.arcs
    scheme = PScalingScheme(q, b, g, field, dec_source=dec_source)
    out = scheme.instantiate(bld, [(block_tables[0].get, block_tables[1].get)],
                             block_tables[2].get)
    bld.set_outputs([out])
    circ = bld.build()
    circ.meta.update(bottom_arcs=bottom_arcs)
    return circ


# ---------------------------------------------------------------------------
# hafnian

def hafnian_clow_circuit(two_n: int, field: Field):
    """1-skew circuit for the alternating-clow polynomial.

    Vertices are [2n] with red pairing edges (2i-1, 2i) carrying variable
    x_i; black edges carry the symmetric matrix entries.  Walks alternate
    red and black starting from each walk's anchor (its least vertex), and
    anchors increase along the sequence; a clow sequence of length 2n uses
    every red edge exactly once iff it is an alternating cycle cover, so
    the coefficient of x_1...x_n is the hafnian.  O(n^4) binary gates.
    """
    if two_n % 2 != 0:
        raise ParityError(f"hafnian needs an even order, got {two_n}")
    n = two_n // 2
    bld = CircuitBuilder(field)
    xs = {i: bld.inp(f"x:{{{i}}}") for i in range(1, n + 1)}
    a_in = {}
    for i in range(1, two_n + 1):
        for j in range(1, two_n + 1):
            if i != j:
                lo, hi = min(i, j), max(i, j)
                a_in[(i, j)] = bld.inp(matrix_input_name(lo, hi))

    def partner(v):
        return v + 1 if v % 2 == 1 else v - 1

    def pair_index(v):
        return (v + 1) // 2

    # state (cur, anchor) -> gate, per edge count t
    cur_states = {(h, h): bld.one for h in range(1, two_n + 1)}
    for t in range(two_n - 1):
        nxt: dict = {}

        def emit(key, gate):
            if bld.is_zero(gate):
                return
            seen = nxt.get(key)
            if seen is None:
                nxt[key] = [gate]
            else:
                seen.append(gate)

        red_step = t % 2 == 0
        for (cur, h), gate in cur_states.items():
            if red_step:
                p = partner(cur)
                if p > h:
                    emit((p, h), bld.mul(xs[pair_index(cur)], gate))
            else:
                for w in range(h + 1, two_n + 1):
                    if w != cur:
                        emit((w, h), bld.mul(a_in[(cur, w)], gate))
                closed = bld.mul(a_in[(cur, h)], gate)
                for h2 in range(h + 1, two_n + 1):
                    emit((h2, h2), closed)
        cur_states = {key: bld.add(*gs) for key, gs in nxt.items()}
    finals = []
    for (cur, h), gate in cur_states.items():
        if cur != h:
            finals.append(bld.mul(a_in[(cur, h)], gate))
    bld.set_outputs([bld.add(*finals) if finals else bld.zero])
    return bld.build(), [f"x:{{{i}}}" for i in range(1, n + 1)]


def build_hafnian_circuit(two_n: int, method: str = "direct",
                          field: Field | None = None, dec_source=None) -> Circuit:
    """Hafnian circuit over the a:{i,j} inputs (i < j)."""
    field = field or prime_field()
    circ, xvars = hafnian_clow_circuit(two_n, field)
    return extract_coefficient(circ, xvars, method, dec_source=dec_source)


def hafnian_value(mat: SquareMatrix, method: str = "direct", dec_source=None):
    circ = build_hafnian_circuit(mat.n, method, mat.field, dec_source=dec_source)
    return evaluate(circ, matrix_assignment(mat))[0]


def hafnian_bruteforce(mat: SquareMatrix):
    """Sum over all (2n-1)!! perfect matchings."""
    two_n = mat.n
    if two_n % 2 != 0:
        raise ParityError(f"hafnian needs an even order, got {two_n}")
    if two_n > 12:
        raise TooLarge("hafnian_bruteforce capped at 2n <= 12")
    f = mat.field
    if two_n == 0:
        return f.one

    def rec(unused: tuple):
        if not unused:
            return f.one
        i = unused[0]
        total = f.zero
        for idx in range(1, len(unused)):
            j = unused[idx]
            rest = unused[1:idx] + unused[idx + 1:]
            total = f.add(total, f.mul(mat.entries[i][j], rec(rest)))
        return total

    return rec(tuple(range(two_n)))


# ---------------------------------------------------------------------------
# set partitions

@dataclass(frozen=True)
class SetFamily:
    ground_size: int
    members: tuple          # tuple of sorted element tuples, 1-based


def parse_family_file(text: str) -> SetFamily:
    """Family file: 'n q m' then m lines of q elements each."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty family file")
    n, q, m = int_fields(lines[0][1].split(), "'n q m' header", lines[0][0], (3,))
    members = []
    for lineno, ln in records(lines, m, "member lines"):
        elems = tuple(sorted(int_fields(ln.split(), f"{q} elements", lineno, (q,))))
        if elems and (elems[0] < 1 or elems[-1] > n):
            raise ParseError("element out of range", lineno)
        if len(set(elems)) < q:
            raise ParseError("repeated element", lineno)
        members.append(elems)
    return SetFamily(n, tuple(members))


def setpart_circuit(fam: SetFamily, field: Field):
    """1-skew circuit for the product over members S of (1 + prod_{i in S} x_i).

    Each member turns acc into acc + acc*x_i1*...*x_iq, multiplying in one
    variable at a time; an empty member doubles acc.
    """
    bld = CircuitBuilder(field)
    xs = {i: bld.inp(f"x:{{{i}}}") for i in range(1, fam.ground_size + 1)}
    acc = bld.one
    for member in fam.members:
        chain = acc
        for e in member:
            chain = bld.mul(chain, xs[e])
        acc = bld.add(acc, chain)
    bld.set_outputs([acc])
    return bld.build(), [f"x:{{{i}}}" for i in range(1, fam.ground_size + 1)]


def count_set_partitions(fam: SetFamily, method: str = "direct",
                         field: Field | None = None):
    """Number of subfamilies partitioning the ground set, as a residue."""
    field = field or prime_field()
    circ, xvars = setpart_circuit(fam, field)
    out = extract_coefficient(circ, xvars, method)
    return evaluate(out, {})[0]


def setpart_bruteforce(fam: SetFamily) -> int:
    """Exhaustive count over the 2^|F| subfamilies."""
    if len(fam.members) > 24:
        raise TooLarge("setpart_bruteforce capped at |F| <= 24")
    full = (1 << fam.ground_size) - 1
    masks = [sum(1 << (e - 1) for e in member) for member in fam.members]
    count = 0
    for pick in range(1 << len(masks)):
        union = 0
        ok = True
        p = pick
        while p:
            idx = (p & -p).bit_length() - 1
            p &= p - 1
            m = masks[idx]
            if union & m:
                ok = False
                break
            union |= m
        if ok and union == full:
            count += 1
    return count
