"""Set-multilinear three-tensors over explicit grounds,
balanced-tripartitioning generators, and rank-decomposition certificates.

Subsets of the ground are 64-bit masks over element positions; subsets are
ordered colexicographically, which for masks is plain integer order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .circuit import mask_bits, mask_of
from .errors import ParseError, ShapeError, TooLarge, int_fields, parse_header
from .fields import Field, parse_field_spec, prime_field

MAX_GROUND = 63
MAX_P_GROUND = 21  # explicit-enumeration bound for generate_P


@dataclass(frozen=True)
class Tensor:
    """Coefficient map (A,B,C) -> value over a common ground.

    Only nonzero coefficients are stored.  Ground elements are arbitrary
    hashable labels; masks refer to positions in the ground tuple.
    """

    field: Field
    ground: tuple
    entries: dict

    def __post_init__(self):
        if len(self.ground) > MAX_GROUND:
            raise TooLarge(f"ground of {len(self.ground)} elements exceeds {MAX_GROUND}")

    @property
    def ground_size(self) -> int:
        return len(self.ground)


def _subset_masks(m: int, q: int) -> list:
    """The q-subsets of {0, ..., m - 1} as masks, in colex order."""
    rows = [[0]] + [[] for _ in range(q)]  # rows[k]: the k-subsets of the elements so far
    for e in range(m):
        bit = 1 << e
        for k in range(min(q, e + 1), 0, -1):
            rows[k] += [x | bit for x in rows[k - 1]]
    return rows[q]


def tripartitions(q: int) -> list:
    """The (A, B, C) masks of the ordered partitions of {0, ..., 3q - 1}
    into three q-sets, in colex order: by A, then by B."""
    m = 3 * q
    full = (1 << m) - 1
    masks = _subset_masks(m, q)
    keys = []
    for a in masks:
        keys += [(a, b, full ^ a ^ b) for b in masks if not a & b]
    return keys


def generate_P(q: int, field: Field | None = None) -> Tensor:
    """Balanced tripartitioning tensor: ordered partitions of the ground
    {0, ..., 3q - 1} into three q-sets, all coefficients one, with the
    entries in colex order."""
    field = field or prime_field()
    if q < 0:
        raise ShapeError(f"q = {q} is negative")
    m = 3 * q
    if m > MAX_P_GROUND:
        raise TooLarge(f"3q = {m} exceeds enumeration bound {MAX_P_GROUND}")
    return Tensor(field, tuple(range(m)), dict.fromkeys(tripartitions(q), field.one))


@dataclass(frozen=True)
class RankDecomposition:
    """Rank-r certificate stored as sparse rows.

    side_* list the subset masks indexing each slot (colex order for
    generated decompositions).  U, V and W hold one row per entry of
    side_x, side_y and side_z; a row is a tuple of (term, coeff) pairs with
    nonzero coeff, in ascending term order, so row i of U gives the
    coefficients of x_{side_x[i]} in the r rank-one terms.  Dense
    side-by-r matrices exist only in the rankdec text format.
    """

    field: Field
    ground_size: int
    rank: int
    side_x: tuple
    side_y: tuple
    side_z: tuple
    U: tuple
    V: tuple
    W: tuple

    @property
    def rows(self) -> tuple:
        return self.U, self.V, self.W

    @cached_property
    def owners(self) -> tuple | None:
        """Per slot, the side index of each term's one entry, when every
        term has exactly one entry in each slot and every coefficient is
        one (a unit-term decomposition, as the trivial one always is);
        else None.  Walked once, on first use: by the check of
        `verify_decomposition`, which every scheme construction runs, and
        then read by the restricted powers of `scaling`.  ShapeError when
        a slot's row count differs from its side's or a row names a term
        outside [0, rank): the same walk checks the shape."""
        one = self.field.one
        rank = self.rank
        unit = True
        per_slot = []
        for side, rows, label in zip((self.side_x, self.side_y, self.side_z), self.rows, "UVW"):
            if len(rows) != len(side):
                raise ShapeError(f"{label} has {len(rows)} rows for {len(side)} side entries")
            owner = [None] * rank  # owner[l]: the side index of term l's one entry
            for i, row in enumerate(rows):
                for l, v in row:
                    if not 0 <= l < rank:
                        raise ShapeError(f"{label} row {i} names term {l} outside [0, {rank})")
                    if v != one or owner[l] is not None:
                        unit = False
                    owner[l] = i
            per_slot.append(tuple(owner))
            unit = unit and None not in owner
        return tuple(per_slot) if unit else None

    @classmethod
    def from_dense(cls, field: Field, ground_size: int, rank: int, side_x, side_y, side_z,
                   U, V, W) -> RankDecomposition:
        """Sparse decomposition from side-by-rank coefficient matrices;
        ShapeError when a row is not rank wide."""
        zero = field.zero
        rows = []
        for label, mat in zip("UVW", (U, V, W)):
            for row in mat:
                if len(row) != rank:
                    raise ShapeError(f"{label} row width {len(row)} != rank {rank}")
            rows.append(tuple(tuple((l, v) for l, v in enumerate(row) if v != zero)
                              for row in mat))
        return cls(field, ground_size, rank, tuple(side_x), tuple(side_y), tuple(side_z),
                   *rows)


def _unit_term_keys(dec: RankDecomposition):
    """The (A, B, C) masks of every term, in term order, when dec is a
    unit-term decomposition (`RankDecomposition.owners`); else None."""
    owners = dec.owners
    if owners is None:
        return None
    return list(zip(*(map(side.__getitem__, owner)
                      for side, owner in zip((dec.side_x, dec.side_y, dec.side_z), owners))))


def verify_decomposition(t: Tensor, dec: RankDecomposition):
    """None when the decomposition reproduces the tensor exactly, else the
    first failing (A,B,C) triple in colex order.

    When every term is one monomial x_A y_B z_C with coefficient one (the
    trivial decomposition is), the coefficient of (A,B,C) is the number of
    terms with those masks, so the check is exact as a key comparison: the
    terms' triples must be distinct and be the tensor's support, and every
    entry must be one.  The tensor's keys are distinct, so the comparison
    is made in the tensor's key order.  The terms' masks come from
    `dec.owners`, the walk that finds a unit-term decomposition and checks
    its shape; the property keeps what it found, so the restricted powers
    of `scaling` read a checked decomposition's owners without a second
    walk.  Any other decomposition, and one that fails that comparison
    (terms in another order too), is expanded term by term in the field,
    which names the first mismatch."""
    keys = _unit_term_keys(dec)
    if dec.field != t.field:
        raise ShapeError("decomposition field differs from tensor field")
    f = t.field
    mul = f.mul
    one = f.one
    if (keys is not None and keys == list(t.entries)
            and not set(t.entries.values()) - {one}):
        return None
    for k, side in enumerate((dec.side_x, dec.side_y, dec.side_z)):
        if not set(map(itemgetter(k), t.entries)).issubset(side):
            raise ShapeError("side index lists do not cover the tensor support")
    # per slot: term -> the (mask, coeff) pairs of the rows that reach it
    cols_x, cols_y, cols_z = cols = ({}, {}, {})
    for col, side, rows in zip(cols, (dec.side_x, dec.side_y, dec.side_z), dec.rows):
        for mask, row in zip(side, rows):
            for l, v in row:
                col.setdefault(l, []).append((mask, v))
    acc: dict = {}
    # most coefficients are one, so a factor equal to one is skipped
    # rather than multiplied
    for l, xs in cols_x.items():
        for a, u in xs:
            for b, v in cols_y.get(l, ()):
                uv = v if u == one else u if v == one else mul(u, v)
                for c, w in cols_z.get(l, ()):
                    key = (a, b, c)
                    prev = acc.get(key, f.zero)
                    s = f.add(prev, uv if w == one else w if uv == one else mul(uv, w))
                    if s == f.zero:
                        acc.pop(key, None)
                    else:
                        acc[key] = s
    if acc == t.entries:
        return None
    for key in sorted(set(acc) | set(t.entries)):
        if acc.get(key, f.zero) != t.entries.get(key, f.zero):
            return key
    return None


def trivial_decomposition(t: Tensor) -> RankDecomposition:
    """One rank-one term per nonzero entry, the terms in colex order of the
    entries; always verifies.  Term l puts (l, its coefficient) in the U
    row of its A and (l, one) in the V and W rows of its B and C, one
    tuple shared by both, and by U too when its coefficient is one."""
    one = t.field.one
    rows = defaultdict(list), defaultdict(list), defaultdict(list)
    ux, uy, uz = rows
    for l, ((a, b, c), v) in enumerate(sorted(t.entries.items())):
        pair = (l, one)
        ux[a].append(pair if v == one else (l, v))
        uy[b].append(pair)
        uz[c].append(pair)
    sides = [tuple(sorted(by_mask)) for by_mask in rows]
    return RankDecomposition(t.field, len(t.ground), len(t.entries), *sides,
                             *(tuple(tuple(by_mask[m]) for m in side)
                               for by_mask, side in zip(rows, sides)))


def _fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(e) for e in mask_bits(mask)) + "}"


def _parse_mask(tok: str, lineno: int) -> int:
    tok = tok.strip()
    if not (tok.startswith("{") and tok.endswith("}")):
        raise ParseError(f"bad subset token {tok!r}", lineno)
    body = tok[1:-1]
    elems = int_fields(body.split(","), "a subset '{i,j,...}'", lineno) if body else []
    if not all(e < MAX_GROUND for e in elems):
        raise ParseError(f"subset element outside [0, {MAX_GROUND})", lineno)
    return mask_of(elems)


def write_decomposition(dec: RankDecomposition) -> str:
    """Rank-decomposition file v1, with the rows written out as dense
    side-by-rank matrices."""
    lines = ["rankdec v1", f"field {dec.field.spec_string()}", f"ground {dec.ground_size}",
             f"r={dec.rank}"]
    for label, side in (("xside", dec.side_x), ("yside", dec.side_y), ("zside", dec.side_z)):
        lines.append(f"{label}:")
        lines.extend(_fmt_mask(m) for m in side)
    fmt = dec.field.format_value
    for label, rows in zip("UVW", dec.rows):
        lines.append(f"{label}:")
        for row in rows:
            dense = [dec.field.zero] * dec.rank
            for l, v in row:
                dense[l] = v
            lines.append(" ".join(map(fmt, dense)))
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> RankDecomposition:
    """Parse a rankdec v1 file.  Without a 'ground <m>' line the ground
    size is the highest element any side mask names, plus one."""
    lines = parse_header(text, "rankdec v1")
    field = None
    r = None
    ground_size = None
    sides = {"xside": [], "yside": [], "zside": []}
    mats = {"U": [], "V": [], "W": []}
    section = None
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] == "field":
            field = parse_field_spec(" ".join(toks[1:]), lineno)
            continue
        if toks[0] == "ground":
            (ground_size,) = int_fields(toks[1:], "'ground <size>'", lineno, counts=(1,))
            if ground_size > MAX_GROUND:
                raise ParseError(f"ground size outside [0, {MAX_GROUND}]", lineno)
            continue
        if line.startswith("r="):
            (r,) = int_fields(line[2:].split(), "'r=<rank>'", lineno, counts=(1,))
            continue
        if line.rstrip(":") in ("xside", "yside", "zside", "U", "V", "W") and line.endswith(":"):
            section = line[:-1]
            continue
        if section in sides:
            sides[section].append((_parse_mask(line, lineno), lineno))
        elif section in mats:
            if field is None:
                raise ParseError("matrix block before field declaration", lineno)
            try:
                row = tuple(field.parse_value(t) for t in line.split())
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            mats[section].append((row, lineno))
        else:
            raise ParseError(f"unexpected content {line!r}", lineno)
    if field is None or r is None:
        raise ParseError("missing field or r declaration", lines[-1][0])
    masks = [entry for side in sides.values() for entry in side]
    if ground_size is None:
        ground_size = max((m.bit_length() for m, _ in masks), default=0)
    for m, at in masks:
        if m >> ground_size:
            raise ParseError(f"subset {_fmt_mask(m)} is not within ground {ground_size}", at)
    for label, side in zip(mats, sides.values()):
        rows = mats[label]
        if r == 0 and not rows:
            # rows of width zero are written as blank lines, which are skipped
            rows = mats[label] = [((), lines[-1][0])] * len(side)
        for row, at in rows:
            if len(row) != r:
                raise ParseError(f"{label} row width {len(row)} != rank {r}", at)
        if len(rows) != len(side):
            # a surplus row is named by its own line, a missing one by the last line
            at = rows[len(side)][1] if len(rows) > len(side) else lines[-1][0]
            raise ParseError(f"{label} has {len(rows)} rows for {len(side)} side entries", at)
    return RankDecomposition.from_dense(
        field, ground_size, r, *([m for m, _ in side] for side in sides.values()),
        *([row for row, _ in rows] for rows in mats.values()))
