"""Steinitz prefix rebalancing and the concentration partition.

The permutation search is an exact min-max dynamic program over multisets
of remaining vector classes.  `VectorFamily` and `concentration_partition`
hold vectors and deviations as `Fraction`s; the dynamic program scales the
class vectors by their common denominator and runs in integers.  Nothing
uses floating point, so the deviation bounds are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (InternalError, ParseError, PartitionSizeError, TooManyClasses,
                     content_lines, int_fields)

DEFAULT_CLASS_CAP = 64


@dataclass(frozen=True)
class VectorFamily:
    """r vectors in Q^d with ||v||_inf <= 1, stored class-compressed."""

    dim: int
    classes: tuple          # ((vec as Fraction tuple, count), ...) sorted by vec
    class_of: tuple         # original index -> class id

    @classmethod
    def from_vectors(cls, vectors) -> "VectorFamily":
        vecs = [tuple(Fraction(x) for x in v) for v in vectors]
        if not vecs:
            raise ValueError("empty vector family")
        dim = len(vecs[0])
        for v in vecs:
            if len(v) != dim:
                raise ValueError("inconsistent dimensions")
            if any(abs(x) > 1 for x in v):
                raise ValueError("vector exceeds unit infinity norm")
        distinct = sorted(set(vecs))
        cid = {v: i for i, v in enumerate(distinct)}
        counts = [0] * len(distinct)
        class_of = []
        for v in vecs:
            counts[cid[v]] += 1
            class_of.append(cid[v])
        classes = tuple((v, counts[i]) for i, v in enumerate(distinct))
        return cls(dim, classes, tuple(class_of))

    @property
    def size(self) -> int:
        return sum(c for _, c in self.classes)


@dataclass(frozen=True)
class SteinitzResult:
    permutation: tuple      # position k-1 -> original vector index
    achieved: Fraction      # max_k || prefix_k - ((k-d)/r) * total ||_inf


@dataclass(frozen=True)
class ConcentrationPartition:
    groups: tuple           # per group: tuple of original indices
    sizes: tuple
    deviations: tuple       # per group: Fraction, exact infinity norm


def _scaled_classes(family: VectorFamily):
    denom = 1
    for vec, _ in family.classes:
        for x in vec:
            denom = lcm(denom, x.denominator)
    scaled = [tuple(int(x * denom) for x in vec) for vec, _ in family.classes]
    return scaled, denom


def _minmax_order(family: VectorFamily, boundaries, limit, class_cap: int):
    """Exact min-max ordering by dynamic programming over multisets of
    per-class counts.

    The deviation of a prefix of length k is || sum of its vectors minus
    ((k-d)/r) times the total ||_inf.  Among the orders whose every prefix
    deviation is at most `limit` (None: no limit), returns one minimizing
    the worst deviation at the prefix lengths in `boundaries`, as
    (permutation of the original indices, that worst deviation).  Ties
    break toward the least class index, so the output is deterministic.
    """
    C = len(family.classes)
    if C > class_cap:
        raise TooManyClasses(f"{C} distinct vectors exceed cap {class_cap}")
    d = family.dim
    r = family.size
    vecs, denom = _scaled_classes(family)
    counts = tuple(c for _, c in family.classes)
    total = tuple(sum(v[t] * c for v, c in zip(vecs, counts)) for t in range(d))
    # deviations are scaled by r*denom to stay integral
    bound = None if limit is None else limit * r * denom

    # dev of the prefix pref + vecs[i] of length k; prefixes are carried
    # with the states so each extension is O(d)
    def extend_dev(pref, k, i):
        worst = 0
        for t in range(d):
            val = abs(r * (pref[t] + vecs[i][t]) - (k - d) * total[t])
            if val > worst:
                worst = val
        return worst

    # enumerate states level by level, remembering one prefix vector each
    # (the prefix depends only on the multiset, not the order)
    levels: list[dict] = [dict() for _ in range(r + 1)]
    levels[0][tuple([0] * C)] = tuple([0] * d)
    for k in range(r):
        nxt = levels[k + 1]
        for state, pref in levels[k].items():
            for i in range(C):
                if state[i] < counts[i]:
                    if bound is not None and extend_dev(pref, k + 1, i) > bound:
                        continue
                    s2 = state[:i] + (state[i] + 1,) + state[i + 1:]
                    if s2 not in nxt:
                        nxt[s2] = tuple(pref[t] + vecs[i][t] for t in range(d))
    full = tuple(counts)
    if full not in levels[r]:
        raise InternalError("no order satisfies the Steinitz bound")

    # value of taking class i next from (state, pref) at level k, or None
    # when that step breaks the limit or leads to a dead state
    def step(state, pref, k, i):
        s2 = state[:i] + (state[i] + 1,) + state[i + 1:]
        hs = h.get(s2)
        if hs is None:
            return None, s2
        dev = extend_dev(pref, k + 1, i)
        if bound is not None and dev > bound:
            return None, s2
        return max(dev if (k + 1) in boundaries else -1, hs), s2

    # h[state] = best achievable worst boundary deviation over all
    # completions; None marks a state with no feasible completion
    h: dict = {full: -1}
    for k in range(r - 1, -1, -1):
        for state, pref in levels[k].items():
            best = None
            for i in range(C):
                if state[i] < counts[i]:
                    cand, _ = step(state, pref, k, i)
                    if cand is not None and (best is None or cand < best):
                        best = cand
            h[state] = best
    # forward reconstruction, least class index among optima
    order = []
    state = tuple([0] * C)
    pref = tuple([0] * d)
    for k in range(r):
        target = h[state]
        for i in range(C):
            if state[i] < counts[i]:
                cand, s2 = step(state, pref, k, i)
                if cand == target:
                    order.append(i)
                    state = s2
                    pref = tuple(pref[t] + vecs[i][t] for t in range(d))
                    break
    # expand class order into original indices (increasing within class)
    pools = {i: [] for i in range(C)}
    for idx, ci in enumerate(family.class_of):
        pools[ci].append(idx)
    cursor = {i: 0 for i in range(C)}
    perm = []
    for ci in order:
        perm.append(pools[ci][cursor[ci]])
        cursor[ci] += 1
    return tuple(perm), Fraction(h[tuple([0] * C)], r * denom)


def steinitz_permutation(family: VectorFamily,
                         class_cap: int = DEFAULT_CLASS_CAP) -> SteinitzResult:
    """Order the family to minimize the worst prefix deviation.

    The objective is max over k of || sum of the first k vectors minus
    ((k-d)/r) times the total ||_inf, minimized exactly by dynamic
    programming over multisets of per-class remaining counts.  Ties break
    toward the lexicographically least class index, so the output is
    deterministic.
    """
    boundaries = set(range(1, family.size + 1))
    return SteinitzResult(*_minmax_order(family, boundaries, None, class_cap))


def _balanced_permutation(family: VectorFamily, sizes,
                          class_cap: int = DEFAULT_CLASS_CAP) -> tuple:
    """A Steinitz-valid order (every prefix deviation <= d) minimizing the
    worst deviation at the group boundaries prescribed by `sizes`.

    The lemma guarantees feasibility; among feasible orders this picks the
    one whose boundary prefixes stray least, which is what the padding in
    the scaling decomposition pays for.  Ties break toward the least class
    index, as in steinitz_permutation.
    """
    boundaries = set()
    acc = 0
    for g in sizes:
        acc += g
        boundaries.add(acc)
    return _minmax_order(family, boundaries, family.dim, class_cap)[0]


def concentration_partition(family: VectorFamily, sizes,
                            class_cap: int = DEFAULT_CLASS_CAP) -> ConcentrationPartition:
    """Partition [r] into consecutive Steinitz-permutation blocks of the
    given sizes; each group's mean then concentrates around the global
    mean within 4*dim/size exactly."""
    sizes = tuple(int(g) for g in sizes)
    r = family.size
    if sum(sizes) != r or any(g <= 0 for g in sizes):
        raise PartitionSizeError(f"group sizes {sizes} do not partition [{r}]")
    d = family.dim
    # u_i = v_i/2 - (1/2r) * sum of all v
    total = [Fraction(0)] * d
    raw = [None] * r
    for idx, ci in enumerate(family.class_of):
        raw[idx] = family.classes[ci][0]
        for t in range(d):
            total[t] += family.classes[ci][0][t]
    u_vecs = []
    for idx in range(r):
        u_vecs.append(tuple(Fraction(raw[idx][t], 2) - Fraction(total[t], 2 * r)
                            for t in range(d)))
    u_family = VectorFamily.from_vectors(u_vecs)
    permutation = _balanced_permutation(u_family, sizes, class_cap=class_cap)
    groups = []
    deviations = []
    pos = 0
    mean = [total[t] / r for t in range(d)]
    for g in sizes:
        members = tuple(permutation[pos:pos + g])
        pos += g
        dev = Fraction(0)
        for t in range(d):
            s = sum(raw[i][t] for i in members)
            dev = max(dev, abs(Fraction(s, g) - mean[t]))
        groups.append(members)
        deviations.append(dev)
        if dev > Fraction(4 * d, g):
            raise InternalError(
                f"concentration bound violated: {dev} > 4*{d}/{g}")
    return ConcentrationPartition(tuple(groups), sizes, tuple(deviations))


def parse_vector_file(text: str) -> VectorFamily:
    """Vector file: first line 'd r', then r lines of d rationals 'p/q'."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty vector file")
    d, r = int_fields(lines[0][1].split(), "'d r' header", lines[0][0], (2,))
    if r < 1:
        raise ParseError("a vector family needs r >= 1", lines[0][0])
    if len(lines) != r + 1:
        raise ParseError(f"expected {r} vector lines, found {len(lines) - 1}")
    vectors = []
    for lineno, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != d:
            raise ParseError(f"expected {d} coordinates", lineno)
        try:
            vec = tuple(Fraction(t) for t in toks)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from None
        if any(abs(x) > 1 for x in vec):
            raise ParseError("vector exceeds unit infinity norm", lineno)
        vectors.append(vec)
    return VectorFamily.from_vectors(vectors)
