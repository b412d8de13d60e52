"""Steinitz balancing: the concentration partition of the scaling
decomposition.

Steinitz's lemma orders r vectors of infinity norm at most 1 that sum to
zero so that every prefix sum has infinity norm at most their dimension d.
Cutting such an order into consecutive groups keeps each group's sum close
to its share of the total.  The vectors are integer tuples standing for
v/scale, and the search runs on them centred and scaled to integers, so
every bound is checked exactly, with no rational or floating-point value.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InternalError, PartitionSizeError, ShapeError, TooManyClasses

CLASS_CAP = 64      # distinct vectors the dynamic program accepts


def _balanced_order(classes, counts, dim: int, boundaries, limit: int) -> list:
    """Class order from an exact min-max dynamic program over multisets of
    per-class counts.

    The classes, taken counts[i] times each, sum to zero, so the deviation
    of a prefix is the infinity norm of its sum; it depends only on the
    prefix's multiset.  Among the orders whose every prefix deviation is at
    most `limit`, returns one minimizing the worst deviation at the prefix
    lengths in `boundaries`, as a list of class indices.  Ties break toward
    the least class index, so the output is deterministic.
    """
    r = sum(counts)
    C = len(classes)
    start = (0,) * C
    full = tuple(counts)
    # cost[state]: the state's deviation if its length is a boundary, else
    # -1; levels[k] maps each length-k state within the limit to its prefix
    # sum.  A state beyond the limit gets a cost but joins no level, so it
    # gets no value below and no order passes through it.
    cost = {start: -1}
    levels = [{start: (0,) * dim}]
    for k in range(1, r + 1):
        nxt = {}
        for state, pref in levels[-1].items():
            for i in range(C):
                if state[i] == counts[i]:
                    continue
                s2 = state[:i] + (state[i] + 1,) + state[i + 1:]
                if s2 in cost:
                    continue
                p2 = tuple(p + x for p, x in zip(pref, classes[i]))
                dev = max(map(abs, p2))
                cost[s2] = dev if k in boundaries else -1
                if dev <= limit:
                    nxt[s2] = p2
        levels.append(nxt)
    if full not in levels[r]:
        raise InternalError("no order satisfies the Steinitz bound")

    # best[state]: the least worst boundary deviation over the state's
    # completions, None when it has none
    best = {full: -1}

    def value(state, i):
        """best over the completions of state that take class i next."""
        if state[i] == counts[i]:
            return None
        s2 = state[:i] + (state[i] + 1,) + state[i + 1:]
        v = best.get(s2)
        return None if v is None else max(cost[s2], v)

    for level in reversed(levels[:r]):
        for state in level:
            values = [value(state, i) for i in range(C)]
            best[state] = min((v for v in values if v is not None), default=None)
    order = []
    state = start
    for _ in range(r):
        i = next(i for i in range(C) if value(state, i) == best[state])
        order.append(i)
        state = state[:i] + (state[i] + 1,) + state[i + 1:]
    return order


def concentration_partition(vectors, scale: int, sizes) -> tuple:
    """Groups of the given sizes, consecutive in a Steinitz order of the
    vectors: a tuple of tuples of vector indices.

    `vectors` are r integer tuples of one dimension d that stand for
    v/scale, with ||v||_inf <= scale.  They are centred as u_i = r*v_i minus
    the sum of all v: that is (v_i - mean)/2 for the vectors v/scale, in
    units of 1/(2*r*scale).  The u_i sum to zero and have norm at most
    2*r*scale, so the lemma gives an order whose every prefix sum of u
    stays within 2*r*scale*d.  Among those orders the one whose group
    boundaries stray least is taken.  Each
    group's mean v/scale then lies within 4*d/g of the mean of all of them
    (checked exactly).  Vectors with equal entries fall into one class, and
    a class's indices keep their order; more than CLASS_CAP classes raise
    TooManyClasses, and vectors of mixed dimension or beyond the norm
    ShapeError.
    """
    sizes = tuple(sizes)
    r = len(vectors)
    if sum(sizes) != r or any(g <= 0 for g in sizes):
        raise PartitionSizeError(f"group sizes {sizes} do not partition [{r}]")
    total = [sum(col) for col in zip(*vectors)]
    dim = len(total)
    if any(len(v) != dim or any(abs(x) > scale for x in v) for v in vectors):
        raise ShapeError(f"vectors need one dimension and entries within +-{scale}")
    centred = [tuple(r * x - t for x, t in zip(v, total)) for v in vectors]
    classes = sorted(set(centred))
    if len(classes) > CLASS_CAP:
        raise TooManyClasses(f"{len(classes)} distinct vectors exceed cap {CLASS_CAP}")
    class_of = {u: i for i, u in enumerate(classes)}
    members = [[] for _ in classes]
    for idx, u in enumerate(centred):
        members[class_of[u]].append(idx)
    order = _balanced_order(classes, [len(m) for m in members], dim,
                            set(accumulate(sizes)), 2 * r * scale * dim)
    pools = [iter(m) for m in members]
    perm = [next(pools[i]) for i in order]
    groups = []
    for end, g in zip(accumulate(sizes), sizes):
        grp = tuple(perm[end - g:end])
        for t in range(dim):
            dev = abs(r * sum(vectors[i][t] for i in grp) - g * total[t])
            if dev > 4 * dim * r * scale:
                raise InternalError(f"concentration bound violated: group {grp}, "
                                    f"coordinate {t}: {dev} > 4*{dim}*{r}*{scale}")
        groups.append(grp)
    return tuple(groups)
