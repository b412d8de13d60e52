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
    per-class counts, as a list of class indices.

    The classes, taken counts[i] times each, sum to zero, so the deviation
    of a prefix is the infinity norm of its sum; it depends only on the
    prefix's multiset, its state.  One memoized recursion from the empty
    state fills best[state]: the least worst deviation at the prefix
    lengths in `boundaries` over the state's completions whose every
    prefix deviation is at most `limit`, with the class it takes next, or
    None when no completion stays within the limit; the full state holds
    (-1, None), -1 standing below every deviation.  Ties keep the least
    class index, so the output is deterministic.  The order then follows
    the stored classes.  The recursion nests r = sum(counts) calls;
    decompose_P's r is its block count n/b.
    """
    C = len(classes)
    best = {tuple(counts): (-1, None)}

    def solve(state, pref, k):
        if state in best:
            return best[state]
        found = None
        for i in range(C):
            if state[i] == counts[i]:
                continue
            p2 = tuple(p + x for p, x in zip(pref, classes[i]))
            dev = max(map(abs, p2), default=0)
            if dev > limit:
                continue
            sub = solve(state[:i] + (state[i] + 1,) + state[i + 1:], p2, k + 1)
            if sub is not None:
                worst = max(dev if k + 1 in boundaries else -1, sub[0])
                if found is None or worst < found[0]:
                    found = (worst, i)
        best[state] = found
        return found

    state = (0,) * C
    if solve(state, (0,) * dim, 0) is None:
        raise InternalError("no order satisfies the Steinitz bound")
    order = []
    while (i := best[state][1]) is not None:
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
    stays within 2*r*scale*d: the limit of the one memoized pass
    (_balanced_order), which takes, among those orders, one whose group
    boundaries stray least.  Each group's mean v/scale then lies within
    4*d/g of the mean of all of them (checked exactly).  Vectors with
    equal entries fall into one class, one dict entry from the centred
    vector to its indices, and a class's indices keep their order.  More
    than CLASS_CAP classes raise TooManyClasses, and vectors of mixed
    dimension or beyond the norm ShapeError.  Vectors of dimension 0 have
    norm 0 and form one class, so their indices stay in order.
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
    members = {}    # class vector -> its indices, in order
    for idx, u in enumerate(centred):
        members.setdefault(u, []).append(idx)
    if len(members) > CLASS_CAP:
        raise TooManyClasses(f"{len(members)} distinct vectors exceed cap {CLASS_CAP}")
    classes = sorted(members)
    order = _balanced_order(classes, [len(members[u]) for u in classes], dim,
                            set(accumulate(sizes)), 2 * r * scale * dim)
    pools = [iter(members[u]) for u in classes]
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
