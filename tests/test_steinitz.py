from fractions import Fraction
from itertools import accumulate, permutations

import pytest

from kronscale.errors import PartitionSizeError, ShapeError, TooManyClasses
from kronscale.fields import Rng
from kronscale.steinitz import concentration_partition


def prefix_deviations(vectors, scale, order):
    """||u_1 + ... + u_k||_inf for k = 1..r along order, in Fractions, where
    u_i = v_i/2 - (sum of all v)/(2r) and v = vector/scale."""
    r = len(vectors)
    v = [[Fraction(x, scale) for x in vec] for vec in vectors]
    mean = [sum(col) / r for col in zip(*v)]
    u = [[(x - m) / 2 for x, m in zip(vec, mean)] for vec in v]
    pref = [Fraction(0)] * len(mean)
    out = []
    for i in order:
        pref = [p + x for p, x in zip(pref, u[i])]
        out.append(max(map(abs, pref)))
    return out


def flat(groups):
    return [i for grp in groups for i in grp]


def random_types(rng, b, r):
    """r per-block count triples summing to 3b."""
    vecs = []
    for _ in range(r):
        a = rng.below(3 * b + 1)
        bb = rng.below(3 * b + 1 - a)
        vecs.append((a, bb, 3 * b - a - bb))
    return vecs


def small_families():
    """(vectors, scale, sizes) with r <= 6: seeded type vectors, and seeded
    vectors of dimension 1 or 2.  At r <= 6 every order of 3-dimensional
    vectors stays within d, so the limit binds only on the others; the
    first family is one where the best boundary order without the limit
    leaves it (its prefix after the last -1 reaches 3/2)."""
    yield [(-1,), (1,), (1,), (1,), (-1,), (-1,)], 1, (1, 5)
    rng = Rng(2025)
    shapes = {4: ((2, 2), (1, 3)), 5: ((2, 3), (1, 2, 2)), 6: ((2, 2, 2), (3, 3), (1, 5))}
    for trial in range(24):
        r = 4 + rng.below(3)
        sizes = rng.choice(shapes[r])
        if trial % 2:
            b = 1 + rng.below(2)
            yield random_types(rng, b, r), 3 * b, sizes
        else:
            scale = 1 + rng.below(3)
            d = 1 + rng.below(2)
            yield [tuple(rng.below(2 * scale + 1) - scale for _ in range(d))
                   for _ in range(r)], scale, sizes


def test_dp_matches_exhaustive_small():
    # among the orders whose every centred prefix stays within d (Steinitz),
    # the groups reach the least worst deviation at the group boundaries
    for vecs, scale, sizes in small_families():
        r = len(vecs)
        d = len(vecs[0])
        bounds = list(accumulate(sizes))
        best = None
        for perm in permutations(range(r)):
            devs = prefix_deviations(vecs, scale, perm)
            if max(devs) <= d:
                worst = max(devs[k - 1] for k in bounds)
                best = worst if best is None else min(best, worst)
        groups = concentration_partition(vecs, scale, sizes)
        assert tuple(map(len, groups)) == sizes
        devs = prefix_deviations(vecs, scale, flat(groups))
        assert max(devs) <= d
        assert max(devs[k - 1] for k in bounds) == best


def test_the_prefix_limit_binds():
    # the limit 2*r*scale*d (d in the units of prefix_deviations) decides
    # the groups here: half of it gives ((2, 3, 1, 0, 5), (4, 6)), and no
    # limit at all ((0, 2, 3, 1, 5), (4, 6))
    vecs = [(-3,), (3,), (-2,), (2,), (0,), (3,), (1,)]
    groups = concentration_partition(vecs, 3, (5, 2))
    assert groups == ((0, 4, 6, 3, 1), (2, 5))
    assert max(prefix_deviations(vecs, 3, flat(groups))) <= 1


def test_plus_minus_one():
    # both orders are optimal; the tie breaks toward the least vector
    groups = concentration_partition([(1,), (-1,)], 1, (1, 1))
    assert groups == ((1,), (0,))
    assert max(prefix_deviations([(1,), (-1,)], 1, flat(groups))) <= 1


def test_dp_respects_lemma_bound_random_pm_one():
    rng = Rng(7)
    d = 3
    for _ in range(5):
        # r=18 over the 8 possible +-1 classes keeps the state space small
        vecs = [tuple(1 if rng.below(2) else -1 for _ in range(d)) for _ in range(18)]
        groups = concentration_partition(vecs, 1, (6, 6, 6))
        assert max(prefix_deviations(vecs, 1, flat(groups))) <= d


def test_permutation_is_bijection():
    rng = Rng(13)
    vecs = [tuple(rng.below(4) for _ in range(2)) for _ in range(12)]
    groups = concentration_partition(vecs, 3, (4, 4, 4))
    assert [len(grp) for grp in groups] == [4, 4, 4]
    assert sorted(flat(groups)) == list(range(12))


def test_all_vectors_equal():
    # one class: its indices keep their order across groups of any size;
    # vectors of dimension 0 have norm 0 and form one class too
    assert concentration_partition([(3, 2)] * 5, 6, (2, 3)) == ((0, 1), (2, 3, 4))
    assert concentration_partition([(), ()], 1, (1, 1)) == ((0,), (1,))


def test_a_thousand_vectors_run_past_the_recursion_limit():
    # the dynamic program walks its states on a stack of its own, so the
    # number of vectors is not bound by Python's recursion limit (1,000)
    assert concentration_partition([(0,)] * 1000, 1, (1000,)) == (tuple(range(1000)),)
    vecs = [(0,)] * 990 + [(1,)] * 10
    first, second = concentration_partition(vecs, 1, (500, 500))
    assert sorted(first + second) == list(range(1000))
    assert sum(vecs[i][0] for i in first) == sum(vecs[i][0] for i in second) == 5


def test_determinism():
    vecs = [(0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (0, 0)]
    assert concentration_partition(vecs, 1, (2, 2, 2)) == \
        concentration_partition(list(vecs), 1, [2, 2, 2])


def test_too_many_classes():
    vecs = [(i, 0) for i in range(65)]
    with pytest.raises(TooManyClasses):
        concentration_partition(vecs, 64, (65,))


def test_concentration_identical_vectors():
    groups = concentration_partition([(1, 1, 1)] * 6, 3, (2, 2, 2))
    assert groups == ((0, 1), (2, 3), (4, 5))


def test_concentration_uniform_type():
    # the type (2, 3, 1) on every block of size 3b, b = 2
    groups = concentration_partition([(2, 3, 1)] * 8, 6, (4, 4))
    assert groups == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_concentration_random_types():
    rng = Rng(99)
    b, r, g, s = 2, 12, 3, 4
    for _ in range(10):
        vecs = random_types(rng, b, r)
        groups = concentration_partition(vecs, 3 * b, (g,) * s)
        assert sorted(flat(groups)) == list(range(r))
        # each group's mean lies within 4d/g of the mean of all, d = 3
        for grp in groups:
            assert len(grp) == g
            dev = max(abs(Fraction(sum(vecs[i][t] for i in grp), 3 * b * g)
                          - Fraction(sum(v[t] for v in vecs), 3 * b * r))
                      for t in range(3))
            assert dev <= Fraction(4 * 3, g)


def test_partition_size_error():
    with pytest.raises(PartitionSizeError):
        concentration_partition([(1, 0)] * 4, 1, (3, 3))
    with pytest.raises(PartitionSizeError):
        concentration_partition([(1, 0)] * 4, 1, (4, 0))


def test_malformed_vectors_raise_shape_error():
    for vecs in ([(1, 0), (1,)], [(1,), (1, 0)], [(2, 0), (0, 0)], [(0, -2), (0, 0)]):
        with pytest.raises(ShapeError):
            concentration_partition(vecs, 1, (1, 1))
