import copy
import re
from dataclasses import replace
from itertools import combinations, product
from math import factorial

import pytest

from kronscale import scaling, steinitz
from kronscale.circuit import (
    OP_ADD,
    OP_IN,
    OP_MUL,
    CircuitBuilder,
    dead_gate_elimination,
    evaluate,
    mask_bits,
    subset_name,
)
from kronscale.coeffx import extract_coefficient
from kronscale.counting import (
    SquareMatrix,
    build_hafnian_circuit,
    build_permanent_circuit,
    hafnian_bruteforce,
    matrix_assignment,
    matrix_input_name,
    permanent_ryser,
)
from kronscale.errors import DivisibilityError, ProviderError, ShapeError, TooLarge
from kronscale.fields import Rng, gf2, prime_field
from kronscale.scaling import (
    BlockStructure,
    IntersectionType,
    PScalingScheme,
    ScalingDecomposition,
    build_P_circuit,
    decompose_P,
    enumerate_types,
    verify_scaling,
    yates_circuit,
)
from kronscale.steinitz import concentration_partition
from kronscale.tensor import (
    RankDecomposition,
    Tensor,
    generate_P,
    trivial_decomposition,
    verify_decomposition,
)

from _tensor_oracle import kron_power, tensor_eval

F = prime_field(2**31 - 1)


def brute_enumerate_types(bs):
    # direct enumeration oracle over all per-block triples
    cap = 3 * bs.b
    cols = [(a, b, cap - a - b) for a in range(cap + 1) for b in range(cap + 1 - a)]
    out = []
    for combo in product(cols, repeat=bs.r):
        alpha = tuple(c[0] for c in combo)
        beta = tuple(c[1] for c in combo)
        gamma = tuple(c[2] for c in combo)
        if sum(alpha) == sum(beta) == sum(gamma) == bs.n:
            out.append(IntersectionType(alpha, beta, gamma))
    return out


def test_enumerate_types_forced():
    types = enumerate_types(BlockStructure(1, 1, 1))
    assert types == [IntersectionType((1,), (1,), (1,))]


def test_enumerate_types_r2_matches_oracle():
    bs = BlockStructure(1, 2, 1)
    got = enumerate_types(bs)
    want = brute_enumerate_types(bs)
    assert sorted((t.alpha, t.beta, t.gamma) for t in got) == \
        sorted((t.alpha, t.beta, t.gamma) for t in want)
    assert len(got) == 7  # frozen from the enumeration oracle


def test_enumerate_types_counts_more_shapes():
    for bgs in ((2, 1, 1), (1, 1, 2), (1, 3, 1)):
        bs = BlockStructure(*bgs)
        assert len(enumerate_types(bs)) == len(brute_enumerate_types(bs))


def classify_tripartition(bs, amask, bmask, cmask):
    """Intersection type of a tripartition of [3n]: per block, the sizes of
    its intersections with the three parts."""
    blocks = [sum(1 << e for e in bs.block_elements(i)) for i in range(bs.r)]
    return IntersectionType(*(tuple(bin(mask & block).count("1") for block in blocks)
                              for mask in (amask, bmask, cmask)))


def test_every_tripartition_classifies_to_one_type():
    for bgs in ((1, 2, 1), (1, 1, 2), (1, 3, 1)):
        bs = BlockStructure(*bgs)
        types = {(t.alpha, t.beta, t.gamma) for t in enumerate_types(bs)}
        pn = generate_P(bs.n, field=F)
        for (a, b, c) in pn.entries:
            tau = classify_tripartition(bs, a, b, c)
            assert (tau.alpha, tau.beta, tau.gamma) in types


def test_enumerate_types_budget(monkeypatch):
    # the budget bounds the types found: n=5 at b=g=1 has 3,391 of them
    assert len(enumerate_types(BlockStructure(1, 1, 5))) == 3391
    monkeypatch.setattr(scaling, "TYPE_BUDGET", 1000)
    message = "^enumerate_types: 1001 types exceed the type budget 1000$"
    with pytest.raises(TooLarge, match=message):
        enumerate_types(BlockStructure(1, 3, 3))


def test_decompose_forced_single_component():
    bs = BlockStructure(1, 1, 1)
    dec = decompose_P(bs)
    assert dec.d_eff == 1 and dec.delta == 0
    (comp,) = dec.components
    assert comp.pad_sizes == ((0, 0, 0),)
    # only alpha_1 = beta_1 = gamma_1 = 1 free choices remain per slot
    assert len(comp.alive_x[0]) == 3


def test_decompose_uniform_type_minimal_padding():
    # with g dividing everything evenly, the uniform type gets deviation 0:
    # each of its groups sums to b*g in every part, so every part is padded
    # by delta, the least any type needs
    bs = BlockStructure(1, 2, 2)
    dec = decompose_P(bs)
    assert dec.delta == 2
    (comp,) = [c for c in dec.components if c.tau.alpha == c.tau.beta == (1,) * bs.r]
    assert comp.pad_sizes == ((dec.delta,) * 3,) * bs.s


def test_decompose_alive_masks_have_size_d_eff():
    bs = BlockStructure(1, 1, 2)
    dec = decompose_P(bs)
    for comp in dec.components:
        for j in range(bs.s):
            for alive in (comp.alive_x[j], comp.alive_y[j], comp.alive_z[j]):
                for lmask in alive:
                    assert bin(lmask).count("1") == dec.d_eff


@pytest.mark.parametrize("bgs", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (1, 2, 2)])
def test_verify_scaling(bgs):
    bs = BlockStructure(*bgs)
    assert verify_scaling(bs) is None


def test_verify_scaling_monomial_counts():
    # component projections recover each tripartition exactly once:
    # (1,1,1) -> 6 monomials, (1,2,1) -> 90 (the tripartition counts of P_n)
    assert len(generate_P(1, field=F).entries) == 6
    assert len(generate_P(2, field=F).entries) == 90
    assert verify_scaling(BlockStructure(1, 1, 1)) is None
    assert verify_scaling(BlockStructure(1, 2, 1)) is None


def test_verify_scaling_names_the_first_wrong_monomial():
    bs = BlockStructure(1, 1, 2)
    dec = decompose_P(bs)
    comp = dec.components[1]
    # the monomials of comp's type, sorted; the classification oracle does
    # not go through the restriction data
    own = sorted(key for key in generate_P(bs.n, field=F).entries
                 if classify_tripartition(bs, *key) == comp.tau)
    # without one x entry of factor 0, the monomials whose A meets the
    # blocks of group 0 in that entry's elements are missing
    (lmask, omask), *_ = comp.alive_x[0].items()
    group0 = sum(1 << e for i in comp.groups[0] for e in bs.block_elements(i))
    alive = {lm: om for lm, om in comp.alive_x[0].items() if lm != lmask}
    dropped = list(dec.components)
    dropped[1] = replace(comp, alive_x=(alive,) + comp.alive_x[1:])
    missing = [key for key in own if key[0] & group0 == omask]
    assert verify_scaling(bs, replace(dec, components=tuple(dropped))) == missing[0]
    # a second copy of comp counts each of its monomials twice
    assert verify_scaling(bs, replace(dec, components=dec.components + (comp,))) == own[0]


def per_type_component(bs, tau, groups, d_eff):
    """One type's component built element by element: the factor ground
    sorted explicitly, each block's subsets from combinations, and every
    alive mask summed bit by bit."""
    pad_per_factor = 3 * (d_eff - bs.b * bs.g)
    pad_sizes, grounds, ax, ay, az = [], [], [], [], []
    for j, grp in enumerate(groups):
        pads = [bs.ground_size + pad_per_factor * j + t for t in range(pad_per_factor)]
        ground = sorted(e for i in grp for e in bs.block_elements(i)) + pads
        grounds.append(tuple(ground))
        local = {e: t for t, e in enumerate(ground)}
        sizes = [d_eff - sum(row[i] for i in grp) for row in (tau.alpha, tau.beta, tau.gamma)]
        pad_sizes.append(tuple(sizes))
        cuts = [0, sizes[0], sizes[0] + sizes[1], pad_per_factor]
        for t, (counts, sink) in enumerate(zip((tau.alpha, tau.beta, tau.gamma), (ax, ay, az))):
            pad_mask = sum(1 << local[e] for e in pads[cuts[t]:cuts[t + 1]])
            per_block = [[(sum(1 << local[e] for e in chosen), sum(1 << e for e in chosen))
                          for chosen in combinations(bs.block_elements(i), counts[i])]
                         for i in sorted(grp)]
            sink.append({pad_mask + sum(lm for lm, _ in combo): sum(om for _, om in combo)
                         for combo in product(*per_block)})
    return scaling.ScalingComponent(tau, tuple(groups), tuple(pad_sizes), tuple(grounds),
                                    tuple(ax), tuple(ay), tuple(az))


def steinitz_groupings(bs):
    """Every type with its own concentration partition, s = 1 included,
    and the largest deviation of a group sum from b*g."""
    types = enumerate_types(bs)
    groupings = []
    for tau in types:
        groupings.append(concentration_partition(list(zip(tau.alpha, tau.beta, tau.gamma)),
                                                 3 * bs.b, (bs.g,) * bs.s))
    delta = max(abs(sum(row[i] for i in grp) - bs.b * bs.g)
                for tau, groups in zip(types, groupings) for grp in groups
                for row in (tau.alpha, tau.beta, tau.gamma))
    return types, groupings, delta


def steinitz_route(bs):
    """decompose_P with every type's groups taken from its own concentration
    partition, s = 1 included, and its component built by
    per_type_component."""
    types, groupings, delta = steinitz_groupings(bs)
    d_eff = bs.b * bs.g + delta
    return ScalingDecomposition(bs, d_eff, delta, tuple(
        per_type_component(bs, tau, groups, d_eff)
        for tau, groups in zip(types, groupings)))


def counted_partitions(monkeypatch):
    """Count the concentration partitions that decompose_P asks for."""
    calls = []
    real = scaling.concentration_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scaling, "concentration_partition", counted)
    return calls


@pytest.mark.parametrize("bgs", [(1, 3, 1), (1, 4, 1), (1, 5, 1), (2, 2, 1)])
def test_s1_grouping_matches_the_steinitz_route(bgs, monkeypatch):
    # at s = 1 the concentration partition puts every block in its one
    # group, so every type is padded by nothing; decompose_P asks for no
    # partition and gives the one component that reads each n-subset of
    # [3n] as it is
    bs = BlockStructure(*bgs)
    _, groupings, delta = steinitz_groupings(bs)
    assert delta == 0
    assert all([set(grp) for grp in groups] == [set(range(bs.r))] for groups in groupings)
    calls = counted_partitions(monkeypatch)
    got = decompose_P(bs)
    assert calls == []
    assert (got.d_eff, got.delta) == (bs.n, 0)
    (comp,) = got.components
    assert comp.tau is None
    assert (comp.groups, comp.pad_sizes, comp.factor_grounds) == \
        ((tuple(range(bs.r)),), ((0, 0, 0),), (tuple(range(3 * bs.n)),))
    identity = {m: m for m in (sum(1 << e for e in elems)
                               for elems in combinations(range(3 * bs.n), bs.n))}
    assert comp.alive_x == comp.alive_y == comp.alive_z == (identity,)
    assert verify_scaling(bs, got) is None


@pytest.mark.parametrize("bgs", [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2)])
def test_decompose_P_matches_the_per_type_steinitz_route(bgs):
    # one partition per block multiset, mapped back to each type's blocks,
    # and the tabled components give what each type's own partition and
    # element-by-element component give: groups (in their order), pad
    # sizes, factor grounds, and the alive maps in their insertion order,
    # which fixes the order of every gate built from them
    bs = BlockStructure(*bgs)
    got, want = decompose_P(bs), steinitz_route(bs)
    assert (got.d_eff, got.delta) == (want.d_eff, want.delta)
    assert len(got.components) == len(want.components) == len(enumerate_types(bs))
    for comp, ref in zip(got.components, want.components):
        assert (comp.tau, comp.groups, comp.pad_sizes, comp.factor_grounds) == \
            (ref.tau, ref.groups, ref.pad_sizes, ref.factor_grounds)
        for slot in ("alive_x", "alive_y", "alive_z"):
            assert [list(m.items()) for m in getattr(comp, slot)] == \
                [list(m.items()) for m in getattr(ref, slot)]
    assert verify_scaling(bs, got) is None


@pytest.mark.parametrize("bgs, types, shapes", [
    ((1, 1, 2), 7, 4), ((1, 1, 3), 55, 10), ((1, 1, 4), 415, 25),
])
def test_one_steinitz_dp_per_block_multiset(bgs, types, shapes, monkeypatch):
    runs = []
    real = steinitz._balanced_order

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(steinitz, "_balanced_order", counted)
    bs = BlockStructure(*bgs)
    dec = decompose_P(bs)
    assert len(dec.components) == types
    assert len(runs) == shapes == len({tuple(sorted(zip(c.tau.alpha, c.tau.beta, c.tau.gamma)))
                                       for c in dec.components})


def test_concentration_partition_runs_only_when_s_exceeds_1(monkeypatch):
    calls = counted_partitions(monkeypatch)
    decompose_P(BlockStructure(1, 3, 1))
    assert calls == []
    # at (1, 1, 2) the 7 types have 4 distinct multisets of block triples,
    # and the partition runs once per multiset
    decompose_P(BlockStructure(1, 1, 2))
    assert len(calls) == 4


def _assign_all(c, rng):
    return {name: F.random(rng) for name in c.input_names()}


def test_yates_diagonal_tensor():
    # <2>: identity U,V,W with r = d = 2, s = 2
    sides = (1, 2)
    eye = ((F.one, F.zero), (F.zero, F.one))
    dec = RankDecomposition.from_dense(F, 2, 2, sides, sides, sides, eye, eye, eye)
    c = yates_circuit(dec, 2)
    rng = Rng(12)
    asg = _assign_all(c, rng)
    total = F.zero
    for i in (1, 2):
        for j in (1, 2):
            mask = i | (j << 2)
            prod = F.mul(asg[subset_name("x", mask)],
                         F.mul(asg[subset_name("y", mask)], asg[subset_name("z", mask)]))
            total = F.add(total, prod)
    assert evaluate(c, asg)[0] == total


def random_tensor_with_dec(rng, side, r):
    """Random rank decomposition over singleton masks plus its tensor."""
    sides = tuple(1 << i for i in range(side))
    U, V, W = (tuple(tuple(F.random(rng) for _ in range(r)) for _ in range(side))
               for _ in range(3))
    entries = {}
    for l in range(r):
        for i in range(side):
            if U[i][l] == F.zero:
                continue
            for j in range(side):
                uv = F.mul(U[i][l], V[j][l])
                if uv == F.zero:
                    continue
                for k in range(side):
                    w = W[k][l]
                    if w == F.zero:
                        continue
                    key = (sides[i], sides[j], sides[k])
                    s = F.add(entries.get(key, F.zero), F.mul(uv, w))
                    if s == F.zero:
                        entries.pop(key, None)
                    else:
                        entries[key] = s
    t = Tensor(F, tuple(range(side)), entries)
    dec = RankDecomposition.from_dense(F, side, r, sides, sides, sides, U, V, W)
    return t, dec


def test_yates_s1_matches_tensor_eval():
    rng = Rng(77)
    for _ in range(10):
        side = 2 + rng.below(3)
        r = side + rng.below(3)
        t, dec = random_tensor_with_dec(rng, side, r)
        c = yates_circuit(dec, 1)
        for _ in range(20):
            asg = _assign_all(c, rng)
            x = {1 << i: asg[subset_name("x", 1 << i)] for i in range(side)}
            y = {1 << i: asg[subset_name("y", 1 << i)] for i in range(side)}
            z = {1 << i: asg[subset_name("z", 1 << i)] for i in range(side)}
            assert evaluate(c, asg)[0] == tensor_eval(t, x, y, z)


def test_yates_p1_power_matches_kron_oracle():
    rng = Rng(31)
    t = generate_P(1, field=F)
    dec = trivial_decomposition(t)
    c = yates_circuit(dec, 3)
    p3 = kron_power(t, 3)
    for _ in range(5):
        asg = _assign_all(c, rng)
        x = {a: asg[subset_name("x", a)] for a, _, _ in p3.entries}
        y = {b: asg[subset_name("y", b)] for _, b, _ in p3.entries}
        z = {cm: asg[subset_name("z", cm)] for _, _, cm in p3.entries}
        assert evaluate(c, asg)[0] == tensor_eval(p3, x, y, z)


def test_yates_size_ratio_invariant():
    # size/r^s stays within a factor 4 across s = 1..4
    rng = Rng(5)
    t, dec = random_tensor_with_dec(rng, 2, 3)
    ratios = []
    for s in range(1, 5):
        c = yates_circuit(dec, s)
        ratios.append(c.size / dec.rank ** s)
    assert max(ratios) / min(ratios) <= 4


def test_yates_budget(monkeypatch):
    rng = Rng(6)
    _, dec = random_tensor_with_dec(rng, 3, 6)
    monkeypatch.setattr(scaling, "RANK_POWER_BUDGET", 10_000)
    with pytest.raises(TooLarge):
        yates_circuit(dec, 9)


BUDGET_MESSAGE = re.compile(
    r"yates: slot ([xyz]), level (\d+) of s=(\d+): (\d+) arcs exceed the arc budget (\d+)")


def test_yates_arc_budget_names_slot_and_level(monkeypatch):
    rng = Rng(6)
    _, dec = random_tensor_with_dec(rng, 3, 6)
    # each budget is the arc count the previous firing reported, so the
    # next check that fires is the next level that adds arcs
    fired = []
    budget = 0
    while True:
        try:
            monkeypatch.setattr(scaling, "ARC_BUDGET", budget)
            yates_circuit(dec, 2)
        except TooLarge as exc:
            m = BUDGET_MESSAGE.fullmatch(str(exc))
            assert m is not None, str(exc)
            slot, level, s, arcs, limit = m.groups()
            assert (int(s), int(limit)) == (2, budget) and int(arcs) > budget
            fired.append((slot, int(level)))
            budget = int(arcs)
        else:
            break
    assert fired == [(slot, level) for slot in "xyz" for level in (1, 2)]


def test_instantiate_arc_budget_reports_where_it_fired(monkeypatch):
    monkeypatch.setattr(scaling, "ARC_BUDGET", 4)
    scheme = PScalingScheme(2, 1, 1, F)
    bld = CircuitBuilder(F)
    wires = {}
    for slot in "xyz":
        wires[slot] = {}
        for elems in combinations(range(6), 2):
            mask = sum(1 << e for e in elems)
            wires[slot][mask] = bld.inp(subset_name(slot, mask))
    bld.add(*list(wires["x"].values())[:5])
    # the trivial provider's transform adds no gates, so the five arcs
    # already in the builder trip the budget at the first check
    with pytest.raises(TooLarge) as info:
        scheme.instantiate(bld, [(wires["x"].get, wires["y"].get)], wires["z"].get)
    assert str(info.value) == "yates: slot x, level 1 of s=2: 5 arcs exceed the arc budget 4"


def _check_build_P(n, b, g, n_assignments=5, seed=9):
    rng = Rng(seed)
    circ = build_P_circuit(n, b, g, field=F)
    pn = generate_P(n, field=F)
    for _ in range(n_assignments):
        asg = {}
        maps = {"x": {}, "y": {}, "z": {}}
        for slot in "xyz":
            for elems in combinations(range(3 * n), n):
                mask = sum(1 << e for e in elems)
                v = F.random(rng)
                asg[subset_name(slot, mask)] = v
                maps[slot][mask] = v
        assert evaluate(circ, asg)[0] == tensor_eval(pn, maps["x"], maps["y"], maps["z"])
    return circ


def test_build_P_n2_oracle():
    _check_build_P(2, 1, 2)


def test_build_P_n2_s2_oracle():
    # exercises the s = 2 Kronecker-power path
    _check_build_P(2, 1, 1)


def test_build_P_n3_oracle():
    _check_build_P(3, 1, 3, n_assignments=3)


def test_build_P_indicator_assignment():
    n = 2
    circ = build_P_circuit(n, 1, 2, field=F)
    pn = generate_P(n, field=F)
    (a, b, c) = sorted(pn.entries)[7]
    asg = {}
    for slot, chosen in (("x", a), ("y", b), ("z", c)):
        for elems in combinations(range(3 * n), n):
            mask = sum(1 << e for e in elems)
            asg[subset_name(slot, mask)] = F.one if mask == chosen else F.zero
    assert evaluate(circ, asg)[0] == F.one


def test_build_P_trilinear_in_x():
    n = 2
    circ = build_P_circuit(n, 1, 2, field=F)
    rng = Rng(88)
    asg = {name: F.random(rng) for name in circ.input_names()}
    t = F.random(rng, nonzero=True)
    scaled = dict(asg)
    for name in asg:
        if name.startswith("x:"):
            scaled[name] = F.mul(t, asg[name])
    v0 = evaluate(circ, asg)[0]
    v1 = evaluate(circ, scaled)[0]
    assert v1 == F.mul(t, v0)


def test_trivial_provider_sizes_are_pinned():
    perm = build_permanent_circuit(6, b=1, g=1)
    assert (perm.size, len(perm.gates)) == (585, 292)
    assert build_P_circuit(3, 1, 1, field=F).size == 5292


def join_count_model(q, r):
    """The coefficient of (uvw)^q in ((u+v+w)^3 - (6-r)*uvw)^q: the x*y
    products that build_P_circuit(q, 1, 1) joins when its provider has
    rank r on the (1,1,1) block slice of P_3."""
    base = {(a, b, 3 - a - b): 6 // (factorial(a) * factorial(b) * factorial(3 - a - b))
            for a in range(4) for b in range(4 - a)}
    base[(1, 1, 1)] -= 6 - r
    poly = {(0, 0, 0): 1}
    for _ in range(q):
        nxt = {}
        for (a, b, c), v in poly.items():
            for (da, db, dc), w in base.items():
                key = (a + da, b + db, c + dc)
                nxt[key] = nxt.get(key, 0) + v * w
        poly = nxt
    return poly.get((q, q, q), 0)


def distinct_z_hats(q):
    """The z-masks that some joined term of some type of P_q reads, at
    b = g = 1.  With the trivial provider each z-hat is the input gate at
    its z-mask, one gate whichever type reads it, and a type's joined terms
    are the products of its factors' joined terms, so a type reads the ORs
    of one z-mask per factor that meets some disjoint x- and y-mask."""
    masks = set()
    for comp in decompose_P(BlockStructure(1, 1, q)).components:
        per_factor = []
        for j, ground in enumerate(comp.factor_grounds):
            full = (1 << len(ground)) - 1
            per_factor.append({comp.alive_z[j][full ^ lx ^ ly]
                               for lx in comp.alive_x[j] for ly in comp.alive_y[j]
                               if not lx & ly and full ^ lx ^ ly in comp.alive_z[j]})
        masks.update(sum(combo) for combo in product(*per_factor))
    return len(masks)


@pytest.mark.parametrize("q, joins, z_hats", [(3, 1680, 84), (4, 34650, 495)])
def test_mul_gates_are_one_per_join_and_one_per_z_hat(q, joins, z_hats):
    # each joined term is one x*y mul, and each distinct z-hat of the build
    # one more mul by the sum of the x*y products of every type that reads
    # it; every n-subset of [3n] is some joined term's z-mask
    assert (join_count_model(q, 6), distinct_z_hats(q)) == (joins, z_hats)
    circ = build_P_circuit(q, 1, 1, field=F)
    assert sum(op == OP_MUL for op, _ in circ.gates) == joins + z_hats


def test_p4_permanent_is_pinned_and_agrees_with_ryser():
    # n=12 with g=4 runs on trivial P_4 factors (34,650 terms), the
    # largest provider any test builds
    perm = build_permanent_circuit(12, b=1, g=4)
    assert (perm.size, len(perm.gates)) == (130383, 46444)
    field = perm.field
    for seed in (1, 2):
        rng = Rng(seed)
        mat = SquareMatrix(field, tuple(tuple(field.random(rng) for _ in range(12))
                                        for _ in range(12)))
        assert evaluate(perm, matrix_assignment(mat))[0] == permanent_ryser(mat)


def z_hat_operands(circ, is_z_input):
    """Per product gate that the output reaches through add gates only: its
    one operand that reads nothing but z inputs (and constants)."""
    gates = circ.gates
    z_only = []
    for op, payload in gates:
        if op == OP_IN:
            z_only.append(is_z_input(payload))
        elif op in (OP_ADD, OP_MUL):
            z_only.append(all(z_only[a] for a in payload))
        else:
            z_only.append(True)
    stack, seen, operands = list(circ.outputs), set(), []
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        op, payload = gates[gid]
        if op == OP_ADD:
            stack.extend(payload)
            continue
        assert op == OP_MUL
        (gz,) = [a for a in payload if z_only[a]]
        operands.append(gz)
    return operands


@pytest.mark.parametrize("build, z_names", [
    (lambda: build_P_circuit(3, 1, 1, field=F), lambda n: n.startswith("z:")),
    (lambda: build_permanent_circuit(6, b=1, g=1),
     {matrix_input_name(i, j) for i in (5, 6) for j in range(1, 7)}.__contains__),
], ids=["P3", "perm6"])
def test_every_z_hat_is_joined_once_across_types(build, z_names):
    # one instantiate multiplies each z-hat gate once, by the sum of the
    # x*y products of every type that reads it
    operands = z_hat_operands(build(), z_names)
    assert len(operands) > 1
    assert len(set(operands)) == len(operands)


# the rank-5 decomposition of P_1 over GF(2): (x, y, z) bitmasks over its
# three elements, all coefficients one
P1_RANK5_GF2 = ((0b001, 0b010, 0b100), (0b010, 0b001, 0b111), (0b100, 0b111, 0b001),
                (0b110, 0b101, 0b011), (0b111, 0b100, 0b010))


def block_first(d, field):
    """Block-first decomposition of P_d over characteristic 2: the six
    tripartitions that differ only in how they split the block {0,1,2} one
    element per part share the rank-5 P_1 on that block, times their common
    outer parts; every other tripartition is one trivial term."""
    terms = []
    for parts in sorted(generate_P(d, field=field).entries):
        inner = [m & 0b111 for m in parts]
        if inner == [0b001, 0b010, 0b100]:
            outer = [m ^ i for m, i in zip(parts, inner)]
            terms.extend(tuple([o | 1 << e for e in mask_bits(m)] for o, m in zip(outer, term))
                         for term in P1_RANK5_GF2)
        # the other five one-per-part splits are in those P_1 terms
        elif any(i.bit_count() != 1 for i in inner):
            terms.append(tuple([m] for m in parts))
    sides = [sorted({m for term in terms for m in term[k]}) for k in range(3)]
    rows = [{m: [] for m in side} for side in sides]
    for l, term in enumerate(terms):
        for k in range(3):
            for m in term[k]:
                rows[k][m].append((l, field.one))
    return RankDecomposition(field, 3 * d, len(terms), *map(tuple, sides),
                             *(tuple(tuple(r[m]) for m in side)
                               for r, side in zip(rows, sides)))


def test_block_first_rank5_provider_verifies():
    field = gf2(32)
    dec = block_first(3, field)
    # 1,680 trivial terms, less one for each of the 90 splits of the block
    assert dec.rank == 1590
    assert verify_decomposition(generate_P(3, field=field), dec) is None


@pytest.mark.parametrize("n, trivial, rank5", [
    # at n = 9 the rank-5 provider still loses; from n = 12 it wins
    (9, (8208, 3262), (8812, 3635)),
    (12, (130383, 46444), (123674, 45849)),
], ids=["n9", "n12"])
def test_block_first_rank5_permanent_sizes(n, trivial, rank5):
    field = gf2(32)
    rng = Rng(n)
    mat = SquareMatrix(field, tuple(tuple(field.random(rng) for _ in range(n))
                                    for _ in range(n)))
    for dec_source, size in ((None, trivial), (block_first, rank5)):
        perm = build_permanent_circuit(n, field, dec_source=dec_source, b=1, g=1)
        assert (perm.size, len(perm.gates)) == size
        assert evaluate(perm, matrix_assignment(mat))[0] == permanent_ryser(mat)


def test_build_P_rejects_bad_factorization():
    with pytest.raises(DivisibilityError):
        build_P_circuit(5, 1, 2, field=F)


def product_of_nine():
    bld = CircuitBuilder(F)
    names = [f"v:x{i}" for i in range(9)]
    acc = bld.inp(names[0])
    for name in names[1:]:
        acc = bld.mul(acc, bld.inp(name))
    bld.set_outputs([acc])
    return bld.build(), names


@pytest.mark.parametrize("build, bad", [
    (lambda: PScalingScheme(3, 1, 0, F), "g=0"),
    (lambda: PScalingScheme(3, 0, 1, F), "b=0"),
    # the tri route at n = 9 asks for P_3 with g = 3 // b = 0
    (lambda: extract_coefficient(*product_of_nine(), "tri", b=4), "g=0"),
    (lambda: extract_coefficient(*product_of_nine(), "tri", b=0), "b=0"),
    (lambda: build_permanent_circuit(6, F, b=0), "b=0"),
], ids=["g0", "b0", "tri_b4", "tri_b0", "perm_b0"])
def test_nonpositive_block_count_is_a_shape_error(build, bad):
    with pytest.raises(ShapeError, match=bad):
        build()


def split_first_term(d, field):
    """A valid rank+1 provider: the trivial decomposition of P_d with its
    first term split in two whose U-coefficients, 2u and -u, sum to u."""
    dec = trivial_decomposition(generate_P(d, field=field))
    r = dec.rank
    two = field.add(field.one, field.one)

    def split(rows, first, second):
        # the row holding term 0 with coefficient c gets first(c) there
        # and second(c) at the new last term r
        return tuple(((0, first(row[0][1])),) + row[1:] + ((r, second(row[0][1])),)
                     if row and row[0][0] == 0 else row for row in rows)

    def same(c):
        return c

    return replace(dec, rank=r + 1,
                   U=split(dec.U, lambda c: field.mul(two, c), field.neg),
                   V=split(dec.V, same, same), W=split(dec.W, same, same))


def broken_first_term(d, field):
    """The split decomposition without the second half of its first term."""
    dec = split_first_term(d, field)
    return replace(dec, U=tuple(tuple(e for e in row if e[0] != dec.rank - 1)
                                for row in dec.U))


def test_provider_exception_becomes_provider_error():
    def boom(d, field):
        raise RuntimeError("no decomposition")

    with pytest.raises(ProviderError):
        build_P_circuit(2, 1, 1, field=F, dec_source=boom)


def term_past_rank(d, field):
    """The trivial decomposition with a U row naming term r."""
    dec = trivial_decomposition(generate_P(d, field=field))
    return replace(dec, U=dec.U[:-1] + (dec.U[-1] + ((dec.rank, field.one),),))


@pytest.mark.parametrize("source, message", [
    (lambda d, field: trivial_decomposition(generate_P(d, field=prime_field(101))), "field"),
    (term_past_rank, "outside"),
])
def test_malformed_provider_decomposition_is_a_provider_error(source, message):
    with pytest.raises(ProviderError, match=message):
        build_P_circuit(2, 1, 1, field=prime_field(7), dec_source=source)


def test_provider_decomposition_failing_verification_is_rejected():
    with pytest.raises(ProviderError):
        build_P_circuit(2, 1, 1, field=F, dec_source=broken_first_term)


def _check_split_provider(n, b, g, gates_before, arcs_before):
    """The split provider gives the default values; its gate and arc
    counts are at most those from when every hat entry was transformed,
    before the restricted power dropped terms that never join."""
    scheme = PScalingScheme(n, b, g, F, dec_source=split_first_term)
    trivial = trivial_decomposition(generate_P(scheme.d_eff, field=F))
    assert scheme.dec.rank == trivial.rank + 1
    default = build_P_circuit(n, b, g, field=F)
    split = build_P_circuit(n, b, g, field=F, dec_source=split_first_term)
    assert split.input_names() == default.input_names()
    assert len(split.gates) <= gates_before and split.size <= arcs_before
    rng = Rng(21)
    for _ in range(5):
        asg = _assign_all(default, rng)
        assert evaluate(split, asg) == evaluate(default, asg)


@pytest.mark.parametrize("bg", [(1, 1), (1, 2)])
def test_nontrivial_provider_gives_the_default_values(bg):
    _check_split_provider(2, *bg, *{(1, 1): (295, 583), (1, 2): (241, 470)}[bg])


def test_nontrivial_provider_at_s3_sheds_never_joined_gates():
    _check_split_provider(3, 1, 1, 8830, 18835)


def rescaled(d, field):
    """The trivial decomposition of P_d with every U coefficient times 2 and
    every V coefficient times 1/2: each term keeps its product, but no U or
    V coefficient is one, so every hat entry the transform emits costs a
    scale gate."""
    dec = trivial_decomposition(generate_P(d, field=field))
    two = field.add(field.one, field.one)

    def times(rows, c):
        return tuple(tuple((l, field.mul(c, v)) for l, v in row) for row in rows)

    return replace(dec, U=times(dec.U, two), V=times(dec.V, field.inv(two)))


def test_rescaled_provider_emits_no_scale_that_never_joins():
    # 27,831 arcs when every restriction transformed its slots' inputs
    # whether or not its other slots had any, and 12,831 before the tri
    # route's middle layer could be filled transposed
    circ = build_hafnian_circuit(12, "tri", dec_source=rescaled)
    assert circ.size == 6872
    assert dead_gate_elimination(circ).size == 4406
    field = circ.field
    for seed in (3, 4):
        rng = Rng(seed)
        rows = [[field.zero] * 12 for _ in range(12)]
        for i in range(12):
            for j in range(i + 1, 12):
                rows[i][j] = rows[j][i] = field.random(rng)
        mat = SquareMatrix(field, tuple(map(tuple, rows)), symmetric=True)
        assert evaluate(circ, matrix_assignment(mat))[0] == hafnian_bruteforce(mat)


def subset_wires(bld, n, step):
    """Per slot, every step-th n-subset of [3n] wired to an input gate."""
    wires = {}
    for slot in "xyz":
        masks = [sum(1 << e for e in elems) for elems in combinations(range(3 * n), n)]
        wires[slot] = {m: bld.inp(subset_name(slot, m)) for m in masks[::step]}
    return wires


def test_instantiate_keeps_no_state_between_calls():
    scheme = PScalingScheme(3, 1, None, F, dec_source=rescaled)
    before = copy.deepcopy(vars(scheme))
    bld = CircuitBuilder(F)
    for step in (2, 3):
        wires = subset_wires(bld, 3, step)
        scheme.instantiate(bld, [(wires["x"].get, wires["y"].get)], wires["z"].get)
    assert vars(scheme) == before


def test_restriction_with_an_empty_slot_emits_no_gate():
    # with no z input every restriction is zero; the rescaled provider
    # would pay a scale gate for each x and y hat entry it transformed
    scheme = PScalingScheme(2, 1, 1, F, dec_source=rescaled)
    bld = CircuitBuilder(F)
    wires = subset_wires(bld, 2, 1)
    zero = bld.zero
    gates = len(bld.gates)
    assert scheme.instantiate(bld, [(wires["x"].get, wires["y"].get)], {}.get) == zero
    assert len(bld.gates) == gates
    # no pair, or no pair with both an x and a y input, is zero as well
    assert scheme.instantiate(bld, [], wires["z"].get) == zero
    assert scheme.instantiate(bld, [(wires["x"].get, {}.get), ({}.get, wires["y"].get)],
                              wires["z"].get) == zero
    assert len(bld.gates) == gates


def test_every_scheme_verifies_its_provider():
    class Flaky:
        """Answers correctly on the first call only."""

        def __init__(self):
            self.calls = 0

        def __call__(self, d, field):
            self.calls += 1
            return (split_first_term if self.calls == 1 else broken_first_term)(d, field)

    flaky = Flaky()
    PScalingScheme(2, 1, 2, F, dec_source=flaky)
    with pytest.raises(ProviderError):
        PScalingScheme(2, 1, 2, F, dec_source=flaky)
    assert flaky.calls == 2


@pytest.mark.parametrize("dec_source, field", [
    (None, F), (rescaled, F), (block_first, gf2(32)),
], ids=["trivial", "rescaled", "block_first"])
def test_one_component_at_s1_equals_the_per_type_sum(dec_source, field, monkeypatch):
    # at s = 1 the one component reads every n-subset of [3n] and the
    # Steinitz route's types each read their own slice; both sum to P_n,
    # on full wires (P_3, the n = 9 permanent) and on the tri route's
    # partial ones (the hafnian, 2n = 12)
    builds = (lambda: build_P_circuit(3, 1, 3, field=field, dec_source=dec_source),
              lambda: build_permanent_circuit(9, field, dec_source=dec_source),
              lambda: build_hafnian_circuit(12, "tri", field, dec_source=dec_source))
    got = [build() for build in builds]
    monkeypatch.setattr(scaling, "decompose_P", steinitz_route)
    want = [build() for build in builds]
    rng = Rng(17)
    for circ, ref in zip(got, want):
        assert (circ.size, len(circ.gates)) == (ref.size, len(ref.gates))
        for _ in range(3):
            asg = {name: field.random(rng) for name in ref.input_names()}
            assert evaluate(circ, asg) == evaluate(ref, asg)
