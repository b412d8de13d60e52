"""Kronecker-scaling decomposition of balanced tripartitioning tensors.

The ground [3n] is split into r = g*s blocks of size 3b; every balanced
tripartition gets an intersection type (per-block size triple), and each
type's slice embeds into a restriction of P_{d_eff}^{(x) s} after Steinitz
balancing groups the blocks into s groups of g and padding tops every part
up to d_eff.

At s = 1 the one group holds every block, so every group sum is n, d_eff
is n and no padding is needed: the type slices partition the support of
P_n, and their sum is P_n itself.  The decomposition is then one component
that reads every n-subset of [3n] as it is, and no type is enumerated.

Padding is adaptive: d_eff = b*g + Delta where Delta is the largest
deviation the balancing actually achieved over all types and groups.  The
worst-case constant would put d_eff = b*(g+36), far beyond desk scale.

Each restricted power runs the sparse Yates transform of the provider's
decomposition, except for a unit-term one (every term one monomial
x_A*y_B*z_C with coefficient one, as the default trivial provider's always
are): there the transform would only relabel keys, so the products read
their inputs directly at each term's owners, the side index of its one
entry per slot.  The owners come from the walk that the exactness check
of every scheme construction makes (`RankDecomposition.owners`), and both
paths emit the same circuit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .circuit import Circuit, CircuitBuilder, mask_of, subset_name
from .errors import DivisibilityError, InternalError, ProviderError, ShapeError, TooLarge
from .fields import Field, prime_field
from .steinitz import concentration_partition
from .tensor import (
    RankDecomposition,
    generate_P,
    trivial_decomposition,
    tripartitions,
    verify_decomposition,
)

TYPE_BUDGET = 10 ** 6          # cap on the number of intersection types
ARC_BUDGET = 20_000_000        # cap on materialized circuit arcs
RANK_POWER_BUDGET = 2_000_000  # cap on rank^s in yates_circuit


@dataclass(frozen=True)
class BlockStructure:
    """Ground [3n] with n = b*g*s, split into r = g*s blocks of size 3b."""

    b: int
    g: int
    s: int

    def __post_init__(self):
        if min(self.b, self.g, self.s) < 1:
            raise ShapeError("b, g, s must be positive")

    @property
    def n(self) -> int:
        return self.b * self.g * self.s

    @property
    def r(self) -> int:
        return self.g * self.s

    @property
    def ground_size(self) -> int:
        return 3 * self.n

    def block_elements(self, i: int) -> range:
        return range(3 * self.b * i, 3 * self.b * (i + 1))


@dataclass(frozen=True)
class IntersectionType:
    alpha: tuple
    beta: tuple
    gamma: tuple


def enumerate_types(bs: BlockStructure):
    """All intersection types, lexicographically ordered on the per-block
    pairs (alpha_0, beta_0, alpha_1, beta_1, ...); from r = 3 on this is
    not the order on (alpha, beta, gamma).

    A type gives each block a triple summing to 3b, with every row summing
    to n across blocks.  TooLarge fires once more than TYPE_BUDGET types
    have been found.
    """
    cap = 3 * bs.b
    n = bs.n
    r = bs.r
    out = []
    alpha = [0] * r
    beta = [0] * r

    def rec(i, sum_a, sum_b):
        if i == r:
            if sum_a == n and sum_b == n:
                gamma = tuple(cap - alpha[t] - beta[t] for t in range(r))
                out.append(IntersectionType(tuple(alpha), tuple(beta), gamma))
                if len(out) > TYPE_BUDGET:
                    raise TooLarge(f"enumerate_types: {len(out)} types exceed "
                                   f"the type budget {TYPE_BUDGET}")
            return
        remaining = (r - i - 1) * cap
        for a in range(cap + 1):
            if sum_a + a > n or sum_a + a + remaining < n:
                continue
            alpha[i] = a
            for b in range(cap + 1 - a):
                if sum_b + b > n or sum_b + b + remaining < n:
                    continue
                # gamma entry is cap-a-b; its row sum is forced once the
                # alpha and beta rows hit n, so no third check is needed
                beta[i] = b
                rec(i + 1, sum_a + a, sum_b + b)
    rec(0, 0, 0)
    return out


@dataclass(frozen=True)
class ScalingComponent:
    """One type's slice: Steinitz groups, padding split, restriction data.

    tau is None for the one component at s = 1, which is every type's
    slice at once: its group holds every block, its padding is (0, 0, 0),
    its factor ground is [3n] and each alive map is the identity on the
    n-subsets of [3n]."""

    tau: IntersectionType | None
    groups: tuple              # per factor j: tuple of block indices
    pad_sizes: tuple           # per factor j: (pad_a, pad_b, pad_c)
    factor_grounds: tuple      # per factor j: tuple of global element ids
    # per factor j and slot: dict local d_eff-subset mask -> original U-mask
    alive_x: tuple
    alive_y: tuple
    alive_z: tuple


@dataclass(frozen=True)
class ScalingDecomposition:
    bs: BlockStructure
    d_eff: int
    delta: int
    components: tuple


def _group_sums(tau: IntersectionType, group):
    sa = sum(tau.alpha[i] for i in group)
    sb = sum(tau.beta[i] for i in group)
    sc = sum(tau.gamma[i] for i in group)
    return sa, sb, sc


def _component(bs: BlockStructure, tau: IntersectionType, groups, d_eff: int,
               block_masks) -> ScalingComponent:
    """Padding split, factor grounds and alive maps of one type, given its
    groups; within a group the block order does not matter.

    block_masks[c] lists the c-subsets of one block as masks over its 3b
    elements, in the order of combinations.  Factor j's ground is the
    elements of its group's blocks in ascending order, then its padding,
    so a block i at position p of the sorted group turns an in-block mask
    m into the local mask m << 3b*p and the original mask m << 3b*i; the
    padding of each slot is one run of local bits above the blocks."""
    w = 3 * bs.b
    pad_per_factor = 3 * (d_eff - bs.b * bs.g)
    pad_sizes = []
    grounds = []
    ax, ay, az = [], [], []
    for j, grp in enumerate(groups):
        sa, sb, sc = _group_sums(tau, grp)
        pa, pb, pc = d_eff - sa, d_eff - sb, d_eff - sc
        if min(pa, pb, pc) < 0 or pa + pb + pc != pad_per_factor:
            raise InternalError("negative or inconsistent padding")
        pad_sizes.append((pa, pb, pc))
        blocks = sorted(grp)
        pad_start = bs.ground_size + pad_per_factor * j
        grounds.append(tuple(e for i in blocks for e in range(w * i, w * i + w))
                       + tuple(range(pad_start, pad_start + pad_per_factor)))
        low = w * len(blocks)
        pads = (((1 << pa) - 1) << low, ((1 << pb) - 1) << (low + pa),
                ((1 << pc) - 1) << (low + pa + pb))
        for counts, pad_mask, sink in zip((tau.alpha, tau.beta, tau.gamma), pads,
                                          (ax, ay, az)):
            alive = [(pad_mask, 0)]
            for p, i in enumerate(blocks):
                opts = [(m << w * p, m << w * i) for m in block_masks[counts[i]]]
                alive = [(l | lm, o | om) for l, o in alive for lm, om in opts]
            sink.append(dict(alive))
    return ScalingComponent(tau, tuple(groups), tuple(pad_sizes), tuple(grounds),
                            tuple(ax), tuple(ay), tuple(az))


def decompose_P(bs: BlockStructure) -> ScalingDecomposition:
    """The components of P_n, all sharing one effective part size d_eff.

    With s = 1 the one group holding every block is the only partition:
    every group sum is n, so d_eff is n, delta is 0, and the slices of all
    types add up to P_n itself.  The result is the single component that
    ScalingComponent describes for tau None.  With s >= 2 there is one
    component per intersection type, its groups taken from the
    concentration partition of the per-block count triples
    (alpha_i, beta_i, gamma_i) at scale 3b, that is of the vectors
    (alpha_i, beta_i, gamma_i)/3b, into s groups of g blocks.

    That partition depends only on the multiset of the triples, so it is
    computed once per multiset, on the triples sorted, and mapped back: the
    partition takes the blocks of equal triples in ascending index order,
    so the k-th copy of a triple in the sorted list is the k-th block that
    holds it.  The in-block subset masks are tabled once for all types."""
    b, g, s = bs.b, bs.g, bs.s
    if s == 1:
        n = bs.n
        alive = ({m: m for m in map(mask_of, combinations(range(3 * n), n))},)
        return ScalingDecomposition(bs, n, 0, (ScalingComponent(
            None, (tuple(range(bs.r)),), ((0, 0, 0),), (tuple(range(3 * n)),),
            alive, alive, alive),))
    types = enumerate_types(bs)
    by_shape = {}   # sorted block triples -> their groups, as positions in that list
    groupings = []
    delta = 0
    for tau in types:
        triples = list(zip(tau.alpha, tau.beta, tau.gamma))
        order = sorted(range(bs.r), key=triples.__getitem__)
        shape = tuple(map(triples.__getitem__, order))
        groups = by_shape.get(shape)
        if groups is None:
            groups = by_shape[shape] = concentration_partition(list(shape), 3 * b, (g,) * s)
            for grp in groups:
                for total in map(sum, zip(*map(shape.__getitem__, grp))):
                    delta = max(delta, abs(total - b * g))
        groupings.append(tuple(tuple(map(order.__getitem__, grp)) for grp in groups))
    d_eff = b * g + delta
    block_masks = [list(map(mask_of, combinations(range(3 * b), c))) for c in range(3 * b + 1)]
    components = tuple(_component(bs, tau, groups, d_eff, block_masks)
                       for tau, groups in zip(types, groupings))
    return ScalingDecomposition(bs, d_eff, delta, components)


def verify_scaling(bs: BlockStructure, decomposition: ScalingDecomposition | None = None):
    """Check the scaling identity coefficient-by-coefficient.

    Enumerates each component's projected nonzero monomials from its
    restriction data and compares the multiset against the tripartitions
    of [3n], the keys of P_n without its coefficients; returns None when
    they agree with multiplicity one everywhere, else the first offending
    (A,B,C) monomial.  Per factor, each y mask is drawn from the subsets of
    x's complement that have a size alive_y holds, and looked up.
    """
    if bs.n > 5:
        raise TooLarge("verify_scaling is exhaustive; needs n <= 5")
    dec = decomposition or decompose_P(bs)
    seen: Counter = Counter()
    for comp in dec.components:
        monomials = None
        for j in range(bs.s):
            triples = []
            width = len(comp.factor_grounds[j])
            full = (1 << width) - 1
            ys, zs = comp.alive_y[j], comp.alive_z[j]
            sizes = {ly.bit_count() for ly in ys}
            for lx, ox in comp.alive_x[j].items():
                rest = [1 << e for e in range(width) if not lx >> e & 1]
                for size in sizes:
                    triples += [(ox, ys[ly], zs[lz])
                                for ly in map(sum, combinations(rest, size))
                                if ly in ys and (lz := full ^ lx ^ ly) in zs]
            monomials = triples if monomials is None else [
                (a | x, b | y, c | z) for a, b, c in monomials for x, y, z in triples]
        seen.update(monomials)
    expected = tripartitions(bs.n)
    if (len(seen) == len(expected) and all(map(seen.__contains__, expected))
            and all(m == 1 for m in seen.values())):
        return None
    expected = set(expected)
    for key in sorted(set(seen) | expected):
        if seen.get(key, 0) != (1 if key in expected else 0):
            return key
    return None


def _provider_dec(dec_source, d: int, field: Field) -> RankDecomposition:
    """The provider's decomposition of P_d, or the trivial one when there
    is no provider, checked exactly against one generated P_d."""
    tensor = generate_P(d, field=field)
    if dec_source is None:
        dec = trivial_decomposition(tensor)
    else:
        try:
            dec = dec_source(d, field)
        except TooLarge:
            raise
        except Exception as exc:
            raise ProviderError(f"decomposition provider failed for d={d}: {exc}") from exc
    try:
        bad = verify_decomposition(tensor, dec)
    except ShapeError as exc:
        raise ProviderError(f"provider decomposition for d={d} is malformed: {exc}") from exc
    if bad is not None:
        raise ProviderError(f"provider decomposition for d={d} fails at {bad}")
    return dec


def _yates_transform(bld: CircuitBuilder, rows, s: int, inputs: dict, live,
                     slot: str) -> dict:
    """Sparse layered Kronecker transform.

    inputs maps side-index tuples to gates; level u rewrites position u
    from a side index to a term index in live[u], accumulating
    coefficient-scaled sums.  Zero gates never materialize, and terms
    outside live[u] are never emitted, so restrictions stay cheap: each
    side index's row is cut to live[u] once per level, in row order.
    """
    scale = bld.scale
    is_zero = bld.is_zero
    cur = inputs
    for u in range(s):
        keep = live[u]
        kept: dict = {}
        acc: dict = {}
        for key, gate in cur.items():
            head = key[:u]
            tail = key[u + 1:]
            side = key[u]
            row = kept.get(side)
            if row is None:
                row = kept[side] = [(l, coeff) for l, coeff in rows[side] if l in keep]
            for l, coeff in row:
                nk = head + (l,) + tail
                term = scale(coeff, gate)
                if is_zero(term):
                    continue
                prev = acc.get(nk)
                if prev is None:
                    acc[nk] = term
                elif isinstance(prev, list):
                    prev.append(term)
                else:
                    acc[nk] = [prev, term]
        cur = {}
        for nk, val in acc.items():
            cur[nk] = bld.add(*val) if isinstance(val, list) else val
        _check_arcs(bld, slot, u + 1, s)
    return cur


def _check_arcs(bld: CircuitBuilder, slot: str, level: int, s: int) -> None:
    """TooLarge once the builder holds more than ARC_BUDGET arcs, named by
    the transform's slot and level that checked."""
    if bld.arcs > ARC_BUDGET:
        raise TooLarge(f"yates: slot {slot}, level {level} of s={s}: "
                       f"{bld.arcs} arcs exceed the arc budget {ARC_BUDGET}")


def _present_inputs(bld: CircuitBuilder, wire, entries) -> dict:
    """Side-index tuple -> gate of every s-fold combination of the factor
    entries whose input wire(OR of the masks) is neither None nor zero."""
    inputs = {}
    for combo in product(*entries):
        omask = 0
        for _, om in combo:
            omask |= om
        gate = wire(omask)
        if gate is not None and not bld.is_zero(gate):
            inputs[tuple(i for i, _ in combo)] = gate
    return inputs


def _reached_terms(rows, inputs: dict, s: int) -> list:
    """Per factor j: the terms that the row of some input's j-th side
    index reaches."""
    return [frozenset(l for i in {key[j] for key in inputs} for l, _ in rows[i])
            for j in range(s)]


def _restricted_power(bld: CircuitBuilder, dec: RankDecomposition, s: int, side_entries,
                      pairs, zwire, groups: dict) -> None:
    """The s-th Kronecker power of dec, restricted to the given side
    entries, applied to every (xwire, ywire) pair against one zwire, in
    factored form: every x^ * y^ product is appended to groups[z^], the
    list that the caller's dict keeps for that z-hat gate, and
    sum over groups of z^ * (sum of its list) is the sum over the pairs.

    side_entries[slot][j] lists (side index, mask) pairs alive in factor j;
    an s-fold combination reads its input from the slot's wire at the OR of
    the masks, and it is present only if that gate is neither None nor
    zero.  Without a present z input, or without a pair that has both a
    present x and a present y input, the sum is zero and groups is left as
    it was; a pair without both is skipped.  A pair's term survives
    factor j only if each slot has a present input whose j-th side index
    has a row (dec.rows[slot]) reaching it.  Every pair's x and y inputs
    run through the Yates transform over the pair's surviving terms, and
    then the z inputs once, over the union of those terms; so the arc
    budget checks x, y and z in that order.  The power is trilinear, so
    sum_p P(x_p, y_p, z) = sum_l z^[l] * sum_p x^_p[l] * y^_p[l], and the
    terms whose z-hat is one gate share its product; interning makes equal
    z-hats of different restrictions one gate, so a caller that passes one
    dict to several restrictions shares the product across them too.  A
    group of one term costs the two muls of x^ * y^ * z^, as the
    unfactored sum does.

    A unit-term dec (dec.owners is not None: the walk of the exactness
    check that every scheme construction runs found each term's owners)
    takes `_unit_power` instead, which emits the same gates in the same
    order and builds no hat dict; the transform is the path of every other
    decomposition.
    """
    zin = _present_inputs(bld, zwire, side_entries[2])
    if not zin:
        return
    present = _present_pairs(bld, side_entries, pairs)
    if dec.owners is not None:
        _unit_power(bld, dec, s, present, zin, groups)
        return
    zreach = _reached_terms(dec.rows[2], zin, s)
    hats = []
    zlive = [frozenset()] * s
    for xin, yin in present:
        live = [a & b & c for a, b, c in zip(_reached_terms(dec.rows[0], xin, s),
                                             _reached_terms(dec.rows[1], yin, s), zreach)]
        hats.append((_yates_transform(bld, dec.rows[0], s, xin, live, "x"),
                     _yates_transform(bld, dec.rows[1], s, yin, live, "y")))
        zlive = [u | l for u, l in zip(zlive, live)]
    if not hats:
        return
    hz = _yates_transform(bld, dec.rows[2], s, zin, zlive, "z")
    for hx, hy in hats:
        for key, gx in hx.items():
            gy = hy.get(key)
            if gy is None:
                continue
            gz = hz.get(key)
            if gz is None:
                continue
            xy = groups.get(gz)
            if xy is None:
                groups[gz] = [bld.mul(gx, gy)]
            else:
                xy.append(bld.mul(gx, gy))


def _present_pairs(bld: CircuitBuilder, side_entries, pairs):
    """The present (x inputs, y inputs) of each (xwire, ywire) pair that
    has both, read one pair at a time as the caller asks for it."""
    for xwire, ywire in pairs:
        xin = _present_inputs(bld, xwire, side_entries[0])
        if not xin:
            continue
        yin = _present_inputs(bld, ywire, side_entries[1])
        if yin:
            yield xin, yin


def _unit_power(bld: CircuitBuilder, dec: RankDecomposition, s: int, present, zin: dict,
                groups: dict) -> None:
    """`_restricted_power` for a unit-term dec: each term l has one entry
    in each slot, with coefficient one, at the side indices dec.owners
    gives.  Its Yates transform only relabels an input's key from side
    indices to the terms of their rows, so x^[l_0..l_{s-1}] is the x input
    itself, and y^ and z^ there are the inputs at the terms' owners.

    Each present x input, in order, walks the product of its side indices'
    rows, each row cut to the terms whose y and z owners are a j-th side
    index of some present y and z input: the terms the transform keeps,
    in its order.  A tuple whose owners name a present y and z input
    appends x * y to groups[z].  No transform or wire adds an arc, so one
    check, named as the transform path's first, stands for all of them."""
    # every wire is read before the first product is pushed, as on the
    # transform path, so a wire that makes gates makes them in its order
    pairs = list(present)
    if pairs:
        _check_arcs(bld, "x", 1, s)
    _, oy, oz = dec.owners
    zsides = [{key[j] for key in zin} for j in range(s)]
    mul = bld.mul
    for xin, yin in pairs:
        ysides = [{key[j] for key in yin} for j in range(s)]
        cut = [{} for _ in range(s)]  # cut[j][side index]: its row's kept owner pairs
        for key, gx in xin.items():
            walk = []
            for j, i in enumerate(key):
                row = cut[j].get(i)
                if row is None:
                    ys, zs = ysides[j], zsides[j]
                    row = cut[j][i] = [(oy[l], oz[l]) for l, _ in dec.U[i]
                                       if oy[l] in ys and oz[l] in zs]
                walk.append(row)
            for combo in product(*walk):
                ky, kz = zip(*combo)
                gy = yin.get(ky)
                if gy is None:
                    continue
                gz = zin.get(kz)
                if gz is None:
                    continue
                xy = groups.get(gz)
                if xy is None:
                    groups[gz] = [mul(gx, gy)]
                else:
                    xy.append(mul(gx, gy))


def _join(bld: CircuitBuilder, groups: dict) -> int:
    """sum over the z-hat groups of z^ * (sum of its x^ * y^ products)."""
    return bld.add(*[bld.mul(bld.add(*xy), gz) for gz, xy in groups.items()])


def yates_circuit(dec: RankDecomposition, s: int) -> Circuit:
    """Kronecker-power evaluation circuit from a rank decomposition.

    Inputs are x/y/z over s-fold combined subset masks (copy j of the base
    ground shifted by j*ground_size); the single output computes the s-th
    Kronecker power applied to the inputs.
    """
    if dec.rank ** s > RANK_POWER_BUDGET:
        raise TooLarge(f"rank^s = {dec.rank ** s} exceeds budget {RANK_POWER_BUDGET}")
    field = dec.field
    bld = CircuitBuilder(field)
    m = dec.ground_size
    side_entries = tuple(
        [[(i, mask << (j * m)) for i, mask in enumerate(side)] for j in range(s)]
        for side in (dec.side_x, dec.side_y, dec.side_z))
    xwire, ywire, zwire = (lambda mask, slot=slot: bld.inp(subset_name(slot, mask))
                           for slot in "xyz")
    groups: dict = {}
    _restricted_power(bld, dec, s, side_entries, [(xwire, ywire)], zwire, groups)
    bld.set_outputs([_join(bld, groups)])
    return bld.build()


class PScalingScheme:
    """Reusable builder for the P_n circuit of Theorem-style pipelines.

    Constructed once per (n, b, g, field, provider); instantiate() emits
    into any CircuitBuilder every component's restricted Kronecker power
    of the provider, applied to every (x, y) wire pair against one z wire,
    and joins them all through one product per distinct z-hat gate of the
    call; wires are caller-supplied mask->gate maps (None kills an input).
    g=None means n // b, so s = 1 and the one component is P_n itself,
    evaluated by one restricted power of the provider's P_n.  Every
    construction generates P_{d_eff} once, asks the provider for its
    decomposition (default: the trivial one of that tensor) and verifies
    the answer against it.  That check's walk also finds whether the
    decomposition is unit-term and, if so, each term's owner side index
    per slot (`RankDecomposition.owners`, kept on the decomposition); a
    unit-term decomposition's restricted powers then skip the Yates
    transform and read the inputs at the owners, with the same circuit as
    a result.  The side entries of every component
    (side_entries[component][slot][j]: the (side index, mask) pairs alive
    in factor j) do not depend on the wires, so they are built here once;
    instantiate() keeps no state between calls, and a component with a
    slot that no wire feeds emits nothing.
    """

    def __init__(self, n: int, b: int, g: int | None, field: Field, dec_source=None):
        if b < 1:
            raise ShapeError(f"b={b} must be at least 1")
        if g is None:
            g = n // b
        if g < 1:
            raise ShapeError(f"g={g} must be at least 1")
        if n % (b * g) != 0:
            raise DivisibilityError(f"n={n} is not a multiple of b*g={b * g}")
        self.n = n
        self.field = field
        self.s = n // (b * g)
        self.bs = BlockStructure(b, g, self.s)
        self.decomposition = decompose_P(self.bs)
        self.d_eff = self.decomposition.d_eff
        self.dec = _provider_dec(dec_source, self.d_eff, field)
        side_index = tuple({m: i for i, m in enumerate(side)}
                           for side in (self.dec.side_x, self.dec.side_y, self.dec.side_z))
        self.side_entries = tuple(
            tuple(tuple(tuple(zip(map(index.__getitem__, alive[j]), alive[j].values()))
                        for j in range(self.s))
                  for index, alive in zip(side_index,
                                          (comp.alive_x, comp.alive_y, comp.alive_z)))
            for comp in self.decomposition.components)

    def instantiate(self, bld: CircuitBuilder, pairs, zwire) -> int:
        """Emit sum_p P_n(x_p, y_p, z) over the (xwire, ywire) pairs p,
        with z read through zwire; returns the output gate id.

        Every component transforms z once for all the pairs, and the
        x^ * y^ products of all components and pairs are grouped by their
        z-hat gate: types that share a gamma read the same z inputs, so
        each z-hat is multiplied once per call, not once per type.  Pairs
        that share a z belong in one call.  With no pair, or nothing that
        joins, the result is bld.zero and no gate is emitted."""
        groups: dict = {}
        for side_entries in self.side_entries:
            _restricted_power(bld, self.dec, self.s, side_entries, pairs, zwire, groups)
        return _join(bld, groups)


def build_P_circuit(n: int, b: int, g: int, field: Field | None = None,
                    dec_source=None) -> Circuit:
    """Circuit for P_n(x,y,z) with inputs over all n-subsets of [3n]."""
    field = field or prime_field()
    scheme = PScalingScheme(n, b, g, field, dec_source=dec_source)
    bld = CircuitBuilder(field)
    gates = {"x": {}, "y": {}, "z": {}}
    for slot in ("x", "y", "z"):
        for elems in combinations(range(3 * n), n):
            mask = sum(1 << e for e in elems)
            gates[slot][mask] = bld.inp(subset_name(slot, mask))
    out = scheme.instantiate(bld, [(gates["x"].get, gates["y"].get)], gates["z"].get)
    bld.set_outputs([out])
    return bld.build()
