"""Coefficient-of-full-multilinear-monomial extraction compilers.

Two routes compile a circuit for P(x) into a circuit for the
coefficient of x_1*...*x_n.  Both split every gate into the homogeneous
degree components reachable from the output's degree-n component and
fill one sparse table per component (gate, k): the coefficients of the
size-k variable subsets, with identically-zero entries never
materialized.

* direct: the 2^n subset dynamic program, one layer over all those
  components; the output is the full-set entry of (output, n).  It takes
  a circuit of any skewness: with no cut, nothing has to stay linear;
* tri (tripartition): cut at degrees n/3 and 2n/3, fill each of the
  three layers once, and combine the cut pairs through the P_{n/3}[[n]]
  circuit of the scaling module: one instantiation per cut2 component,
  summing every pair that meets it.  The two upper layers are linear in
  their cut components, so by Baur-Strassen transposition either can be
  filled from the cut above it, walking down, as well as from the cut
  below: the top layer walks down from the one output component, and
  the middle layer walks whichever way a count finds cheaper in arcs.
  It takes 1-skew circuits only, which every application builds.
"""

from __future__ import annotations

from .circuit import (
    OP_ADD,
    OP_CONST,
    OP_IN,
    OP_MUL,
    Circuit,
    CircuitBuilder,
    analyze_skew,
    formal_degrees,
)
from .errors import NotSkew, ShapeError, SingleOutputRequired
from .scaling import PScalingScheme


def _reach(gates, degs, root) -> list:
    """The component graph below root, in gate order: every homogeneous
    component (gid, k) that root reads, walking down, with its edges
    (operand, low).  An add's operand stays at degree k: (a, k) with low
    None.  A mul splits k into i + (k - i): the high-side component
    (b, k - i) with the low-side one (a, i) it is multiplied by, a being
    the side of lower degree (the left one on a tie).  Components above a
    gate's degree are zero and never reached, so a root above its gate's
    degree gives an empty graph; inputs and consts are seeded, not filled,
    and have no entry."""
    out, n = root
    need = {out: {n}} if n <= degs[out] else {}
    graph = []
    for gid in range(out, -1, -1):
        op, payload = gates[gid]
        if gid not in need or op in (OP_IN, OP_CONST):
            continue
        if op == OP_MUL:
            a, b = payload if degs[payload[0]] <= degs[payload[1]] else payload[::-1]
        for k in sorted(need[gid], reverse=True):
            if op == OP_ADD:
                edges = [((c, k), None) for c in payload if k <= degs[c]]
            else:
                edges = [((b, k - i), (a, i)) for i in range(min(degs[a], k) + 1)
                         if k - i <= degs[b]]
            for edge in edges:
                for comp in edge:
                    if comp:
                        c, i = comp
                        degrees = need.get(c)
                        if degrees is None:
                            need[c] = {i}
                        else:
                            degrees.add(i)
            graph.append(((gid, k), edges))
    graph.reverse()
    return graph


def _seed_tables(circ: Circuit, var_bit: dict, bld: CircuitBuilder) -> dict:
    """Tables of the input and const components, keyed (gid, degree): a
    variable is {its bit: 1} at degree 1, any other input or nonzero const
    is its own degree-0 coefficient."""
    tables = {(gid, 0): {0: bld.inp(name)} for gid, (op, name) in enumerate(circ.gates)
              if op == OP_IN and name not in var_bit}
    zero = circ.field.zero
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_IN and payload in var_bit:
            tables[(gid, 1)] = {1 << var_bit[payload]: bld.one}
        elif op == OP_CONST and payload != zero:
            tables[(gid, 0)] = {0: bld.const(payload)}
    return tables


def _layer(graph, lo: int, hi: int) -> list:
    """The components (gid, k) of the graph (_reach) with lo < k <= hi, in
    gate order, each with its edges.

    A layer above a cut (lo >= 0) is seeded with the bottom's components
    of degree <= 1 and with the cut components.  The tri route takes only
    1-skew circuits, and _reach puts a mul's side of lower formal degree
    low, so every low side is at degree <= 1, in the seeds, and the other
    at degree >= lo: no product joins two cut values, and every entry is
    linear in the cut seeds, whichever direction fills it.
    """
    return [(comp, edges) for comp, edges in graph if lo < comp[1] <= hi]


def _spread(bld, into: dict, src: dict, low, alive=None) -> None:
    """Append to into[t | m] every product low[t] * src[m] of disjoint
    masks, or each src entry as it is when low is None (an add's operand);
    with alive (key -> bool), only the keys that it keeps."""
    if low is None:
        for m, g in src.items():
            if alive is None or alive[m]:
                gs = into.get(m)
                if gs is None:
                    into[m] = [g]
                else:
                    gs.append(g)
        return
    mul = bld.mul
    for t, gl in low.items():
        for m, g in src.items():
            if not t & m:
                key = t | m
                if alive is None or alive[key]:
                    gs = into.get(key)
                    if gs is None:
                        into[key] = [mul(gl, g)]
                    else:
                        gs.append(mul(gl, g))


def _run_layer(bld, layer, tables: dict, roots=None, alive=None) -> dict:
    """Fill the tables of a layer's components (_layer); returns tables.

    A table maps a key to the gate (in bld) computing its coefficient; a
    key's low n bits are a variable-set mask, and a layer above a cut
    keys each entry by its seed's index above the mask bits.

    Forward (no roots), in gate order: a component's table sums, over its
    edges, low[t] * operand[m] under key t | m.  Transposed, in reverse
    gate order from roots (component -> key -> [seed gate]): a component's
    table is its adjoint, the sum of what its users pushed, and it pushes
    low[t] * table[m] under key t | m into each operand.  The components
    at the layer's lower cut end up with the adjoint of every root seed,
    which is the forward fill transposed (Baur-Strassen): the same
    coefficients, reached from the cut above instead of the one below.
    alive[component][key] drops a pushed entry before its product is
    emitted.  bld may be an _ArcCount.
    """
    transposed = roots is not None
    acc: dict = dict(roots or {})

    def settle(comp):
        tab = {}
        for key, gs in acc.pop(comp, {}).items():
            g = bld.add(*gs)
            if not bld.is_zero(g):
                tab[key] = g
        if tab:
            tables[comp] = tab
        return tab

    for comp, edges in reversed(layer) if transposed else layer:
        if transposed and not settle(comp):
            continue
        for high, low in edges:
            low = None if low is None else tables.get(low, {})
            if transposed:
                _spread(bld, acc.setdefault(high, {}), tables[comp], low,
                        None if alive is None else alive[high])
            else:
                _spread(bld, acc.setdefault(comp, {}), tables.get(high, {}), low)
        if not transposed:
            settle(comp)
    for comp in list(acc):
        settle(comp)  # transposed: the components at the layer's lower cut
    return tables


class _ArcCount:
    """A CircuitBuilder stand-in that counts the arcs a layer above a cut
    would emit, for all its seeds at once.

    Keys are masks alone.  An entry is a triple of seed bitsets: the seeds
    that have it, those whose gate is the constant one, and those whose
    gate is a constant; a low-table gate is its constant value, or None.
    Folding is CircuitBuilder's (a product with one, or of two constants,
    and a sum of constants, emit nothing), but nothing is interned, and a
    sum of constants counts as a constant other than zero and one.
    """

    def __init__(self, field, cap=None):
        self.one = field.one
        self.arcs = 0
        self.cap = cap

    def is_zero(self, entry) -> bool:
        return False

    def mul(self, low, entry):
        have, one, const = entry
        if low is None:
            self.arcs += 2 * (have & ~one).bit_count()
            return have, 0, 0
        if low == self.one:
            return entry
        self.arcs += 2 * (have & ~const).bit_count()
        return have, 0, const

    def add(self, *entries):
        if self.cap is not None and self.arcs > self.cap:
            raise _OverCap
        if len(entries) == 1:
            return entries[0]
        once = many = varies = ones = consts = 0
        for have, one, const in entries:
            many |= once & have
            once |= have
            varies |= have & ~const
            ones |= one
            consts |= const
        summed = many & varies
        for have, _, _ in entries:
            self.arcs += (have & summed).bit_count()
        single = once & ~many
        return once, single & ones, single & consts | many & ~varies


class _OverCap(Exception):
    """An _ArcCount passed its cap."""


def _masks(layer, masks: dict) -> dict:
    """The masks-only forward pass: masks[component] gets every mask the
    direct route's DP fills there (folding aside), read from the masks of
    its operands; returns masks.  It emits no gate."""
    for comp, edges in layer:
        got = set()
        for high, low in edges:
            src = masks.get(high, ())
            if low is None:
                got.update(src)
            else:
                for t in masks.get(low, ()):
                    got.update(t | m for m in src if not t & m)
        if got:
            masks[comp] = got
    return masks


class _Misses(dict):
    """key -> whether the key's mask misses some mask of masks, filled on
    first lookup.  Given the masks the direct route fills at a component,
    an adjoint entry whose mask meets every one of them never meets a
    disjoint forward entry there, so it reaches no output."""

    # no instance dict: the tri route makes one per component at degree >= n/3
    __slots__ = ("masks", "full")

    def __init__(self, masks, full: int):
        super().__init__()
        self.masks = masks
        self.full = full

    def __missing__(self, key):
        m = key & self.full
        hit = False
        for s in self.masks:
            if not m & s:
                hit = True
                break
        self[key] = hit
        return hit


def _middle_transposed(bld, layer, low: dict, cut1, live: dict, alive) -> bool:
    """Whether the middle layer emits fewer arcs transposed, from the cut2
    components live[j], than forward, from every cut1 component; a tie
    stays forward.  _ArcCount counts both, seed bit i or j standing for
    the seed keyed i << n or j << n, and the forward count stops once it
    passes the transposed one."""
    consts = {c: {t: bld.is_const(gate) for t, gate in tab.items()} for c, tab in low.items()}

    def arcs(tables, roots=None, cap=None):
        count = _ArcCount(bld.field, cap)
        try:
            _run_layer(count, layer, tables, roots, alive)
        except _OverCap:
            pass
        return count.arcs

    cap = arcs(dict(consts), {c: {0: [(1 << j,) * 3]} for j, c in live.items()})
    return cap < arcs({c: {0: (1 << i,) * 3} for i, c in enumerate(cut1)} | consts, cap=cap)


def _open(circ: Circuit, variables, degs) -> tuple:
    """What both routes start from: a builder, the seed tables it holds
    (_seed_tables) and the component graph (_reach) below the output's
    degree-n component, from the formal degrees `degs` over `variables`."""
    if len(circ.outputs) != 1:
        raise SingleOutputRequired("extraction needs a single-output circuit")
    bld = CircuitBuilder(circ.field)
    tables = _seed_tables(circ, {name: i for i, name in enumerate(variables)}, bld)
    return bld, tables, _reach(circ.gates, degs, (circ.outputs[0], len(variables)))


def extract_coeff_direct(circ: Circuit, variables) -> Circuit:
    """The 2^n subset-DP compiler, for a circuit of any skewness.

    Output circuit computes the coefficient of the full multilinear
    monomial over `variables`; its inputs are the remaining inputs of
    the original circuit.  Only the components that the output's
    degree-n component reaches get a table.
    """
    bld, tables, graph = _open(circ, variables, formal_degrees(circ, set(variables)))
    _run_layer(bld, graph, tables)
    n = len(variables)
    bld.set_outputs([tables.get((circ.outputs[0], n), {}).get((1 << n) - 1, bld.zero)])
    result = bld.build()
    result.meta.update(method="direct",
                       table_entries=sum(len(t) for t in tables.values()))
    return result


def extract_coeff_tripartition(circ: Circuit, variables, b: int = 1,
                               g: int | None = None, dec_source=None) -> Circuit:
    """The three-layer compiler via the P_{n/3}[[n]] scaling circuit.

    Requires a 1-skew circuit (NotSkew otherwise; the one check of
    1-skewness, which _layer relies on) and n = |variables|
    with n % 3 == 0 and n >= 6 (ShapeError otherwise; extract_coefficient
    pads via pad_degree).  At n = 3 the cut1 components have degree 1, so
    they would also be the low tables that seed the upper layers.
    Gates are sliced by homogeneous degree, and the tables of the
    components of degree n/3 and 2n/3 split per cut component into f_i
    (bottom, cut1 component i), g_ij (middle) and h_j (top, cut2
    component j).  The bottom layer runs forward from the variables.  The
    top layer runs transposed, down from the output component, so h_j is
    the adjoint of cut2 component j.  The middle layer runs once, either
    forward with each cut1 component i a fresh variable, so g_ij sits in
    cut2 component j's table, or transposed from each cut2 component j
    whose h_j is non-empty, so g_ij is the adjoint of cut1 component i:
    whichever _middle_transposed counts fewer arcs for.  A transposed
    entry is kept only when its mask misses some mask that the direct
    route's DP fills at its component (_masks, which emits no gate);
    any other entry could only meet overlapping masks.  P is trilinear,
    so the pairs that share j sum inside one restricted instantiation of
    the tripartitioning circuit, sum_i P(f_i, g_ij, h_j), which
    transforms h_j once per type.  The combining P_{n/3}[[n]] circuit
    uses blocks of b, groups of g (default n/(3b)) and the decomposition
    provider dec_source (default: the trivial one).  meta["report"] gives
    the arcs that each stage emitted, bottom, middle, top and the join,
    and the middle layer's direction of fill.
    """
    n = len(variables)
    if n % 3 != 0 or n < 6:
        raise ShapeError(f"tripartition extraction needs n a multiple of 3 and >= 6 "
                         f"(got {n}); use pad_degree first")
    degs = formal_degrees(circ, set(variables))
    q = analyze_skew(circ, degs)
    if q > 1:
        raise NotSkew(f"tripartition extraction needs a 1-skew circuit, got {q}-skew")
    bld, bottom, graph = _open(circ, variables, degs)
    if not graph:
        # the full monomial cannot appear at all
        bld.set_outputs([bld.zero])
        result = bld.build()
        result.meta.update(method="tri", s=0, t=0, table_entries=0)
        return result

    n3 = n // 3
    full = (1 << n) - 1
    _run_layer(bld, _layer(graph, -1, n3), bottom)
    arcs = {"bottom": bld.arcs}
    cut1 = [c for c, _ in graph if c[1] == n3]
    cut2 = [c for c, _ in graph if c[1] == 2 * n3]
    f_tables = [bottom.get(c, {}) for c in cut1]
    low = {c: t for c, t in bottom.items() if c[1] <= 1}
    middle_layer = _layer(graph, n3, 2 * n3)
    top_layer = _layer(graph, 2 * n3, n)
    masks = _masks(middle_layer + top_layer, dict(bottom))
    alive = {c: _Misses(masks.get(c, ()), full) for c, _ in graph if c[1] >= n3}
    # the top layer, transposed from its one seed: h_j is the adjoint of
    # cut2 component j
    top = _run_layer(bld, top_layer, dict(low), {(circ.outputs[0], n): {0: [bld.one]}}, alive)
    h_tables = [top.get(c, {}) for c in cut2]
    arcs["top"] = bld.arcs - sum(arcs.values())
    # the middle layer, from whichever side emits fewer arcs: forward from
    # every cut1 component i, keyed i << n, or transposed from each cut2
    # component j whose h_j is non-empty, keyed j << n; one pass either way
    live = {j: c for j, c in enumerate(cut2) if h_tables[j]}
    transposed = _middle_transposed(bld, middle_layer, low, cut1, live, alive)
    if transposed:
        middle = _run_layer(bld, middle_layer, dict(low),
                            {c: {j << n: [bld.one]} for j, c in live.items()}, alive)
    else:
        middle = _run_layer(bld, middle_layer,
                            {c: {i << n: bld.one} for i, c in enumerate(cut1)} | low)
    arcs["middle"] = bld.arcs - sum(arcs.values())
    # split the keys by key >> n into g_ij
    g_tables = [[{} for _ in cut2] for _ in cut1]
    for e, c in enumerate(cut1 if transposed else cut2):
        for key, gate in middle.get(c, {}).items():
            i, j = (e, key >> n) if transposed else (key >> n, e)
            g_tables[i][j][key & full] = gate

    scheme = PScalingScheme(n3, b, g, circ.field, dec_source=dec_source)
    outputs = [scheme.instantiate(bld, [(fi.get, row[j].get)
                                        for fi, row in zip(f_tables, g_tables)
                                        if fi and row[j]], hj.get)
               for j, hj in enumerate(h_tables) if hj]
    bld.set_outputs([bld.add(*outputs)])
    arcs["join"] = bld.arcs - sum(arcs.values())
    result = bld.build()
    result.meta.update(method="tri", s=len(cut1), t=len(cut2),
                       table_entries=sum(len(t) for t in f_tables)
                       + sum(len(t) for row in g_tables for t in row)
                       + sum(len(t) for t in h_tables),
                       report={"bottom": {"arcs": arcs["bottom"]},
                               "middle": {"arcs": arcs["middle"],
                                          "fill": "transposed" if transposed else "forward"},
                               "top": {"arcs": arcs["top"]},
                               "join": {"arcs": arcs["join"]}})
    return result


def pad_degree(circ: Circuit, variables) -> tuple[Circuit, tuple]:
    """Round the variable count up to a multiple of 3 that is >= 9 by
    multiplying the output with fresh variables v:__pad0, v:__pad1, ...;
    the coefficient of the enlarged full monomial equals the original one.
    The padded circuit is circ's gates, as they are, followed by one input
    and one mul gate per fresh variable, with the last mul its one output,
    so it keeps every input of circ.  An input of circ with one of those
    names would merge with it, so it raises ShapeError.  The floor of 9 is
    a measured choice, not a soundness one (the tripartition route takes
    6): padding the kpath-tri benchmark circuit (k=5, six sieve variables)
    to 6 instead of 9 grows it from 8,238 to 14,828 arcs."""
    variables = tuple(variables)
    n = len(variables)
    fresh = tuple(f"v:__pad{i}" for i in range(max(9, 3 * ((n + 2) // 3)) - n))
    if not fresh:
        return circ, variables
    clash = set(fresh).intersection(circ.input_names())
    if clash:
        raise ShapeError(f"input {min(clash)!r} has the name of a padding variable")
    gates = list(circ.gates)
    out = circ.outputs[0]
    for name in fresh:
        gates += [(OP_IN, name), (OP_MUL, (out, len(gates)))]
        out = len(gates) - 1
    return Circuit(circ.field, tuple(gates), (out,)), variables + fresh


def extract_coefficient(circ: Circuit, variables, method: str = "direct",
                        b: int = 1, g: int | None = None,
                        dec_source=None) -> Circuit:
    """Front end: pads for the tripartition route, then dispatches.  Both
    routes keep every input of circ that is not in `variables`, read or
    not, in circ's order."""
    variables = tuple(variables)
    if method == "direct":
        return extract_coeff_direct(circ, variables)
    if method == "tri":
        circ, variables = pad_degree(circ, variables)
        return extract_coeff_tripartition(circ, variables, b, g, dec_source)
    raise ValueError(f"unknown extraction method {method!r}")
