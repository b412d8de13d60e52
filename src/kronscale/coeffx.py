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
  three layers once, the two upper ones with every cut component as its
  own fresh variable, and combine the cut pairs through the
  P_{n/3}[[n]] circuit of the scaling module: one instantiation per
  cut2 component, summing every pair that meets it.  It takes 1-skew
  circuits only, which every application builds.
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
    replay,
)
from .errors import NotSkew, ShapeError, SingleOutputRequired
from .scaling import PScalingScheme


def _reach(gates, degs, roots) -> set:
    """The homogeneous components (gid, k) that the root components read,
    walking down; components above a gate's degree are zero."""
    reach = set()
    stack = list(roots)
    while stack:
        gid, k = stack.pop()
        if (gid, k) in reach:
            continue
        reach.add((gid, k))
        op, payload = gates[gid]
        if op == OP_ADD:
            stack.extend((a, k) for a in payload if k <= degs[a])
        elif op == OP_MUL:
            left, right = payload
            for i in range(min(degs[left], k) + 1):
                if k - i <= degs[right]:
                    stack.append((left, i))
                    stack.append((right, k - i))
    return reach


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


def _run_layer(bld: CircuitBuilder, gates, degs, reach, lo: int, hi: int,
               tables: dict) -> dict:
    """Fill tables[(gid, k)] for the reached components with lo < k <= hi;
    returns tables.

    A table maps a key to the gate (in bld) computing its coefficient; a
    key's low n bits are a variable-set mask.  A layer above a cut (lo >= 0)
    is seeded with the bottom's components of degree <= 1 and with the cut
    components, each a fresh variable keyed by its index above the mask
    bits.  1-skewness keeps every mul's low side at degree <= 1, in the
    seeds, and its other side at degree >= lo, in the layer or at the cut,
    so no product joins two cut values and every entry is linear in the
    cut seeds (the structural linear-in-Y guarantee, checked below).
    """
    for gid, (op, payload) in enumerate(gates):
        if op in (OP_IN, OP_CONST):
            continue  # seeded
        for k in range(lo + 1, min(degs[gid], hi) + 1):
            if (gid, k) not in reach:
                continue
            acc: dict = {}
            if op == OP_ADD:
                for a in payload:
                    for m, g in tables.get((a, k), {}).items():
                        acc.setdefault(m, []).append(g)
            else:
                a, b = payload
                if degs[a] > degs[b]:
                    a, b = b, a
                if lo >= 0 and degs[a] > 1:
                    raise NotSkew("cut layer would multiply two cut values")
                for i in range(min(degs[a], k) + 1):
                    high = tables.get((b, k - i), {})
                    for t_mask, gl in tables.get((a, i), {}).items():
                        for r_mask, gh in high.items():
                            if not t_mask & r_mask:
                                acc.setdefault(t_mask | r_mask, []).append(bld.mul(gl, gh))
            tab = {}
            for m, gs in acc.items():
                g = bld.add(*gs)
                if not bld.is_zero(g):
                    tab[m] = g
            if tab:
                tables[(gid, k)] = tab
    return tables


def extract_coeff_direct(circ: Circuit, variables) -> Circuit:
    """The 2^n subset-DP compiler, for a circuit of any skewness.

    Output circuit computes the coefficient of the full multilinear
    monomial over `variables`; its inputs are the remaining inputs of
    the original circuit.  Only the components that the output's
    degree-n component reaches get a table.
    """
    if len(circ.outputs) != 1:
        raise SingleOutputRequired("extraction needs a single-output circuit")
    n = len(variables)
    degs = formal_degrees(circ, set(variables))
    out = circ.outputs[0]
    bld = CircuitBuilder(circ.field)
    tables = _seed_tables(circ, {name: i for i, name in enumerate(variables)}, bld)
    _run_layer(bld, circ.gates, degs, _reach(circ.gates, degs, [(out, n)]), -1, n, tables)
    bld.set_outputs([tables.get((out, n), {}).get((1 << n) - 1, bld.zero)])
    result = bld.build()
    result.meta.update(method="direct",
                       table_entries=sum(len(t) for t in tables.values()))
    return result


def extract_coeff_tripartition(circ: Circuit, variables, b: int = 1,
                               g: int | None = None, dec_source=None) -> Circuit:
    """The three-layer compiler via the P_{n/3}[[n]] scaling circuit.

    Requires a 1-skew circuit (NotSkew otherwise) and n = |variables|
    with n % 3 == 0 and n >= 9 (ShapeError otherwise; callers pad via
    pad_degree).  The floor of 9 is a measured choice, not a soundness
    one: padding the kpath-tri benchmark circuit (k=5, six sieve
    variables) to 6 instead of 9 grows it from 16,272 to 18,621 arcs.
    Gates are sliced by homogeneous degree; components of degree n/3 and
    2n/3 become fresh cut variables.  The middle and top layers each run
    once, linear in all of them, and their tables split per cut
    component into f_i (bottom, cut1 component i), g_ij (middle) and h_j
    (top, cut2 component j).  P is trilinear, so the pairs that share j
    sum inside one restricted instantiation of the tripartitioning
    circuit, sum_i P(f_i, g_ij, h_j), which transforms h_j once per
    type.  The combining P_{n/3}[[n]] circuit uses blocks of b, groups
    of g (default n/(3b)) and the decomposition provider dec_source
    (default: the trivial one).
    """
    if len(circ.outputs) != 1:
        raise SingleOutputRequired("extraction needs a single-output circuit")
    n = len(variables)
    if n % 3 != 0 or n < 9:
        raise ShapeError(f"tripartition extraction needs padded n (got {n}); "
                         "use pad_degree first")
    q = analyze_skew(circ, set(variables))
    if q > 1:
        raise NotSkew(f"tripartition extraction needs a 1-skew circuit, got {q}-skew")
    degs = formal_degrees(circ, set(variables))
    n3 = n // 3
    out = circ.outputs[0]
    bld = CircuitBuilder(circ.field)
    if degs[out] < n:
        # the full monomial cannot appear at all
        bld.set_outputs([bld.zero])
        result = bld.build()
        result.meta.update(method="tri", s=0, t=0, table_entries=0)
        return result

    gates = circ.gates
    reach = _reach(gates, degs, [(out, n)])
    bottom = _seed_tables(circ, {name: i for i, name in enumerate(variables)}, bld)
    _run_layer(bld, gates, degs, reach, -1, n3, bottom)
    cut1 = sorted(c for c in reach if c[1] == n3)
    cut2 = sorted(c for c in reach if c[1] == 2 * n3)
    f_tables = [bottom.get(c, {}) for c in cut1]
    # one pass per layer, each cut component i seeded as the fresh variable
    # i << n; splitting the keys by key >> n gives the per-component tables
    low = {c: t for c, t in bottom.items() if c[1] <= 1}
    middle = _run_layer(bld, gates, degs, reach, n3, 2 * n3,
                        {c: {i << n: bld.one} for i, c in enumerate(cut1)} | low)
    top = _run_layer(bld, gates, degs, reach, 2 * n3, n,
                     {c: {i << n: bld.one} for i, c in enumerate(cut2)} | low)
    full = (1 << n) - 1
    g_tables = [[{} for _ in cut2] for _ in cut1]
    for j, c2 in enumerate(cut2):
        for key, gate in middle.get(c2, {}).items():
            g_tables[key >> n][j][key & full] = gate
    h_tables = [{} for _ in cut2]
    for key, gate in top.get((out, n), {}).items():
        h_tables[key >> n][key & full] = gate

    scheme = PScalingScheme(n3, b, g, circ.field, dec_source=dec_source)
    outputs = [scheme.instantiate(bld, [(fi.get, row[j].get)
                                        for fi, row in zip(f_tables, g_tables)
                                        if fi and row[j]], hj.get)
               for j, hj in enumerate(h_tables) if hj]
    bld.set_outputs([bld.add(*outputs)])
    result = bld.build()
    result.meta.update(method="tri", s=len(cut1), t=len(cut2),
                       table_entries=sum(len(t) for t in f_tables)
                       + sum(len(t) for row in g_tables for t in row)
                       + sum(len(t) for t in h_tables))
    return result


def pad_degree(circ: Circuit, variables) -> tuple[Circuit, tuple]:
    """Round the variable count up to a multiple of 3 that is >= 9 by
    multiplying the output with fresh variables; the coefficient of the
    enlarged full monomial equals the original one."""
    variables = tuple(variables)
    n = len(variables)
    target = max(9, 3 * ((n + 2) // 3))
    if target == n:
        return circ, variables
    bld = CircuitBuilder(circ.field)
    out = replay(circ, bld)[circ.outputs[0]]
    fresh = []
    for i in range(target - n):
        name = f"v:__pad{i}"
        fresh.append(name)
        out = bld.mul(out, bld.inp(name))
    bld.set_outputs([out])
    return bld.build(), variables + tuple(fresh)


def extract_coefficient(circ: Circuit, variables, method: str = "direct",
                        b: int = 1, g: int | None = None,
                        dec_source=None) -> Circuit:
    """Front end: pads for the tripartition route, then dispatches."""
    variables = tuple(variables)
    if method == "direct":
        return extract_coeff_direct(circ, variables)
    if method == "tri":
        circ, variables = pad_degree(circ, variables)
        return extract_coeff_tripartition(circ, variables, b, g, dec_source)
    raise ValueError(f"unknown extraction method {method!r}")
