"""Coefficient-of-full-multilinear-monomial extraction compilers.

Two routes compile a q-skew circuit for P(x) into a circuit for the
coefficient of x_1*...*x_n:

* direct: the 2^n subset dynamic program, one table entry per (gate,
  subset) pair with tables kept sparse (identically-zero entries never
  materialize);
* tri (tripartition): split every gate into the homogeneous degree
  components reachable from the output, cut at degrees n/3 and 2n/3,
  extract the three layers' multilinear-part tables with the direct DP
  capped at subsets of size n/3, and combine each cut pair through the
  P_{n/3}[[n]] circuit of the scaling module.
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
from .errors import NotSkew, SingleOutputRequired
from .scaling import p_scheme

DEFAULT_SKEW_CAP = 3


def _check_skew(circ: Circuit, variables, cap: int) -> int:
    q = analyze_skew(circ, set(variables))
    if q > cap:
        raise NotSkew(f"circuit is {q}-skew; cap is {cap}")
    return q


def _subset_dp(circ: Circuit, variables, bld: CircuitBuilder, size_cap: int):
    """Sparse multilinear-coefficient tables for every gate.

    tables[gid] maps a variable-set mask S to the gate (in bld) computing
    the coefficient of prod_{i in S} x_i; entries beyond size_cap are
    dropped (sound: larger subsets never feed smaller ones).
    """
    var_bit = {name: i for i, name in enumerate(variables)}
    degs = formal_degrees(circ, set(variables))
    zero = circ.field.zero
    tables: list[dict] = []
    stats = 0
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_IN:
            bit = var_bit.get(payload)
            if bit is None:
                tables.append({0: bld.inp(payload)})
            else:
                tables.append({1 << bit: bld.one} if size_cap >= 1 else {})
        elif op == OP_CONST:
            tables.append({0: bld.const(payload)} if payload != zero else {})
        elif op == OP_ADD:
            acc: dict = {}
            for a in payload:
                for mask, gate in tables[a].items():
                    acc.setdefault(mask, []).append(gate)
            tab = {}
            for m, gs in acc.items():
                g = bld.add(*gs)
                if not bld.is_zero(g):
                    tab[m] = g
            tables.append(tab)
        else:
            a, b = payload
            if degs[a] > degs[b]:
                a, b = b, a
            acc = {}
            _product_into(acc, bld, tables[a], tables[b], size_cap)
            tables.append({m: bld.add(*gs) for m, gs in acc.items()})
        stats += len(tables[-1])
    return tables, stats


def extract_coeff_direct(circ: Circuit, variables,
                         skew_cap: int = DEFAULT_SKEW_CAP) -> Circuit:
    """The 2^n subset-DP compiler.

    Output circuit computes the coefficient of the full multilinear
    monomial over `variables`; its inputs are the remaining inputs of
    the original circuit.
    """
    if len(circ.outputs) != 1:
        raise SingleOutputRequired("extraction needs a single-output circuit")
    _check_skew(circ, variables, skew_cap)
    n = len(variables)
    bld = CircuitBuilder(circ.field)
    tables, entries = _subset_dp(circ, variables, bld, n)
    full = (1 << n) - 1
    out = tables[circ.outputs[0]].get(full, bld.zero)
    bld.set_outputs([out])
    result = bld.build()
    result.meta.update(method="direct", table_entries=entries)
    return result


def _multilinearize(circ: Circuit, variables, cap: int) -> Circuit:
    """Rewrite a q-skew circuit (2 <= q <= cap) into a 1-skew one with the
    same multilinear part over `variables`.

    Each mul with a low side of variable-degree >= 2 is expanded through
    the low side's multilinear table: sum over supports T of
    ((high * x_{t1}) * ... * x_{tk}) * coeff_T, every product 1-skew.
    Non-multilinear monomials of the low side are dropped, which cannot
    change any multilinear coefficient upstream.
    """
    q = _check_skew(circ, variables, cap)
    if q <= 1:
        return circ
    var_bit = {name: i for i, name in enumerate(variables)}
    bit_var = {i: name for name, i in var_bit.items()}
    degs = formal_degrees(circ, set(variables))
    bld = CircuitBuilder(circ.field)
    low_tables, _ = _subset_dp(circ, variables, bld, q)
    new = []
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_IN:
            new.append(bld.inp(payload))
        elif op == OP_CONST:
            new.append(bld.const(payload))
        elif op == OP_ADD:
            new.append(bld.add(*[new[a] for a in payload]))
        else:
            a, b = payload
            if degs[a] > degs[b]:
                a, b = b, a
            if degs[a] <= 1:
                new.append(bld.mul(new[a], new[b]))
                continue
            terms = []
            for t_mask, coeff_gate in low_tables[a].items():
                term = new[b]
                m = t_mask
                while m:
                    bit = (m & -m).bit_length() - 1
                    term = bld.mul(term, bld.inp(bit_var[bit]))
                    m &= m - 1
                terms.append(bld.mul(term, coeff_gate))
            new.append(bld.add(*terms))
    bld.set_outputs([new[o] for o in circ.outputs])
    return bld.build()


def _product_into(acc, bld, low_table, high_table, size_cap):
    for t_mask, gl in low_table.items():
        for r_mask, gh in high_table.items():
            if t_mask & r_mask:
                continue
            s_mask = t_mask | r_mask
            if s_mask.bit_count() > size_cap:
                continue
            acc.setdefault(s_mask, []).append(bld.mul(gl, gh))


def extract_coeff_tripartition(circ: Circuit, variables,
                               skew_cap: int = DEFAULT_SKEW_CAP, b: int = 1,
                               g: int | None = None, dec_source=None) -> Circuit:
    """The three-layer compiler via the P_{n/3}[[n]] scaling circuit.

    Requires n = |variables| with n % 3 == 0 and n >= 9 (callers pad via
    pad_degree).  Gates are sliced by homogeneous degree; components of
    degree n/3 and 2n/3 become cut variables, the bottom/middle/top
    multilinear tables come from basis substitutions of the cut variables,
    and every (cut1, cut2) pair feeds one restricted instantiation of the
    tripartitioning circuit.  The combining P_{n/3}[[n]] circuit uses
    blocks of b, groups of g (default n/(3b)) and the decomposition
    provider dec_source (default: the trivial one).
    """
    if len(circ.outputs) != 1:
        raise SingleOutputRequired("extraction needs a single-output circuit")
    n = len(variables)
    if n % 3 != 0 or n < 9:
        raise NotSkew(f"tripartition extraction needs padded n (got {n}); "
                      "use pad_degree first")
    circ = _multilinearize(circ, variables, skew_cap)
    varset = set(variables)
    degs = formal_degrees(circ, varset)
    n3 = n // 3
    out_gate = circ.outputs[0]
    if degs[out_gate] < n:
        # the full monomial cannot appear at all
        bld = CircuitBuilder(circ.field)
        bld.set_outputs([bld.zero])
        return bld.build()

    # reachable homogeneous components (gid, k), walking down from (out, n)
    reach = set()
    stack = [(out_gate, n)]
    gates = circ.gates
    while stack:
        gid, k = stack.pop()
        if (gid, k) in reach:
            continue
        reach.add((gid, k))
        op, payload = gates[gid]
        if op == OP_ADD:
            for a in payload:
                if k <= degs[a]:  # components above a gate's degree are zero
                    stack.append((a, k))
        elif op == OP_MUL:
            left, right = payload
            for i in range(min(degs[left], k) + 1):
                j = k - i
                if j <= degs[right]:
                    stack.append((left, i))
                    stack.append((right, j))

    bld = CircuitBuilder(circ.field)
    input_gate = {}
    for op, payload in gates:
        if op == OP_IN and payload not in varset:
            input_gate[payload] = bld.inp(payload)
    var_bit = {name: i for i, name in enumerate(variables)}
    zerof = circ.field.zero

    def base_table(gid):
        op, payload = gates[gid]
        if op == OP_IN:
            bit = var_bit.get(payload)
            if bit is None:
                return {0: input_gate[payload]}
            return {1 << bit: bld.one}
        if op == OP_CONST:
            return {0: bld.const(payload)} if payload != zerof else {}
        return None

    def run_layer(lo, hi, tables):
        """Fill tables[(gid,k)] for lo < k <= hi from what is already there.

        Above a cut (lo >= n/3) the low side of every mul has degree <= 1
        thanks to 1-skewness, so its partner component sits at degree
        k-1 >= lo: nothing ever multiplies two cut-carrying values.  That
        is the structural linear-in-Y guarantee, asserted below.
        """
        for gid in range(len(gates)):
            op, payload = gates[gid]
            if op in (OP_IN, OP_CONST):
                continue  # seeded by base tables
            for k in range(max(lo + 1, 0), min(degs[gid], hi) + 1):
                if (gid, k) not in reach:
                    continue
                if op == OP_ADD:
                    acc: dict = {}
                    for a in payload:
                        if k <= degs[a]:
                            for m, g in tables.get((a, k), {}).items():
                                acc.setdefault(m, []).append(g)
                else:
                    a, b = payload
                    if degs[a] > degs[b]:
                        a, b = b, a
                    if lo >= n3 and degs[a] > 1:
                        raise NotSkew("cut layer would multiply two cut values")
                    acc = {}
                    for i in range(min(degs[a], k) + 1):
                        j = k - i
                        if j > degs[b]:
                            continue
                        low = tables.get((a, i), {})
                        high = tables.get((b, j), {})
                        if low and high:
                            _product_into(acc, bld, low, high, n3)
                tab = {}
                for m, gs in acc.items():
                    g = bld.add(*gs)
                    if not bld.is_zero(g):
                        tab[m] = g
                if tab:
                    tables[(gid, k)] = tab

    # ---- bottom: all components of degree <= n/3, full tables
    bottom: dict = {}
    for gid in range(len(gates)):
        bt = base_table(gid)
        if bt is not None and bt:
            k = degs[gid]  # inputs and consts are homogeneous already
            bottom[(gid, k)] = bt
    run_layer(-1, n3, bottom)

    cut1 = sorted({(gid, k) for (gid, k) in reach if k == n3 and degs[gid] >= n3})
    cut2 = sorted({(gid, k) for (gid, k) in reach
                   if k == 2 * n3 and degs[gid] >= 2 * n3})
    f_tables = [bottom.get(c, {}) for c in cut1]

    # ---- middle: per cut1 basis vector, tables of the cut2 components
    low_shared = {key: tab for key, tab in bottom.items() if key[1] <= 1}
    g_tables = []
    for c1 in cut1:
        tables = dict(low_shared)
        tables[c1] = {0: bld.one}
        run_layer(n3, 2 * n3, tables)
        g_tables.append([tables.get(c2, {}) for c2 in cut2])

    # ---- top: per cut2 basis vector, table of the output component
    h_tables = []
    for c2 in cut2:
        tables = dict(low_shared)
        tables[c2] = {0: bld.one}
        run_layer(2 * n3, n, tables)
        h_tables.append(tables.get((out_gate, n), {}))

    scheme = p_scheme(n3, b, g or (n3 // b), circ.field, dec_source=dec_source)
    pair_outputs = []
    for i in range(len(cut1)):
        fi = f_tables[i]
        if not fi:
            continue
        for j in range(len(cut2)):
            hj = h_tables[j]
            gij = g_tables[i][j]
            if not hj or not gij:
                continue
            pair_outputs.append(scheme.instantiate(bld, fi.get, gij.get, hj.get))
    bld.set_outputs([bld.add(*pair_outputs) if pair_outputs else bld.zero])
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
                        skew_cap: int = DEFAULT_SKEW_CAP, b: int = 1,
                        g: int | None = None, dec_source=None) -> Circuit:
    """Front end: pads for the tripartition route, then dispatches."""
    variables = tuple(variables)
    if method == "direct":
        return extract_coeff_direct(circ, variables, skew_cap)
    if method == "tri":
        n = len(variables)
        if n % 3 != 0 or n < 9:
            circ, variables = pad_degree(circ, variables)
        return extract_coeff_tripartition(circ, variables, skew_cap, b, g, dec_source)
    raise ValueError(f"unknown extraction method {method!r}")
