"""Randomized multilinear/odd-support detection over characteristic-2 fields.

The sieves substitute x_i -> x_i * (linear form in fresh y variables) into
a 1-skew circuit, extract the coefficient of y_1*...*y_k with the coeffx
compilers, and evaluate at random points.  Substituted randomness enters
as circuit inputs so one extraction serves every trial.  Detection is
one-sided: a nonzero evaluation certifies the monomial family exists;
no-instances evaluate to an identically zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    CircuitBuilder,
    analyze_skew,
    dead_gate_elimination,
    evaluate,
    replay,
)
from .coeffx import extract_coefficient
from .errors import (
    BipartitenessError,
    CharacteristicError,
    FieldTooSmall,
    InternalError,
    ParseError,
    ShapeError,
    content_lines,
    int_fields,
)
from .fields import Field, Rng, gf2

DEFAULT_SIEVE_FIELD_WIDTH = 32   # Schwartz-Zippel slack: deg/2^32 per trial


@dataclass(frozen=True)
class SieveMatrix:
    field: Field
    rows: tuple          # k rows of n entries

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def vandermonde(k: int, n: int, field: Field, rng: Rng) -> SieveMatrix:
    """k x n Vandermonde matrix on n distinct random points; every k x k
    minor is nonsingular."""
    if field.order < n + 1:
        raise FieldTooSmall(f"need |F| >= {n + 1}, have {field.order}")
    points: list = []
    seen = set()
    while len(points) < n:
        v = field.random(rng)
        if v not in seen:
            seen.add(v)
            points.append(v)
    rows = []
    current = [field.one] * n
    for _ in range(k):
        rows.append(tuple(current))
        current = [field.mul(c, p) for c, p in zip(current, points)]
    return SieveMatrix(field, tuple(rows))


class SieveRunner:
    """One substituted-and-extracted circuit, reused across trials.

    kind 'det':  x_i -> rx_i * sum_j A[j,i] y_j
    kind 'odd':  x_i -> rx_i * (1 + rxp_i * sum_j A[j,i] y_j)

    The rx/rxp randomness are inputs assigned per trial; an input of circ
    other than the x_i that has the name of a y, rx or rxp input would
    merge with it, so it raises ShapeError.  For 'odd', each
    y enters through exactly one factor rxp_i * (linear form), so the
    coefficient of y_1..y_k collects exactly the terms with k such
    factors: it is already the slice that a marker variable z on those
    factors, kept at z^k, would select.
    """

    def __init__(self, circ: Circuit, a: SieveMatrix, kind: str, method: str,
                 xvars=None, dec_source=None):
        if kind not in ("det", "odd"):
            raise ValueError(f"unknown sieve kind {kind!r}")
        field = circ.field
        if field.characteristic != 2:
            raise CharacteristicError("sieving needs characteristic 2")
        if a.field != field:
            raise ShapeError("sieve matrix field differs from circuit field")
        if xvars is None:
            xvars = [nm for nm in circ.input_names() if nm.startswith("x:")]
        xvars = list(xvars)
        if len(xvars) != a.n:
            raise ShapeError(f"{len(xvars)} variables vs {a.n} matrix columns")
        k = a.k
        self.field = field
        yvars = [f"y:{{{j}}}" for j in range(1, k + 1)]
        self.rand_inputs = [f"v:__{r}{i}" for i in range(len(xvars))
                            for r in (("rx",) if kind == "det" else ("rx", "rxp"))]
        clash = set(circ.input_names()).difference(xvars).intersection(
            yvars + self.rand_inputs)
        if clash:
            raise ShapeError(f"input {min(clash)!r} has the name of a sieve input")
        bld = CircuitBuilder(field)
        ys = [bld.inp(nm) for nm in yvars]
        subst = {}
        for i, name in enumerate(xvars):
            lin = bld.add(*[bld.scale(a.rows[j][i], ys[j]) for j in range(k)])
            rx = bld.inp(f"v:__rx{i}")
            if kind == "det":
                subst[name] = bld.mul(rx, lin)
            else:
                rxp = bld.inp(f"v:__rxp{i}")
                subst[name] = bld.mul(rx, bld.add(bld.one, bld.mul(rxp, lin)))
        bld.set_outputs([replay(circ, bld, subst.get)[circ.outputs[0]]])
        substituted = bld.build()
        # the transform preserves 1-skewness in the sieve variables
        q = analyze_skew(substituted, set(yvars))
        if q > 1:
            raise InternalError(f"substituted circuit is not 1-skew (q={q})")
        extracted = extract_coefficient(substituted, yvars, method,
                                        dec_source=dec_source)
        self.circuit = dead_gate_elimination(extracted)

    def run(self, rng: Rng, extra: dict | None = None):
        asg = dict(extra) if extra else {}
        for name in self.rand_inputs:
            asg[name] = self.field.random(rng)
        return evaluate(self.circuit, asg)[0]


def det_sieve(circ: Circuit, a: SieveMatrix, rng: Rng, trials: int = 7,
              method: str = "direct", xvars=None) -> bool:
    """True iff some trial certifies a multilinear term m of degree k with
    A[., supp(m)] nonsingular (one-sided; per-trial success >= 1/2 when
    such a term exists and |F| >= 2k)."""
    if a.field.order < 2 * a.k:
        raise FieldTooSmall(f"need |F| >= {2 * a.k}")
    runner = SieveRunner(circ, a, "det", method, xvars=xvars)
    for _ in range(trials):
        if runner.run(rng.split()) != a.field.zero:
            return True
    return False


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class DirectedGraph:
    n: int
    edges: tuple         # (u, v) pairs, 1-based


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: tuple         # (u, v) with u < v, 1-based
    side_u: tuple = ()   # declared bipartition side, possibly empty


def parse_graph_file(text: str):
    """Graph file: 'directed n m' or 'undirected n m [u_size w_size]' + m
    edge lines, or 'triples nu nv nw m' + m triple lines for 3-dimensional
    matching.  Side sizes declare vertices 1..u_size as side U."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    head_no, head = lines[0][0], lines[0][1].split()
    kind = head[0]
    if kind == "triples":
        nu, nv, nw, m = int_fields(head[1:], "'triples nu nv nw m'", head_no, (4,))
        triples = []
        for lineno, ln in lines[1:]:
            u, v, w = int_fields(ln.split(), "a triple 'u v w'", lineno, (3,))
            if not (1 <= u <= nu and 1 <= v <= nv and 1 <= w <= nw):
                raise ParseError("triple element out of range", lineno)
            triples.append((u, v, w))
        if len(triples) != m:
            raise ParseError(f"expected {m} triples, found {len(triples)}")
        return ("triples", (nu, nv, nw), tuple(triples))
    if kind not in ("directed", "undirected"):
        raise ParseError(f"unknown graph kind {kind!r}", head_no)
    if kind == "directed":
        sizes = int_fields(head[1:], "'directed n m'", head_no, (2,))
    else:
        sizes = int_fields(head[1:], "'undirected n m [u_size w_size]'", head_no, (2, 4))
        if len(sizes) == 4 and (min(sizes[2:]) < 0 or sizes[2] + sizes[3] != sizes[0]):
            raise ParseError("side sizes must be non-negative and sum to n", head_no)
    n, m = sizes[0], sizes[1]
    edges = []
    for lineno, ln in lines[1:]:
        u, v = int_fields(ln.split(), "an edge 'u v'", lineno, (2,))
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError("vertex out of range", lineno)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    if kind == "directed":
        return DirectedGraph(n, tuple(edges))
    side_u = tuple(range(1, sizes[2] + 1)) if len(sizes) > 2 else ()
    return UndirectedGraph(n, tuple(tuple(sorted(e)) for e in edges), side_u)


# ---------------------------------------------------------------------------
# k-path

def _kpath_labeled_circuit(g: DirectedGraph, k: int, field: Field):
    """Transfer-matrix walk circuit with labels as inputs.

    P(x) = 1^T A_1 ... A_k alpha where A_i[u,w] = label_{i,(u,w)} x_u for
    (u,w) in E and alpha[w] = x_w; homogeneous of degree k+1 and 1-skew in
    the x variables.
    """
    bld = CircuitBuilder(field)
    xs = {v: bld.inp(f"x:{{{v}}}") for v in range(1, g.n + 1)}
    labels = []
    vec = {v: xs[v] for v in range(1, g.n + 1)}
    out_adj: dict = {}
    for (u, w) in g.edges:
        out_adj.setdefault(u, []).append(w)
    for step in range(k, 0, -1):
        nxt = {}
        for u in sorted(out_adj):
            terms = []
            for w in out_adj[u]:
                if w in vec:
                    name = f"v:lbl_{step}_{u}_{w}"
                    labels.append(name)
                    terms.append(bld.mul(bld.inp(name), vec[w]))
            if terms:
                nxt[u] = bld.mul(xs[u], bld.add(*terms))
        vec = nxt
        if not vec:
            break
    out = bld.add(*vec.values()) if vec else bld.zero
    bld.set_outputs([out])
    return bld.build(), labels


def kpath_detect(g: DirectedGraph, k: int, rng: Rng, trials: int = 7,
                 method: str = "direct", field: Field | None = None) -> bool:
    """Randomized k-path decision; no-instances always return False."""
    field = field or gf2(DEFAULT_SIEVE_FIELD_WIDTH)
    if k >= g.n:
        return False  # a simple path of length k needs k+1 distinct vertices
    circ, labels = _kpath_labeled_circuit(g, k, field)
    if not labels:
        return False  # no walks of length k at all
    a = vandermonde(k + 1, g.n, field, rng)
    runner = SieveRunner(circ, a, "det", method,
                         xvars=[f"x:{{{v}}}" for v in range(1, g.n + 1)])
    for _ in range(trials):
        trial_rng = rng.split()
        extra = {nm: field.random(trial_rng, nonzero=True) for nm in labels}
        if runner.run(trial_rng, extra=extra) != field.zero:
            return True
    return False


# ---------------------------------------------------------------------------
# Mahajan-Vinay determinant circuits (char 2: signs vanish)

def _emit_mv_det(bld: CircuitBuilder, entries) -> int:
    """Clow-sequence determinant DP over a k x k matrix of gate ids.

    States (current vertex, head) per walk length; heads strictly increase
    across walks and never reappear inside one, so clow sequences of total
    length k sum to the determinant mod 2.
    """
    k = len(entries)
    states = {(h, h): bld.one for h in range(k)}
    for t in range(k - 1):
        nxt: dict = {}

        def emit(key, gate):
            if bld.is_zero(gate):
                return
            nxt.setdefault(key, []).append(gate)

        for (u, h), gate in states.items():
            for w in range(h + 1, k):
                emit((w, h), bld.mul(entries[u][w], gate))
            closed = bld.mul(entries[u][h], gate)
            if not bld.is_zero(closed):
                for h2 in range(h + 1, k):
                    emit((h2, h2), closed)
        states = {key: bld.add(*gs) for key, gs in nxt.items()}
    finals = [bld.mul(entries[u][h], gate) for (u, h), gate in states.items()]
    return bld.add(*finals) if finals else bld.zero


def mv_det_circuit(entries, field: Field) -> Circuit:
    """Determinant circuit for a symbolic matrix of degree-<=1 entries.

    Each entry is (const, ((input_name, coeff), ...)); the output computes
    det mod 2 over the named inputs.
    """
    if field.characteristic != 2:
        raise CharacteristicError("mv_det_circuit needs characteristic 2")
    k = len(entries)
    for row in entries:
        if len(row) != k:
            raise ShapeError("matrix is not square")
    bld = CircuitBuilder(field)
    gate_rows = []
    for row in entries:
        gates = []
        for const, terms in row:
            parts = [] if const == field.zero else [bld.const(const)]
            for name, coeff in terms:
                parts.append(bld.scale(coeff, bld.inp(name)))
            gates.append(bld.add(*parts) if parts else bld.zero)
        gate_rows.append(gates)
    bld.set_outputs([_emit_mv_det(bld, gate_rows)])
    return bld.build()


# ---------------------------------------------------------------------------
# 3-matroid intersection / 3-dimensional matching

def matroid3_detect(a: SieveMatrix, b: SieveMatrix, c: SieveMatrix, rng: Rng,
                    trials: int = 7, method: str = "direct") -> bool:
    """Common-basis detection: det(A diag(x) B^T) sieved against C."""
    field = a.field
    if field.characteristic != 2:
        raise CharacteristicError("matroid sieving needs characteristic 2")
    if not (a.k == b.k == c.k and a.n == b.n == c.n):
        raise ShapeError("matrices must share k x m shape")
    k, m = a.k, a.n
    entries = []
    for p in range(k):
        row = []
        for q in range(k):
            terms = []
            for i in range(m):
                coeff = field.mul(a.rows[p][i], b.rows[q][i])
                if coeff != field.zero:
                    terms.append((f"x:{{{i + 1}}}", coeff))
            row.append((field.zero, tuple(terms)))
        entries.append(row)
    circ = mv_det_circuit(entries, field)
    return det_sieve(circ, c, rng, trials=trials, method=method,
                     xvars=[f"x:{{{i}}}" for i in range(1, m + 1)])


def triples_to_matrices(sizes, triples, k: int, field: Field, rng: Rng):
    """Vandermonde-column embedding of a 3-dimensional matching instance."""
    nu, nv, nw = sizes
    mu = vandermonde(k, nu, field, rng)
    mv = vandermonde(k, nv, field, rng)
    mw = vandermonde(k, nw, field, rng)
    cols = len(triples)

    def pick(mat, coords):
        return SieveMatrix(field, tuple(
            tuple(mat.rows[r][coords[j] - 1] for j in range(cols))
            for r in range(k)))

    return (pick(mu, [t[0] for t in triples]),
            pick(mv, [t[1] for t in triples]),
            pick(mw, [t[2] for t in triples]))


def matching3d_detect(sizes, triples, k: int, rng: Rng, trials: int = 7,
                      method: str = "direct", field: Field | None = None) -> bool:
    field = field or gf2(DEFAULT_SIEVE_FIELD_WIDTH)
    if k == 0:
        return True
    if len(triples) < k:
        return False
    a, b, c = triples_to_matrices(sizes, triples, k, field, rng)
    return matroid3_detect(a, b, c, rng, trials=trials, method=method)


# ---------------------------------------------------------------------------
# long cycle on bipartite graphs

def _bipartition(g: UndirectedGraph):
    if g.side_u:
        side = set(g.side_u)
        for (u, w) in g.edges:
            if (u in side) == (w in side):
                raise BipartitenessError(f"edge ({u},{w}) stays inside one side")
        return side
    color = {}
    adj: dict = {}
    for (u, w) in g.edges:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    for start in range(1, g.n + 1):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    raise BipartitenessError("graph is not bipartite")
    return {v for v, c in color.items() if c == 0}


def longcycle_detect(g: UndirectedGraph, k: int, rng: Rng, trials: int = 7,
                     method: str = "direct", field: Field | None = None) -> bool:
    """Cycle of length >= k in a bipartite graph (whp; never false positive).

    For each edge {s,t}, the edge-variable adjacency determinant with the
    arc (t,s) forced to one detects an (s,t)-path closing a long cycle; the
    odd sieve demands its edges cover ceil(k/2) distinct side-U vertices.
    A selector input per edge switches the special arc so one extracted
    circuit serves every edge and trial; diagonal ones let cycle covers
    skip vertices off the path.
    """
    field = field or gf2(DEFAULT_SIEVE_FIELD_WIDTH)
    if field.characteristic != 2:
        raise CharacteristicError("long-cycle sieving needs characteristic 2")
    side = _bipartition(g)
    if k < 3:
        raise ShapeError("cycle length must be at least 3")
    m = len(g.edges)
    rho = (k + 1) // 2
    u_vertices = sorted(side)
    if rho > len(u_vertices) or m == 0:
        return False
    vand = vandermonde(rho, len(u_vertices), field, rng)
    u_col = {v: i for i, v in enumerate(u_vertices)}
    a_rows = []
    for r in range(rho):
        row = []
        for (u, w) in g.edges:
            uu = u if u in side else w
            row.append(vand.rows[r][u_col[uu]])
        a_rows.append(tuple(row))
    a = SieveMatrix(field, tuple(a_rows))

    bld = CircuitBuilder(field)
    xvars = [f"x:{{{i}}}" for i in range(1, m + 1)]
    xg = {i: bld.inp(xvars[i - 1]) for i in range(1, m + 1)}
    sels = [bld.inp(f"v:__sel{i}") for i in range(m)]
    entry = [[bld.zero] * (g.n + 1) for _ in range(g.n + 1)]
    for idx, (u, w) in enumerate(g.edges):
        s, t = (u, w) if u in side else (w, u)     # path runs U-side -> W-side
        x = xg[idx + 1]
        sel = sels[idx]
        # normal arcs x_e; when selected: arc (t,s) = 1 and arc (s,t) = 0
        entry[s][t] = bld.add(x, bld.mul(sel, x))
        entry[t][s] = bld.add(x, bld.mul(sel, bld.add(bld.one, x)))
    mat = [[entry[i][j] if i != j else bld.one for j in range(1, g.n + 1)]
           for i in range(1, g.n + 1)]
    bld.set_outputs([_emit_mv_det(bld, mat)])
    circ = bld.build()

    runner = SieveRunner(circ, a, "odd", method, xvars=xvars)
    zero = field.zero
    one = field.one
    for _ in range(trials):
        trial_rng = rng.split()
        for idx in range(m):
            extra = {f"v:__sel{i}": one if i == idx else zero for i in range(m)}
            if runner.run(trial_rng.split(), extra=extra) != zero:
                return True
    return False
