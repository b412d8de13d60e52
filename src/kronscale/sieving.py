"""Randomized multilinear/odd-support detection over characteristic-2 fields.

The sieves substitute x_i -> x_i * (linear form in fresh y variables) into
a circuit (of any skewness on the direct route, 1-skew on the tri route),
extract the coefficient of y_1*...*y_k with the coeffx compilers, and
evaluate at random points.  Substituted randomness enters as circuit
inputs so one extraction serves every trial.  Detection is one-sided: a
nonzero evaluation certifies the monomial family exists; no-instances
evaluate to an identically zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    CircuitBuilder,
    dead_gate_elimination,
    evaluate,
    formal_degrees,
    replay,
)
from .coeffx import extract_coefficient
from .errors import (
    BipartitenessError,
    CharacteristicError,
    FieldTooSmall,
    ParseError,
    ShapeError,
    content_lines,
    int_fields,
    records,
)
from .fields import Field, Rng, gf2

DEFAULT_SIEVE_FIELD_WIDTH = 16   # the narrowest width that sieve_field picks


def sieve_field(points: int) -> Field:
    """GF(2^w) for the narrowest w of DEFAULT_SIEVE_FIELD_WIDTH, 32 and 64
    whose order exceeds `points`, the number of distinct Vandermonde
    points an instance draws.  A trial's chance to miss a yes-instance,
    the runner's `miss_bound`, shrinks as the field grows."""
    for w in (DEFAULT_SIEVE_FIELD_WIDTH, 32):
        if 1 << w > points:
            return gf2(w)
    return gf2(64)


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

    def columns(self, indices) -> SieveMatrix:
        """The matrix whose column j is column indices[j] (0-based) of this one."""
        return SieveMatrix(self.field, tuple(tuple(row[i] for i in indices) for row in self.rows))


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

    The substitution keeps circ's skewness, so the direct route takes any
    circuit and the tri route's extraction raises NotSkew unless it is 1-skew.

    The rx/rxp randomness are inputs assigned per trial; an input of circ
    other than the x_i that has the name of a y, rx or rxp input would
    merge with it, so it raises ShapeError.  For 'odd', each
    y enters through exactly one factor rxp_i * (linear form), so the
    coefficient of y_1..y_k collects exactly the terms with k such
    factors: it is already the slice that a marker variable z on those
    factors, kept at z^k, would select.

    The runner records meta["sieve"] = {"field", "degree", "miss_bound"}
    on its circuit.  The degree D is the formal degree of the output in
    all the circuit's inputs: the rx/rxp values, which every run draws
    from F, and the caller's extra inputs (random labels drawn from F*,
    or fixed selectors, which only raise D).  On an instance whose output
    polynomial is nonzero, one run evaluates to zero with chance at most
    miss_bound = D / (|F| - 1) (Schwartz-Zippel); on one whose output is
    identically zero, every run evaluates to zero.  Every sieve decides
    through `detect`, the one trial loop: each trial takes one
    rng.split(), and runs(trial) yields the (rng, extra) of its runs in
    order.  The first nonzero run answers True and is the last made; a
    no-instance makes every run and answers False.
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
        extracted = extract_coefficient(bld.build(), yvars, method,
                                        dec_source=dec_source)
        self.circuit = dead_gate_elimination(extracted)
        self._draw = field.random_kernel(len(self.rand_inputs))
        degree = formal_degrees(self.circuit)[self.circuit.outputs[0]]
        self.circuit.meta["sieve"] = {"field": field.spec_string(), "degree": degree,
                                      "miss_bound": degree / (field.order - 1)}

    def run(self, rng: Rng, extra: dict | None = None):
        asg = dict(extra) if extra else {}
        asg.update(zip(self.rand_inputs, self._draw(rng)))
        return evaluate(self.circuit, asg)[0]

    def detect(self, rng: Rng, trials: int, runs) -> bool:
        return any(self.run(run_rng, extra) != self.field.zero
                   for _ in range(trials) for run_rng, extra in runs(rng.split()))


def det_sieve(circ: Circuit, a: SieveMatrix, rng: Rng, trials: int = 7,
              method: str = "direct", xvars=None) -> bool:
    """True iff some trial certifies a multilinear term m of degree k with
    A[., supp(m)] nonsingular (one-sided, one run per trial on its rng;
    per-trial success >= 1/2 when such a term exists and |F| >= 2k)."""
    if a.field.order < 2 * a.k:
        raise FieldTooSmall(f"need |F| >= {2 * a.k}")
    runner = SieveRunner(circ, a, "det", method, xvars=xvars)
    return runner.detect(rng, trials, lambda trial: ((trial, None),))


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class DirectedGraph:
    n: int
    edges: tuple         # (u, v) pairs, 1-based

    def __post_init__(self):
        for v in [v for e in self.edges for v in e]:
            if not 1 <= v <= self.n:
                raise ShapeError(f"vertex {v} is outside 1..{self.n}")


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: tuple         # (u, v) with u < v, 1-based
    side_u: tuple = ()   # declared bipartition side, possibly empty

    def __post_init__(self):
        for v in [v for e in self.edges for v in e] + list(self.side_u):
            if not 1 <= v <= self.n:
                raise ShapeError(f"vertex {v} is outside 1..{self.n}")


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
        for lineno, ln in records(lines, m, "triples"):
            u, v, w = int_fields(ln.split(), "a triple 'u v w'", lineno, (3,))
            if not (1 <= u <= nu and 1 <= v <= nv and 1 <= w <= nw):
                raise ParseError("triple element out of range", lineno)
            triples.append((u, v, w))
        return ("triples", (nu, nv, nw), tuple(triples))
    if kind not in ("directed", "undirected"):
        raise ParseError(f"unknown graph kind {kind!r}", head_no)
    if kind == "directed":
        sizes = int_fields(head[1:], "'directed n m'", head_no, (2,))
    else:
        sizes = int_fields(head[1:], "'undirected n m [u_size w_size]'", head_no, (2, 4))
        if len(sizes) == 4 and sizes[2] + sizes[3] != sizes[0]:
            raise ParseError("side sizes must sum to n", head_no)
    n, m = sizes[0], sizes[1]
    edges = []
    for lineno, ln in records(lines, m, "edges"):
        u, v = int_fields(ln.split(), "an edge 'u v'", lineno, (2,))
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError("vertex out of range", lineno)
        edges.append((u, v))
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
    """Randomized decision: does g have a simple path of k arcs?

    No-instances always return False.  The field defaults to
    sieve_field(g.n), GF(2^16) up to 65,535 vertices; each trial misses a
    yes-instance with chance at most the runner's miss_bound, D / (|F| - 1)
    with D <= 2k + 1 (k + 1 rx values and k arc labels per path).  Each
    trial is one run, whose rng draws the labels, then the rx values.  A
    vertex is a path of no arc; a negative k raises ShapeError.
    """
    if k < 0:
        raise ShapeError(f"path length must be at least 0, got {k}")
    if k == 0:
        return g.n >= 1
    if k >= g.n:
        return False  # a simple path of length k needs k+1 distinct vertices
    field = field or sieve_field(g.n)
    circ, labels = _kpath_labeled_circuit(g, k, field)
    if not labels:
        return False  # no walks of length k at all
    a = vandermonde(k + 1, g.n, field, rng)
    runner = SieveRunner(circ, a, "det", method,
                         xvars=[f"x:{{{v}}}" for v in range(1, g.n + 1)])
    draw_labels = field.random_kernel(len(labels), nonzero=True)
    return runner.detect(rng, trials,
                         lambda trial: ((trial, dict(zip(labels, draw_labels(trial)))),))


# ---------------------------------------------------------------------------
# clow sequences (Mahajan and Vinay): the determinant, and in counting the
# hafnian

def _emit_clows(bld: CircuitBuilder, steps, last) -> int:
    """The sum over clow sequences of the product of their arc gates.

    The vertices are 0..k-1, k = len(last).  A clow sequence is a list of
    closed walks; each starts and ends at its head, visits no vertex below
    it, and heads strictly increase along the list.  Partial sequences are
    grouped by state (current vertex u, head h of the open walk), whose
    gate sums their arc products; the first walk opens at any head h, as
    the state (h, h) with gate one.

    Each step (rows, closes) takes every state one arc further: rows[u]
    maps w to the gate of arc (u, w), in ascending w and with no zero
    gate, and a walk goes on only to w > h.  When closes holds, a walk may
    instead take arc (u, h) back to its head, and the next walk opens at
    any head above h.  After the steps, last[u][h] closes every walk.
    With no vertex the only clow sequence is the empty one: the sum is one.
    """
    k = len(last)
    if not k:
        return bld.one
    states = {(h, h): bld.one for h in range(k)}
    for rows, closes in steps:
        nxt: dict = {}
        for (u, h), gate in states.items():
            if bld.is_zero(gate):  # its constant terms cancelled: it opens no state
                continue
            row = rows[u]
            for w, arc in row.items():
                if w > h:
                    nxt.setdefault((w, h), []).append(bld.mul(arc, gate))
            if closes and h in row:
                closed = bld.mul(row[h], gate)
                for h2 in range(h + 1, k):
                    nxt.setdefault((h2, h2), []).append(closed)
        states = {key: bld.add(*gates) for key, gates in nxt.items()}
    return bld.add(*[bld.mul(last[u][h], gate) for (u, h), gate in states.items()
                     if h in last[u]])


def _emit_mv_det(bld: CircuitBuilder, entries) -> int:
    """Determinant mod 2 of a k x k matrix of gate ids: the sum over its
    clow sequences of length k (Mahajan and Vinay; in characteristic 2 the
    signs vanish), k - 1 steps over the nonzero entries, each free to close
    a walk, then the closing arc.  The 0 x 0 determinant is one."""
    rows = [{w: gate for w, gate in enumerate(row) if not bld.is_zero(gate)}
            for row in entries]
    return _emit_clows(bld, [(rows, True)] * (len(rows) - 1), rows)


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
            gates.append(bld.add(bld.const(const),
                                 *[bld.scale(coeff, bld.inp(name)) for name, coeff in terms]))
        gate_rows.append(gates)
    bld.set_outputs([_emit_mv_det(bld, gate_rows)])
    return bld.build()


# ---------------------------------------------------------------------------
# 3-matroid intersection / 3-dimensional matching

def matroid3_detect(a: SieveMatrix, b: SieveMatrix, c: SieveMatrix, rng: Rng,
                    trials: int = 7, method: str = "direct") -> bool:
    """Common-basis detection: det(A diag(x) B^T) sieved against C."""
    field = a.field
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
    mats = [vandermonde(k, n, field, rng) for n in sizes]
    return tuple(mat.columns([t[i] - 1 for t in triples]) for i, mat in enumerate(mats))


def matching3d_detect(sizes, triples, k: int, rng: Rng, trials: int = 7,
                      method: str = "direct", field: Field | None = None) -> bool:
    """Randomized decision: are some k of the triples, over sides of
    `sizes` (nu, nv, nw), pairwise disjoint?  No-instances always return
    False; a negative k, or a triple that is not one element in 1..size
    per side, raises ShapeError.

    The field defaults to sieve_field(max(nu, nv, nw, 2k - 1)): its
    order exceeds every side's Vandermonde points and is at least the 2k
    that det_sieve asks.  Each trial misses a yes-instance with chance at
    most the runner's miss_bound, D / (|F| - 1).
    """
    if k < 0:
        raise ShapeError(f"matching size must be at least 0, got {k}")
    for t in triples:
        if len(t) != 3 or not all(1 <= v <= size for v, size in zip(t, sizes)):
            raise ShapeError(f"triple {t} is not one element in 1..size per side {sizes}")
    field = field or sieve_field(max(*sizes, 2 * k - 1))
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

    The field defaults to sieve_field(|U|), one Vandermonde point per
    side-U vertex.  Each trial runs every edge in order, with its selector
    alone one, on a fresh split of the trial's rng; the run on an edge that
    closes a long cycle misses with chance at most the runner's
    miss_bound, D / (|F| - 1), where D counts the selectors too.
    """
    if field is not None and field.characteristic != 2:
        raise CharacteristicError("long-cycle sieving needs characteristic 2")
    side = _bipartition(g)
    if k < 3:
        raise ShapeError("cycle length must be at least 3")
    m = len(g.edges)
    rho = (k + 1) // 2
    u_vertices = sorted(side)
    if rho > len(u_vertices) or m == 0:
        return False
    field = field or sieve_field(len(u_vertices))
    vand = vandermonde(rho, len(u_vertices), field, rng)
    u_col = {v: i for i, v in enumerate(u_vertices)}
    a = vand.columns([u_col[u if u in side else w] for u, w in g.edges])

    bld = CircuitBuilder(field)
    xvars = [f"x:{{{i}}}" for i in range(1, m + 1)]
    xs = [bld.inp(nm) for nm in xvars]
    sel_names = [f"v:__sel{i}" for i in range(m)]
    sels = [bld.inp(nm) for nm in sel_names]
    entry = [[bld.zero] * (g.n + 1) for _ in range(g.n + 1)]
    for (u, w), x, sel in zip(g.edges, xs, sels):
        s, t = (u, w) if u in side else (w, u)     # path runs U-side -> W-side
        # normal arcs x_e; when selected: arc (t,s) = 1 and arc (s,t) = 0
        entry[s][t] = bld.add(x, bld.mul(sel, x))
        entry[t][s] = bld.add(x, bld.mul(sel, bld.add(bld.one, x)))
    mat = [[entry[i][j] if i != j else bld.one for j in range(1, g.n + 1)]
           for i in range(1, g.n + 1)]
    bld.set_outputs([_emit_mv_det(bld, mat)])
    circ = bld.build()

    runner = SieveRunner(circ, a, "odd", method, xvars=xvars)
    off = dict.fromkeys(sel_names, field.zero)
    return runner.detect(rng, trials, lambda trial: (
        (trial.split(), {**off, name: field.one}) for name in sel_names))
