import re
from itertools import combinations

import pytest

from kronscale import coeffx, scaling
from kronscale.circuit import CircuitBuilder, evaluate, formal_degrees
from kronscale.errors import (
    BipartitenessError,
    CharacteristicError,
    FieldTooSmall,
    ShapeError,
)
from kronscale.fields import GF2Field, Rng, gf2, prime_field
from kronscale.sieving import (
    DirectedGraph,
    SieveMatrix,
    SieveRunner,
    UndirectedGraph,
    _kpath_labeled_circuit,
    det_sieve,
    kpath_detect,
    longcycle_detect,
    matching3d_detect,
    matroid3_detect,
    mv_det_circuit,
    parse_graph_file,
    vandermonde,
)

F = gf2(16)


def identity_matrix(k):
    return SieveMatrix(F, tuple(tuple(F.one if i == j else F.zero for j in range(k))
                                for i in range(k)))


def gauss_det(field, M):
    M = [list(r) for r in M]
    k = len(M)
    det = field.one
    for c in range(k):
        piv = next((r for r in range(c, k) if M[r][c] != field.zero), None)
        if piv is None:
            return field.zero
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
        det = field.mul(det, M[c][c])
        inv = field.inv(M[c][c])
        for r in range(c + 1, k):
            if M[r][c] != field.zero:
                factor = field.mul(M[r][c], inv)
                for cc in range(c, k):
                    M[r][cc] = field.add(M[r][cc], field.mul(factor, M[c][cc]))
    return det


def test_vandermonde_row_of_ones():
    rng = Rng(1)
    a = vandermonde(1, 4, F, rng)
    assert a.rows == ((F.one,) * 4,)


def test_vandermonde_2x2_nonsingular():
    rng = Rng(2)
    a = vandermonde(2, 2, F, rng)
    det = F.add(F.mul(a.rows[0][0], a.rows[1][1]), F.mul(a.rows[0][1], a.rows[1][0]))
    assert det != F.zero


def test_vandermonde_all_minors_nonsingular():
    rng = Rng(3)
    a = vandermonde(3, 6, F, rng)
    for cols in combinations(range(6), 3):
        sub = [[a.rows[r][c] for c in cols] for r in range(3)]
        assert gauss_det(F, sub) != F.zero


def test_vandermonde_field_too_small():
    rng = Rng(4)
    with pytest.raises(FieldTooSmall):
        vandermonde(2, 300, gf2(8), rng)


def _monomial_circuit(exponents):
    # prod x_i^{e_i} over x:{1..n}
    bld = CircuitBuilder(F)
    acc = bld.one
    for i, e in enumerate(exponents, start=1):
        x = bld.inp(f"x:{{{i}}}")
        for _ in range(e):
            acc = bld.mul(acc, x)
    bld.set_outputs([acc])
    return bld.build()


def test_det_sieve_identity_found():
    rng = Rng(10)
    c = _monomial_circuit([1, 1, 1])
    assert det_sieve(c, identity_matrix(3), rng, trials=5)


def test_det_sieve_no_multilinear_term():
    rng = Rng(11)
    c = _monomial_circuit([2, 1])  # x1^2 x2: P* is identically zero
    a = SieveMatrix(F, tuple(tuple(F.random(rng) for _ in range(2)) for _ in range(3)))
    assert not det_sieve(c, a, rng, trials=20)


def test_runner_accepts_a_matrix_over_a_separately_built_field():
    # fields are plain values: a GF(2^32) built on its own equals the
    # circuit's, so the runner takes the matrix and sieves over it
    field = gf2(32)
    bld = CircuitBuilder(field)
    bld.set_outputs([bld.mul(bld.inp("x:{1}"), bld.inp("x:{2}"))])
    other = GF2Field(32)
    a = SieveMatrix(other, ((other.one, other.zero), (other.zero, other.one)))
    assert a.field is not field
    runner = SieveRunner(bld.build(), a, "det", "direct")
    rng = Rng(16)
    assert any(runner.run(rng.split()) != field.zero for _ in range(5))


def test_runner_rejects_an_unknown_kind():
    bld = CircuitBuilder(F)
    bld.set_outputs([bld.mul(bld.inp("x:{1}"), bld.inp("x:{2}"))])
    with pytest.raises(ValueError, match="unknown sieve kind 'bogus'"):
        SieveRunner(bld.build(), identity_matrix(2), "bogus", "direct")


@pytest.mark.parametrize("kind,name", [("det", "y:{1}"), ("det", "v:__rx1"),
                                       ("odd", "v:__rxp0")])
def test_runner_refuses_an_input_named_like_a_sieve_input(kind, name):
    # x1 * x2 * w with w named like an input the runner adds: the two would
    # merge, and with w named y:{1} every trial would evaluate to 0
    field = gf2(16)
    bld = CircuitBuilder(field)
    bld.set_outputs([bld.mul(bld.mul(bld.inp("x:{1}"), bld.inp("x:{2}")), bld.inp(name))])
    with pytest.raises(ShapeError, match=re.escape(repr(name))):
        SieveRunner(bld.build(), vandermonde(2, 2, field, Rng(3)), kind, "direct")


def test_det_sieve_requires_char2():
    rng = Rng(12)
    zp = prime_field(101)
    bld = CircuitBuilder(zp)
    bld.set_outputs([bld.inp("x:{1}")])
    a = SieveMatrix(zp, ((zp.one,),))
    with pytest.raises(CharacteristicError):
        det_sieve(bld.build(), a, rng)


def test_det_sieve_vs_exhaustive_support_oracle():
    # random degree-3 polynomials over 6 variables; compare against a
    # brute-force scan of multilinear supports and minor ranks
    rng = Rng(13)
    from _symbolic import expand_circuit
    for trial in range(10):
        bld = CircuitBuilder(F)
        xs = [bld.inp(f"x:{{{i}}}") for i in range(1, 7)]
        terms = []
        for _ in range(4):
            i, j, k = rng.below(6), rng.below(6), rng.below(6)
            coeff = bld.const(F.random(rng, nonzero=True))
            terms.append(bld.mul(bld.mul(bld.mul(coeff, xs[i]), xs[j]), xs[k]))
        bld.set_outputs([bld.add(*terms)])
        c = bld.build()
        a = vandermonde(3, 6, F, Rng(1000 + trial))
        poly = expand_circuit(c)[0]
        exists = False
        for mono, coeff in poly.terms.items():
            if all(e == 1 for _, e in mono) and len(mono) == 3:
                cols = [int(name.split("{")[1].rstrip("}")) - 1 for name, _ in mono]
                sub = [[a.rows[r][cc] for cc in cols] for r in range(3)]
                if gauss_det(F, sub) != F.zero:
                    exists = True
        got = det_sieve(c, a, rng, trials=12)
        assert got == exists  # 12 trials: miss probability <= 2^-12


def odd_sieve(circ, a, rng, trials):
    """True iff some trial of the odd sieve certifies a term m with
    A[., osupp(m)] of full row rank (one-sided)."""
    degs = formal_degrees(circ, {nm for nm in circ.input_names() if nm.startswith("x:")})
    d = max(degs[o] for o in circ.outputs)
    if a.field.order < d + a.k:
        raise FieldTooSmall(f"need |F| >= {d + a.k}")
    runner = SieveRunner(circ, a, "odd", "direct")
    return any(runner.run(rng.split()) != a.field.zero for _ in range(trials))


def test_odd_sieve_examples():
    rng = Rng(14)
    c = _monomial_circuit([1, 1])
    assert odd_sieve(c, identity_matrix(2), rng, trials=5)
    c2 = _monomial_circuit([2])
    one1 = SieveMatrix(F, ((F.one,),))
    assert not odd_sieve(c2, one1, rng, trials=20)


def test_odd_runner_circuit_has_no_marker_input():
    runner = SieveRunner(_monomial_circuit([1, 1]), identity_matrix(2), "odd", "direct")
    names = runner.circuit.input_names()
    assert "v:__z" not in names
    assert set(names) <= set(runner.rand_inputs)


def test_odd_sieve_vs_osupp_rank_oracle():
    rng = Rng(15)
    from _symbolic import expand_circuit
    for trial in range(8):
        bld = CircuitBuilder(F)
        xs = [bld.inp(f"x:{{{i}}}") for i in range(1, 5)]
        terms = []
        for _ in range(3):
            acc = bld.const(F.random(rng, nonzero=True))
            for _ in range(3):
                acc = bld.mul(acc, xs[rng.below(4)])
            terms.append(acc)
        bld.set_outputs([bld.add(*terms)])
        c = bld.build()
        a = vandermonde(2, 4, F, Rng(2000 + trial))
        poly = expand_circuit(c)[0]
        exists = False
        for mono, _ in poly.terms.items():
            osupp = [int(name.split("{")[1].rstrip("}")) - 1
                     for name, e in mono if e % 2 == 1]
            for cols in combinations(osupp, 2):
                sub = [[a.rows[r][cc] for cc in cols] for r in range(2)]
                if gauss_det(F, sub) != F.zero:
                    exists = True
        got = odd_sieve(c, a, rng, trials=12)
        assert got == exists


def test_kpath_cycle_has_no_simple_path_of_length_n():
    rng = Rng(17)
    g = DirectedGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert not kpath_detect(g, 4, rng, trials=7)


def test_kpath_examples():
    rng = Rng(18)
    assert kpath_detect(DirectedGraph(3, ((1, 2), (2, 3))), 2, rng, trials=7)
    assert not kpath_detect(DirectedGraph(4, ((1, 2), (3, 4))), 2, rng, trials=7)


def dfs_has_path(g, k):
    adj = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)

    def rec(v, depth, seen):
        if depth == k:
            return True
        return any(rec(w, depth + 1, seen | {w})
                   for w in adj.get(v, ()) if w not in seen)

    return any(rec(v, 0, {v}) for v in range(1, g.n + 1))


def test_kpath_vs_dfs_oracle():
    rng = Rng(19)
    for _ in range(15):
        n = 6 + rng.below(5)
        edges = set()
        while len(edges) < n + rng.below(n):
            u, v = 1 + rng.below(n), 1 + rng.below(n)
            if u != v:
                edges.add((u, v))
        g = DirectedGraph(n, tuple(sorted(edges)))
        k = 2 + rng.below(4)
        assert kpath_detect(g, k, rng, trials=7, field=F) == dfs_has_path(g, k)


def test_mv_det_1x1_and_2x2():
    c = mv_det_circuit([[(F.zero, (("v:e", F.one),))]], F)
    assert evaluate(c, {"v:e": 0x1234}) == (0x1234,)
    entries = [[(F.zero, ((f"v:m{i}{j}", F.one),)) for j in range(2)] for i in range(2)]
    c2 = mv_det_circuit(entries, F)
    rng = Rng(20)
    for _ in range(5):
        vals = {f"v:m{i}{j}": F.random(rng) for i in range(2) for j in range(2)}
        want = F.add(F.mul(vals["v:m00"], vals["v:m11"]),
                     F.mul(vals["v:m01"], vals["v:m10"]))
        assert evaluate(c2, vals) == (want,)


def test_mv_det_4x4_vs_elimination():
    entries = [[(F.zero, ((f"v:m{i}{j}", F.one),)) for j in range(4)] for i in range(4)]
    c = mv_det_circuit(entries, F)
    rng = Rng(21)
    for _ in range(20):
        vals = {f"v:m{i}{j}": F.random(rng) for i in range(4) for j in range(4)}
        want = gauss_det(F, [[vals[f"v:m{i}{j}"] for j in range(4)] for i in range(4)])
        assert evaluate(c, vals) == (want,)


def test_mv_det_char2_only():
    with pytest.raises(CharacteristicError):
        mv_det_circuit([[(0, ())]], prime_field(7))


def test_matroid3_trivial_cases():
    rng = Rng(22)
    one = SieveMatrix(F, ((F.one,),))
    zero = SieveMatrix(F, ((F.zero,),))
    assert matroid3_detect(one, one, one, rng, trials=5)
    assert not matroid3_detect(one, one, zero, rng, trials=5)
    with pytest.raises(ShapeError):
        matroid3_detect(one, one, identity_matrix(2), rng)


def matching3d_brute(triples, k):
    for combo in combinations(triples, k):
        if (len({t[0] for t in combo}) == k and len({t[1] for t in combo}) == k
                and len({t[2] for t in combo}) == k):
            return True
    return False


def test_matching3d_vs_exhaustive():
    rng = Rng(23)
    for _ in range(20):
        m = 4 + rng.below(5)
        k = 2 + rng.below(2)
        triples = tuple((1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3))
                        for _ in range(m))
        want = matching3d_brute(triples, k)
        got = matching3d_detect((3, 3, 3), triples, k, rng, trials=7, field=F)
        assert got == want


def cycle_at_least(g, k):
    adj = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    best = 0

    def rec(start, v, length, seen):
        nonlocal best
        for w in adj.get(v, ()):
            if w == start and length >= 2:
                best = max(best, length + 1)
            elif w > start and w not in seen:
                rec(start, w, length + 1, seen | {w})

    for s in range(1, g.n + 1):
        rec(s, s, 0, frozenset({s}))
    return best >= k


def test_longcycle_c4():
    rng = Rng(24)
    c4 = UndirectedGraph(4, ((1, 3), (1, 4), (2, 3), (2, 4)), side_u=(1, 2))
    assert longcycle_detect(c4, 4, rng, trials=7, field=F)


def test_longcycle_tree_false():
    rng = Rng(25)
    tree = UndirectedGraph(5, ((1, 4), (1, 5), (2, 4), (3, 4)), side_u=(1, 2, 3))
    assert not longcycle_detect(tree, 4, rng, trials=7, field=F)


def test_longcycle_vs_exhaustive():
    rng = Rng(26)
    for _ in range(12):
        a, b = 3 + rng.below(3), 3 + rng.below(3)
        edges = set()
        guard = 0
        while len(edges) < a + b + rng.below(4) and guard < 100:
            guard += 1
            u, w = 1 + rng.below(a), a + 1 + rng.below(b)
            edges.add((u, w))
        g = UndirectedGraph(a + b, tuple(sorted(edges)), side_u=tuple(range(1, a + 1)))
        k = 4 + 2 * rng.below(2)
        assert longcycle_detect(g, k, rng, trials=7, field=F) == cycle_at_least(g, k)


def test_longcycle_rejects_nonbipartite():
    rng = Rng(27)
    g = UndirectedGraph(3, ((1, 2), (2, 3), (1, 3)))
    with pytest.raises(BipartitenessError):
        longcycle_detect(g, 3, rng, field=F)


def test_graph_file_parsing():
    d = parse_graph_file("directed 3 2\n1 2\n2 3\n")
    assert isinstance(d, DirectedGraph) and d.edges == ((1, 2), (2, 3))
    u = parse_graph_file("undirected 4 2 2 2\n1 3\n2 4\n")
    assert isinstance(u, UndirectedGraph) and u.side_u == (1, 2)
    t = parse_graph_file("triples 2 2 2 1\n1 2 1\n")
    assert t[0] == "triples" and t[2] == ((1, 2, 1),)


def test_sieve_tripartition_method_agrees():
    # the tri extraction path drives the same verdicts on a planted instance
    rng = Rng(28)
    g = DirectedGraph(9, tuple((i, i + 1) for i in range(1, 9)))
    assert kpath_detect(g, 8, rng, trials=7, method="tri", field=F)
    g2 = DirectedGraph(9, ((1, 2), (3, 4), (5, 6)))
    assert not kpath_detect(g2, 8, rng, trials=7, method="tri", field=F)


def _kpath_tri_benchmark_runner():
    # the kpath-tri benchmark circuit: k = 5 on complete digraphs of 5 and
    # 2 vertices, GF(2^32)
    field = gf2(32)
    arcs = tuple((u, v) for part in (range(1, 6), range(6, 8))
                 for u in part for v in part if u != v)
    circ, labels = _kpath_labeled_circuit(DirectedGraph(7, arcs), 5, field)
    runner = SieveRunner(circ, vandermonde(6, 7, field, Rng(5)), "det", "tri",
                         xvars=[f"x:{{{v}}}" for v in range(1, 8)])
    return runner, labels


def test_kpath_tri_benchmark_circuit_does_not_grow():
    stats = _kpath_tri_benchmark_runner()[0].circuit.stats()
    assert (stats["arcs"], stats["gates"]) == (8_238, 3_752)


def test_tri_runner_keeps_the_extraction_meta_and_an_unbuilt_plan():
    # dead-gate elimination carries the extraction's meta over, and the
    # evaluation plan is built by the first trial, not by the runner; the
    # middle layer is filled transposed, from the one cut2 component of 8
    # with a non-empty top table, not forward from 34 cut1 components
    runner, labels = _kpath_tri_benchmark_runner()
    assert runner.circuit.meta == {
        "method": "tri", "s": 34, "t": 8, "table_entries": 821,
        "report": {"bottom": {"arcs": 4584},
                   "middle": {"arcs": 3234, "fill": "transposed"},
                   "top": {"arcs": 0},
                   "join": {"arcs": 420}}}
    assert "plan" not in runner.circuit.__dict__
    rng = Rng(9)
    assert runner.run(rng, extra={nm: runner.field.random(rng, nonzero=True)
                                  for nm in labels}) == 0  # no 5-path
    assert "plan" in runner.circuit.__dict__


@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
@pytest.mark.parametrize("k", [5, 4])
def test_kpath_tri_either_middle_direction_equals_the_direct_route(k, transposed, monkeypatch):
    # the benchmark graph: k = 5 has no path, k = 4 has many
    field = gf2(32)
    arcs = tuple((u, v) for part in (range(1, 6), range(6, 8))
                 for u in part for v in part if u != v)
    circ, labels = _kpath_labeled_circuit(DirectedGraph(7, arcs), k, field)
    a = vandermonde(k + 1, 7, field, Rng(5))
    xvars = [f"x:{{{v}}}" for v in range(1, 8)]
    direct = SieveRunner(circ, a, "det", "direct", xvars=xvars)
    monkeypatch.setattr(coeffx, "_middle_transposed", lambda *args: transposed)
    tri = SieveRunner(circ, a, "det", "tri", xvars=xvars)
    assert tri.circuit.meta["report"]["middle"]["fill"] == ("transposed" if transposed
                                                          else "forward")
    values = set()
    for seed in range(3):
        point = Rng(seed)
        extra = {nm: field.random(point, nonzero=True) for nm in labels}
        got = tri.run(Rng(seed + 10), extra=extra)
        assert got == direct.run(Rng(seed + 10), extra=extra)
        values.add(got)
    assert (values == {0}) == (k == 5)


def test_tri_route_sums_the_pairs_of_each_cut2_component_in_one_instantiation(monkeypatch):
    # k = 6 on a seeded 7-vertex digraph: several cut1 components meet each
    # cut2 component, and their pairs sum inside one instantiation
    field = gf2(32)
    rng = Rng(1)
    arcs = tuple((u, v) for u in range(1, 8) for v in range(1, 8)
                 if u != v and rng.below(10) < 4)
    circ, labels = _kpath_labeled_circuit(DirectedGraph(7, arcs), 6, field)
    a = vandermonde(7, 7, field, Rng(2))
    xvars = [f"x:{{{v}}}" for v in range(1, 8)]
    calls = []
    instantiate = scaling.PScalingScheme.instantiate

    def recorded(self, bld, pairs, zwire):
        calls.append((pairs, zwire.__self__))
        return instantiate(self, bld, pairs, zwire)

    monkeypatch.setattr(scaling.PScalingScheme, "instantiate", recorded)
    tri = SieveRunner(circ, a, "det", "tri", xvars=xvars)
    monkeypatch.undo()
    direct = SieveRunner(circ, a, "det", "direct", xvars=xvars)
    # one call per non-empty h table, each with every pair that meets it
    h_tables = [h for _, h in calls]
    assert all(h_tables) and len({id(h) for h in h_tables}) == len(calls) >= 2
    assert all(f.__self__ and g.__self__ for pairs, _ in calls for f, g in pairs)
    assert max(len(pairs) for pairs, _ in calls) >= 2
    values = set()
    for seed in range(3):
        point = Rng(seed)
        extra = {nm: field.random(point, nonzero=True) for nm in labels}
        got = tri.run(Rng(seed + 10), extra=extra)
        assert got == direct.run(Rng(seed + 10), extra=extra)
        values.add(got)
    assert len(values) > 1  # a 6-path exists, so the value varies
