import hashlib
import re
from itertools import combinations

import pytest

from kronscale import scaling
from kronscale.circuit import CircuitBuilder, evaluate, formal_degrees, serialize
from kronscale.errors import (
    BipartitenessError,
    CharacteristicError,
    FieldTooSmall,
    NotSkew,
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
    sieve_field,
    vandermonde,
)

from conftest import force_middle, planned_products
from test_scaling import block_first

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


def test_runner_rejects_a_matrix_over_another_field_or_of_another_width():
    bld = CircuitBuilder(F)
    bld.set_outputs([bld.mul(bld.inp("x:{1}"), bld.inp("x:{2}"))])
    circ = bld.build()
    other = gf2(8)
    with pytest.raises(ShapeError, match="^sieve matrix field differs from circuit field$"):
        SieveRunner(circ, SieveMatrix(other, ((other.one, other.zero),)), "det", "direct")
    with pytest.raises(ShapeError, match="^2 variables vs 3 matrix columns$"):
        SieveRunner(circ, vandermonde(2, 3, F, Rng(5)), "det", "direct")


def test_det_sieve_refuses_a_field_below_twice_the_rank():
    # GF(2^8), the narrowest supported field, against 129 rows: the
    # per-trial bound needs |F| >= 258
    field = gf2(8)
    bld = CircuitBuilder(field)
    bld.set_outputs([bld.inp("x:{1}")])
    with pytest.raises(FieldTooSmall, match="^need \\|F\\| >= 258$"):
        det_sieve(bld.build(), SieveMatrix(field, ((field.one,),) * 129), Rng(6))


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


def test_det_sieve_takes_a_2skew_circuit_on_the_direct_route_only():
    # (x1*x2)*(x3*x4) multiplies two degree-2 sides; only the tri route
    # cuts the circuit, so only it needs 1-skewness
    field = gf2(32)
    bld = CircuitBuilder(field)
    xs = [bld.inp(f"x:{{{i}}}") for i in range(1, 5)]
    bld.set_outputs([bld.mul(bld.mul(xs[0], xs[1]), bld.mul(xs[2], xs[3]))])
    circ = bld.build()
    a = vandermonde(4, 4, field, Rng(14))
    assert det_sieve(circ, a, Rng(15), method="direct")
    with pytest.raises(NotSkew, match="2-skew"):
        det_sieve(circ, a, Rng(15), method="tri")


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
    return runner.detect(rng, trials, lambda trial: ((trial, None),))


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
    # no arc: the walk circuit reads no label, so no sieve is built
    assert not kpath_detect(DirectedGraph(4, ()), 2, rng, trials=7)


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


def test_kpath_of_no_arc_is_a_vertex_and_a_negative_length_raises():
    rng = Rng(20)
    for g in (DirectedGraph(0, ()), DirectedGraph(1, ()), DirectedGraph(3, ((1, 2),))):
        assert kpath_detect(g, 0, rng) == dfs_has_path(g, 0) == (g.n >= 1)
        with pytest.raises(ShapeError):
            kpath_detect(g, -1, rng)


@pytest.mark.parametrize("points, w", [(0, 16), (7, 16), (65_535, 16), (65_536, 32),
                                       (2**32 - 1, 32), (2**32, 64)])
def test_sieve_field_is_the_narrowest_whose_order_exceeds_the_points(points, w):
    assert sieve_field(points) == gf2(w)


# the kpath-tri benchmark graph: complete digraphs on 1..5 and 6..7
BENCH_ARCS = tuple((u, v) for part in (range(1, 6), range(6, 8))
                   for u in part for v in part if u != v)


def _recorded_runs(monkeypatch) -> list:
    """Each later SieveRunner.run, as (its runner's circuit, its value)."""
    runs = []
    run = SieveRunner.run

    def recording(self, rng, extra=None):
        runs.append((self.circuit, run(self, rng, extra)))
        return runs[-1][1]

    monkeypatch.setattr(SieveRunner, "run", recording)
    return runs


def test_kpath_tri_instance_sieves_over_gf2_16_and_reports_its_miss_bound(monkeypatch):
    # seven Vandermonde points fit GF(2^16); a path of 5 arcs has 6 rx
    # values and 5 labels, degree 11 = 2k + 1
    runs = _recorded_runs(monkeypatch)
    assert not kpath_detect(DirectedGraph(7, BENCH_ARCS), 5, Rng(5), trials=2, method="tri")
    circ = runs[0][0]
    assert circ.field == gf2(16)
    assert circ.meta["sieve"] == {"field": "gf2 w=16", "degree": 11,
                                  "miss_bound": 11 / 65_535}
    assert (circ.stats()["arcs"], circ.stats()["gates"]) == (8_238, 3_752)
    assert [value for _, value in runs] == [0, 0]


# column pairs: A's one basis is {1, 2}, dependent in C, so no common basis
MATROID3_NO = (SieveMatrix(F, ((F.one, F.zero, F.zero), (F.zero, F.one, F.zero))),
               SieveMatrix(F, ((F.one, F.zero, F.one), (F.zero, F.one, F.one))),
               SieveMatrix(F, ((F.one, F.one, F.zero), (F.zero, F.zero, F.one))))
# two disjoint triples, and no three
MATCHING3D = ((1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 1, 2))

# a 4-cycle 1-6-2-7, whose four runs at k = 6 read zero, then a 6-cycle
# 3-8-4-9-5-10: the fifth run reads the value of its edge's selector alone
LONGCYCLE_G = UndirectedGraph(10, ((1, 6), (2, 6), (2, 7), (1, 7), (3, 8), (4, 8), (4, 9),
                                   (5, 9), (5, 10), (3, 10)), side_u=(1, 2, 3, 4, 5))


@pytest.mark.parametrize("detect, answer, pin, values", [
    (lambda: kpath_detect(DirectedGraph(7, BENCH_ARCS), 5, Rng(5), trials=3, method="tri",
                          field=gf2(32)), False, "980cc58c0bf0", [0, 0, 0]),
    (lambda: kpath_detect(DirectedGraph(7, BENCH_ARCS), 5, Rng(5), method="tri",
                          field=gf2(16)), False, "6c18f9fca65c", [0] * 7),
    (lambda: kpath_detect(DirectedGraph(7, BENCH_ARCS), 4, Rng(5), trials=3,
                          field=gf2(32)), True, "29b5aea3bef4", [170_739_787]),
    (lambda: longcycle_detect(LONGCYCLE_G, 6, Rng(1), trials=2, field=gf2(16)),
     True, "1309d8fedd9e", [0, 0, 0, 0, 16_576]),
    (lambda: longcycle_detect(LONGCYCLE_G, 8, Rng(1), trials=2, field=gf2(16)),
     False, "1a6967ca8848", [0] * 20),
    (lambda: det_sieve(_monomial_circuit([1, 1]), vandermonde(2, 2, F, Rng(8)), Rng(9),
                       trials=3), True, "78ba7f38ee24", [60_226]),
    (lambda: det_sieve(_monomial_circuit([1, 1]), SieveMatrix(F, ((F.one, F.one),) * 2),
                       Rng(9), trials=3), False, "e2249132da40", [0, 0, 0]),
    (lambda: matroid3_detect(*MATROID3_NO, Rng(7), trials=5), False, "d6a83f23e7c9", [0] * 5),
    (lambda: matching3d_detect((3, 3, 3), MATCHING3D, 2, Rng(10), trials=3, field=F),
     True, "055ea91e7091", [57_693]),
    (lambda: matching3d_detect((3, 3, 3), MATCHING3D, 3, Rng(10), trials=3, field=F),
     False, "15fd2a2e6923", [0, 0, 0]),
], ids=["kpath-tri-no", "kpath-tri-no-default-trials", "kpath-direct-yes", "longcycle-yes",
        "longcycle-no", "det-yes", "det-no", "matroid3-no", "matching3d-yes",
        "matching3d-no"])
def test_an_explicit_field_keeps_each_circuit_and_value(monkeypatch, detect, answer, pin,
                                                        values):
    # the circuit and the value of every run, as one random(rng) call per
    # drawn input and a fresh selector dict per edge give them; the first
    # nonzero run is the last, and a no-instance runs every trial (and
    # every edge), so the values also pin each detector's run count
    runs = _recorded_runs(monkeypatch)
    assert detect() == answer
    assert {hashlib.sha256(serialize(circ).encode()).hexdigest()[:12]
            for circ, _ in runs} == {pin}
    assert [value for _, value in runs] == values


def test_observed_misses_at_w8_stay_under_the_miss_bound():
    # K4 has 3-paths; over GF(2^8) a trial misses with chance at most
    # 7 / 255, and misses do happen
    field = gf2(8)
    arcs = tuple((u, v) for u in range(1, 5) for v in range(1, 5) if u != v)
    circ, labels = _kpath_labeled_circuit(DirectedGraph(4, arcs), 3, field)
    runner = SieveRunner(circ, vandermonde(4, 4, field, Rng(0)), "det", "direct",
                         xvars=[f"x:{{{v}}}" for v in range(1, 5)])
    bound = runner.circuit.meta["sieve"]["miss_bound"]
    assert bound == 7 / 255
    draw = field.random_kernel(len(labels), nonzero=True)
    trials = 2_000
    misses = 0
    for seed in range(trials):
        rng = Rng(seed)
        misses += runner.run(rng, extra=dict(zip(labels, draw(rng)))) == 0
    assert 0 < misses / trials < bound


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


def test_mv_det_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ShapeError, match="^matrix is not square$"):
        mv_det_circuit([[(0, ()), (1, ())], [(1, ())]], F)


def test_matroid3_requires_char2():
    # the determinant circuit's builder is the one that checks
    one = SieveMatrix(prime_field(7), ((1,),))
    with pytest.raises(CharacteristicError, match="mv_det_circuit"):
        matroid3_detect(one, one, one, Rng(23))


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
    # fewer triples than k: no sieve is built
    triples = ((1, 1, 1), (2, 2, 2))
    assert matching3d_detect((3, 3, 3), triples, 3, rng, field=F) == matching3d_brute(triples, 3)


@pytest.mark.parametrize("build, vertex", [
    (lambda: DirectedGraph(4, ((1, 2), (2, 9), (9, 3))), 9),
    (lambda: DirectedGraph(4, ((0, 1),)), 0),
    (lambda: UndirectedGraph(4, ((1, 2), (2, 9), (3, 4))), 9),
    (lambda: UndirectedGraph(4, ((0, 2),)), 0),
    (lambda: UndirectedGraph(4, ((1, 2),), side_u=(1, 5)), 5),
    (lambda: UndirectedGraph(4, ((1, 2),), side_u=(0,)), 0),
], ids=["directed-above-n", "directed-0", "undirected-above-n", "undirected-0",
        "side-above-n", "side-0"])
def test_a_graph_built_in_code_refuses_a_vertex_outside_1_to_n(build, vertex):
    # the sieves would index past their variables, or answer False for a
    # vertex 0 that no variable stands for; parse_graph_file makes these
    # checks itself, with a line number
    with pytest.raises(ShapeError, match=rf"^vertex {vertex} is outside 1\.\.4$"):
        build()


NOT_ONE_PER_SIDE = r"is not one element in 1\.\.size per side \(2, 2, 2\)$"


@pytest.mark.parametrize("triples, k, message", [
    ((), -2, r"^matching size must be at least 0, got -2$"),
    # element 0 would index the last Vandermonde column and find a matching
    (((0, 1, 1), (1, 2, 2)), 2, r"^triple \(0, 1, 1\) " + NOT_ONE_PER_SIDE),
    # element 3 on a side of 2 would index past the side's columns
    (((1, 3, 1),), 1, r"^triple \(1, 3, 1\) " + NOT_ONE_PER_SIDE),
    # a pair has no third side's element; a fourth element has no side
    (((1, 1),), 1, r"^triple \(1, 1\) " + NOT_ONE_PER_SIDE),
    (((1, 1, 1, 5),), 1, r"^triple \(1, 1, 1, 5\) " + NOT_ONE_PER_SIDE),
], ids=["negative-k", "element-0", "element-above-its-side", "pair", "four-elements"])
def test_matching3d_refuses_a_malformed_instance(triples, k, message):
    with pytest.raises(ShapeError, match=message):
        matching3d_detect((2, 2, 2), triples, k, Rng(1), field=F)


@pytest.mark.parametrize("method", ["direct", "tri"])
def test_k0_finds_the_empty_common_basis_and_matching(method):
    # the 0 x 0 determinant is one: its one clow sequence is the empty one
    assert evaluate(mv_det_circuit([], F), {}) == (F.one,)
    rng = Rng(34)
    empty = SieveMatrix(F, ())
    assert matroid3_detect(empty, empty, empty, rng, method=method)
    for triples in ((), ((1, 2, 1),)):
        assert matching3d_brute(triples, 0)
        assert matching3d_detect((2, 2, 2), triples, 0, rng, method=method, field=F)


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
    # a cycle of length >= 6 needs three side-U vertices, and c4 has two
    assert not longcycle_detect(c4, 6, rng, trials=7, field=F)


def test_longcycle_tree_false():
    rng = Rng(25)
    tree = UndirectedGraph(5, ((1, 4), (1, 5), (2, 4), (3, 4)), side_u=(1, 2, 3))
    assert not longcycle_detect(tree, 4, rng, trials=7, field=F)
    assert not longcycle_detect(UndirectedGraph(5, (), side_u=(1, 2, 3)), 4, rng, field=F)


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


def test_longcycle_rejects_an_edge_inside_a_declared_side():
    # a 4-cycle 1-3-2-4 is bipartite, but the declared side {1, 2} holds
    # the chord (1, 2)
    g = UndirectedGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)), side_u=(1, 2))
    with pytest.raises(BipartitenessError, match=r"^edge \(1,2\) stays inside one side$"):
        longcycle_detect(g, 4, Rng(28), field=F)


@pytest.mark.parametrize("method", ["direct", "tri"])
def test_longcycle_colours_undeclared_sides_per_component(method):
    # no declared sides: a 4-cycle, and a 6-cycle with a pendant vertex
    g = UndirectedGraph(11, ((1, 2), (1, 4), (2, 3), (3, 4), (5, 6), (5, 10), (6, 7),
                             (7, 8), (8, 9), (9, 10), (10, 11)))
    rng = Rng(30)
    for k in (4, 6, 7, 8):
        assert longcycle_detect(g, k, rng, trials=7, method=method, field=F) == \
            cycle_at_least(g, k)


def test_longcycle_rejects_an_odd_characteristic_and_k_below_3():
    rng = Rng(32)
    c4 = UndirectedGraph(4, ((1, 3), (1, 4), (2, 3), (2, 4)), side_u=(1, 2))
    with pytest.raises(CharacteristicError):
        longcycle_detect(c4, 4, rng, field=prime_field(7))
    with pytest.raises(ShapeError):
        longcycle_detect(c4, 2, rng, field=F)


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


def _kpath_tri_runner(parts, k, dec_source=None):
    # k-path on disjoint complete digraphs on the vertex ranges in parts,
    # over GF(2^32), on the tri route
    field = gf2(32)
    arcs = tuple((u, v) for part in parts for u in part for v in part if u != v)
    n = max(part[-1] for part in parts)
    circ, labels = _kpath_labeled_circuit(DirectedGraph(n, arcs), k, field)
    runner = SieveRunner(circ, vandermonde(k + 1, n, field, Rng(5)), "det", "tri",
                         xvars=[f"x:{{{v}}}" for v in range(1, n + 1)],
                         dec_source=dec_source)
    return runner, labels


def _kpath_tri_benchmark_runner(dec_source=None):
    # the kpath-tri benchmark circuit: k = 5 on complete digraphs of 5 and
    # 2 vertices
    return _kpath_tri_runner((range(1, 6), range(6, 8)), 5, dec_source)


def _trial_values(runner, labels, trials):
    values = []
    for seed in range(trials):
        rng = Rng(seed)
        values.append(runner.run(rng, extra={nm: runner.field.random(rng, nonzero=True)
                                             for nm in labels}))
    return values


def test_tri_runner_takes_a_decomposition_provider():
    # the block-first provider of P_3 joins the cut layers of both padded
    # circuits: the benchmark instance has no 5-path, and K4 has a 3-path
    calls = []

    def provider(d, field):
        calls.append(d)
        return block_first(d, field)

    runner, labels = _kpath_tri_benchmark_runner(provider)
    assert set(_trial_values(runner, labels, 3)) == {0}
    runner, labels = _kpath_tri_runner((range(1, 5),), 3, provider)
    assert any(_trial_values(runner, labels, 3))
    assert calls == [3, 3]


def test_kpath_tri_benchmark_circuit_does_not_grow():
    stats = _kpath_tri_benchmark_runner()[0].circuit.stats()
    assert (stats["arcs"], stats["gates"]) == (8_238, 3_752)


def test_kpath_tri_plan_fuses_every_product_that_one_sum_alone_reads():
    # 2,640 of the benchmark circuit's 2,799 mul gates are read by one
    # add gate alone, which forms them; the plan runs 7 levels
    circ = _kpath_tri_benchmark_runner()[0].circuit
    assert circ.stats()["mul"] == 2_799
    assert planned_products(circ) == (2_640, 159)
    assert len(circ.plan[2]) == 7


def test_tri_runner_keeps_the_extraction_meta_and_an_unbuilt_plan():
    # dead-gate elimination carries the extraction's meta over, the runner
    # adds its field, degree and miss bound, and the evaluation plan is
    # built by the first trial, not by the runner; the middle layer is
    # filled transposed, from the one cut2 component of 8 with a non-empty
    # top table, not forward from 34 cut1 components
    runner, labels = _kpath_tri_benchmark_runner()
    assert runner.circuit.meta == {
        "method": "tri", "s": 34, "t": 8, "table_entries": 821,
        "report": {"bottom": {"arcs": 4584},
                   "middle": {"arcs": 3234, "fill": "transposed"},
                   "top": {"arcs": 0},
                   "join": {"arcs": 420}},
        "sieve": {"field": "gf2 w=32", "degree": 11, "miss_bound": 11 / (2**32 - 1)}}
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
    force_middle(monkeypatch, transposed)
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
