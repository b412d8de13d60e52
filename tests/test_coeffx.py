from unittest import mock

import pytest

from conftest import force_middle, random_skew_circuit
from kronscale import circuit, coeffx, sieving
from kronscale.circuit import (
    CircuitBuilder,
    analyze_skew,
    dead_gate_elimination,
    evaluate,
    formal_degrees,
)
from kronscale.coeffx import (
    _ArcCount,
    _fill_forward,
    _fill_transposed,
    _layer,
    _reach,
    _run_layer,
    _seed_tables,
    extract_coeff_direct,
    extract_coeff_tripartition,
    extract_coefficient,
    pad_degree,
)
from kronscale.counting import (
    SetFamily,
    SquareMatrix,
    build_hafnian_circuit,
    hafnian_clow_circuit,
    matrix_assignment,
    permanent_skew_circuit,
    setpart_circuit,
)
from kronscale.errors import NotSkew, ShapeError, SingleOutputRequired
from kronscale.fields import Rng, gf2, prime_field
from kronscale.sieving import DirectedGraph, _kpath_labeled_circuit, mv_det_circuit

from _symbolic import expand_circuit
from test_sieving import _kpath_tri_benchmark_runner

F = prime_field(2**31 - 1)


def full_product_circuit(field, names):
    bld = CircuitBuilder(field)
    acc = bld.inp(names[0])
    for nm in names[1:]:
        acc = bld.mul(acc, bld.inp(nm))
    bld.set_outputs([acc])
    return bld.build()


def names_for(n):
    return [f"x:{{{i}}}" for i in range(n)]


def test_direct_full_product():
    names = names_for(6)
    c = full_product_circuit(F, names)
    out = extract_coefficient(c, names, "direct")
    assert evaluate(out, {}) == (1,)


def test_direct_square_coefficient():
    bld = CircuitBuilder(F)
    s = bld.add(bld.inp("x:{0}"), bld.inp("x:{1}"))
    bld.set_outputs([bld.mul(s, s)])
    out = extract_coefficient(bld.build(), ["x:{0}", "x:{1}"], "direct")
    assert evaluate(out, {}) == (2,)
    f2 = gf2(8)
    bld = CircuitBuilder(f2)
    s = bld.add(bld.inp("x:{0}"), bld.inp("x:{1}"))
    bld.set_outputs([bld.mul(s, s)])
    out = extract_coefficient(bld.build(), ["x:{0}", "x:{1}"], "direct")
    assert evaluate(out, {}) == (0,)  # char 2


def test_direct_matches_expansion_oracle():
    rng = Rng(314)
    for trial in range(10):
        n = 4 + rng.below(4)  # 4..7
        names = names_for(n)
        c = random_skew_circuit(F, rng, names, n_gates=25, full_monomial=True)
        out = extract_coefficient(c, names, "direct")
        want = expand_circuit(c)[0].coefficient_of_full_monomial(names)
        assert want != 0
        assert evaluate(out, {}) == (want,)


def test_direct_with_carried_inputs():
    # non-extracted inputs stay inputs of the output circuit
    rng = Rng(9)
    bld = CircuitBuilder(F)
    x0, x1 = bld.inp("x:{0}"), bld.inp("x:{1}")
    w = bld.inp("v:w")
    bld.set_outputs([bld.mul(bld.mul(x0, w), x1)])
    out = extract_coefficient(bld.build(), ["x:{0}", "x:{1}"], "direct")
    for _ in range(5):
        v = F.random(rng)
        assert evaluate(out, {"v:w": v}) == (v,)


def two_skew_product():
    names = names_for(6)
    bld = CircuitBuilder(F)
    xs = [bld.inp(nm) for nm in names]
    left = bld.mul(bld.mul(xs[0], xs[1]), bld.mul(xs[2], xs[3]))  # 2-skew already
    right = bld.mul(xs[4], xs[5])
    bld.set_outputs([bld.mul(left, right)])  # min side degree 2
    return bld.build(), names


def test_direct_skew_cap():
    # the direct route takes a circuit of any skewness
    c, names = two_skew_product()
    out = extract_coefficient(c, names, "direct")
    assert evaluate(out, {}) == (1,)


def test_tripartition_rejects_a_2skew_circuit():
    c, names = two_skew_product()
    with pytest.raises(NotSkew, match="2-skew"):
        extract_coefficient(c, names, "tri")


def test_direct_matches_expansion_oracle_on_3skew_circuits():
    rng = Rng(2718)
    names = names_for(6)
    skews = set()
    for _ in range(6):
        c = random_skew_circuit(F, rng, names, n_gates=20, q=3, full_monomial=True)
        skews.add(analyze_skew(c, formal_degrees(c, set(names))))
        want = expand_circuit(c, term_cap=500_000)[0].coefficient_of_full_monomial(names)
        assert want != 0
        assert evaluate(extract_coeff_direct(c, names), {}) == (want,)
    assert 3 in skews


def test_tripartition_product_blocks():
    # nine factors cycling three block sums: coefficient 6^3
    names = names_for(9)
    bld = CircuitBuilder(F)
    xs = [bld.inp(nm) for nm in names]
    acc = None
    for i in range(9):
        blk = (i % 3) * 3
        ssum = bld.add(xs[blk], xs[blk + 1], xs[blk + 2])
        acc = ssum if acc is None else bld.mul(acc, ssum)
    bld.set_outputs([acc])
    c = bld.build()
    direct = evaluate(extract_coefficient(c, names, "direct"), {})
    tri = evaluate(extract_coefficient(c, names, "tri"), {})
    assert direct == tri == (216,)


def test_tripartition_permanent_identity_n9():
    # permanent generating polynomial of the identity matrix: coefficient 1
    names = names_for(9)
    bld = CircuitBuilder(F)
    xs = [bld.inp(nm) for nm in names]
    acc = None
    for j in range(9):
        col = bld.add(*[bld.mul(xs[i], bld.const(F.one if i == j else F.zero))
                        for i in range(9)])
        acc = col if acc is None else bld.mul(acc, col)
    bld.set_outputs([acc])
    out = extract_coefficient(bld.build(), names, "tri")
    assert evaluate(out, {}) == (1,)


def test_cross_method_random_1skew():
    rng = Rng(1001)
    names = names_for(9)
    for trial in range(8):
        c = random_skew_circuit(F, rng, names, n_gates=30, full_monomial=True)
        d = evaluate(extract_coefficient(c, names, "direct"), {})
        t = evaluate(extract_coefficient(c, names, "tri"), {})
        assert d == t
        want = expand_circuit(c, term_cap=500_000)[0].coefficient_of_full_monomial(names)
        assert want != 0
        assert d == (want,)


def test_pad_degree():
    names = names_for(7)
    c = full_product_circuit(F, names)
    padded, new_names = pad_degree(c, names)
    assert len(new_names) == 9
    assert new_names[:7] == tuple(names)
    out = extract_coefficient(padded, new_names, "direct")
    assert evaluate(out, {}) == (1,)
    # n = 9 unchanged
    names9 = names_for(9)
    c9 = full_product_circuit(F, names9)
    same, same_names = pad_degree(c9, names9)
    assert same is c9 and same_names == tuple(names9)


@pytest.mark.parametrize("degree", [6, 5], ids=["full", "short"])
def test_both_routes_drop_an_input_that_no_gate_reads(degree):
    # the output reads a:c, and no gate reads a:dead: both routes drop
    # a:dead, the tri route after padding to nine variables, and both drop
    # a:c too when the full monomial cannot appear (degree 5)
    names = names_for(6)
    bld = CircuitBuilder(F)
    bld.inp("a:dead")
    out = bld.inp("a:c")
    for name in names[:degree]:
        out = bld.mul(out, bld.inp(name))
    bld.set_outputs([out])
    c = bld.build()
    direct = extract_coefficient(c, names, "direct")
    tri = extract_coefficient(c, names, "tri")
    assert direct.input_names() == tri.input_names() == (["a:c"] if degree == 6 else [])
    asg = {"a:dead": 3, "a:c": 5}
    assert evaluate(direct, asg) == evaluate(tri, asg) == (5 if degree == 6 else 0,)


@pytest.mark.parametrize("method", ["direct", "tri"])
def test_both_routes_refuse_a_circuit_with_two_outputs(method):
    # the tri route pads six variables to nine, and padding multiplies
    # one output: a second output (gate 0, the input x:{0}) must not be
    # dropped in silence
    names = names_for(6)
    c = full_product_circuit(F, names)
    c = circuit.Circuit(F, c.gates, c.outputs + (0,))
    with pytest.raises(SingleOutputRequired):
        extract_coefficient(c, names, method)


def test_extraction_rejects_an_unknown_method():
    names = names_for(3)
    with pytest.raises(ValueError, match="^unknown extraction method 'bogus'$"):
        extract_coefficient(full_product_circuit(F, names), names, "bogus")


def test_padded_extraction_agrees():
    rng = Rng(77)
    names = names_for(7)
    for _ in range(4):
        c = random_skew_circuit(F, rng, names, n_gates=20, full_monomial=True)
        d = evaluate(extract_coefficient(c, names, "direct"), {})
        t = evaluate(extract_coefficient(c, names, "tri"), {})  # pads to 9
        assert d == t
        assert d != (0,)


def test_tripartition_rejects_unpadded():
    names = names_for(7)
    c = full_product_circuit(F, names)
    with pytest.raises(ShapeError):
        extract_coeff_tripartition(c, names)


def test_padding_refuses_an_input_named_like_a_padding_variable():
    # x0...x5 * w with w named v:__pad0: padding would merge w with the
    # first padding variable, and the tri route would give 0
    f = prime_field(101)
    names = names_for(6)
    circ = full_product_circuit(f, names + ["v:__pad0"])
    assert evaluate(extract_coefficient(circ, names, "direct"), {"v:__pad0": 5}) == (5,)
    with pytest.raises(ShapeError, match="'v:__pad0'"):
        extract_coefficient(circ, names, "tri")


def test_table_size_reporting():
    names = names_for(9)
    c = full_product_circuit(F, names)
    direct = extract_coeff_direct(c, names)
    assert direct.meta["table_entries"] <= len(c.gates) * 2 ** 9
    tri = extract_coefficient(c, names, "tri")
    assert tri.meta["s"] >= 1 and tri.meta["t"] >= 1


def test_tripartition_reports_when_the_full_monomial_cannot_appear():
    # x0*x1 has degree 2, so no component reaches degree 9
    names = names_for(9)
    out = extract_coeff_tripartition(full_product_circuit(F, names[:2]), names)
    assert evaluate(out, {}) == (0,)
    assert out.meta == {"method": "tri", "s": 0, "t": 0, "table_entries": 0}


def test_tripartition_when_no_full_monomial_is_multilinear():
    # x0 * (x0 + x1)^8 reaches degree 9, but every degree-9 monomial
    # repeats x0: no h_j survives, and neither does any middle root
    names = names_for(9)
    bld = CircuitBuilder(F)
    x0, x1 = bld.inp(names[0]), bld.inp(names[1])
    acc = x0
    for _ in range(8):
        acc = bld.mul(acc, bld.add(x0, x1))
    bld.set_outputs([acc])
    out = extract_coeff_tripartition(bld.build(), names)
    assert evaluate(out, {}) == (0,) and out.size == 0


def layered_1skew_circuit(field, rng, names, width):
    """Degree-len(names) circuit with `width` gates per degree: each is a sum
    of two products of a gate one degree down and a random linear form of
    three variables, whose coefficients are constants or the carried input
    v:w.  Every degree has several gates, so both cuts have several
    components."""
    bld = CircuitBuilder(field)
    xs = [bld.inp(nm) for nm in names]
    w = bld.inp("v:w")

    def linear():
        terms = []
        for _ in range(3):
            coeff = w if rng.below(2) else bld.const(field.random(rng, nonzero=True))
            terms.append(bld.mul(coeff, rng.choice(xs)))
        return bld.add(*terms)

    level = [linear() for _ in range(width)]
    for _ in range(len(names) - 1):
        level = [bld.add(*[bld.mul(rng.choice(level), linear()) for _ in range(2)])
                 for _ in range(width)]
    bld.set_outputs([bld.add(*level)])
    return bld.build()


def test_tripartition_splits_several_cut_components():
    rng = Rng(4242)
    names = names_for(9)
    for width in (2, 3, 3):
        c = layered_1skew_circuit(F, rng, names, width)
        direct = extract_coefficient(c, names, "direct")
        tri = extract_coefficient(c, names, "tri")
        assert tri.meta["s"] >= 2 and tri.meta["t"] >= 2, tri.meta
        values = set()
        for _ in range(3):
            asg = {"v:w": F.random(rng)}
            got = evaluate(tri, asg)
            assert got == evaluate(direct, asg)
            values.add(got)
        assert len(values) > 1  # the coefficient depends on v:w


def test_tripartition_runs_each_layer_once(monkeypatch):
    calls = []

    def counted(bld, layer, tables, roots=None):
        if isinstance(bld, CircuitBuilder):
            calls.append((max(k for (_, k), _ in layer), roots and len(roots)))
        return _run_layer(bld, layer, tables, roots)

    monkeypatch.setattr(coeffx, "_run_layer", counted)
    circ, xvars = pad_degree(*hafnian_clow_circuit(12, F))
    for transposed in (False, True):
        calls.clear()
        force_middle(monkeypatch, transposed)
        out = extract_coeff_tripartition(circ, xvars)
        # one pass per cut component would make 1 + 309 + 71 calls: the
        # bottom runs forward, the top transposed from the output alone,
        # and the middle forward from all 309 cut1 components or
        # transposed from the cut2 components with a non-empty h_j
        assert (out.meta["s"], out.meta["t"]) == (309, 71)
        (bottom, top, middle) = calls
        assert (bottom, top) == ((3, None), (9, 1))
        assert middle[0] == 6 and (middle[1] is None) != transposed
        assert not transposed or 1 <= middle[1] <= 71


def test_each_extraction_builds_the_component_graph_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _reach(*args)

    monkeypatch.setattr(coeffx, "_reach", counted)
    circ, xvars = pad_degree(*hafnian_clow_circuit(12, F))
    extract_coeff_direct(circ, xvars)
    for transposed in (False, True):
        force_middle(monkeypatch, transposed)
        extract_coeff_tripartition(circ, xvars)
    assert calls == [(circ.outputs[0], 9)] * 3


def test_each_extraction_computes_the_formal_degrees_once(monkeypatch):
    # the tri route's 1-skew check and its component graph read the same
    # degrees, computed once; a 2-skew circuit is refused after that one pass
    calls = []

    def counted(*args):
        calls.append(args[0])
        return formal_degrees(*args)

    monkeypatch.setattr(circuit, "formal_degrees", counted)
    monkeypatch.setattr(coeffx, "formal_degrees", counted)
    circ, xvars = permanent_skew_circuit(6, F)
    extract_coeff_direct(circ, xvars)
    extract_coeff_tripartition(circ, xvars)
    assert calls == [circ, circ]
    calls.clear()
    two_skew, names = two_skew_product()
    with pytest.raises(NotSkew, match=r"^tripartition extraction needs a 1-skew circuit, "
                                      r"got 2-skew$"):
        extract_coeff_tripartition(two_skew, names)
    assert calls == [two_skew]


def _kpath_tri_runner_application():
    # the circuit and sieve variables that the kpath-tri benchmark's runner
    # extracts from
    seen = []

    def capture(circ, variables, *args, **kwargs):
        seen.append((circ, variables))
        return extract_coefficient(circ, variables, *args, **kwargs)

    with mock.patch.object(sieving, "extract_coefficient", capture):
        _kpath_tri_benchmark_runner()
    return seen[0]


@pytest.mark.parametrize("build", [
    lambda: permanent_skew_circuit(9, F),
    lambda: hafnian_clow_circuit(12, F),
    lambda: setpart_circuit(SetFamily(6, ((), (1,), (2, 3), (1, 4, 5), (2, 3, 5, 6),
                                          (3,), ())), F),
    _kpath_tri_runner_application,
], ids=["perm9", "hafnian12", "setpart", "kpath-tri"])
@pytest.mark.parametrize("method", ["direct", "tri"])
def test_extraction_returns_only_live_gates(method, build):
    out = extract_coefficient(*build(), method)
    assert len(out.gates) == len(dead_gate_elimination(out).gates)


def test_hafnian_tri_sizes_are_pinned():
    # the report counts the arcs each stage emitted, the size the live ones
    circ = build_hafnian_circuit(12, "tri")
    assert (len(circ.gates), circ.size) == (1736, 4006)
    assert circ.meta == {"method": "tri", "s": 309, "t": 71, "table_entries": 1638,
                         "report": {"bottom": {"arcs": 3862},
                                    "middle": {"arcs": 3450, "fill": "transposed"},
                                    "top": {"arcs": 0},
                                    "join": {"arcs": 300}}}


def test_hafnian_tri_at_2n14_keeps_the_forward_middle():
    # 490 cut1 against 494 cut2 components: the count finds the forward
    # fill smaller.  The report's stages add up to the arcs emitted, of
    # which the circuit keeps the live ones
    circ = build_hafnian_circuit(14, "tri")
    report = circ.meta["report"]
    assert report["middle"]["fill"] == "forward"
    assert sum(stage["arcs"] for stage in report.values()) == 52441
    assert circ.size == 35814


def middle_counts(monkeypatch, circ, variables):
    """Per middle layer of the tri extraction of circ: (live roots,
    _ArcCount's transposed count, the requested-arc tally of the copy
    that _fill_middle fills, the direction picked)."""
    seen = []
    fill = coeffx._fill_middle
    copy = CircuitBuilder.copy

    def spy(bld, layer, low, cut1, live, n):
        count = _ArcCount(bld)
        _run_layer(count, layer, dict(low), {c: {0: [(1 << j,) * 3]} for j, c in enumerate(live)})
        copies = []
        monkeypatch.setattr(CircuitBuilder, "copy",
                            lambda self: copies.append(copy(self)) or copies[-1])
        before = bld.requested_arcs
        filled = fill(bld, layer, low, cut1, live, n)
        (twin,) = copies
        seen.append((len(live), count.arcs, twin.requested_arcs - before, filled[2]))
        return filled

    monkeypatch.setattr(coeffx, "_fill_middle", spy)
    extract_coefficient(circ, variables, "tri")
    return seen


@pytest.mark.parametrize("build, counts", [
    (_kpath_tri_runner_application, (1, 3234, 3234, True)),
    (lambda: hafnian_clow_circuit(12, F), (1, 3450, 3450, True)),
    (lambda: permanent_skew_circuit(9, F), (1, 972, 972, False)),
], ids=["kpath-tri", "hafnian12", "perm9"])
def test_one_live_root_tally_is_the_transposed_count(monkeypatch, build, counts):
    # with one live cut2 component, the fill into a copy prices the
    # transposed middle at what _ArcCount would count
    assert middle_counts(monkeypatch, *build()) == [counts]


def test_one_live_root_runs_no_transposed_count_and_many_make_no_copy(monkeypatch):
    # kpath-tri, one live root: the middle is filled once, into a copy,
    # and _ArcCount counts the forward fill alone; hafnian 2n = 14, 48
    # live roots: _ArcCount counts both directions and no copy is made
    passes, copies = [], []
    copy = CircuitBuilder.copy

    def counted(bld, layer, tables, roots=None):
        passes.append((type(bld), roots is not None))
        return _run_layer(bld, layer, tables, roots)

    application = _kpath_tri_runner_application()
    monkeypatch.setattr(coeffx, "_run_layer", counted)
    monkeypatch.setattr(CircuitBuilder, "copy",
                        lambda self: copies.append(copy(self)) or copies[-1])
    out = extract_coefficient(*application, "tri")
    assert out.meta["report"]["middle"] == {"arcs": 3234, "fill": "transposed"}
    assert len(copies) == 1
    assert passes == [(CircuitBuilder, False), (CircuitBuilder, True), (CircuitBuilder, True),
                      (_ArcCount, False)]
    passes.clear()
    copies.clear()
    out = build_hafnian_circuit(14, "tri")
    assert out.meta["report"]["middle"]["fill"] == "forward"
    assert copies == []
    assert passes == [(CircuitBuilder, False), (CircuitBuilder, True), (_ArcCount, True),
                      (_ArcCount, False), (CircuitBuilder, False)]


def random_symmetric_assignment(field, two_n, rng):
    rows = [[field.zero] * two_n for _ in range(two_n)]
    for i in range(two_n):
        for j in range(i + 1, two_n):
            rows[i][j] = rows[j][i] = field.random(rng)
    return matrix_assignment(SquareMatrix(field, tuple(map(tuple, rows)), symmetric=True))


@pytest.mark.parametrize("transposed", [False, True], ids=["forward", "transposed"])
def test_either_middle_direction_equals_the_direct_route(transposed, monkeypatch):
    force_middle(monkeypatch, transposed)
    fill = "transposed" if transposed else "forward"
    rng = Rng(1001)
    names = names_for(9)
    for _ in range(6):
        c = random_skew_circuit(F, rng, names, n_gates=30, full_monomial=True)
        tri = extract_coefficient(c, names, "tri")
        assert tri.meta["report"]["middle"]["fill"] == fill
        assert evaluate(tri, {}) == evaluate(extract_coefficient(c, names, "direct"), {})
    for width in (2, 3):
        c = layered_1skew_circuit(F, rng, names, width)
        tri, direct = (extract_coefficient(c, names, m) for m in ("tri", "direct"))
        for _ in range(2):
            asg = {"v:w": F.random(rng)}
            assert evaluate(tri, asg) == evaluate(direct, asg)
    tri = build_hafnian_circuit(12, "tri")
    assert tri.meta["report"]["middle"]["fill"] == fill
    direct = build_hafnian_circuit(12, "direct")
    for _ in range(2):
        asg = random_symmetric_assignment(F, 12, rng)
        assert evaluate(tri, asg) == evaluate(direct, asg)


def test_transposed_fill_drops_products_that_meet_every_mask_below(monkeypatch):
    # x0x1x2 * x3 * (w*x3 + w3*x4) * (w2*x5) * x6x7x8: walking down from
    # x5, the x3 term of the linear form meets x3 in every mask below it,
    # so its product with w2 reaches no output; only w3 * w2 is kept
    names = names_for(9)
    bld = CircuitBuilder(F)
    x = [bld.inp(nm) for nm in names]
    w, w2, w3 = bld.inp("v:w"), bld.inp("v:w2"), bld.inp("v:w3")
    acc = bld.mul(bld.mul(bld.mul(x[0], x[1]), x[2]), x[3])
    acc = bld.mul(acc, bld.add(bld.mul(w, x[3]), bld.mul(w3, x[4])))
    acc = bld.mul(acc, bld.mul(w2, x[5]))
    for v in x[6:]:
        acc = bld.mul(acc, v)
    bld.set_outputs([acc])
    force_middle(monkeypatch, True)
    tri = extract_coeff_tripartition(bld.build(), names)
    assert tri.size == dead_gate_elimination(tri).size == 2
    assert evaluate(tri, {"v:w": 5, "v:w2": 7, "v:w3": 11}) == (77,)


def test_transposed_fill_is_the_forward_fill_transposed():
    # with nothing pruned, g_ij filled down from cut2 component j equals
    # g_ij filled up from cut1 component i, entry by entry
    rng = Rng(99)
    names = names_for(9)
    circ = layered_1skew_circuit(F, rng, names, 3)
    graph = _reach(circ.gates, formal_degrees(circ, set(names)), (circ.outputs[0], 9))
    bld = CircuitBuilder(F)
    bottom = _seed_tables(circ, {name: i for i, name in enumerate(names)}, bld)
    _run_layer(bld, _layer(graph, -1, 3), bottom)
    low = {c: t for c, t in bottom.items() if c[1] <= 1}
    cut1 = [c for c, _ in graph if c[1] == 3]
    cut2 = [c for c, _ in graph if c[1] == 6]
    layer = _layer(graph, 3, 6)
    up = _fill_forward(bld, layer, low, cut1, 9)
    down = _fill_transposed(bld, layer, low, {c: j << 9 for j, c in enumerate(cut2)})
    full = (1 << 9) - 1
    forward = {(key >> 9, j, key & full): gate
               for j, c in enumerate(cut2) for key, gate in up.get(c, {}).items()}
    transposed = {(i, key >> 9, key & full): gate
                  for i, c in enumerate(cut1) for key, gate in down.get(c, {}).items()}
    assert forward.keys() == transposed.keys()
    assert len({i for i, _, _ in forward}) >= 2 and len({j for _, j, _ in forward}) >= 2
    bld.set_outputs([forward[key] for key in forward] + [transposed[key] for key in forward])
    values = evaluate(bld.build(), {"v:w": F.random(rng)})
    assert values[:len(forward)] == values[len(forward):]


def _two_degree_product():
    # (x0 * x1) * (x2 * x3): the outer mul's low side has degree 2
    names = names_for(4)
    bld = CircuitBuilder(F)
    xs = [bld.inp(nm) for nm in names]
    bld.set_outputs([bld.mul(bld.mul(xs[0], xs[1]), bld.mul(xs[2], xs[3]))])
    circ = bld.build()
    return circ, names, _reach(circ.gates, formal_degrees(circ, set(names)),
                               (circ.outputs[0], 4))


def test_bottom_layer_multiplies_components_of_any_degree():
    # the bottom layer (and the direct route) has no cut to keep linear
    circ, names, graph = _two_degree_product()
    bld = CircuitBuilder(F)
    tables = _seed_tables(circ, {name: i for i, name in enumerate(names)}, bld)
    _run_layer(bld, _layer(graph, -1, 4), tables)
    assert tables[(circ.outputs[0], 4)] == {0b1111: bld.one}


def _mv_det_application():
    f = gf2(8)
    xvars = names_for(3)
    entries = [[(f.one if p == q else f.zero,
                 tuple((xvars[i], 1 + p + q + i) for i in range(3)))
                for q in range(4)] for p in range(4)]
    return mv_det_circuit(entries, f), xvars


def _kpath_application():
    arcs = tuple((u, v) for u in range(1, 5) for v in range(1, 5) if u != v)
    circ, _ = _kpath_labeled_circuit(DirectedGraph(4, arcs), 3, gf2(8))
    return circ, [f"x:{{{v}}}" for v in range(1, 5)]


@pytest.mark.parametrize("build", [
    lambda: permanent_skew_circuit(4, F),
    lambda: hafnian_clow_circuit(8, F),
    lambda: setpart_circuit(SetFamily(6, ((), (1,), (2, 3), (1, 4, 5), (2, 3, 5, 6),
                                          (3,), ())), F),
    _kpath_application,
    _mv_det_application,
], ids=["permanent", "hafnian", "setpart", "kpath", "mv_det"])
def test_every_application_circuit_is_1skew(build):
    # the tri route takes 1-skew circuits only
    circ, xvars = build()
    assert analyze_skew(circ, formal_degrees(circ, set(xvars))) == 1
