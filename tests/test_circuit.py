import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import planned_products, random_skew_circuit
from kronscale.circuit import (
    OP_ADD,
    OP_CONST,
    OP_IN,
    OP_MUL,
    Circuit,
    CircuitBuilder,
    analyze_skew,
    dead_gate_elimination,
    evaluate,
    formal_degrees,
    mask_bits,
    parse,
    replay,
    serialize,
    subset_name,
)
from kronscale.errors import InputOutOfRange, ParseError, UnassignedInput
from kronscale.fields import GF2Field, Rng, gf2, prime_field

from _symbolic import expand_circuit

ZP = prime_field(2**31 - 1)


def naive_eval(circ, assignment):
    """Independent recursive evaluator (memoized descent from outputs)."""
    memo = {}

    def go(gid):
        if gid in memo:
            return memo[gid]
        op, payload = circ.gates[gid]
        if op == OP_IN:
            v = assignment[payload]
        elif op == OP_CONST:
            v = payload
        elif op == OP_ADD:
            v = circ.field.zero
            for a in payload:
                v = circ.field.add(v, go(a))
        else:
            v = circ.field.one
            for a in payload:
                v = circ.field.mul(v, go(a))
        memo[gid] = v
        return v

    return tuple(go(o) for o in circ.outputs)


def scalar_eval(circ, assignment):
    """Reference evaluator: one field operation at a time, in gate order."""
    fadd, fmul = circ.field.add, circ.field.mul
    vals = [None] * len(circ.gates)
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_ADD:
            acc = vals[payload[0]]
            for a in payload[1:]:
                acc = fadd(acc, vals[a])
            vals[gid] = acc
        elif op == OP_MUL:
            vals[gid] = fmul(vals[payload[0]], vals[payload[1]])
        elif op == OP_IN:
            vals[gid] = assignment[payload]
        else:
            vals[gid] = payload
    return tuple(vals[o] for o in circ.outputs)


def test_names():
    assert subset_name("x", [1, 5]) == "x:{1,5}"
    assert subset_name("x", 0b100010) == "x:{1,5}"
    assert mask_bits(0b1010) == [1, 3]


def test_single_mul():
    bld = CircuitBuilder(prime_field(7))
    x, y = bld.inp("v:x"), bld.inp("v:y")
    bld.set_outputs([bld.mul(x, y)])
    c = bld.build()
    assert evaluate(c, {"v:x": 2, "v:y": 3}) == (6,)


BUILDER_CALLS = st.lists(
    st.tuples(st.sampled_from(["inp", "const", "add", "mul", "scale"]),
              st.lists(st.integers(0, 1000), min_size=1, max_size=4)),
    max_size=60)


@settings(max_examples=300, deadline=None, database=None)
@given(BUILDER_CALLS)
def test_arc_counter_matches_circuit_size(calls):
    # a small field and few distinct consts make the folding paths common:
    # zero and one absorption, const*const, and scale through a const mul
    f = prime_field(5)
    bld = CircuitBuilder(f)
    got = [bld.inp("v:0")]
    values = {"v:0": 2, "v:1": 3, "v:2": 4}
    for kind, picks in calls:
        gids = [got[p % len(got)] for p in picks]
        if kind == "inp":
            got.append(bld.inp(f"v:{picks[0] % 3}"))
        elif kind == "const":
            got.append(bld.const(picks[0] % 5))
        elif kind == "add":
            got.append(bld.add(*gids))
        elif kind == "mul":
            got.append(bld.mul(gids[0], gids[-1]))
        else:
            coeff = picks[0] % 5
            got.append(bld.scale(coeff, gids[-1]))
            bld.set_outputs([gids[-1], got[-1]])
            value, scaled = evaluate(bld.build(), values)
            assert scaled == f.mul(coeff, value)
        assert bld.arcs == bld.build().size


def test_equal_gates_are_interned():
    bld = CircuitBuilder(ZP)
    x, y = bld.inp("v:x"), bld.inp("v:y")
    assert bld.inp("v:x") == x and bld.const(3) == bld.const(3) < 0
    assert (bld.const(ZP.zero), bld.const(ZP.one)) == (bld.zero, bld.one) == (-1, -2)
    for op in (bld.add, bld.mul):
        gid = op(x, y)
        gates, arcs = len(bld.gates), bld.arcs
        assert op(x, y) == gid
        assert (len(bld.gates), bld.arcs) == (gates, arcs)
        # arguments are not sorted: the swapped call is a gate of its own
        swapped = op(y, x)
        assert swapped == gates and bld.gates[swapped] == (bld.gates[gid][0], (y, x))
        assert bld.arcs == arcs + 2


class ReferenceBuilder(CircuitBuilder):
    """The folding rules of add, mul and scale with no fast path: every
    argument's value goes through is_const, and a constant that a pushed
    gate reads is pushed as a gate right before it."""

    def operand(self, gid):
        value = self.is_const(gid)
        return gid if value is None else self._push(OP_CONST, value)

    def add(self, *args):
        live = [a for a in args if self.is_const(a) != self.field.zero]
        if not live:
            return self.zero
        if len(live) == 1:
            return live[0]
        consts = [self.is_const(a) for a in live if self.is_const(a) is not None]
        if len(consts) == len(live):
            total = self.field.zero
            for c in consts:
                total = self.field.add(total, c)
            return self.const(total)
        return self._push(OP_ADD, tuple(self.operand(a) for a in live))

    def mul(self, a, b):
        ca, cb = self.is_const(a), self.is_const(b)
        if self.field.zero in (ca, cb):
            return self.zero
        if ca == self.field.one:
            return b
        if cb == self.field.one:
            return a
        if ca is not None and cb is not None:
            return self.const(self.field.mul(ca, cb))
        return self._push(OP_MUL, (self.operand(a), self.operand(b)))

    def scale(self, coeff, gid):
        if coeff == self.field.zero:
            return self.zero
        if coeff == self.field.one:
            return gid
        if self.is_const(gid) is not None:
            return self.const(self.field.mul(coeff, self.is_const(gid)))
        op, payload = self.gates[gid]
        if op == OP_MUL:
            x, y = payload
            if self.gates[x][0] == OP_CONST:
                return self.mul(self.const(self.field.mul(coeff, self.gates[x][1])), y)
        return self.mul(self.const(coeff), gid)


# few distinct constants, zero and one among them, keep folding common
FOLDING_FIELDS = {"p=5": (prime_field(5), (0, 1, 2, 3, 4)),
                  "gf2 w=8": (gf2(8), (0, 1, 2, 0x53, 0xCA))}


def apply_call(bld, kind, picks, got, consts):
    """One of BUILDER_CALLS on bld, its operands picked among the handles
    `got` that earlier calls returned; appends and returns its handle."""
    gids = [got[p % len(got)] for p in picks]
    if kind == "inp":
        got.append(bld.inp(f"v:{picks[0] % 3}"))
    elif kind == "const":
        got.append(bld.const(consts[picks[0] % len(consts)]))
    elif kind == "add":
        got.append(bld.add(*gids))
    elif kind == "mul":
        got.append(bld.mul(gids[0], gids[-1]))
    else:
        got.append(bld.scale(consts[picks[0] % len(consts)], gids[-1]))
    return got[-1]


@pytest.mark.parametrize("spec", sorted(FOLDING_FIELDS))
@settings(max_examples=200, deadline=None, database=None)
@given(calls=BUILDER_CALLS)
def test_builder_folds_like_the_reference(spec, calls):
    f, consts = FOLDING_FIELDS[spec]
    builders = (CircuitBuilder(f), ReferenceBuilder(f))
    handles = tuple([bld.inp("v:0")] for bld in builders)
    for kind, picks in calls:
        returned = [apply_call(bld, kind, picks, got, consts)
                    for bld, got in zip(builders, handles)]
        assert returned[0] == returned[1]
        assert builders[0].gates == builders[1].gates
        assert builders[0].arcs == builders[1].arcs
    for bld, got in zip(builders, handles):
        bld.set_outputs(got)
    assert builders[0].build() == builders[1].build()


@pytest.mark.parametrize("spec", sorted(FOLDING_FIELDS))
@settings(max_examples=200, deadline=None, database=None)
@given(calls=BUILDER_CALLS, picks=st.lists(st.integers(0, 1000), max_size=4))
def test_built_circuits_hold_no_handle_and_no_unread_constant(spec, calls, picks):
    f, consts = FOLDING_FIELDS[spec]
    bld = CircuitBuilder(f)
    got = [bld.inp("v:0")]
    for kind, args in calls:
        apply_call(bld, kind, args, got, consts)
    bld.set_outputs(got[p % len(got)] for p in picks)
    circ = bld.build()
    read = set(circ.outputs)
    for op, payload in circ.gates:
        if op in (OP_ADD, OP_MUL):
            read.update(payload)
    assert min(read, default=0) >= 0
    assert all(gid in read for gid, (op, _) in enumerate(circ.gates) if op == OP_CONST)


class AppendingBuilder(CircuitBuilder):
    """The builder with no intern table: every gate is appended, equal to
    an earlier one or not.  It keeps no arc count; read build().size."""

    def _push(self, op, payload):
        self.gates.append((op, payload))
        return len(self.gates) - 1


@pytest.mark.parametrize("spec", sorted(FOLDING_FIELDS))
@settings(max_examples=200, deadline=None, database=None)
@given(calls=BUILDER_CALLS, seed=st.integers(0, 2**32))
def test_interning_keeps_values_and_never_adds_arcs(spec, calls, seed):
    # the same calls, on gates picked by call position rather than by id,
    # through the interning builder and one that appends every gate
    f, consts = FOLDING_FIELDS[spec]
    builders = (CircuitBuilder(f), AppendingBuilder(f))
    handles = tuple([bld.inp("v:0")] for bld in builders)
    for kind, picks in calls:
        for bld, got in zip(builders, handles):
            apply_call(bld, kind, picks, got, consts)
    interned, appended = builders
    for bld, got in zip(builders, handles):
        bld.set_outputs(got)
    circ, plain = interned.build(), appended.build()
    assert interned.arcs == circ.size <= plain.size
    rng = Rng(seed)
    for _ in range(3):
        asg = {f"v:{i}": f.random(rng) for i in range(3)}
        assert evaluate(circ, asg) == evaluate(plain, asg)


def test_char2_x_plus_x():
    bld = CircuitBuilder(gf2(8))
    x = bld.inp("v:x")
    bld.set_outputs([bld.add(x, x)])
    c = bld.build()
    assert evaluate(c, {"v:x": 0x53}) == (0,)


def test_missing_input():
    bld = CircuitBuilder(ZP)
    bld.set_outputs([bld.inp("v:x")])
    with pytest.raises(UnassignedInput):
        evaluate(bld.build(), {})


def test_missing_input_that_no_output_reaches():
    bld = CircuitBuilder(ZP)
    x = bld.inp("v:x")
    bld.inp("v:unused")
    bld.set_outputs([bld.mul(x, x)])
    with pytest.raises(UnassignedInput, match="v:unused"):
        evaluate(bld.build(), {"v:x": 3})


def test_plan_skips_gates_that_no_output_reaches():
    bld = CircuitBuilder(ZP)
    x, y = bld.inp("v:x"), bld.inp("v:y")
    dead = bld.mul(bld.add(x, bld.const(5)), y)
    for _ in range(3):
        dead = bld.mul(dead, dead)
    bld.set_outputs([bld.add(x, y)])
    inputs, consts, levels, _ = bld.build().plan
    assert (inputs, consts, len(levels)) == (("v:x", "v:y"), (), 1)
    assert evaluate(bld.build(), {"v:x": 3, "v:y": 4}) == (7,)
    with pytest.raises(UnassignedInput, match="v:y"):
        evaluate(bld.build(), {"v:x": 3})


@pytest.mark.parametrize("value", [-1, 1 << 32, 1 << 64],
                         ids=["negative", "order", "beyond_64_bits"])
def test_input_value_outside_the_field(value):
    bld = CircuitBuilder(gf2(32))
    x, y = bld.inp("v:x"), bld.inp("v:y")
    bld.set_outputs([bld.mul(x, y)])
    with pytest.raises(InputOutOfRange, match="v:y"):
        evaluate(bld.build(), {"v:x": 3, "v:y": value})


@pytest.mark.parametrize("field", [ZP, gf2(32)], ids=lambda f: f.spec_string())
def test_random_circuits_match_expansion_oracle(field):
    rng = Rng(101)
    names = [f"v:x{i}" for i in range(5)]
    for trial in range(6):
        c = random_skew_circuit(field, rng, names, n_gates=50)
        poly = expand_circuit(c)[0]
        for _ in range(20):
            asg = {n: field.random(rng) for n in names}
            assert evaluate(c, asg)[0] == poly.evaluate(asg)


@pytest.mark.parametrize("field", [ZP, prime_field(2**61 - 1), gf2(8), gf2(16), gf2(32),
                                   gf2(64)], ids=lambda f: f.spec_string())
def test_evaluate_matches_naive_recursive(field):
    rng = Rng(55)
    names = [f"v:x{i}" for i in range(6)]
    for _ in range(10):
        c = random_skew_circuit(field, rng, names, n_gates=150)
        assert len(c.gates) <= 400
        # every gate an output, so the values are compared gate by gate
        c = Circuit(field, c.gates, tuple(range(len(c.gates))))
        asg = {n: field.random(rng) for n in names}
        want = scalar_eval(c, asg)
        assert naive_eval(c, asg) == want
        assert evaluate(c, asg) == want


def _layered_circuit(field, rng, shape, n_inputs, n_random_outputs):
    """Gates straight from a shape, with no folding: level i + 1 has
    shape[i] = (muls, add arities), and one argument of each gate comes
    from the level below, so the gate sits exactly on its level.  Inputs
    and constants are level 0, and an input that nothing reads comes
    last.  The outputs are `n_random_outputs` random gates, then the first
    input and both constants."""
    gates = [(OP_IN, f"v:x{i}") for i in range(n_inputs)]
    gates += [(OP_CONST, field.random(rng)), (OP_CONST, field.one)]
    below = list(range(len(gates)))
    for muls, arities in shape:
        earlier, level = len(gates), []
        for arity in [2] * muls + list(arities):
            args = [rng.choice(below)] + [rng.below(earlier) for _ in range(arity - 1)]
            rng.shuffle(args)
            level.append((OP_MUL if len(level) < muls else OP_ADD, tuple(args)))
        if level:
            gates += level
            below = list(range(earlier, len(gates)))
    outputs = tuple(rng.below(len(gates)) for _ in range(n_random_outputs))
    gates.append((OP_IN, "v:unread"))
    return Circuit(field, tuple(gates), outputs + (0, n_inputs, n_inputs + 1))


_LEVEL = st.tuples(st.integers(0, 3), st.lists(st.integers(1, 9), max_size=6))


@pytest.mark.parametrize("field", [prime_field(101), gf2(8), gf2(32)],
                         ids=lambda f: f.spec_string())
@settings(max_examples=40, deadline=None)
@example(shape=[(1, [2]), (1, [2]), (0, [2, 3, 4, 5, 6, 7, 8, 9])], seed=1)
@example(shape=[(0, [9, 2, 5, 2, 9, 1]), (1, [3]), (2, [])], seed=2)
@given(shape=st.lists(_LEVEL, min_size=1, max_size=5), seed=st.integers(0, 2**32))
def test_evaluate_matches_scalar_reference_level_by_level(field, shape, seed):
    # levels with one mul and one add, mixed add arities in one level, and
    # outputs that are inputs (gate 0) or constants (the two after the
    # inputs), against one field operation at a time
    rng = Rng(seed)
    circ = _layered_circuit(field, rng, shape, 3, 4)
    every = Circuit(field, circ.gates, tuple(range(len(circ.gates))))
    # the plan holds only what the outputs reach, so every gate's levels
    # show when every gate is an output
    assert len(every.plan[2]) == sum(1 for m, adds in shape if m or adds)
    assert len(circ.plan[2]) <= len(every.plan[2])
    names = circ.input_names()
    asg = {n: field.random(rng) for n in names}
    assert evaluate(every, asg) == scalar_eval(every, asg)
    assert evaluate(circ, asg) == scalar_eval(circ, asg)
    for name in names:
        with pytest.raises(UnassignedInput, match=name):
            evaluate(circ, {n: v for n, v in asg.items() if n != name})
        with pytest.raises(InputOutOfRange, match=name):
            evaluate(circ, dict(asg, **{name: field.order}))


_LAZY_FIELDS = [prime_field(2**61 - 1), prime_field(101)]

# gate 2 is read by adds only, one of them (gate 7) a single-argument add;
# gate 4 by an add and a mul; gates 4 -> 6 -> 8 are a mul chain, and gate 8
# is an output; gate 9 is read by one add only
_MIXED_READERS = """circuit v1
field {spec}
in 0 v:a
in 1 v:b
mul 2 0 1
add 3 2 0
mul 4 0 0
add 5 4 1
mul 6 4 1
add 7 2
mul 8 6 6
mul 9 3 5
add 10 9 7 5
out 10 8 7
"""


@pytest.mark.parametrize("field", _LAZY_FIELDS + [gf2(32)], ids=lambda f: f.spec_string())
def test_products_that_only_sums_read_are_left_unreduced(field):
    circ = parse(_MIXED_READERS.format(spec=field.spec_string()))
    lazy = 2 if field.mul_many_unreduced else 0
    assert planned_products(circ) == (5 - lazy, lazy)
    top = field.order - 1
    for a, b in [(top, top), (top, 1), (0, top), (2, 3)]:
        asg = {"v:a": a, "v:b": b}
        got = evaluate(circ, asg)
        assert got == scalar_eval(circ, asg)
        assert all(0 <= v < field.order for v in got)


_RAW_GATES = st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 2**16), min_size=1,
                                                          max_size=4)),
                      min_size=1, max_size=30)


@pytest.mark.parametrize("field", _LAZY_FIELDS, ids=lambda f: f.spec_string())
@settings(max_examples=150, deadline=None, database=None)
@given(raw=_RAW_GATES, picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
       values=st.lists(st.integers(-3, 2**62), min_size=3, max_size=3))
def test_evaluate_is_canonical_when_only_some_gates_are_outputs(field, raw, picks, values):
    # gates straight from the draw, with no folding: muls read by adds only,
    # by adds and muls, mul chains, single-argument adds; values near p - 1
    # come from the negative draws
    gates = [(OP_IN, f"v:x{i}") for i in range(3)] + [(OP_CONST, field.order - 1)]
    for is_mul, args in raw:
        args = [a % len(gates) for a in args]
        gates.append((OP_MUL, (args[0], args[-1])) if is_mul else (OP_ADD, tuple(args)))
    circ = Circuit(field, tuple(gates), tuple(p % len(gates) for p in picks))
    asg = {f"v:x{i}": v % field.order for i, v in enumerate(values)}
    got = evaluate(circ, asg)
    assert got == scalar_eval(circ, asg)
    assert all(0 <= v < field.order for v in got)
    # the unreduced products are the reached muls that no reached mul and
    # no output reads
    reached = reached_gates(circ)
    muls = [gid for gid in reached if gates[gid][0] == OP_MUL]
    read = set(circ.outputs).union(*(gates[gid][1] for gid in muls))
    assert planned_products(circ) == (len(read.intersection(muls)),
                                      len(set(muls) - read))


def test_formal_degrees_and_skew():
    bld = CircuitBuilder(ZP)
    x1, x2 = bld.inp("x:{1}"), bld.inp("x:{2}")
    s = bld.add(x1, x2)
    p = bld.mul(s, s)      # degree 2 times degree 2
    bld.set_outputs([p])
    c = bld.build()
    degs = formal_degrees(c)
    assert degs[s] == 1 and degs[p] == 2
    assert analyze_skew(c, degs) == 1

    bld = CircuitBuilder(ZP)
    xs = [bld.inp(f"x:{{{i}}}") for i in range(4)]
    s1, s2 = bld.add(xs[0], xs[1]), bld.add(xs[2], xs[3])
    m1, m2 = bld.mul(s1, s1), bld.mul(s2, s2)
    bld.set_outputs([bld.mul(m1, m2)])
    c = bld.build()
    assert analyze_skew(c, formal_degrees(c)) == 2


def test_skew_product_of_sums_is_one():
    # the 1-skew shape used by the permanent generating polynomial
    bld = CircuitBuilder(ZP)
    xs = [bld.inp(f"x:{{{i}}}") for i in range(4)]
    acc = bld.add(*xs)
    for _ in range(3):
        acc = bld.mul(acc, bld.add(*xs))
    bld.set_outputs([acc])
    c = bld.build()
    assert analyze_skew(c, formal_degrees(c)) == 1


def test_skew_wrt_variable_subset():
    bld = CircuitBuilder(ZP)
    x, r = bld.inp("x:{1}"), bld.inp("v:label")
    bld.set_outputs([bld.mul(bld.mul(r, x), bld.mul(r, x))])
    c = bld.build()
    assert analyze_skew(c, formal_degrees(c)) == 2
    assert analyze_skew(c, formal_degrees(c, {"x:{1}"})) == 1


def test_serialize_roundtrip_empty_outputs():
    bld = CircuitBuilder(ZP)
    bld.inp("x:{1}")
    bld.set_outputs([])
    c = bld.build()
    assert parse(serialize(c)) == c


def test_serialize_gf64_bit_exact():
    f = gf2(64)
    bld = CircuitBuilder(f)
    x = bld.inp("x:{1}")
    c0 = bld.const(0xDEADBEEFCAFEF00D)
    bld.set_outputs([bld.mul(x, c0)])
    c = bld.build()
    c2 = parse(serialize(c))
    assert c2 == c
    v = 0x0123456789ABCDEF
    assert evaluate(c2, {"x:{1}": v}) == evaluate(c, {"x:{1}": v})


def test_roundtrip_over_a_freshly_parsed_field():
    # parse builds its own field from the spec line; it equals the
    # circuit's, so the parsed circuit equals the original and evaluates
    # the same
    field = GF2Field(32)
    bld = CircuitBuilder(field)
    x, y = bld.inp("x:{1}"), bld.inp("x:{2}")
    bld.set_outputs([bld.add(bld.mul(x, y), bld.scale(0x8D, x)), bld.mul(x, x)])
    c = bld.build()
    c2 = parse(serialize(c))
    assert c2.field is not field
    assert c2 == c
    rng = Rng(9)
    for _ in range(5):
        asg = {"x:{1}": field.random(rng), "x:{2}": field.random(rng)}
        assert evaluate(c2, asg) == evaluate(c, asg)


def test_serialize_large_circuit_roundtrip():
    rng = Rng(123)
    names = [f"x:{{{i}}}" for i in range(8)]
    bld = CircuitBuilder(ZP)
    xs = [bld.inp(n) for n in names]
    pool = list(xs)
    while len(bld.gates) < 100_000:
        a = pool[rng.below(len(pool))]
        b = pool[rng.below(len(pool))]
        g = bld.add(a, b) if rng.below(2) else bld.mul(a, xs[rng.below(len(xs))])
        pool.append(g)
    bld.set_outputs([pool[-1]])
    c = bld.build()
    assert len(c.gates) >= 100_000
    c2 = parse(serialize(c))
    assert c2 == c
    asg = {n: ZP.random(rng) for n in names}
    assert evaluate(c2, asg) == evaluate(c, asg)


def test_parse_error_line_numbers():
    text = "circuit v1\nfield p=7\nin 0 x:{1}\nadd 1 0 5\nout 1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "line 4" in str(exc.value)


def test_parse_comments_and_mul_arity():
    text = "# hello\ncircuit v1\nfield p=7\nin 0 v:a\nmul 1 0 0 0\nout 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_dead_gate_elimination():
    bld = CircuitBuilder(ZP)
    x = bld.inp("x:{1}")
    bld.mul(x, x)  # dead
    keep = bld.add(x, bld.const(3))
    bld.set_outputs([keep])
    c = bld.build()
    c.meta["method"] = "test"
    c2 = dead_gate_elimination(c)
    assert c2 is not c
    assert len(c2.gates) < len(c.gates)
    assert c2.meta == c.meta and c2.meta is not c.meta
    assert evaluate(c2, {"x:{1}": 9}) == evaluate(c, {"x:{1}": 9})


def test_dead_gate_elimination_returns_an_all_live_circuit_itself():
    # no copy when every gate is reached; an input that no output reads is
    # a dead gate, so that circuit is still copied
    bld = CircuitBuilder(ZP)
    x, y = bld.inp("x:{1}"), bld.inp("x:{2}")
    bld.set_outputs([bld.mul(bld.add(x, bld.const(3)), y)])
    c = bld.build()
    assert dead_gate_elimination(c) is c
    bld.inp("x:{3}")
    with_unread = bld.build()
    got = dead_gate_elimination(with_unread)
    assert got is not with_unread
    assert got.gates == c.gates and got.outputs == c.outputs


def replay_dge(circ):
    """Dead-gate elimination by replay: the reached gates copied through a
    fresh builder, which folds and interns them again."""
    bld = CircuitBuilder(circ.field)
    new = replay(circ, bld)
    bld.set_outputs(new[o] for o in circ.outputs)
    return bld.build()


def without_const_positions(circ):
    """The circuit's add, mul and input gates in order, and its outputs,
    with every id of a constant gate replaced by the constant's value."""
    ids, gates = {}, []
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_CONST:
            ids[gid] = ("const", payload)
            continue
        if op in (OP_ADD, OP_MUL):
            payload = tuple(ids[a] for a in payload)
        ids[gid] = len(gates)
        gates.append((op, payload))
    return gates, [ids[o] for o in circ.outputs]


def reached_gates(circ):
    """The gate ids that the outputs reach, by a walk down from them."""
    stack, seen = list(circ.outputs), set()
    while stack:
        gid = stack.pop()
        if gid not in seen:
            seen.add(gid)
            op, payload = circ.gates[gid]
            if op in (OP_ADD, OP_MUL):
                stack.extend(payload)
    return sorted(seen)


@settings(max_examples=200, deadline=None, database=None)
@given(calls=BUILDER_CALLS, picks=st.lists(st.integers(0, 1000), min_size=1, max_size=4),
       seed=st.integers(0, 2**32))
def test_dead_gate_elimination_keeps_the_reached_gates_in_order(calls, picks, seed):
    f, consts = FOLDING_FIELDS["p=5"]
    bld = CircuitBuilder(f)
    got = [bld.inp("v:0")]
    for kind, args in calls:
        apply_call(bld, kind, args, got, consts)
    # the first output comes twice
    outputs = [got[p % len(got)] for p in picks]
    bld.set_outputs(outputs + outputs[:1])
    circ = bld.build()
    circ.meta.update(method="test", s=1)
    got = dead_gate_elimination(circ)
    kept = reached_gates(circ)
    new = {gid: i for i, gid in enumerate(kept)}
    want = Circuit(f, tuple(
        (op, tuple(new[a] for a in payload)) if op in (OP_ADD, OP_MUL) else (op, payload)
        for op, payload in (circ.gates[gid] for gid in kept)),
        tuple(new[o] for o in circ.outputs))
    assert (got.gates, got.outputs) == (want.gates, want.outputs)
    # True == 1, so only the text tells a bool id from an int one
    assert serialize(got) == serialize(want)
    assert got.meta == circ.meta
    # a builder's circuit has nothing left to fold or intern, so the
    # replay gives the same circuit up to where its constants sit: the
    # replay puts each right before its first live reader
    ref = replay_dge(circ)
    assert without_const_positions(got) == without_const_positions(ref)
    rng = Rng(seed)
    asg = {f"v:{i}": f.random(rng) for i in range(3)}
    assert evaluate(got, asg) == evaluate(circ, asg)


def test_dead_gate_elimination_keeps_equal_gates_apart():
    # marking renumbers the gates as they are, so two equal live gates of
    # a parsed circuit stay two; the replay interns them into one
    circ = parse("circuit v1\nfield p=7\nin 0 x:{1}\nin 1 x:{2}\nadd 2 0 0\n"
                 "add 3 0 0\nmul 4 2 3\nout 4\n")
    got = dead_gate_elimination(circ)
    assert got.gates == ((OP_IN, "x:{1}"), (OP_ADD, (0, 0)), (OP_ADD, (0, 0)),
                         (OP_MUL, (1, 2)))
    assert got.outputs == (3,)
    assert serialize(got) == ("circuit v1\nfield p=7\nin 0 x:{1}\nadd 1 0 0\nadd 2 0 0\n"
                              "mul 3 1 2\nout 3\n")
    assert len(replay_dge(circ).gates) == 3
    assert evaluate(got, {"x:{1}": 3}) == evaluate(circ, {"x:{1}": 3, "x:{2}": 0}) == (1,)
