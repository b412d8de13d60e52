"""Arithmetic-circuit IR: evaluation, degree analysis, copying, and the
line-oriented text format.

Gates live in topological order; ids are list positions.  Add gates take
arbitrary fan-in and Mul gates are binary: the builder and the parser
only make binary ones.  Size is the arc count: the sum of gate fan-ins.

`evaluate` runs level by level from the circuit's plan, one field kernel
call per level.  A mul gate that one add gate reads, once, and that no
other gate and no output reads is fused into that add: it gets
no value and no level of its own, and the add forms its product with
its other fused products, sums them with its plain arguments and
reduces the sum once.  Every other mul gate is a sum of one product.
Inputs and constants are level 0, and a gate sits one level above its
deepest plain argument or product operand.  So every value held, and
every output, is canonical.  The plan holds one `operator.itemgetter`
per operand list, so each level gathers its operands in one C-level
call, and one kernel per level from `Field.dot_kernel`, which binds all
the field work that depends on the level's shape alone, so each
evaluation pays only for its operands.  The plan is built on the first
evaluation and held by the `Circuit` itself, so it and its kernels live
and die with the circuit and their cost stays out of every build.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, reduce
from itertools import accumulate, compress
from operator import itemgetter

from .errors import InputOutOfRange, ParseError, UnassignedInput, int_fields, parse_header
from .fields import Field, parse_field_spec

OP_IN = 0
OP_CONST = 1
OP_ADD = 2
OP_MUL = 3

_OP_NAMES = {OP_IN: "in", OP_CONST: "const", OP_ADD: "add", OP_MUL: "mul"}


def subset_name(prefix: str, elems) -> str:
    """Structured input name, e.g. subset_name('x', [1,5]) == 'x:{1,5}'."""
    if isinstance(elems, int):
        elems = mask_bits(elems)
    body = ",".join(str(e) for e in elems)
    return f"{prefix}:{{{body}}}"


def mask_bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


@dataclass(frozen=True)
class Circuit:
    field: Field
    gates: tuple
    outputs: tuple
    meta: dict = dataclass_field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        """Arc count."""
        return sum(len(payload) for op, payload in self.gates if op in (OP_ADD, OP_MUL))

    def input_names(self) -> list[str]:
        return [payload for op, payload in self.gates if op == OP_IN]

    @cached_property
    def readers(self) -> tuple:
        """Per gate, its reads by the gates and outputs that reach it
        (`_readers`), counted on first use: evaluation's plan,
        dead-gate elimination and `replay` all read these counts."""
        return _readers(self.gates, self.outputs)

    @cached_property
    def plan(self) -> tuple:
        """The level-by-level evaluation order (`_level_plan`), built on
        first use."""
        return _level_plan(self)

    def stats(self) -> dict:
        counts = {"in": 0, "const": 0, "add": 0, "mul": 0}
        for op, _ in self.gates:
            counts[_OP_NAMES[op]] += 1
        counts["gates"] = len(self.gates)
        counts["arcs"] = self.size
        counts["outputs"] = len(self.outputs)
        return counts


class CircuitBuilder:
    """Incremental circuit constructor with constant folding and interning.

    Folding is local and value-level only (0/1 absorption, const*const,
    single-argument sums alias their argument); no algebraic rewriting,
    and no dead-gate removal: that stays an explicit pass.

    A constant is a negative handle h, interned by value (_values[~h]):
    `zero` is -1, `one` is -2.  It becomes a gate right before the first
    pushed add or mul, or output at `build`, that reads it, so a constant
    that folds away or is never read emits nothing.

    Every gate, a constant's too, goes through `_push`, which interns it:
    a gate equal to one pushed before, as the tuple (op, payload), returns
    the earlier id and adds no arcs.  Arguments are not sorted, so
    mul(x, y) and mul(y, x) are two gates, and a circuit with no equal
    gates is built exactly as its calls emit it.

    Two arc counters: `arcs` counts the arcs of the gates pushed, and
    `requested_arcs` those of every add and mul push, an interned one
    too, which is what a builder that folds alike but interns nothing
    would count.  `copy()` gives a builder that starts where this one is,
    with its own gate list, intern table, constant handles and counters:
    pushes into one are not seen by the other, and the gate ids and
    handles that both hold stand for the same gates and values.
    """

    zero, one = -1, -2

    def __init__(self, field: Field):
        self.field = field
        self.gates: list = []
        self._ids: dict[tuple, int] = {}
        self._arcs = 0
        self._hit_arcs = 0
        self.outputs: list[int] = []
        self._values = [field.zero, field.one]
        self._handles = {field.zero: -1, field.one: -2}

    def copy(self) -> CircuitBuilder:
        """A builder holding what this one holds, to push into apart."""
        twin = CircuitBuilder(self.field)
        twin.gates = self.gates.copy()
        twin._ids = self._ids.copy()
        twin._arcs = self._arcs
        twin._hit_arcs = self._hit_arcs
        twin.outputs = self.outputs.copy()
        twin._values = self._values.copy()
        twin._handles = self._handles.copy()
        return twin

    def _push(self, op, payload) -> int:
        """The id of the gate (op, payload), appended unless already there."""
        gate = (op, payload)
        gates = self.gates
        new = len(gates)
        gid = self._ids.setdefault(gate, new)
        if gid == new:
            gates.append(gate)
            if op in (OP_ADD, OP_MUL):
                self._arcs += len(payload)
        elif op in (OP_ADD, OP_MUL):
            self._hit_arcs += len(payload)
        return gid

    def _gate(self, gid: int) -> int:
        """The gate id of gid, a constant's handle pushed as its gate."""
        return gid if gid >= 0 else self._push(OP_CONST, self._values[~gid])

    def inp(self, name: str) -> int:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"bad input name {name!r}")
        return self._push(OP_IN, name)

    def const(self, value: int) -> int:
        h = self._handles.setdefault(value, ~len(self._values))
        if ~h == len(self._values):
            self._values.append(value)
        return h

    def is_const(self, gid: int):
        return self._values[~gid] if gid < 0 else None

    def is_zero(self, gid: int) -> bool:
        return gid == -1

    def add(self, *args: int) -> int:
        if len(args) == 1:
            # a sum of one is its argument; a zero one is the zero handle
            return args[0]
        if args:
            for a in args:
                if a < 0:
                    break
            else:
                # no constant argument: nothing folds
                return self._push(OP_ADD, args)
        live = [a for a in args if a != -1]
        if not live:
            return -1
        if len(live) == 1:
            return live[0]
        consts = [self._values[~a] for a in live if a < 0]
        if len(consts) == len(live):
            return self.const(reduce(self.field.add, consts))
        return self._push(OP_ADD, tuple(map(self._gate, live)))

    def mul(self, a: int, b: int) -> int:
        if a >= 0 and b >= 0:
            # no constant argument: nothing folds
            return self._push(OP_MUL, (a, b))
        if a == -1 or b == -1:
            return -1
        if a == -2:
            return b
        if b == -2:
            return a
        if a < 0 and b < 0:
            return self.const(self.field.mul(self._values[~a], self._values[~b]))
        return self._push(OP_MUL, (self._gate(a), self._gate(b)))

    def scale(self, coeff: int, gid: int) -> int:
        """coeff * gate, with const*const chains folded."""
        if coeff == self.field.zero:
            return -1
        if coeff == self.field.one:
            return gid
        if gid < 0:
            return self.const(self.field.mul(coeff, self._values[~gid]))
        op, payload = self.gates[gid]
        if op == OP_MUL:
            x, y = payload
            opx, cx = self.gates[x]
            if opx == OP_CONST:
                return self.mul(self.const(self.field.mul(coeff, cx)), y)
        return self.mul(self.const(coeff), gid)

    def set_outputs(self, outputs) -> None:
        self.outputs = list(outputs)

    @property
    def arcs(self) -> int:
        """Arc count of the gates pushed so far, kept as they are pushed."""
        return self._arcs

    @property
    def requested_arcs(self) -> int:
        """Arc count of every add and mul pushed so far, interned or not."""
        return self._arcs + self._hit_arcs

    def build(self) -> Circuit:
        outputs = tuple(map(self._gate, self.outputs))
        return Circuit(self.field, tuple(self.gates), outputs)


def _getter(slots):
    """A function from the value list to the tuple of its entries at `slots`."""
    if len(slots) == 1:
        (i,) = slots
        return lambda vals: (vals[i],)
    return itemgetter(*slots) if slots else lambda vals: ()


def _level_plan(circ: Circuit) -> tuple:
    """(inputs, consts, levels, outputs): gates grouped by depth into
    fused sums of products, with every value in one list of slots.

    A mul gate that exactly one add gate reads, once, and no mul gate and
    no output reads is fused: the add forms its product.  The circuit's
    `readers` count the reads, and one forward pass finds the
    depths and splits each add's arguments into its fused products and
    its plain arguments.  A fused mul takes the depth of its deeper
    operand, and every other gate sits one above its deepest argument, so
    an add sits one above its plains and its products' operands.  Each
    level's gates are grouped by shape (k products, j plains); a mul gate
    that is not fused is the (1, 0) sum of its own product.

    The slots hold the inputs in gate order, then the constants, then per
    level its gates, group by group.  `inputs` and `consts` are the input
    names and constant values, `outputs` the output slots.  A level is
    (xs, ys, plains, kernel, groups): the first three map the value list
    to the operand tuple they gather, `groups` holds a triple (k, j, n)
    per group of n gates, and `kernel` is `field.dot_kernel(groups)`,
    prepared here once, which maps the three operand tuples to the
    level's values.  A group's n * k products, xs(vals)[i] times
    ys(vals)[i], and its n * j plains follow those of the groups before it
    column by column: column c holds argument c of each of its gates.
    Only the gates that the outputs reach are planned, but every input
    is, so each input needs a value.
    """
    gates, outputs, field = circ.gates, circ.outputs, circ.field
    readers = circ.readers
    depth = [0] * len(gates)
    fused = [False] * len(gates)
    inputs, consts, levels = [], [], []
    for gid, (op, payload) in enumerate(gates):
        if op == OP_IN:
            inputs.append(gid)
            continue
        reads = readers[gid]
        if not reads:
            continue
        if op == OP_MUL:
            x, y = payload
            d = depth[x] if depth[x] > depth[y] else depth[y]
            if reads == 1:
                # one read, so by one add: that add forms the product
                depth[gid] = d
                fused[gid] = True
                continue
            row = (gid, (gid,), ())
        elif op == OP_ADD:
            d = 0
            products, plain = [], []
            for a in payload:
                if depth[a] > d:
                    d = depth[a]
                (products if fused[a] else plain).append(a)
            row = (gid, products, plain)
        else:
            consts.append(gid)
            continue
        depth[gid] = d + 1
        # level d + 1 is at most one past the deepest level so far
        if len(levels) == d:
            levels.append({})
        levels[d].setdefault((len(row[1]), len(row[2])), []).append(row)
    slot = [0] * len(gates)
    for i, gid in enumerate(inputs + consts):
        slot[gid] = i
    used = len(inputs) + len(consts)
    planned = []
    for level in levels:
        xs, ys, plains, groups = [], [], [], []
        for (k, j), rows in level.items():
            for c in range(k):
                for _, products, _ in rows:
                    x, y = gates[products[c]][1]
                    xs.append(slot[x])
                    ys.append(slot[y])
            for c in range(j):
                plains += [slot[plain[c]] for _, _, plain in rows]
            groups.append((k, j, len(rows)))
            for gid, _, _ in rows:
                slot[gid] = used
                used += 1
        groups = tuple(groups)
        planned.append((_getter(xs), _getter(ys), _getter(plains), field.dot_kernel(groups),
                        groups))
    return (tuple(gates[gid][1] for gid in inputs), tuple(gates[gid][1] for gid in consts),
            tuple(planned), tuple(slot[o] for o in outputs))


def evaluate(circ: Circuit, assignment: dict) -> tuple:
    """Evaluate all outputs under the given input assignment.

    Every input gate needs a value in [0, field.order): UnassignedInput
    names the first one without a value, InputOutOfRange the first one
    whose value is outside that range.  Each level of the plan is one
    call of its prepared field kernel, which forms the level's products,
    sums each gate's products and plain arguments and reduces each sum
    once, so every value held and every value returned is canonical.
    """
    inputs, consts, levels, outputs = circ.plan
    order = circ.field.order
    try:
        vals = list(map(assignment.__getitem__, inputs))
        valid = not vals or (min(vals) >= 0 and max(vals) < order)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        # name the first input at fault, in input order
        vals = []
        for name in inputs:
            try:
                v = assignment[name]
            except KeyError:
                raise UnassignedInput(f"no value for input {name!r}") from None
            if not 0 <= v < order:
                raise InputOutOfRange(f"value {v} for input {name!r} is outside [0, {order})")
            vals.append(v)
    vals += consts
    for xs, ys, plains, kernel, _ in levels:
        vals += kernel(xs(vals), ys(vals), plains(vals))
    return tuple(map(vals.__getitem__, outputs))


def formal_degrees(circ: Circuit, variables=None) -> list[int]:
    """Formal (syntactic) degree per gate.

    Inputs count as degree 1; when `variables` is given, inputs outside it
    count as degree 0 (they are treated as coefficients).
    """
    degs = [0] * len(circ.gates)
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_IN:
            degs[gid] = 1 if variables is None or payload in variables else 0
        elif op == OP_ADD:
            d = 0
            for a in payload:
                if degs[a] > d:
                    d = degs[a]
            degs[gid] = d
        elif op == OP_MUL:
            degs[gid] = degs[payload[0]] + degs[payload[1]]
    return degs


def analyze_skew(circ: Circuit, degs) -> int:
    """Least q such that the circuit is q-skew, given its formal degrees
    `degs` (formal_degrees).

    The skew of a Mul is the smaller formal degree of its two sides, and
    the circuit's q is the max over Muls.
    """
    q = 0
    for op, payload in circ.gates:
        if op == OP_MUL:
            low = min(degs[payload[0]], degs[payload[1]])
            if low > q:
                q = low
    return q


def _readers(gates, outputs) -> tuple:
    """Per gate: its reads by the gates and outputs that reach it, counted
    walking backwards, or 0 when no output reaches it.  An add's argument
    counts once per arc, and a mul's operand and an output twice, so a
    count of 1 is one read by one add gate."""
    readers = [0] * len(gates)
    for o in outputs:
        readers[o] += 2
    for gid in range(len(gates) - 1, -1, -1):
        if readers[gid]:
            op, payload = gates[gid]
            if op == OP_ADD:
                for a in payload:
                    readers[a] += 1
            elif op == OP_MUL:
                x, y = payload
                readers[x] += 2
                readers[y] += 2
    return tuple(readers)


def replay(circ: Circuit, bld: CircuitBuilder, input_map=None) -> list:
    """Copy the gates the outputs reach into bld, in order, through its
    folding calls.

    input_map(name) may return a gate of bld to stand in for an input;
    None (or no map) copies the input.  Returns the new id of every old
    gate, a handle for a constant, and None for those no output reaches.
    """
    live = circ.readers
    new = [None] * len(circ.gates)
    for gid, (op, payload) in enumerate(circ.gates):
        if not live[gid]:
            continue
        if op == OP_IN:
            mapped = input_map(payload) if input_map else None
            new[gid] = bld.inp(payload) if mapped is None else mapped
        elif op == OP_CONST:
            new[gid] = bld.const(payload)
        elif op == OP_ADD:
            new[gid] = bld.add(*[new[a] for a in payload])
        else:
            new[gid] = bld.mul(new[payload[0]], new[payload[1]])
    return new


def dead_gate_elimination(circ: Circuit) -> Circuit:
    """Explicit pass: keep the gates that the outputs reach, in their
    order, renumbered, and the circuit's meta.

    Gates are copied as they are, not rebuilt: nothing folds, and two
    equal kept gates stay two gates.  A circuit whose every gate is
    reached comes back as the same object."""
    live = circ.readers
    if all(live):
        return circ
    # new[gid]: how many gates before gid are kept, gid's new id if kept
    new = list(accumulate(map(bool, live), initial=0))
    kept = []
    for gate in compress(circ.gates, live):
        op, payload = gate
        if op == OP_MUL:
            a, b = payload
            gate = (op, (new[a], new[b]))
        elif op == OP_ADD:
            gate = (op, tuple([new[a] for a in payload]))
        kept.append(gate)
    result = Circuit(circ.field, tuple(kept), tuple(new[o] for o in circ.outputs))
    result.meta.update(circ.meta)
    return result


def serialize(circ: Circuit) -> str:
    """Circuit text format v1 (see parse for the grammar)."""
    field = circ.field
    lines = ["circuit v1", f"field {field.spec_string()}"]
    for gid, (op, payload) in enumerate(circ.gates):
        if op == OP_IN:
            lines.append(f"in {gid} {payload}")
        elif op == OP_CONST:
            lines.append(f"const {gid} {field.format_value(payload)}")
        elif op == OP_ADD:
            lines.append(f"add {gid} " + " ".join(map(str, payload)))
        else:
            lines.append(f"mul {gid} " + " ".join(map(str, payload)))
    lines.append("out" + "".join(f" {o}" for o in circ.outputs))
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    """Parse circuit text format v1.

    Grammar (one record per line, '#' starts a comment):
        circuit v1
        field <spec>
        in <id> <name> | const <id> <value> | add <id> <id>+ | mul <id> <id> <id>
        out <id>*
    Ids must be consecutive from 0 in topological order.
    """
    lines = parse_header(text, "circuit v1")
    field = None
    gates = []
    outputs = None
    for lineno, line in lines[1:]:
        toks = line.split()
        kind = toks[0]
        if kind == "field":
            field = parse_field_spec(" ".join(toks[1:]), lineno)
            continue
        if kind == "out":
            if outputs is not None:
                raise ParseError("second out record", lineno)
            outputs = tuple(int_fields(toks[1:], "output ids", lineno))
            out_line = lineno
            continue
        if field is None:
            raise ParseError("gate before field declaration", lineno)
        if len(toks) < 3:
            raise ParseError(f"truncated {kind} record", lineno)
        if kind in ("in", "const") and len(toks) > 3:
            raise ParseError(f"trailing tokens on {kind} record", lineno)
        (gid,) = int_fields(toks[1:2], "a gate id", lineno)
        if gid != len(gates):
            raise ParseError(f"gate id {gid} out of order (expected {len(gates)})", lineno)
        if kind == "in":
            gates.append((OP_IN, toks[2]))
        elif kind == "const":
            try:
                gates.append((OP_CONST, field.parse_value(toks[2])))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif kind in ("add", "mul"):
            args = tuple(int_fields(toks[2:], "argument ids", lineno))
            if kind == "mul" and len(args) != 2:
                raise ParseError("mul gates must be binary", lineno)
            for a in args:
                if a >= gid:
                    raise ParseError(f"argument {a} does not precede gate {gid}", lineno)
            gates.append((OP_ADD if kind == "add" else OP_MUL, args))
        else:
            raise ParseError(f"unknown record kind {kind!r}", lineno)
    if field is None:
        raise ParseError("missing field declaration", lines[-1][0])
    if outputs is None:
        raise ParseError("missing out record", lines[-1][0])
    for o in outputs:
        if o >= len(gates):
            raise ParseError(f"output id {o} out of range", out_line)
    return Circuit(field, tuple(gates), outputs)
