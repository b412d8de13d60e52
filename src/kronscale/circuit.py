"""Arithmetic-circuit IR: evaluation, degree analysis, copying, and the
line-oriented text format.

Gates live in topological order; ids are list positions.  Add gates take
arbitrary fan-in and Mul gates are binary: the builder and the parser
only make binary ones.  Size is the arc count: the sum of gate fan-ins.

`evaluate` runs level by level from the circuit's plan: inputs and
constants are level 0, a gate sits one level above its deepest argument,
and each level is up to two batches of field multiplications and one of
sums (`sum_many`), over the add gates grouped by arity.  The reduced
batch (`mul_many`) holds the mul gates that a mul gate or an output
reads.  Over a field with an unreduced product (`mul_many_unreduced`,
the prime fields), the mul gates that only add gates read go to the
unreduced batch instead: their sum reduces once, not every product
first.  Over GF(2^w) every mul gate is in the reduced batch.  So every
value a mul gate reads, and every output, is canonical.  The plan holds
one `operator.itemgetter` per operand list, so each batch gathers its
operands in one C-level call.  It is built on the first evaluation and
held by the `Circuit` itself, so it lives and dies with the circuit and
its cost stays out of every build.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, reduce
from itertools import accumulate, compress, filterfalse
from operator import itemgetter

from .errors import InputOutOfRange, ParseError, UnassignedInput, content_lines
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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


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
        total = 0
        for op, payload in self.gates:
            if op in (OP_ADD, OP_MUL):
                total += len(payload)
        return total

    def input_names(self) -> list[str]:
        return [payload for op, payload in self.gates if op == OP_IN]

    @cached_property
    def plan(self) -> tuple:
        """The level-by-level evaluation order (`_level_plan`), built on
        first use."""
        return _level_plan(self.gates, self.outputs,
                           self.field.mul_many_unreduced is not None)

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
    """

    zero, one = -1, -2

    def __init__(self, field: Field):
        self.field = field
        self.gates: list = []
        self._ids: dict[tuple, int] = {}
        self._arcs = 0
        self.outputs: list[int] = []
        self._values = [field.zero, field.one]
        self._handles = {field.zero: -1, field.one: -2}

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

    def build(self) -> Circuit:
        outputs = tuple(map(self._gate, self.outputs))
        return Circuit(self.field, tuple(self.gates), outputs)


def _getter(slots):
    """A function from the value list to the tuple of its entries at
    `slots`, or None when there are none."""
    if len(slots) == 1:
        (i,) = slots
        return lambda vals: (vals[i],)
    return itemgetter(*slots) if slots else None


def _level_plan(gates, outputs, unreduced: bool) -> tuple:
    """(inputs, consts, levels, outputs): gates grouped by depth, with
    every value in one list of slots.

    The slots hold the inputs in gate order, then the constants, then per
    level its reduced mul gates, its unreduced mul gates, and its add
    gates, grouped by arity.  `inputs` and `consts` are the input names
    and constant values, `outputs` the output slots.  A level is
    (xs, ys, lazy_xs, lazy_ys, args, groups): each of the first five maps
    the value list to the operand tuple it gathers, or is None for a
    level without such gates.  Reduced mul gate j multiplies xs(vals)[j]
    and ys(vals)[j], unreduced mul gate j lazy_xs(vals)[j] and
    lazy_ys(vals)[j].  The add gates' arguments come in `groups`, pairs
    (k, n) of n gates of arity k whose k * n arguments follow each other
    row by row in args(vals).  Only the gates that the outputs reach are
    planned, but every input is, so each input needs a value.

    With `unreduced`, a mul gate that no mul gate and no output reads is
    unreduced: only add gates read it, and each sum is reduced.  The same
    forward pass that finds the depths marks the operands of every mul
    and the outputs as reduced.  Without it, every mul gate is reduced.
    """
    depth = [0] * len(gates)
    live = _reached(gates, outputs)
    reduced = [False] * len(gates)
    for o in outputs:
        reduced[o] = True
    inputs, consts, muls, adds = [], [], [], []
    for gid, (op, payload) in enumerate(gates):
        if op == OP_IN:
            inputs.append(gid)
            continue
        if not live[gid]:
            continue
        if op == OP_MUL:
            x, y = payload
            reduced[x] = reduced[y] = True
            d = depth[x] if depth[x] > depth[y] else depth[y]
            by_level = muls
        elif op == OP_ADD:
            d = 0
            for a in payload:
                if depth[a] > d:
                    d = depth[a]
            by_level = adds
        else:
            consts.append(gid)
            continue
        depth[gid] = d + 1
        # level d + 1 is at most one past the deepest level so far
        if len(muls) == d:
            muls.append([])
            adds.append([])
        by_level[d].append(gid)
    slot = [0] * len(gates)
    for i, gid in enumerate(inputs + consts):
        slot[gid] = i
    used = len(inputs) + len(consts)
    levels = []
    for level_muls, level_adds in zip(muls, adds):
        lazy = []
        if unreduced:
            lazy = list(filterfalse(reduced.__getitem__, level_muls))
            if lazy:
                level_muls = list(filter(reduced.__getitem__, level_muls))
        by_arity: dict[int, list] = {}
        for gid in level_adds:
            k = len(gates[gid][1])
            group = by_arity.get(k)
            if group is None:
                by_arity[k] = [gid]
            else:
                group.append(gid)
        args, groups, ordered = [], [], level_muls + lazy
        gather = args.append
        for k, group in by_arity.items():
            for gid in group:
                for a in gates[gid][1]:
                    gather(slot[a])
            groups.append((k, len(group)))
            ordered += group
        for i, gid in enumerate(ordered, used):
            slot[gid] = i
        used += len(ordered)
        levels.append((*_operands(gates, slot, level_muls), *_operands(gates, slot, lazy),
                       _getter(args), tuple(groups)))
    return (tuple(gates[gid][1] for gid in inputs), tuple(gates[gid][1] for gid in consts),
            tuple(levels), tuple(slot[o] for o in outputs))


def _operands(gates, slot, muls) -> tuple:
    """The getters of the left and the right operands of the mul gates."""
    pairs = [gates[gid][1] for gid in muls]
    return _getter([slot[x] for x, _ in pairs]), _getter([slot[y] for _, y in pairs])


def evaluate(circ: Circuit, assignment: dict) -> tuple:
    """Evaluate all outputs under the given input assignment.

    Every input gate needs a value in [0, field.order): UnassignedInput
    names the first one without a value, InputOutOfRange one whose value
    is outside that range.  Each level runs its reduced products
    (`mul_many`), its unreduced ones (`mul_many_unreduced`), then its
    sums (`sum_many`, which reduces each sum), so every value that a mul
    gate or an output reads, and every value returned, is canonical.
    """
    inputs, consts, levels, outputs = circ.plan
    field = circ.field
    order = field.order
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
    mul_many, mul_lazy, sum_many = field.mul_many, field.mul_many_unreduced, field.sum_many
    for xs, ys, lazy_xs, lazy_ys, args, groups in levels:
        if xs:
            vals += mul_many(xs(vals), ys(vals))
        if lazy_xs:
            vals += mul_lazy(lazy_xs(vals), lazy_ys(vals))
        if args:
            vals += sum_many(args(vals), groups)
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


def _reached(gates, outputs) -> list:
    """Per gate: whether some output reaches it, marked walking backwards."""
    live = [False] * len(gates)
    for o in outputs:
        live[o] = True
    for gid in range(len(gates) - 1, -1, -1):
        op, payload = gates[gid]
        if live[gid] and op in (OP_ADD, OP_MUL):
            for a in payload:
                live[a] = True
    return live


def replay(circ: Circuit, bld: CircuitBuilder, input_map=None) -> list:
    """Copy the gates the outputs reach into bld, in order, through its
    folding calls.

    input_map(name) may return a gate of bld to stand in for an input;
    None (or no map) copies the input.  Returns the new id of every old
    gate, a handle for a constant, and None for those no output reaches.
    """
    live = _reached(circ.gates, circ.outputs)
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
    live = _reached(circ.gates, circ.outputs)
    if all(live):
        return circ
    # new[gid]: how many gates before gid are kept, gid's new id if kept
    new = list(accumulate(live, initial=0))
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
    field = None
    gates = []
    outputs = None
    saw_header = False
    for lineno, line in content_lines(text):
        toks = line.split()
        if not saw_header:
            if toks != ["circuit", "v1"]:
                raise ParseError("expected 'circuit v1' header", lineno)
            saw_header = True
            continue
        kind = toks[0]
        if kind == "field":
            try:
                field = parse_field_spec(" ".join(toks[1:]))
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        if kind == "out":
            if outputs is not None:
                raise ParseError("second out record", lineno)
            try:
                outputs = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise ParseError("bad output id", lineno) from None
            out_line = lineno
            continue
        if field is None:
            raise ParseError("gate before field declaration", lineno)
        if len(toks) < 3:
            raise ParseError(f"truncated {kind} record", lineno)
        if kind in ("in", "const") and len(toks) > 3:
            raise ParseError(f"trailing tokens on {kind} record", lineno)
        try:
            gid = int(toks[1])
        except ValueError:
            raise ParseError("bad gate id", lineno) from None
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
            try:
                args = tuple(int(t) for t in toks[2:])
            except ValueError:
                raise ParseError("bad argument id", lineno) from None
            if kind == "mul" and len(args) != 2:
                raise ParseError("mul gates must be binary", lineno)
            if not args:
                raise ParseError("add gate needs arguments", lineno)
            for a in args:
                if not 0 <= a < gid:
                    raise ParseError(f"argument {a} does not precede gate {gid}", lineno)
            gates.append((OP_ADD if kind == "add" else OP_MUL, args))
        else:
            raise ParseError(f"unknown record kind {kind!r}", lineno)
    if field is None:
        raise ParseError("missing field declaration")
    if outputs is None:
        raise ParseError("missing out record")
    for o in outputs:
        if not 0 <= o < len(gates):
            raise ParseError(f"output id {o} out of range", out_line)
    return Circuit(field, tuple(gates), outputs)
