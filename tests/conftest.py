import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from kronscale import coeffx
from kronscale.circuit import OP_ADD, OP_MUL, CircuitBuilder
from kronscale.fields import Rng


def random_skew_circuit(field, rng: Rng, var_names, n_gates=40, q=1, full_monomial=False):
    """Random q-skew circuit over the given variables.

    Gates mix adds and muls; every mul keeps one side of formal degree <= q.
    When full_monomial is set, the random output o becomes (o + 1) times
    the degree-1 gate c_i x_i + d_i of every variable, in a random order.
    The coefficient of the product of all the variables is then
    prod c_i * (1 + o_ml(d / c)), with o_ml the multilinear part of o: it
    is nonzero unless o_ml takes the value -1 at that point.
    """
    bld = CircuitBuilder(field)
    xs = [bld.inp(name) for name in var_names]
    degs = {x: 1 for x in xs}
    low_pool = list(xs)
    for x in xs:
        c = field.random(rng, nonzero=True)
        g = bld.add(bld.mul(bld.const(c), x), bld.const(field.random(rng)))
        degs[g] = 1
        low_pool.append(g)
    forms = low_pool[len(xs):]
    for _ in range((q - 1) * len(xs)):
        a = rng.choice([g for g in low_pool if degs[g] < q])
        b = rng.choice(xs)
        g = bld.mul(a, b)
        degs[g] = degs[a] + 1
        low_pool.append(g)
    pool = list(low_pool)
    for _ in range(n_gates):
        if rng.below(2):
            a, b = rng.choice(pool), rng.choice(pool)
            g = bld.add(a, b)
            degs[g] = max(degs[a], degs[b])
        else:
            a = rng.choice(pool)
            b = rng.choice(low_pool)
            g = bld.mul(a, b)
            degs[g] = degs[a] + degs[b]
        pool.append(g)
    out = pool[-1]
    if full_monomial:
        out = bld.add(out, bld.one)
        rng.shuffle(forms)
        for g in forms:
            out = bld.mul(out, g)
    bld.set_outputs([out])
    return bld.build()


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


def planned_products(circ) -> tuple:
    """(fused, standalone): of the products that the circuit's evaluation
    plan forms, how many an add gate forms inside its sum, and how many
    are mul gates with a value of their own.  A group (k, j, n) forms
    k * n products and n values, and the values are the reached add
    gates and the standalone mul gates."""
    products = values = 0
    for *_, groups in circ.plan[2]:
        for k, _, n in groups:
            products += k * n
            values += n
    adds = sum(1 for gid in reached_gates(circ) if circ.gates[gid][0] == OP_ADD)
    return products - (values - adds), values - adds


def force_middle(monkeypatch, transposed):
    """Fill the tri route's middle layer in the given direction, whatever
    the count would pick, with the fill helper of that direction."""
    def fill(bld, layer, low, cut1, live, n):
        if transposed:
            return bld, coeffx._fill_transposed(bld, layer, low, live), True
        return bld, coeffx._fill_forward(bld, layer, low, cut1, n), False

    monkeypatch.setattr(coeffx, "_fill_middle", fill)
