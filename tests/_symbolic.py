"""Sparse-polynomial expansion oracle for tests.

Independent of the circuit transforms it checks: polynomials are plain
dicts from monomials (sorted (name, exponent) tuples) to coefficients,
expanded by brute force.
"""

from kronscale.circuit import OP_ADD, OP_CONST, OP_IN, OP_MUL


class SparsePoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = terms or {}

    @classmethod
    def const(cls, field, c):
        return cls(field, {(): c} if c != field.zero else {})

    @classmethod
    def var(cls, field, name):
        return cls(field, {((name, 1),): field.one})

    def __add__(self, other):
        out = dict(self.terms)
        f = self.field
        for mono, c in other.terms.items():
            s = f.add(out.get(mono, f.zero), c)
            if s == f.zero:
                out.pop(mono, None)
            else:
                out[mono] = s
        return SparsePoly(f, out)

    def __mul__(self, other):
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for name, e in m2:
                    d[name] = d.get(name, 0) + e
                mono = tuple(sorted(d.items()))
                s = f.add(out.get(mono, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return SparsePoly(f, out)

    def evaluate(self, assignment):
        f = self.field
        total = f.zero
        for mono, c in self.terms.items():
            v = c
            for name, e in mono:
                v = f.mul(v, f.pow(assignment[name], e))
            total = f.add(total, v)
        return total

    def coefficient_of_full_monomial(self, names):
        """Coefficient of prod_{v in names} v (each to the first power)."""
        target = tuple(sorted((n, 1) for n in names))
        return self.terms.get(target, self.field.zero)


def expand_circuit(circ, term_cap=200_000):
    """Symbolic expansion of every gate; returns the list of output polys."""
    f = circ.field
    vals = []
    for op, payload in circ.gates:
        if op == OP_IN:
            vals.append(SparsePoly.var(f, payload))
        elif op == OP_CONST:
            vals.append(SparsePoly.const(f, payload))
        elif op == OP_ADD:
            acc = vals[payload[0]]
            for a in payload[1:]:
                acc = acc + vals[a]
            vals.append(acc)
        else:
            acc = vals[payload[0]]
            for a in payload[1:]:
                acc = acc * vals[a]
            vals.append(acc)
        if len(vals[-1].terms) > term_cap:
            raise RuntimeError("expansion oracle term cap exceeded")
    return [vals[o] for o in circ.outputs]
