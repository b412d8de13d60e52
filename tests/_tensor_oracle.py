"""Tensor oracles for the tests: Kronecker products and powers of explicit
tensors, and direct evaluation of a tensor's trilinear form."""

from kronscale.errors import ShapeError, UnassignedInput
from kronscale.tensor import Tensor


def kronecker(s: Tensor, t: Tensor) -> Tensor:
    """Kronecker product on the disjoint union of grounds."""
    if s.field != t.field:
        raise ShapeError("tensors over different fields")
    if set(s.ground) & set(t.ground):
        raise ShapeError("grounds must be disjoint")
    ground = s.ground + t.ground
    shift = len(s.ground)
    mul = s.field.mul
    entries = {}
    for (a1, b1, c1), v1 in s.entries.items():
        for (a2, b2, c2), v2 in t.entries.items():
            key = (a1 | (a2 << shift), b1 | (b2 << shift), c1 | (c2 << shift))
            entries[key] = mul(v1, v2)
    return Tensor(s.field, ground, entries)


def kron_power(t: Tensor, s: int) -> Tensor:
    """s-th Kronecker power on relabeled int grounds (copy j gets offset j*m)."""
    m = len(t.ground)
    acc = None
    for j in range(s):
        copy = Tensor(t.field, tuple(j * m + e for e in range(m)), dict(t.entries))
        acc = copy if acc is None else kronecker(acc, copy)
    return acc


def tensor_eval(t: Tensor, x: dict, y: dict, z: dict):
    """Direct summation oracle: sum of coeff * x_A * y_B * z_C."""
    f = t.field
    total = f.zero
    mul = f.mul
    try:
        for (a, b, c), coeff in t.entries.items():
            total = f.add(total, mul(mul(coeff, x[a]), mul(y[b], z[c])))
    except KeyError as exc:
        raise UnassignedInput(f"assignment missing mask {exc.args[0]}") from None
    return total
