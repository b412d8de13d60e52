"""Byte-identical circuits: the SHA-256 of `serialize` of each benchmark
and reference circuit, pinned by its first twelve hex digits, beside its
gate and arc counts.

A change that is meant to keep every circuit (a speed-up, a refactor)
keeps every pin.  A change that is meant to change a circuit updates its
pin and says why.  The pins do not depend on PYTHONHASHSEED.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from kronscale import scaling, sieving
from kronscale.circuit import serialize
from kronscale.coeffx import extract_coefficient
from kronscale.counting import (
    build_hafnian_circuit,
    build_permanent_circuit,
    hafnian_clow_circuit,
    permanent_skew_circuit,
)
from kronscale.fields import Rng, gf2, prime_field
from kronscale.sieving import UndirectedGraph, longcycle_detect, mv_det_circuit

from test_scaling import block_first
from test_sieving import _kpath_tri_benchmark_runner


def _mv_det_4x4():
    # zero (one on the diagonal), constant, one-term and two-term entries,
    # so that the determinant DP meets every kind of entry gate
    def x(v, coeff=1):
        return (f"x:{{{v}}}", coeff)

    zero = (0, ())
    entries = [
        [(0, (x(1),)), (3, ()), zero, (1, (x(2), x(3, 5)))],
        [(1, ()), zero, (0, (x(4, 7),)), (0, (x(1),))],
        [zero, (2, (x(2),)), (0, (x(3),)), zero],
        [(0, (x(4),)), (0, (x(1, 2), x(2))), (5, ()), (1, ())],
    ]
    return mv_det_circuit(entries, gf2(16))


class _Captured(Exception):
    pass


def _longcycle_det_circuit():
    # the determinant circuit that longcycle_detect hands to its sieve: a
    # 6-cycle 1-5-3-7-4-9 with pendant vertices 6 and 2 and an isolated 8,
    # sides declared.  Its diagonal ones make constant sums of closed walks
    # cancel, so some partial clow sequences sum to zero.
    def capture(circ, *args, **kwargs):
        raise _Captured(circ)

    g = UndirectedGraph(9, ((1, 5), (1, 6), (1, 9), (2, 7), (3, 5), (3, 7), (4, 7), (4, 9)),
                        side_u=(1, 2, 3, 4))
    with mock.patch.object(sieving, "SieveRunner", capture), \
            pytest.raises(_Captured) as exc:
        longcycle_detect(g, 6, Rng(1), field=gf2(16))
    return exc.value.args[0]


PINS = {
    # name: (build, pin, gates, arcs)
    "kpath-tri": (lambda: _kpath_tri_benchmark_runner()[0].circuit, "980cc58c0bf0",
                  3752, 8238),
    "hafnian12-direct": (lambda: build_hafnian_circuit(12, "direct"), "1c1885bda6ea",
                         1600, 3805),
    "hafnian14-direct": (lambda: build_hafnian_circuit(14, "direct"), "398d609d6896",
                         4525, 11283),
    "hafnian12-tri": (lambda: build_hafnian_circuit(12, "tri"), "1ce85bf3695b", 1736, 4006),
    "hafnian14-tri": (lambda: build_hafnian_circuit(14, "tri"), "4db3e87741f7", 14624, 35814),
    "perm9-direct": (lambda: extract_coefficient(*permanent_skew_circuit(9, prime_field()),
                                                 "direct"), "bec22619fd8d", 2878, 6885),
    "perm9-tri": (lambda: extract_coefficient(*permanent_skew_circuit(9, prime_field()),
                                              "tri"), "c7a850d85485", 3262, 8208),
    "perm6-s2": (lambda: build_permanent_circuit(6, b=1, g=1), "46fbda4ce12a", 292, 585),
    # the deepest Kronecker power of the trivial provider among the pins: s = 3
    "perm9-s3": (lambda: build_permanent_circuit(9, g=1), "3570d392d23b", 3262, 8208),
    # the one pin with a provider other than the trivial one: its rows
    # share terms across several side entries
    "perm9-block-first": (lambda: build_permanent_circuit(9, gf2(32), dec_source=block_first,
                                                          b=1, g=1), "168636d82582", 3635, 8812),
    # raw clow-sequence circuits, before any extraction
    "hafnian12-clow": (lambda: hafnian_clow_circuit(12, prime_field())[0], "befc9dc6b987",
                       1588, 4327),
    "mv-det-4x4": (_mv_det_4x4, "6f0ae252f4bc", 62, 124),
    "longcycle-det": (_longcycle_det_circuit, "283a1e31c107", 419, 1295),
}


def _digest(circ) -> str:
    return hashlib.sha256(serialize(circ).encode()).hexdigest()[:12]


@pytest.mark.parametrize("name", PINS)
def test_circuit_text_is_pinned(name):
    # the sizes beside the hash show whether a moved pin's circuit shrank
    build, *pinned = PINS[name]
    circ = build()
    assert [_digest(circ), len(circ.gates), circ.size] == pinned


def test_pins_hold_under_a_fixed_hash_seed():
    # the iteration order of a set of strings follows PYTHONHASHSEED; every
    # pin is rebuilt in one fresh interpreter whose seed is fixed and not zero
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests), str(tests.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    script = ("import json, test_pins\n"
              "print(json.dumps({k: test_pins._digest(build())"
              " for k, (build, *_) in test_pins.PINS.items()}))")
    env = dict(os.environ, PYTHONHASHSEED="987", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", script], env=env, cwd=tests,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {k: pin for k, (_, pin, *_) in PINS.items()}


@pytest.mark.parametrize("name, transforms", [
    ("perm6-s2", False),
    ("kpath-tri", False),
    ("perm9-block-first", True),
])
def test_only_terms_that_are_not_unit_terms_run_the_yates_transform(name, transforms,
                                                                     monkeypatch):
    # the trivial provider's terms are unit terms, whose products are read
    # from the inputs directly; the block-first provider's rank-5 terms
    # have several entries per slot and go through the transform
    calls = []
    real = scaling._yates_transform

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(scaling, "_yates_transform", spy)
    PINS[name][0]()
    assert bool(calls) == transforms
