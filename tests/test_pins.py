"""Byte-identical circuits: the SHA-256 of `serialize` of each benchmark
and reference circuit, pinned by its first twelve hex digits.

A change that is meant to keep every circuit (a speed-up, a refactor)
keeps every pin.  A change that is meant to change a circuit updates its
pin and says why.  The pins do not depend on PYTHONHASHSEED.
"""

import hashlib

import pytest

from kronscale.circuit import serialize
from kronscale.coeffx import extract_coefficient
from kronscale.counting import (
    build_hafnian_circuit,
    build_permanent_circuit,
    permanent_skew_circuit,
)
from kronscale.fields import gf2, prime_field

from test_scaling import block_first
from test_sieving import _kpath_tri_benchmark_runner

PINS = {
    "kpath-tri": (lambda: _kpath_tri_benchmark_runner()[0].circuit, "980cc58c0bf0"),
    "hafnian12-direct": (lambda: build_hafnian_circuit(12, "direct"), "46afdbf87034"),
    "hafnian14-direct": (lambda: build_hafnian_circuit(14, "direct"), "ff1744104c80"),
    "hafnian12-tri": (lambda: build_hafnian_circuit(12, "tri"), "7fb36becc277"),
    "hafnian14-tri": (lambda: build_hafnian_circuit(14, "tri"), "9a2da43fdebd"),
    "perm9-direct": (lambda: extract_coefficient(*permanent_skew_circuit(9, prime_field()),
                                                 "direct"), "bec22619fd8d"),
    "perm9-tri": (lambda: extract_coefficient(*permanent_skew_circuit(9, prime_field()),
                                              "tri"), "c7a850d85485"),
    "perm6-s2": (lambda: build_permanent_circuit(6, b=1, g=1), "036627e96557"),
    # the one pin with a provider other than the trivial one: its rows
    # share terms across several side entries
    "perm9-block-first": (lambda: build_permanent_circuit(9, gf2(32), dec_source=block_first,
                                                          b=1, g=1), "4ddbe2b90875"),
}


@pytest.mark.parametrize("name", PINS)
def test_circuit_text_is_pinned(name):
    build, pin = PINS[name]
    assert hashlib.sha256(serialize(build()).encode()).hexdigest()[:12] == pin
