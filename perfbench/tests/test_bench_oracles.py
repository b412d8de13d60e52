"""The benchmark's oracles against kronscale on tiny cases."""

import pytest

from kronscale import circuit, counting, fields, sieving

import workloads


@pytest.mark.parametrize("n,g", [(3, 1), (6, 2), (6, 1)])
def test_permanent_oracles_agree_with_the_circuit(n, g):
    field = fields.prime_field()
    circ = counting.build_permanent_circuit(n, field=field, b=1, g=g)
    for entries in workloads.random_matrices(seed=n, n=n, count=3, p=field.order):
        mat = counting.SquareMatrix(field, entries)
        expected = workloads.permanent_by_permutations(entries, field.order)
        assert counting.permanent_ryser(mat) == expected
        assert circuit.evaluate(circ, counting.matrix_assignment(mat))[0] == expected


def test_permanent_by_permutations_small_values():
    assert workloads.permanent_by_permutations(((1, 2), (3, 4)), 101) == 10
    assert workloads.permanent_by_permutations(((1, 1, 1),) * 3, 101) == 6


def test_random_matrices_are_seeded():
    a = workloads.random_matrices(5, 3, 2, 97)
    assert a == workloads.random_matrices(5, 3, 2, 97)
    assert a != workloads.random_matrices(6, 3, 2, 97)


def test_component_digraph_is_seeded_and_complete():
    n, arcs = workloads.component_digraph(3, (3, 2))
    assert n == 5 and len(arcs) == 3 * 2 + 2 * 1
    assert (n, arcs) == workloads.component_digraph(3, (3, 2))
    assert arcs != workloads.component_digraph(4, (3, 2))[1]


@pytest.mark.parametrize("method", ["direct", "tri"])
@pytest.mark.parametrize("components,k,expected", [
    # the yes-instance every k-path run checks: K_4 holds a path with 3 arcs
    (workloads.YES_COMPONENTS, workloads.YES_K, True),
    ((3, 3), 3, False),     # no component has 4 vertices
    ((3, 3), 2, True),
])
def test_kpath_oracle_agrees_with_kpath_detect(components, k, expected, method):
    n, arcs = workloads.component_digraph(1, components)
    assert workloads.has_simple_path(n, arcs, k) is expected
    graph = sieving.DirectedGraph(n, arcs)
    rng = fields.Rng(workloads.sieve_seed(1))
    assert sieving.kpath_detect(graph, k, rng, trials=10, method=method) is expected


def test_kpath_oracle_on_a_directed_path():
    arcs = ((1, 2), (2, 3), (3, 4))
    assert workloads.has_simple_path(4, arcs, 3)
    assert not workloads.has_simple_path(4, arcs, 4)
    assert not workloads.has_simple_path(4, ((2, 1), (2, 3), (3, 4)), 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_instances_are_no_instances(name):
    wl = workloads.WORKLOADS[name]
    if wl.kind == "kpath":
        n, arcs = workloads.component_digraph(1, wl.components)
        assert not workloads.has_simple_path(n, arcs, wl.k)
        assert max(wl.components) == wl.k   # one vertex short of a k-path
