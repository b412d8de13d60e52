from itertools import permutations
from math import comb, factorial

import pytest

from conftest import planned_products
from kronscale.circuit import dead_gate_elimination, evaluate
from kronscale.counting import (
    SetFamily,
    SquareMatrix,
    build_hafnian_circuit,
    build_permanent_circuit,
    count_set_partitions,
    hafnian_bruteforce,
    hafnian_clow_circuit,
    hafnian_value,
    matrix_assignment,
    matrix_input_name,
    parse_family_file,
    parse_matrix_file,
    permanent_ryser,
    permanent_skew_circuit,
    permanent_via_extraction,
    setpart_bruteforce,
)
from kronscale.circuit import analyze_skew, formal_degrees
from kronscale.coeffx import extract_coeff_direct, extract_coeff_tripartition
from kronscale.errors import DivisibilityError, ParityError, ShapeError
from kronscale.fields import Rng, prime_field

F = prime_field(2**31 - 1)


def rand_matrix(rng, n, symmetric=False):
    rows = [[F.random(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            rows[i][i] = F.zero
            for j in range(i):
                rows[i][j] = rows[j][i]
    return SquareMatrix(F, tuple(tuple(r) for r in rows), symmetric=symmetric)


def identity(n):
    return SquareMatrix(F, tuple(tuple(F.one if i == j else F.zero for j in range(n))
                                 for i in range(n)))


def ones(n):
    return SquareMatrix(F, tuple(tuple(F.one for _ in range(n)) for _ in range(n)))


def permanent_naive(mat):
    total = F.zero
    for p in permutations(range(mat.n)):
        v = F.one
        for i, j in enumerate(p):
            v = F.mul(v, mat.entries[i][j])
        total = F.add(total, v)
    return total


def hafnian_matching_enumeration(mat):
    # independent oracle: explicit matching enumeration via index pairing
    def matchings(rest):
        if not rest:
            yield []
            return
        i = rest[0]
        for k in range(1, len(rest)):
            j = rest[k]
            for m in matchings(rest[1:k] + rest[k + 1:]):
                yield [(i, j)] + m
    total = F.zero
    for m in matchings(tuple(range(mat.n))):
        v = F.one
        for i, j in m:
            v = F.mul(v, mat.entries[i][j])
        total = F.add(total, v)
    return total


def test_ryser_identity_and_ones():
    assert permanent_ryser(identity(4)) == 1
    assert permanent_ryser(ones(5)) == factorial(5)


def test_ryser_matches_naive():
    rng = Rng(11)
    for _ in range(5):
        m = rand_matrix(rng, 6)
        assert permanent_ryser(m) == permanent_naive(m)


def test_permanent_circuit_small():
    c = build_permanent_circuit(3, F)
    assert evaluate(c, matrix_assignment(identity(3)))[0] == 1
    assert evaluate(c, matrix_assignment(ones(3)))[0] == permanent_ryser(ones(3)) == 6


def test_permanent_circuit_random_n6():
    rng = Rng(5)
    c = build_permanent_circuit(6, F)
    for _ in range(10):
        m = rand_matrix(rng, 6)
        assert evaluate(c, matrix_assignment(m))[0] == permanent_ryser(m)


def test_permanent_bottom_size_bound():
    for n in (3, 6, 9):
        c = build_permanent_circuit(n, F)
        assert c.meta["bottom_arcs"] <= 4 * comb(n, n // 3) * n


def test_permanent_benchmark_circuit_does_not_grow():
    # the perm6-s2 benchmark circuit, pinned exactly
    stats = build_permanent_circuit(6, b=1, g=1).stats()
    assert (stats["arcs"], stats["gates"]) == (585, 292)


@pytest.mark.parametrize("g", [1, None], ids=["g1", "gNone"])
def test_tripartition_at_its_floor_matches_the_permanent_circuit(g):
    # at n = 6 the tri extraction of the 1-skew permanent circuit has the
    # benchmark circuit's size, 585 arcs and 292 gates, and every gate it
    # emits is live
    circ = extract_coeff_tripartition(*permanent_skew_circuit(6, F), b=1, g=g)
    assert (circ.size, len(circ.gates)) == (585, 292)
    assert circ.stats() == build_permanent_circuit(6, b=1, g=g).stats()
    assert dead_gate_elimination(circ).stats() == circ.stats()
    rng = Rng(31)
    for _ in range(4):
        m = rand_matrix(rng, 6)
        assert evaluate(circ, matrix_assignment(m))[0] == permanent_ryser(m)


def test_tripartition_refuses_n3():
    # the cut1 components would have degree 1, the degree of the low
    # tables that seed the upper layers
    with pytest.raises(ShapeError, match=r"\(got 3\)"):
        extract_coeff_tripartition(*permanent_skew_circuit(3, F))


def test_permanent_plan_leaves_every_product_to_the_sums():
    # every mul of the n = 6 permanent circuit is read by add gates only,
    # so the plan reduces none of the 195 products before its sums
    assert planned_products(build_permanent_circuit(6, b=1, g=1)) == (0, 195)
    c = build_permanent_circuit(6, F, b=1, g=1)
    assert planned_products(c) == (0, 195)
    rng = Rng(8)
    for _ in range(3):
        m = rand_matrix(rng, 6)
        assert evaluate(c, matrix_assignment(m))[0] == permanent_ryser(m)


def test_permanent_build_leaves_the_evaluation_plan_unbuilt():
    # the plan is built on the first evaluation, so its cost stays out of
    # the build
    c = build_permanent_circuit(6, b=1, g=1)
    assert "plan" not in c.__dict__
    evaluate(c, matrix_assignment(ones(6)))
    assert "plan" in c.__dict__


def test_permanent_rejects_bad_n():
    with pytest.raises(DivisibilityError):
        build_permanent_circuit(4, F)


def test_permanent_extraction_modes():
    rng = Rng(23)
    m = rand_matrix(rng, 6)
    want = permanent_ryser(m)
    assert permanent_via_extraction(m, "direct") == want
    assert permanent_via_extraction(m, "tri") == want


def test_permanent_row_column_permutation_invariance():
    rng = Rng(29)
    c = build_permanent_circuit(3, F)
    m = rand_matrix(rng, 3)
    base = evaluate(c, matrix_assignment(m))[0]
    perm = [2, 0, 1]
    permuted = SquareMatrix(F, tuple(tuple(m.entries[perm[i]][perm[j]]
                                           for j in range(3)) for i in range(3)))
    assert evaluate(c, matrix_assignment(permuted))[0] == base


def test_hafnian_trivial():
    rng = Rng(7)
    m = rand_matrix(rng, 2, symmetric=True)
    assert hafnian_bruteforce(m) == m.entries[0][1]
    assert hafnian_value(m) == m.entries[0][1]


def test_hafnian_2n4_matching_formula():
    rng = Rng(13)
    m = rand_matrix(rng, 4, symmetric=True)
    e = m.entries
    want = F.add(F.add(F.mul(e[0][1], e[2][3]), F.mul(e[0][2], e[1][3])),
                 F.mul(e[0][3], e[1][2]))
    assert hafnian_matching_enumeration(m) == want
    assert hafnian_bruteforce(m) == want
    assert hafnian_value(m) == want


def test_hafnian_all_ones_double_factorial():
    m = SquareMatrix(F, tuple(tuple(F.zero if i == j else F.one for j in range(6))
                              for i in range(6)), symmetric=True)
    assert hafnian_bruteforce(m) == 15  # (2n-1)!! for n = 3


def test_hafnian_bruteforce_vs_recursive_oracle():
    rng = Rng(41)
    for _ in range(3):
        m = rand_matrix(rng, 8, symmetric=True)
        assert hafnian_bruteforce(m) == hafnian_matching_enumeration(m)


def test_hafnian_circuit_modes_match_bruteforce():
    rng = Rng(43)
    for two_n in (4, 6):
        m = rand_matrix(rng, two_n, symmetric=True)
        want = hafnian_bruteforce(m)
        assert hafnian_value(m, "direct") == want
    m8 = rand_matrix(rng, 8, symmetric=True)
    assert hafnian_value(m8, "tri") == hafnian_bruteforce(m8)


def test_hafnian_direct_extraction_tables_only_reached_components():
    # a table for every gate over all subsets took 16,609 arcs
    out = extract_coeff_direct(*hafnian_clow_circuit(12, F))
    assert out.size <= 12_266
    m = rand_matrix(Rng(61), 12, symmetric=True)
    assert evaluate(out, matrix_assignment(m))[0] == hafnian_bruteforce(m)


def test_hafnian_clow_circuit_is_1skew():
    circ, xvars = hafnian_clow_circuit(6, F)
    assert analyze_skew(circ, formal_degrees(circ, set(xvars))) <= 1


def test_hafnian_odd_order_rejected():
    with pytest.raises(ParityError):
        build_hafnian_circuit(5, field=F)


def test_hafnian_pair_relabel_invariance():
    rng = Rng(47)
    m = rand_matrix(rng, 6, symmetric=True)
    # swap the two vertices of pair 2 (vertices 3,4 -> indices 2,3)
    sigma = [0, 1, 3, 2, 4, 5]
    relab = SquareMatrix(F, tuple(tuple(m.entries[sigma[i]][sigma[j]]
                                        for j in range(6)) for i in range(6)),
                         symmetric=True)
    assert hafnian_value(m) == hafnian_value(relab)


def embed_permanent_as_hafnian(mat):
    """Block matrix ((0, A), (A^T, 0)); its hafnian equals perm A."""
    n = mat.n
    zeros = (F.zero,) * n
    rows = [zeros + row for row in mat.entries]
    rows += [tuple(mat.entries[j][i] for j in range(n)) + zeros for i in range(n)]
    return SquareMatrix(F, tuple(rows), symmetric=True)


def test_permanent_embedding_identity():
    rng = Rng(53)
    for _ in range(3):
        m = rand_matrix(rng, 3)
        emb = embed_permanent_as_hafnian(m)
        assert hafnian_value(emb) == permanent_ryser(m)


def folklore_setpart_dp(fam: SetFamily) -> int:
    # partitions counted once via the lowest-uncovered-element recursion
    masks = [sum(1 << (e - 1) for e in member) for member in fam.members]
    full = (1 << fam.ground_size) - 1
    memo = {0: 1}

    def rec(mask):
        if mask in memo:
            return memo[mask]
        low = 1 << ((mask & -mask).bit_length() - 1)
        total = 0
        for m in masks:
            if m & low and m & mask == m:
                total += rec(mask ^ m)
        memo[mask] = total
        return total

    return rec(full)


def test_setpart_examples():
    fam = SetFamily(3, ((1, 2), (3,), (1, 3), (2,)))
    assert count_set_partitions(fam) == 2 == setpart_bruteforce(fam)
    # an element no member covers
    assert count_set_partitions(SetFamily(3, ((1, 2),))) == 0
    singles = SetFamily(5, tuple((i,) for i in range(1, 6)))
    assert count_set_partitions(singles) == 1


def test_setpart_bruteforce_examples():
    assert setpart_bruteforce(SetFamily(0, ())) == 1  # the empty partition
    assert setpart_bruteforce(SetFamily(1, ((1,), (1,)))) == 2  # either copy


def test_setpart_random_vs_dp_oracle():
    rng = Rng(61)
    for _ in range(10):
        n = 4 + rng.below(5)
        m = 3 + rng.below(5)
        members = []
        for _ in range(m):
            a = 1 + rng.below(n)
            b = 1 + rng.below(n)
            while b == a:
                b = 1 + rng.below(n)
            members.append(tuple(sorted((a, b))))
        fam = SetFamily(n, tuple(members))
        want = setpart_bruteforce(fam)
        assert want == folklore_setpart_dp(fam)
        assert count_set_partitions(fam, "direct") == want % F.p


def test_setpart_tri_mode():
    fam = SetFamily(6, ((1, 2, 3), (4, 5, 6), (1, 4), (2, 5), (3, 6)))
    want = setpart_bruteforce(fam)
    assert count_set_partitions(fam, "direct") == want
    assert count_set_partitions(fam, "tri") == want


@pytest.mark.parametrize("method", ["direct", "tri"])
def test_setpart_empty_ground_set(method):
    # the empty subfamily partitions it, with or without each empty member:
    # 1 and 2^3
    for fam in (SetFamily(0, ()), SetFamily(0, ((), (), ()))):
        assert count_set_partitions(fam, method) == setpart_bruteforce(fam)


def test_setpart_members_of_mixed_sizes():
    fam = SetFamily(8, ((), (1,), (2,), (1, 2, 3), (4, 5, 6), (3, 4, 5, 6),
                        (1, 2, 7, 8), (3,), (6, 7, 8), (5, 7, 8)))
    want = setpart_bruteforce(fam)
    assert want > 1
    assert count_set_partitions(fam, "direct") == want
    assert count_set_partitions(fam, "tri") == want


@pytest.mark.parametrize("entries, symmetric, message", [
    (((1, 2),), False, "matrix is not square"),
    (((1, 2), (3, 4)), True, "symmetric flag on an asymmetric matrix"),
], ids=["not-square", "asymmetric"])
def test_a_matrix_built_in_code_raises_shape_error(entries, symmetric, message):
    # no text was parsed, so there is no line to name: parse_matrix_file
    # makes these checks itself
    with pytest.raises(ShapeError, match=f"^{message}$"):
        SquareMatrix(F, entries, symmetric=symmetric)


def test_matrix_file_roundtrip():
    text = "3\n1 2 3\n4 5 6\n7 8 9\n"
    m = parse_matrix_file(text, F)
    assert m.n == 3 and m.entries[2][1] == 8
    fam = parse_family_file("4 2 2\n1 2\n3 4\n")
    assert fam.members == ((1, 2), (3, 4))
