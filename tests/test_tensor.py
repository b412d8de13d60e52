from dataclasses import replace
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronscale.circuit import mask_bits, mask_of
from kronscale.errors import ShapeError, TooLarge, UnassignedInput
from kronscale.fields import PrimeField, Rng, gf2, prime_field
from kronscale.tensor import (
    RankDecomposition,
    Tensor,
    _unit_term_keys,
    generate_P,
    parse_decomposition,
    trivial_decomposition,
    verify_decomposition,
    write_decomposition,
)

from _tensor_oracle import kron_power, kronecker, tensor_eval

F = prime_field(2**31 - 1)
GF101 = prime_field(101)
GF256 = gf2(8)
FIXTURES = Path(__file__).parent / "fixtures"


def brute_tripartition_count(m, q):
    # enumeration oracle: choose A, then B from the rest
    count = 0
    for a in combinations(range(m), q):
        rest = [e for e in range(m) if e not in a]
        count += sum(1 for _ in combinations(rest, q))
    return count


def test_generate_P_counts():
    assert len(generate_P(1, field=F).entries) == 6  # 3! orderings
    assert len(generate_P(2, field=F).entries) == brute_tripartition_count(6, 2) == 90
    assert len(generate_P(3, field=F).entries) == factorial(9) // factorial(3) ** 3 == 1680


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_generate_P_lists_every_tripartition_in_colex_order(q):
    full = (1 << 3 * q) - 1
    want = []
    for a in combinations(range(3 * q), q):
        for b in combinations([e for e in range(3 * q) if e not in a], q):
            want.append((mask_of(a), mask_of(b), full ^ mask_of(a) ^ mask_of(b)))
    t = generate_P(q, field=F)
    assert list(t.entries) == sorted(want)
    assert set(t.entries.values()) <= {F.one}


def test_generate_P_entry_shapes():
    t = generate_P(2, field=F)
    for (a, b, c) in t.entries:
        assert bin(a).count("1") == bin(b).count("1") == bin(c).count("1") == 2
        assert a & b == a & c == b & c == 0
        assert a | b | c == (1 << 6) - 1


def test_generate_P_too_large():
    with pytest.raises(TooLarge):
        generate_P(8, field=F)


def test_generate_P_negative_q():
    with pytest.raises(ShapeError, match="negative"):
        generate_P(-1, field=F)


def test_generate_P_permutation_symmetry():
    rng = Rng(1)
    for q in (1, 2, 3):
        t = generate_P(q, field=F)
        perm = list(range(3 * q))
        rng.shuffle(perm)

        def apply(mask):
            return mask_of(perm[e] for e in mask_bits(mask))

        mapped = {(apply(a), apply(b), apply(c)): v for (a, b, c), v in t.entries.items()}
        assert mapped == t.entries


def test_kronecker_unit():
    t = generate_P(2, field=F)
    unit = Tensor(F, (99,), {(1, 1, 1): F.one})  # single entry, coeff 1 on {99}
    # relabel element 99 to avoid overlap: grounds are (0..5) and (99,)
    prod = kronecker(t, unit)
    assert len(prod.entries) == len(t.entries)
    shift = t.ground_size
    for (a, b, c), v in t.entries.items():
        assert prod.entries[(a | 1 << shift, b | 1 << shift, c | 1 << shift)] == v


def test_kronecker_p1_p1():
    t1 = generate_P(1, field=F)
    t2 = Tensor(F, (10, 11, 12), dict(generate_P(1, field=F).entries))
    prod = kronecker(t1, t2)
    assert len(prod.entries) == 36


def test_kronecker_coefficients_exhaustive():
    rng = Rng(5)
    for _ in range(5):
        s = _random_tensor(rng, ground=(0, 1, 2), n_entries=4)
        t = _random_tensor(rng, ground=(3, 4, 5), n_entries=5)
        prod = kronecker(s, t)
        shift = 3
        # direct double loop over all pairs
        expected = {}
        for (a1, b1, c1), v1 in s.entries.items():
            for (a2, b2, c2), v2 in t.entries.items():
                expected[(a1 | a2 << shift, b1 | b2 << shift, c1 | c2 << shift)] = F.mul(v1, v2)
        assert prod.entries == expected


def test_kronecker_ground_overlap():
    t1 = generate_P(1, field=F)
    with pytest.raises(ShapeError, match="grounds must be disjoint"):
        kronecker(t1, t1)


def _random_tensor(rng, ground, n_entries):
    m = len(ground)
    entries = {}
    while len(entries) < n_entries:
        a = rng.below(1 << m)
        b = rng.below(1 << m)
        c = rng.below(1 << m)
        entries[(a, b, c)] = F.random(rng, nonzero=True)
    return Tensor(F, tuple(ground), entries)


def test_kronecker_associative_up_to_relabel():
    rng = Rng(17)
    a = _random_tensor(rng, (0, 1), 3)
    b = _random_tensor(rng, (2, 3), 3)
    c = _random_tensor(rng, (4, 5), 3)
    left = kronecker(kronecker(a, b), c)
    right = kronecker(a, kronecker(b, c))
    assert left.entries == right.entries  # same ground order either way


def test_tensor_eval_examples():
    t = generate_P(1, field=F)
    ones = {m: F.one for m in range(8)}
    assert tensor_eval(t, ones, ones, ones) == 6
    (a, b, c) = sorted(t.entries)[0]
    ind_x = {m: F.one if m == a else F.zero for m in range(8)}
    ind_y = {m: F.one if m == b else F.zero for m in range(8)}
    ind_z = {m: F.one if m == c else F.zero for m in range(8)}
    assert tensor_eval(t, ind_x, ind_y, ind_z) == 1
    with pytest.raises(UnassignedInput):
        tensor_eval(t, {}, ones, ones)


def test_trivial_decomposition():
    t1 = generate_P(1, field=F)
    d1 = trivial_decomposition(t1)
    assert d1.rank == 6
    assert verify_decomposition(t1, d1) is None

    zero = Tensor(F, (0, 1, 2), {})
    assert trivial_decomposition(zero).rank == 0

    t2 = generate_P(2, field=F)
    d2 = trivial_decomposition(t2)
    assert d2.rank == 90
    assert verify_decomposition(t2, d2) is None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trivial_decomposition_stores_one_entry_per_term_per_slot(d):
    dec = trivial_decomposition(generate_P(d, field=F))
    for rows in dec.rows:
        terms = sorted(l for row in rows for l, _ in row)
        assert terms == list(range(dec.rank))


def test_trivial_decomposition_of_unsorted_non_unit_entries():
    # the dict lists P_2's entries in reverse colex order, two of every
    # three with coefficient 5: the terms still come in colex order, each
    # U entry carries its coefficient and every V and W entry carries one
    p2 = generate_P(2, field=GF101)
    t = Tensor(GF101, p2.ground, {key: 5 if i % 3 else GF101.one
                                  for i, key in enumerate(reversed(p2.entries))})
    assert list(t.entries) != sorted(t.entries)
    assert set(t.entries.values()) == {GF101.one, 5}
    dec = trivial_decomposition(t)
    assert _terms_of(dec) == [({a: v}, {b: GF101.one}, {c: GF101.one})
                              for (a, b, c), v in sorted(t.entries.items())]
    assert verify_decomposition(t, dec) is None


def test_diagonal_tensor_identity_decomposition():
    # <2>: sum_i x_i y_i z_i with i in {0,1} as singleton masks
    entries = {(1 << i, 1 << i, 1 << i): F.one for i in range(2)}
    t = Tensor(F, (0, 1), entries)
    sides = (1, 2)
    eye = ((F.one, F.zero), (F.zero, F.one))
    dec = RankDecomposition.from_dense(F, 2, 2, sides, sides, sides, eye, eye, eye)
    assert verify_decomposition(t, dec) is None


def test_verify_detects_counterexample():
    t = generate_P(1, field=F)
    dec = trivial_decomposition(t)
    broken = dict(t.entries)
    key = sorted(broken)[0]
    broken[key] = F.add(broken[key], F.one)
    t_bad = Tensor(F, t.ground, broken)
    assert verify_decomposition(t_bad, dec) == key


def _first_mismatch_by_expansion(t, dec):
    # oracle: expand every rank-one term with a multiply per factor
    f = t.field
    acc = {}
    for l in range(dec.rank):
        x, y, z = ([(m, v) for m, row in zip(side, rows) for k, v in row if k == l]
                   for side, rows in zip((dec.side_x, dec.side_y, dec.side_z), dec.rows))
        for a, u in x:
            for b, v in y:
                for c, w in z:
                    acc[(a, b, c)] = f.add(acc.get((a, b, c), f.zero), f.mul(f.mul(u, v), w))
    return next((key for key in sorted(set(acc) | set(t.entries))
                 if acc.get(key, f.zero) != t.entries.get(key, f.zero)), None)


def test_verify_multiplies_no_unit_coefficient():
    field = PrimeField(101)  # a private instance, so its mul can be counted
    calls = []

    def counted_mul(a, b):
        calls.append((a, b))
        return PrimeField.mul(field, a, b)

    field.mul = counted_mul
    t = generate_P(3, field=field)
    assert verify_decomposition(t, trivial_decomposition(t)) is None
    assert calls == []
    # a broken provider: non-unit coefficients in each slot, one term with three
    t2 = generate_P(2, field=field)
    dec = trivial_decomposition(t2)
    rows = [list(map(list, rows)) for rows in dec.rows]
    for slot, (row, coeff) in enumerate(((0, 2), (1, 3), (2, 5))):
        rows[slot][row][0] = (rows[slot][row][0][0], coeff)
    term = rows[0][3][0][0]
    for slot_rows in rows:
        for row in slot_rows:
            row[:] = [(l, 7 if l == term else v) for l, v in row]
    broken = replace(dec, **{label: tuple(map(tuple, r)) for label, r in zip("UVW", rows)})
    want = _first_mismatch_by_expansion(t2, broken)
    assert want is not None
    assert verify_decomposition(t2, broken) == want


def _terms_of(dec):
    """Per term: one {mask: coeff} dict per slot."""
    terms = [({}, {}, {}) for _ in range(dec.rank)]
    for slot, (side, rows) in enumerate(zip((dec.side_x, dec.side_y, dec.side_z), dec.rows)):
        for mask, row in zip(side, rows):
            for l, v in row:
                terms[l][slot][mask] = v
    return terms


def _with_terms(dec, terms):
    """dec's sides and field with the given terms, numbered in list order."""
    rows = [tuple(tuple((l, term[slot][mask]) for l, term in enumerate(terms)
                        if mask in term[slot]) for mask in side)
            for slot, side in enumerate((dec.side_x, dec.side_y, dec.side_z))]
    return replace(dec, rank=len(terms), U=rows[0], V=rows[1], W=rows[2])


@pytest.mark.parametrize("field", [prime_field(7), GF256], ids=["p7", "gf2_8"])
@pytest.mark.parametrize("flaw, unit", [
    ("duplicated", True), ("dropped", True), ("replaced", True), ("two_monomials", False),
    ("moved", False), ("emptied", False), ("non_unit", False),
])
def test_unit_coefficient_check_names_the_expansions_first_mismatch(field, flaw, unit):
    # a duplicated term cancels in characteristic 2 and gives coefficient
    # 2 in odd characteristic; either way the key comparison fails and the
    # expansion names the same first mismatch as the oracle; "replaced"
    # keeps the rank but lists term 5's key twice and term 6's never, so
    # the key comparison fails although the lengths agree; the other
    # flaws are not unit terms and take the general path from the start:
    # "moved" keeps rank x entries in all, but term 5 has two and term 6
    # none; "emptied" leaves term 6 with no x entry and every other term
    # with one
    t = generate_P(2, field=field)
    dec = trivial_decomposition(t)
    terms = _terms_of(dec)
    x, y, z = terms[5]
    if flaw == "duplicated":
        terms.append(terms[5])
    elif flaw == "dropped":
        del terms[5]
    elif flaw == "replaced":
        terms[6] = terms[5]
    elif flaw == "two_monomials":
        other = next(m for m in dec.side_x if m not in x)
        terms[5] = ({**x, other: field.one}, y, z)
    elif flaw == "moved":
        terms[5] = ({**x, **terms[6][0]}, y, z)
        terms[6] = ({},) + terms[6][1:]
    elif flaw == "emptied":
        terms[6] = ({},) + terms[6][1:]
    else:
        terms[5] = (x, y, dict.fromkeys(z, 3))
    broken = _with_terms(dec, terms)
    assert (_unit_term_keys(broken) is not None) == unit
    want = _first_mismatch_by_expansion(t, broken)
    assert want is not None
    assert verify_decomposition(t, broken) == want


def test_unit_coefficient_check_accepts_any_term_order():
    t = generate_P(2, field=GF256)
    dec = trivial_decomposition(t)
    shuffled = _with_terms(dec, _terms_of(dec)[::-1])
    # out of the tensor's key order the key comparison fails, and the
    # expansion accepts it
    assert shuffled != dec and _unit_term_keys(shuffled) is not None
    assert verify_decomposition(t, shuffled) is None
    # entries other than one make the tensor disagree with every unit term
    bumped = Tensor(GF256, t.ground, {key: 2 for key in t.entries})
    assert verify_decomposition(bumped, shuffled) == min(t.entries)


def test_strassen_mm2_fixture():
    text = (FIXTURES / "mm2_strassen.rankdec").read_text()
    dec = parse_decomposition(text)
    assert dec.rank == 7
    f = dec.field
    entries = {}
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                a = 1 << ((i - 1) * 2 + (j - 1))
                b = 1 << (4 + (j - 1) * 2 + (k - 1))
                c = 1 << (8 + (k - 1) * 2 + (i - 1))
                entries[(a, b, c)] = f.one
    mm2 = Tensor(f, tuple(range(12)), entries)
    assert verify_decomposition(mm2, dec) is None
    # the fixture has no 'ground' line: the size comes from its masks
    assert dec.ground_size == 12


def test_decomposition_file_roundtrip():
    t = generate_P(2, field=gf2(16))
    dec = trivial_decomposition(t)
    text = write_decomposition(dec)
    dec2 = parse_decomposition(text)
    assert dec2 == dec


@st.composite
def sparse_decompositions(draw):
    """Random sparse decompositions: sides may miss the top ground element
    and rows may be empty."""
    field, top = draw(st.sampled_from([(GF101, 100), (GF256, 255)]))
    ground = draw(st.integers(1, 6))
    rank = draw(st.integers(0, 5))
    sides, rows = [], []
    for _ in range(3):
        side = draw(st.lists(st.integers(0, (1 << ground) - 1), unique=True, max_size=4))
        sides.append(tuple(side))
        rows.append(tuple(
            tuple(sorted(draw(st.dictionaries(st.integers(0, rank - 1), st.integers(1, top),
                                              max_size=rank)).items()))
            if rank else () for _ in side))
    return RankDecomposition(field, ground, rank, *sides, *rows)


@settings(max_examples=200, deadline=None, database=None)
@given(sparse_decompositions())
@example(trivial_decomposition(Tensor(F, (0, 1, 2), {(1, 1, 1): F.one, (2, 2, 2): F.one})))
def test_decomposition_text_roundtrip(dec):
    assert parse_decomposition(write_decomposition(dec)) == dec


def test_shape_error_on_uncovered_support():
    t = generate_P(1, field=F)
    dec = trivial_decomposition(t)
    bigger = dict(t.entries)
    bigger[(7, 7, 7)] = F.one  # support outside the side lists
    with pytest.raises(ShapeError):
        verify_decomposition(Tensor(F, t.ground, bigger), dec)


def test_tensor_ground_is_capped_at_63_elements():
    assert Tensor(F, tuple(range(63)), {}).ground_size == 63
    with pytest.raises(TooLarge):
        Tensor(F, tuple(range(64)), {})


def test_from_dense_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ShapeError, match=r"^V row width 2 != rank 1$"):
        RankDecomposition.from_dense(F, 3, 1, [1], [2], [4], [[1]], [[1, 0]], [[1]])


@pytest.mark.parametrize("label", "UVW")
@pytest.mark.parametrize("term", [-1, 6])
def test_shape_errors_name_the_slot_row_and_term(label, term):
    # U's first coefficient is 2, so the decomposition is not unit before
    # the shape walk reaches the short slot or the stray term
    t = generate_P(1, field=F)
    dec = trivial_decomposition(t)
    (l, _), *rest = dec.U[0]
    dec = replace(dec, U=(((l, 2), *rest),) + dec.U[1:])
    rows = getattr(dec, label)
    with pytest.raises(ShapeError, match=rf"^{label} has 2 rows for 3 side entries$"):
        verify_decomposition(t, replace(dec, **{label: rows[:2]}))
    stray = rows[:2] + (rows[2] + ((term, F.one),),)
    with pytest.raises(ShapeError, match=rf"^{label} row 2 names term {term} outside \[0, 6\)$"):
        verify_decomposition(t, replace(dec, **{label: stray}))


def test_kron_power_matches_repeated_kronecker():
    t = generate_P(1, field=F)
    p2 = kron_power(t, 2)
    assert len(p2.entries) == 36
    assert p2.ground == tuple(range(6))
