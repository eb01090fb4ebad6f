import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmat import (
    GroupValidationError,
    NotAssociative,
    build_instance,
    center,
    cyclic_group,
    enumerate_autos,
    enumerate_homs,
    greedy_generators,
    make_group,
    trivial_group,
)
from sdmat.groups import associativity_witness, word_sequence


def test_trivial_table():
    g = make_group([[0]])
    assert g.order == 1
    assert g.identity == 0
    assert g.inverses == (0,)


def test_z2_table():
    g = make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.inverses == (0, 1)
    assert g.is_abelian


def test_broken_table_rejected():
    # table[1][2] = 1 breaks cancellation; some axiom must be reported
    table = [[0, 1, 2], [1, 2, 1], [2, 0, 1]]
    with pytest.raises(GroupValidationError):
        make_group(table)


def test_non_square_table_rejected():
    with pytest.raises(ValueError):
        make_group([[0, 1], [1, 0], [0, 1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        make_group([[0, 1], [1, 7]])


def test_identity_detected_anywhere():
    # identity sits at index 1, not index 0
    z2 = [[1, 0], [0, 1]]
    g = make_group(z2)
    assert g.identity == 1


def test_center_abelian_is_everything():
    z3 = cyclic_group(3)
    assert sorted(center(z3)) == [0, 1, 2]


def test_center_s3_trivial(s3):
    zc = center(s3.group)
    assert list(zc) == [s3.group.identity]


def test_center_klein_full(klein):
    assert len(center(klein.group)) == 4


def test_center_d4_order_two(d4):
    assert len(center(d4.group)) == 2


def test_center_elements_commute(s3, d4):
    for P in (s3, d4):
        g = P.group
        for z in center(g):
            assert all(g.mul(z, x) == g.mul(x, z) for x in g.elements())


def test_hom_counts():
    z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    assert len(enumerate_homs(z3, z2)) == 1
    assert len(enumerate_homs(z4, z2)) == 2
    assert len(enumerate_homs(z2, z2)) == 2


def test_homs_verified_and_sorted():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    homs = enumerate_homs(z4, z2)
    assert [h.image for h in homs] == sorted(h.image for h in homs)
    for h in homs:
        assert h.is_hom


def test_auto_counts():
    assert len(enumerate_autos(cyclic_group(3))) == 2
    assert len(enumerate_autos(trivial_group())) == 1
    for p in (2, 3, 5, 7):
        assert len(enumerate_autos(cyclic_group(p))) == p - 1


def test_aut_klein(klein):
    assert len(enumerate_autos(klein.H)) == 1  # Z2
    assert len(enumerate_autos(klein.group)) == 6


def test_aut_z3_maps():
    z3 = cyclic_group(3)
    images = {a.image for a in enumerate_autos(z3)}
    assert images == {(0, 1, 2), (0, 2, 1)}


def test_greedy_generators_close():
    # the identity seeds the search, so every other element gets one entry
    for n in (1, 2, 5, 6):
        g = cyclic_group(n)
        gens = greedy_generators(g)
        seq = word_sequence(g, gens)
        assert len(seq) == g.order - 1


def test_greedy_generators_s3(s3):
    gens = greedy_generators(s3.group)
    assert len(word_sequence(s3.group, gens)) == 5
    assert len(gens) <= 2


GROUP_TABLES = [build_instance(name).group.table
                for name in ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "klein", "dihedral:3")]


def _assoc_violations(table):
    n = len(table)
    return [(a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
            if table[table[a][b]][c] != table[a][table[b][c]]]


@st.composite
def square_tables(draw):
    """Group tables under a random relabelling, each possibly with one entry changed, and random tables."""
    kind = draw(st.sampled_from(("group", "changed", "random")))
    if kind == "random":
        n = draw(st.integers(1, 4))
        return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    table = draw(st.sampled_from(GROUP_TABLES))
    n = len(table)
    perm = draw(st.permutations(range(n)))
    out = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        out[perm[a]][perm[b]] = perm[table[a][b]]
    if kind == "changed":
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        out[a][b] = draw(st.integers(0, n - 1))
    return out


@settings(max_examples=300, deadline=None)
@given(square_tables())
def test_associativity_witness_is_the_first_brute_violation(table):
    violations = _assoc_violations(table)
    assert associativity_witness(table) == (violations[0] if violations else None)


def test_make_group_names_the_first_non_associative_triple():
    # Z3 with 1*1 changed to 0 keeps its identity and inverses but loses associativity.
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    with pytest.raises(NotAssociative) as err:
        make_group(table)
    assert err.value.triple == _assoc_violations(table)[0]
