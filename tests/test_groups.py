import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmat import (
    GroupAction,
    GroupValidationError,
    NotAssociative,
    NotHomomorphic,
    build_instance,
    cyclic_group,
    enumerate_autos,
    enumerate_homs,
    enumerate_matrices,
    make_group,
    semidirect,
    trivial_group,
)
from sdmat.catalog import DEFAULT_INSTANCES
from pairwise_reference import associativity_witness, monoid_generators, product_table
from test_matrices import _s3_by_conjugation


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


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0, 0]], "no two-sided identity element exists"),
    ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
])
def test_make_group_names_the_missing_axiom(table, message):
    with pytest.raises(GroupValidationError, match=f"^{message}$"):
        make_group(table)


def test_non_square_table_rejected():
    with pytest.raises(ValueError):
        make_group([[0, 1], [1, 0], [0, 1]])


def test_out_of_range_entry_rejected():
    # Only exact ints in 0..n-1 are indices: not a bool, not a float equal to one.
    # Tuple rows, the shape of a gathered product table, are scanned by make_group as well.
    for bad in (7, 2, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"^row 1 contains invalid entry {bad!r}$"):
            make_group([[0, 1], [1, bad]])
        with pytest.raises(ValueError, match=f"^row 1 contains invalid entry {bad!r}$"):
            make_group(((0, 1), (1, bad)))
    # The first invalid entry is named.
    with pytest.raises(ValueError, match=r"^row 0 contains invalid entry -1$"):
        make_group([[0, -1, 5], [1, 2, 0], [2, 0, 1]])


def test_identity_detected_anywhere():
    # identity sits at index 1, not index 0
    z2 = [[1, 0], [0, 1]]
    g = make_group(z2)
    assert g.identity == 1


def test_center_abelian_is_everything():
    z3 = cyclic_group(3)
    assert sorted(z3.center) == [0, 1, 2]


def test_center_s3_trivial(s3):
    zc = s3.group.center
    assert list(zc) == [s3.group.identity]


def test_center_klein_full(klein):
    assert len(klein.group.center) == 4


def test_center_d4_order_two(d4):
    assert len(d4.group.center) == 2


def test_center_elements_commute(s3, d4):
    for P in (s3, d4):
        g = P.group
        for z in g.center:
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


def _reached(group, gens):
    """The elements reached from the identity by right multiplication by gens."""
    seen, todo = {group.identity}, [group.identity]
    while todo:
        x = todo.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def test_walk_reaches_each_element_once():
    groups = [trivial_group(), *map(cyclic_group, (2, 5, 6))]
    groups += [build_instance(name).group for name in ("dihedral:3", "metacyclic:8:2:5", "direct:4:4")]
    for g in groups:
        reached = [g.identity]
        for y, x, i in g.walk:
            assert x in reached  # x is reached before y
            assert y == g.mul(x, g.generators[i])
            reached.append(y)
        assert sorted(reached) == list(g.elements())  # every element once, the identity as the start
        # Greedy: each generator is the first element the earlier ones do not reach.
        for j, gen in enumerate(g.generators):
            assert gen == min(set(g.elements()) - _reached(g, g.generators[:j]))


def _greedy_reference(group):
    """Each generator the first index the earlier ones do not reach, and the breadth-first walk over them."""
    gens = []
    while len(_reached(group, gens)) < group.order:
        gens.append(min(set(group.elements()) - _reached(group, gens)))
    walk, seen, frontier = [], {group.identity}, [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    walk.append((y, x, i))
                    nxt.append(y)
        frontier = nxt
    return tuple(gens), tuple(walk)


def _catalog_groups():
    """H, K and the product of every catalog instance (dihedral:3 is S3) and of S3 x| Z2."""
    products = [build_instance(name) for name in DEFAULT_INSTANCES]
    products.append(_s3_by_conjugation(cyclic_group(2)))
    return [g for p in products for g in (p.H, p.K, p.group)]


def test_make_group_keeps_the_greedy_generators_and_walk():
    for g in _catalog_groups():
        assert (g.generators, g.walk) == _greedy_reference(g)
        # Rows of a group table are permutations, so the monoid pick is the same greedy pick.
        assert monoid_generators(g.table, g.identity) == list(g.generators)


def _monoid_table(name):
    mats = sorted(enumerate_matrices(build_instance(name)), key=lambda m: m.key())
    return product_table(mats)


MONOIDS = ["klein", "dihedral:4", "direct:3:2"]


@pytest.mark.parametrize("name", MONOIDS)
def test_monoid_generators_reach_the_monoid_largest_rows_first(name):
    table = _monoid_table(name)
    e = table.index(list(range(len(table))))
    gens = monoid_generators(tuple(map(tuple, table)), e)
    sizes = [len(set(table[g])) for g in gens]
    assert sizes == sorted(sizes, reverse=True)
    monoid = SimpleNamespace(identity=e, mul=lambda a, b: table[a][b])
    for j, g in enumerate(gens):
        assert g not in _reached(monoid, gens[:j])
    assert _reached(monoid, gens) == set(range(len(table)))
    assert len(gens) < len(table)


@pytest.mark.parametrize("name", MONOIDS)
def test_associativity_witness_on_monoid_product_tables(name):
    table = _monoid_table(name)
    n = len(table)
    assert -1 not in {v for row in table for v in row}
    assert associativity_witness(table) is None
    e = table.index(list(range(n)))
    # One entry changed off the identity's row and column: Light's test runs and must fail,
    # and the witness is the first brute-force triple.
    cells = [(a, b) for a, b in ((n - 1, n - 1), (n // 2, 1), (1, n // 2)) if e not in (a, b)]
    assert cells
    for a, b in cells:
        changed = [list(row) for row in table]
        changed[a][b] = (changed[a][b] + 1) % n
        first = next((t for t in itertools.product(range(n), repeat=3)
                      if changed[changed[t[0]][t[1]]][t[2]] != changed[t[0]][changed[t[1]][t[2]]]), None)
        assert first is not None
        assert associativity_witness(changed) == first


def test_greedy_generators_close():
    # the identity seeds the walk, so every other element gets one step
    for n in (1, 2, 5, 6):
        g = cyclic_group(n)
        assert len(g.walk) == g.order - 1
        assert _reached(g, g.generators) == set(g.elements())


def test_greedy_generators_s3(s3):
    g = s3.group
    assert len(g.walk) == 5
    assert len(g.generators) <= 2


GROUP_TABLES = [build_instance(name).group.table
                for name in ("trivial", "cyclic:2", "cyclic:3", "cyclic:4", "klein", "dihedral:3")]


def _assoc_violations(table):
    n = len(table)
    return [(a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
            if table[table[a][b]][c] != table[a][table[b][c]]]


def _random_loop(rnd, n):
    """A random Latin square on 0..n-1 with identity 0, filled cell by cell with backtracking."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        options = [v for v in range(n) if v not in table[i] and all(table[r][j] != v for r in range(i))]
        rnd.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def _direct_product(s, t):
    """The componentwise product of two tables, (p, q) encoded as p * len(t) + q."""
    m = len(t)
    return [[s[p1][p2] * m + t[q1][q2] for p2 in range(len(s)) for q2 in range(m)]
            for p1 in range(len(s)) for q1 in range(m)]


@st.composite
def square_tables(draw):
    """Group tables and random loops under a random relabelling, each group
    table possibly with one entry changed, and random tables.

    Loops (Latin squares with an identity) have the identity, and often the
    inverses, that make_group checks first, so they reach Light's test.  A
    loop times Z2 or Z3 has generators that pass the test next to ones that
    fail it.
    """
    kind = draw(st.sampled_from(("group", "changed", "random", "loop")))
    if kind == "random":
        n = draw(st.integers(1, 4))
        return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
    if kind == "loop":
        loop = _random_loop(draw(st.randoms(use_true_random=False)), draw(st.integers(1, 6)))
        table = _direct_product(loop, draw(st.sampled_from(GROUP_TABLES[:3])))
    else:
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


@settings(max_examples=400, deadline=None)
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


# The smallest loops that are not groups have order 5; in this one every
# element is its own inverse, so only associativity fails.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# In LOOP5 x Z2 the first greedy generator, 1 = (e, 1), passes Light's test
# and only the second, 2 = (1, e), fails it.
@pytest.mark.parametrize("table", [LOOP5, _direct_product(LOOP5, GROUP_TABLES[1])], ids=["loop5", "loop5xZ2"])
def test_make_group_rejects_a_non_associative_loop(table):
    with pytest.raises(NotAssociative) as err:
        make_group(table)
    assert err.value.triple == _assoc_violations(table)[0]


def test_semidirect_rejects_an_action_that_does_not_compose_like_k():
    # Both non-identity elements of Z3 act on Z3 by inversion, but f_1 o f_1 is
    # the identity, not f_2.  GroupAction bypasses make_action's check, so semidirect
    # runs it and raises its error; make_group rejects the product table as well.
    z3 = cyclic_group(3)
    inversion = (0, 2, 1)
    action = GroupAction(z3, z3, ((0, 1, 2), inversion, inversion))
    table = [[0] * 9 for _ in range(9)]
    for (h1, k1), (h2, k2) in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        table[h1 * 3 + k1][h2 * 3 + k2] = (h1 + action.images[k1][h2]) % 3 * 3 + (k1 + k2) % 3
    with pytest.raises(NotHomomorphic) as err:
        semidirect(action)
    assert err.value.pair == (1, 1)
    with pytest.raises(NotAssociative) as err:
        make_group(table)
    assert err.value.triple == _assoc_violations(table)[0]
