import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmat import (
    DEFAULT_INSTANCES,
    BoundExceeded,
    DomainMismatch,
    NotBijective,
    PreconditionFailed,
    build_instance,
    compose_endos,
    cyclic_group,
    endo_to_matrix,
    enumerate_endos,
    invert_endo,
    semidirect,
    trivial_action,
    trivial_group,
)
from sdmat.maps import FMap
from sdmat.oracle import _edge_walk
from pairwise_reference import composition_table
from test_determinant import _z3_by_s3_sign
from test_map_properties import _quaternion_group, _relabelled
from test_matrices import _s3_by_conjugation


def inner_automorphism(G, g):
    image = tuple(G.mul(G.mul(g, x), G.inv(g)) for x in G.elements())
    theta = FMap(G, G, image)
    assert theta.is_hom
    return theta


def test_trivial_group_census():
    # No oracle generator: the search keeps the one table it starts from.
    G = trivial_group()
    assert _edge_walk(G.table, G.identity) == ([], [])
    census = enumerate_endos(G)
    assert [e.image for e in census.endos] == [(0,)]
    assert census.n_autos == 1


def test_s3_census(s3_census):
    assert s3_census.n_endos == 10
    assert s3_census.n_autos == 6


def test_klein_census(klein_census):
    assert klein_census.n_endos == 16
    assert klein_census.n_autos == 6


def test_all_listed_maps_are_homs(s3_census):
    for theta in s3_census.endos:
        assert theta.is_hom
    auto_images = {a.image for a in s3_census.autos}
    assert auto_images <= {e.image for e in s3_census.endos}


def test_census_decides_bijectivity_when_autos_is_first_read(d4):
    # The census decides no bijectivity of its own; autos decides it once, on first read.
    census = enumerate_endos(d4.group)
    assert not any("is_bijective" in e.__dict__ for e in census.endos)
    autos = census.autos
    assert all("is_bijective" in e.__dict__ for e in census.endos)
    assert census.autos is autos
    assert autos == tuple(e for e in census.endos if len(set(e.image)) == d4.group.order)


def test_census_order_deterministic(s3):
    a = enumerate_endos(s3.group)
    b = enumerate_endos(s3.group)
    assert [e.image for e in a.endos] == [e.image for e in b.endos]
    images = [e.image for e in a.endos]
    assert images == sorted(images)


# ---------------------------------------------------------------------------
# The census decides each candidate on its Cayley-graph edges; the references
# here grow every map from generator images and scan all n^2 pairs, or scan the
# full map space depth first.


def reference_endos(G):
    """Every endomorphism of G: each choice of generator images, grown breadth first, kept iff all pairs obey the law."""
    n, e = G.order, G.identity
    found = set()
    for images in itertools.product(range(n), repeat=len(G.generators)):
        img = {e: e}
        frontier = [e]
        while frontier:
            step = []
            for x in frontier:
                for g, v in zip(G.generators, images):
                    y = G.mul(x, g)
                    if y not in img:
                        img[y] = G.mul(img[x], v)
                        step.append(y)
            frontier = step
        image = tuple(img[x] for x in range(n))
        if all(image[G.mul(a, b)] == G.mul(image[a], image[b]) for a in range(n) for b in range(n)):
            found.add(image)
    return found


def pruned_scan_endos(G):
    """Every endomorphism of G, sorted: a depth-first scan of all image tables, pruned on partial hom violations.

    The one census reference that uses no generating set.
    """
    t, n = G.table, G.order
    found = []
    img = [0] * n

    def consistent(upto):
        # Check every pair whose product is also already assigned.
        for a in range(upto + 1):
            row = t[a]
            for b in range(upto + 1):
                ab = row[b]
                if ab <= upto and img[ab] != t[img[a]][img[b]]:
                    return False
        return True

    def descend(pos):
        if pos == n:
            found.append(tuple(img))
            return
        for v in range(n):
            img[pos] = v
            if consistent(pos):
                descend(pos + 1)

    descend(0)
    return sorted(found)


def test_exhaustive_route_agrees():
    # Every catalog group of order <= 8: trivial, Z2-Z5, the Klein group, Z6, S3 and D4.
    groups = [g for g in (build_instance(x).group for x in DEFAULT_INSTANCES) if g.order <= 8]
    assert len(groups) == 9
    for G in groups:
        assert [e.image for e in enumerate_endos(G).endos] == pruned_scan_endos(G)


CENSUS_GROUPS = {
    "s3": build_instance("dihedral:3").group,
    "d4": build_instance("dihedral:4").group,
    "q8": _quaternion_group(),
    "s3_by_z2_conjugation": _s3_by_conjugation(cyclic_group(2)).group,
    "z3_by_s3_sign": _z3_by_s3_sign().group,
    "z2_cubed": semidirect(trivial_action(build_instance("klein").group, cyclic_group(2))).group,
}


@pytest.mark.parametrize(
    "G",
    [*CENSUS_GROUPS.values(), build_instance("dihedral:10").group],
    ids=[*CENSUS_GROUPS, "d10"],
)
def test_census_is_the_full_pair_scan(G):
    images = [e.image for e in enumerate_endos(G).endos]
    expected = reference_endos(G)
    assert set(images) == expected
    assert len(images) == len(expected)


def test_census_of_z2_cubed_rejects_no_candidate():
    # Three oracle generators, and every one of the 8^3 choices of their images is an endomorphism.
    G = CENSUS_GROUPS["z2_cubed"]
    assert len(_edge_walk(G.table, G.identity)[0]) == 3
    census = enumerate_endos(G)
    assert (census.n_endos, census.n_autos) == (512, 168)


@pytest.mark.parametrize(
    "G",
    [trivial_group(), *CENSUS_GROUPS.values(), build_instance("dihedral:10").group],
    ids=["trivial", *CENSUS_GROUPS, "d10"],
)
def test_edge_walk_steps_every_edge_once_on_known_ends(G):
    t, e = G.table, G.identity
    gens, stages = _edge_walk(t, e)
    assert len(stages) == len(gens)
    assigned = {e}
    edges = []
    for k, steps in enumerate(stages):
        # Each generator is the first element the earlier ones do not generate.
        assert gens[k] == min(set(range(G.order)) - assigned)
        for y, x, j, tree in steps:
            assert j <= k and x in assigned and y == t[x][gens[j]]
            assert tree == (y not in assigned)
            assigned.add(y)
            edges.append((x, j))
        # Stage k ends with every element of <gens[0..k]> assigned: a set closed under them.
        assert all(t[x][gens[j]] in assigned for x in assigned for j in range(k + 1))
    assert assigned == set(range(G.order))
    assert sorted(edges) == [(x, j) for x in range(G.order) for j in range(len(gens))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_census_of_a_relabelled_table_is_the_full_pair_scan(data):
    G = data.draw(st.sampled_from(list(CENSUS_GROUPS.values())), label="group")
    perm = data.draw(st.permutations(range(G.order)), label="perm")
    R = _relabelled(G, perm)
    images = {e.image for e in enumerate_endos(R).endos}
    assert images == reference_endos(R)
    # The same endomorphisms as G's, carried across the relabelling.
    moved = set()
    for e in enumerate_endos(G).endos:
        image = [0] * G.order
        for x, v in enumerate(e.image):
            image[perm[x]] = perm[v]
        moved.add(tuple(image))
    assert images == moved


@pytest.mark.parametrize(
    "name,n_endos,n_autos", [("dihedral:64", 4356, 2048), ("direct:32:4", 2048, 512)]
)
def test_order_128_census(name, n_endos, n_autos):
    census = enumerate_endos(build_instance(name, bound=128).group, bound=128)
    assert (census.n_endos, census.n_autos) == (n_endos, n_autos)


def test_bound_guard(d4):
    with pytest.raises(BoundExceeded):
        enumerate_endos(d4.group, bound=4)


def test_invert_identity():
    z5 = cyclic_group(5)
    ident = FMap(z5, z5, (0, 1, 2, 3, 4))
    assert invert_endo(ident) == ident


def test_invert_reflection_conjugation(s3):
    G = s3.group
    by_reflection = inner_automorphism(G, s3.embed_k(1))
    assert invert_endo(by_reflection) == by_reflection


def test_invert_rotation_conjugation(s3):
    G = s3.group
    by_r = inner_automorphism(G, s3.embed_h(1))
    by_r2 = inner_automorphism(G, s3.embed_h(2))
    assert invert_endo(by_r) == by_r2


def test_invert_requires_bijective(s3):
    G = s3.group
    collapse = FMap(G, G, tuple(G.identity for _ in G.elements()))
    with pytest.raises(NotBijective):
        invert_endo(collapse)


def test_compose_identity(s3_census, s3):
    ident = FMap(s3.group, s3.group, tuple(range(6)))
    for theta in s3_census.endos:
        assert compose_endos(ident, theta) == theta
        assert compose_endos(theta, ident) == theta


def test_compose_involution(s3):
    # theta(h, k) = (2h + beta(k), k) composes with itself to the identity
    G = s3.group
    image = []
    for g in G.elements():
        h, k = s3.decode(g)
        image.append(s3.encode((2 * h + k) % 3, k))
    theta = FMap(G, G, tuple(image))
    assert theta.is_hom
    composed = compose_endos(theta, theta)
    assert composed.image == tuple(range(6))


def test_compose_associativity(s3_census):
    endos = s3_census.endos[:4]
    for a in endos:
        for b in endos:
            for c in endos:
                assert compose_endos(a, compose_endos(b, c)) == compose_endos(
                    compose_endos(a, b), c
                )


def test_compose_group_mismatch(s3, klein):
    a = FMap(s3.group, s3.group, tuple(range(6)))
    b = FMap(klein.group, klein.group, tuple(range(4)))
    with pytest.raises(DomainMismatch, match="endomorphisms must map one group to itself"):
        compose_endos(a, b)


def test_endo_ops_reject_maps_off_one_group(s3):
    # An endomorphism maps one group to itself; these map H into G and G onto H.
    ident = FMap(s3.group, s3.group, tuple(range(6)))
    into_g = FMap(s3.H, s3.group, tuple(s3.embed_h(h) for h in range(3)))
    onto_h = FMap(s3.group, s3.H, tuple(s3.decode(g)[0] for g in range(6)))
    for other in (into_g, onto_h):
        for call, message in (
            (lambda: compose_endos(ident, other), "endomorphisms must map one group to itself"),
            (lambda: compose_endos(other, ident), "endomorphisms must map one group to itself"),
            (lambda: invert_endo(other), "endomorphisms must map one group to itself"),
            (lambda: endo_to_matrix(other, s3), "endomorphism does not belong to this product group"),
        ):
            with pytest.raises(DomainMismatch, match=message):
                call()


def _composition_product(instance):
    return _s3_by_conjugation(cyclic_group(2)) if instance == "s3_by_z2_conjugation" else build_instance(instance)


# trivial has no oracle generator and cyclic:5 one, so its keys have one entry; S3 x| Z2
# (conjugation) is nonabelian with two.  The list with repeats keeps the last index of each map.
@pytest.mark.parametrize(
    "instance", ["trivial", "klein", "dihedral:4", "metacyclic:3:4:2", "cyclic:5", "s3_by_z2_conjugation"]
)
def test_composition_table_is_compose_endos_looked_up(instance):
    endos = list(enumerate_endos(_composition_product(instance).group).endos)
    for subset in (endos, endos[::3], endos[::2] + endos[::3]):
        index = {t.image: i for i, t in enumerate(subset)}
        expected = [[index.get(compose_endos(a, b).image, -1) for b in subset] for a in subset]
        assert composition_table(subset) == expected
    assert composition_table([]) == []


def test_composition_table_rejects_a_map_that_is_not_an_endomorphism():
    G = build_instance("cyclic:5").group
    endos = list(enumerate_endos(G).endos)
    swapped = FMap(G, G, (0, 1, 3, 2, 4))  # fixes 0, but 1 + 1 = 2 goes to 3 = 1 + 1 + 1
    constant = FMap(G, G, (1,) * 5)  # misses img(0) = 0
    for bad in (swapped, constant):
        with pytest.raises(PreconditionFailed, match="map 2 is not an endomorphism"):
            composition_table(endos[:2] + [bad] + endos[2:])
    S = _s3_by_conjugation(cyclic_group(2)).group
    transposition = list(range(S.order))
    transposition[1], transposition[2] = 2, 1
    assert not FMap(S, S, tuple(transposition)).is_hom
    with pytest.raises(PreconditionFailed, match="map 0 is not an endomorphism"):
        composition_table([FMap(S, S, tuple(transposition))])


@pytest.mark.parametrize("instance", ["dihedral:10", "s3_by_z2_conjugation"])
def test_census_maps_are_plain_checked_fmaps(instance):
    G = _composition_product(instance).group
    for theta in enumerate_endos(G).endos:
        checked = FMap(G, G, theta.image)
        assert type(theta) is FMap and theta == checked and hash(theta) == hash(checked)


def test_composition_table_rejects_maps_off_one_group(s3, klein):
    with pytest.raises(DomainMismatch, match="endomorphisms must map one group to itself"):
        composition_table([FMap(s3.group, s3.group, tuple(range(6))), FMap(klein.group, klein.group, tuple(range(4)))])
