"""Pointwise map algebra laws, exhaustive on tiny spaces, sampled beyond."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmat import (
    FMap,
    build_instance,
    cyclic_group,
    enumerate_homs,
    identity_map,
    make_group,
    map_inverse,
    twisted_hom_witness,
    zero_map,
)
from sdmat.groups import enumerate_twisted_maps
from sdmat.maps import twisted_law_witness
from map_algebra import map_add, map_compose, map_neg
from test_determinant import _z3_by_s3_sign
from test_matrices import _s3_by_conjugation

Z2 = cyclic_group(2, "Z2")
Z3 = cyclic_group(3, "Z3")
Z4 = cyclic_group(4, "Z4")
K4 = build_instance("direct:2:2").group  # the Klein group, named by its parameters
S3 = build_instance("dihedral:3").group

_EXHAUSTIVE_TRIPLES = 40  # map-space size cap for the full triple scan

SMALL_PAIRS = [
    (Z2, Z2),
    (Z2, Z3),
    (Z2, Z4),
    (Z2, K4),
    (Z3, Z2),
    (Z3, Z3),
    (Z4, Z2),
    (Z4, Z4),
    (K4, Z2),
    (K4, K4),
]


def all_maps(dom, cod):
    for image in itertools.product(range(cod.order), repeat=dom.order):
        yield FMap(dom, cod, image)


def map_strategy(dom, cod):
    entry = st.integers(0, cod.order - 1)
    return st.tuples(*([entry] * dom.order)).map(lambda t: FMap(dom, cod, t))


@pytest.mark.parametrize("dom,cod", SMALL_PAIRS, ids=lambda g: g.name or str(g.order))
def test_identity_and_inverse_laws_exhaustive(dom, cod):
    zero = zero_map(dom, cod)
    for phi in all_maps(dom, cod):
        assert map_add(phi, zero) == phi
        assert map_add(zero, phi) == phi
        assert map_add(phi, map_neg(phi)) == zero
        assert map_add(map_neg(phi), phi) == zero


@pytest.mark.parametrize(
    "dom,cod",
    [p for p in SMALL_PAIRS if p[1].order ** p[0].order <= _EXHAUSTIVE_TRIPLES],
    ids=lambda g: g.name or str(g.order),
)
def test_associativity_exhaustive(dom, cod):
    maps = list(all_maps(dom, cod))
    for a in maps:
        for b in maps:
            ab = map_add(a, b)
            for c in maps:
                assert map_add(ab, c) == map_add(a, map_add(b, c))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_associativity_sampled(data):
    dom, cod = data.draw(st.sampled_from([(Z4, Z4), (K4, K4), (Z2, S3), (S3, S3)]))
    strat = map_strategy(dom, cod)
    a, b, c = data.draw(strat), data.draw(strat), data.draw(strat)
    assert map_add(map_add(a, b), c) == map_add(a, map_add(b, c))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_double_neg_sampled(data):
    dom, cod = data.draw(st.sampled_from([(Z4, K4), (S3, S3), (K4, Z4)]))
    phi = data.draw(map_strategy(dom, cod))
    assert map_neg(map_neg(phi)) == phi


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compose_associativity_sampled(data):
    f = data.draw(map_strategy(Z3, Z4))
    g = data.draw(map_strategy(Z4, K4))
    h = data.draw(map_strategy(K4, S3))
    assert map_compose(h, map_compose(g, f)) == map_compose(map_compose(h, g), f)


@given(st.permutations(list(range(6))))
@settings(max_examples=100, deadline=None)
def test_inverse_of_bijection_sampled(image):
    phi = FMap(S3, S3, tuple(image))
    inv = map_inverse(phi)
    assert map_compose(inv, phi) == identity_map(S3)
    assert map_compose(phi, inv) == identity_map(S3)


# ---------------------------------------------------------------------------
# The twisted law phi(xy) = phi(x) * t_x(phi(y)), against a brute pair scan

LAW_PAIRS = [(Z2, Z2), (Z2, Z3), (Z2, S3), (Z3, Z3), (Z3, S3), (Z4, Z2), (Z4, Z4), (K4, Z2), (K4, K4), (S3, Z2)]


def _violations(dom, cod, image, twist):
    """Every (x, y, lhs, rhs) breaking the law, x-major, by the group methods."""
    out = []
    for x in dom.elements():
        for y in dom.elements():
            lhs = image[dom.mul(x, y)]
            rhs = cod.mul(image[x], twist[x][image[y]])
            if lhs != rhs:
                out.append((x, y, lhs, rhs))
    return out


# Endomorphism rows make twists under which many maps obey the law.
ENDO_ROWS = {id(g): [phi.image for phi in enumerate_homs(g, g)] for g in (Z2, Z3, Z4, K4, S3)}


@st.composite
def law_cases(draw):
    dom, cod = draw(st.sampled_from(LAW_PAIRS))
    value = st.integers(0, cod.order - 1)
    endo = st.sampled_from(ENDO_ROWS[id(cod)])
    identity = tuple(range(cod.order))
    row = st.one_of(st.just(identity), endo, st.tuples(*[value] * cod.order))
    twist = draw(st.one_of(st.just((identity,) * dom.order), st.tuples(*[row] * dom.order)))
    random_image = st.tuples(*[value] * dom.order)
    # Maps that obey the drawn law, so that both outcomes are drawn often.
    obeying = [img for img in itertools.product(range(cod.order), repeat=dom.order)
               if not _violations(dom, cod, img, twist)]
    image = draw(st.one_of(st.sampled_from(obeying), random_image) if obeying else random_image)
    return dom, cod, image, twist


@settings(max_examples=300, deadline=None)
@given(law_cases())
def test_twisted_law_witness_is_the_first_brute_violation(case):
    dom, cod, image, twist = case
    violations = _violations(dom, cod, image, twist)
    assert twisted_law_witness(dom, cod, image, twist) == (violations[0] if violations else None)


# ---------------------------------------------------------------------------
# Laws decided on generators (maps module docstring) against the full pair scan


def _quaternion_group():
    """Q8 as signed units: index 4*sign + unit, units 1, i, j, k."""
    units = {(0, 0): (0, 0), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
             (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0)}

    def mul(a, b):
        (sa, ua), (sb, ub) = divmod(a, 4), divmod(b, 4)
        sign, unit = units.get((ua, ub), (0, ua or ub))
        return 4 * ((sa + sb + sign) % 2) + unit

    return make_group([[mul(a, b) for b in range(8)] for a in range(8)], name="Q8")


S3_BY_Z2 = _s3_by_conjugation(cyclic_group(2))
S3_BY_S3 = _s3_by_conjugation(build_instance("dihedral:3").group)
HOM_GROUPS = [S3, build_instance("dihedral:4").group, _quaternion_group(), make_group([[0]], names=["e"], name="1"), S3_BY_Z2.group]
ACTIONS = [S3_BY_Z2.action, S3_BY_S3.action]


@functools.cache
def _homs(dom, cod):
    return [phi.image for phi in enumerate_homs(dom, cod)]


def _first_violation(dom, cod, image, twist):
    violations = _violations(dom, cod, image, twist)
    return violations[0] if violations else None


@st.composite
def _maps_near_homs(draw, dom, cod):
    """A random map, a homomorphism, or a homomorphism with one entry changed."""
    value = st.integers(0, cod.order - 1)
    image = draw(st.one_of(st.tuples(*[value] * dom.order), st.sampled_from(_homs(dom, cod))))
    if draw(st.booleans()):
        at = draw(st.integers(0, dom.order - 1))
        image = image[:at] + (draw(value),) + image[at + 1:]
    return image


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_is_hom_on_generators_is_the_full_pair_scan(data):
    dom = data.draw(st.sampled_from(HOM_GROUPS), label="dom")
    cod = data.draw(st.sampled_from(HOM_GROUPS), label="cod")
    image = data.draw(_maps_near_homs(dom, cod), label="image")
    untwisted = (tuple(range(cod.order)),) * dom.order
    assert FMap(dom, cod, image).is_hom == (_first_violation(dom, cod, image, untwisted) is None)


def _grown(dom, cod, twist, gen_images):
    """The map grown from generator images along the domain's walk: it obeys the law on the walk's edges."""
    image = [cod.identity] * dom.order
    for y, x, i in dom.walk:
        image[y] = cod.mul(image[x], twist[x][gen_images[i]])
    return tuple(image)


@functools.cache
def _deceiving(dom, action):
    """(phi, steer) with steer no homomorphism and phi obeying the law on every generator, not on every pair."""
    H, K = action.H, action.K
    untwisted = (tuple(range(K.order)),) * dom.order
    out = []
    for steer in itertools.product(range(K.order), repeat=dom.order):
        if _first_violation(dom, K, steer, untwisted) is None:
            continue
        twist = [action.images[k] for k in steer]
        for gen_images in itertools.product(range(H.order), repeat=len(dom.generators)):
            image = _grown(dom, H, twist, gen_images)
            on_generators = all(image[dom.mul(x, s)] == H.mul(image[x], twist[x][image[s]])
                                for x in dom.elements() for s in dom.generators)
            if on_generators and _violations(dom, H, image, twist):
                out.append((image, steer))
    return out


# Where twisted_hom_witness must not decide on generators.  Of the domains and actions
# here, only these two have such maps in useful numbers: 708 of the 7752 grown maps with
# a non-homomorphic steer for Z4 into S3 x| S3, 32 of 9072 for D4 into S3 x| Z2.
DECEIVING = [(Z4, S3_BY_S3.action), (HOM_GROUPS[1], S3_BY_Z2.action)]


@st.composite
def _twisted_cases(draw):
    if draw(st.integers(0, 3)) == 0:
        dom, action = draw(st.sampled_from(DECEIVING))
        image, steer = draw(st.sampled_from(_deceiving(dom, action)))
        return action, FMap(dom, action.H, image), FMap(dom, action.K, steer)
    action = draw(st.sampled_from(ACTIONS))
    dom = draw(st.sampled_from(HOM_GROUPS))
    H, K = action.H, action.K
    steer = draw(_maps_near_homs(dom, K))
    twist = [action.images[k] for k in steer]
    gen_images = draw(st.tuples(*[st.integers(0, H.order - 1)] * len(dom.generators)))
    value = st.integers(0, H.order - 1)
    image = draw(st.one_of(st.just(_grown(dom, H, twist, gen_images)), st.tuples(*[value] * dom.order)))
    if draw(st.booleans()):
        at = draw(st.integers(0, dom.order - 1))
        image = image[:at] + (draw(value),) + image[at + 1:]
    return action, FMap(dom, H, image), FMap(dom, K, steer)


@settings(max_examples=600, deadline=None)
@given(_twisted_cases())
def test_twisted_hom_witness_is_the_first_full_scan_violation(case):
    action, phi, steer = case
    twist = [action.images[k] for k in steer.image]
    assert twisted_hom_witness(phi, steer, action) == _first_violation(phi.dom, phi.cod, phi.image, twist)


def test_a_map_from_the_trivial_group_off_the_identity_is_no_homomorphism():
    # The trivial group has no generators, so only phi(e) = e decides.
    one = make_group([[0]], names=["e"], name="1")
    assert FMap(one, Z2, (0,)).is_hom
    assert not FMap(one, Z2, (1,)).is_hom
    assert not FMap(one, S3, (4,)).is_hom


# ---------------------------------------------------------------------------
# The twisted-map search (groups.enumerate_twisted_maps) against a filter of every map


def _relabelled(G, perm):
    """G with element a renamed perm[a]."""
    t = G.table
    out = [[0] * G.order for _ in range(G.order)]
    for a, b in itertools.product(range(G.order), repeat=2):
        out[perm[a]][perm[b]] = perm[t[a][b]]
    return make_group(out)


@functools.cache
def _law_maps(dom, cod, twist):
    """Every map dom -> cod obeying the law on every pair, in image-table order."""
    pairs = list(itertools.product(dom.elements(), repeat=2))
    return [image for image in itertools.product(range(cod.order), repeat=dom.order)
            if all(image[dom.mul(x, y)] == cod.mul(image[x], twist[x][image[y]]) for x, y in pairs)]


def _untwisted(dom, cod):
    return (tuple(range(cod.order)),) * dom.order


# The alpha search of an action twists maps H -> H by f_{gamma(h)}, the beta search
# maps K -> H by f_{delta(k)}; gamma and delta are homomorphisms into K.
SEARCH_ACTIONS = [S3_BY_S3.action, _z3_by_s3_sign().action, S3_BY_Z2.action, build_instance("dihedral:4").action]
SEARCH_PAIRS = [(dom, cod) for dom in (Z2, Z3, Z4, K4, S3) for cod in (Z2, Z3, K4, S3)
                if cod.order ** dom.order <= 6 ** 6]


@st.composite
def _search_cases(draw):
    """(dom, cod, twist): the identity twist, or t_x = f_{steer(x)} for a homomorphism steer."""
    if draw(st.booleans()):
        dom, cod = draw(st.sampled_from(SEARCH_PAIRS))
        return dom, cod, _untwisted(dom, cod)
    action = draw(st.sampled_from(SEARCH_ACTIONS))
    dom = draw(st.sampled_from((action.H, action.K)))
    steer = draw(st.sampled_from(_law_maps(dom, action.K, _untwisted(dom, action.K))))
    return dom, action.H, tuple(action.images[k] for k in steer)


@settings(max_examples=200, deadline=None)
@given(_search_cases(), st.data())
def test_twisted_map_search_is_the_filter_of_every_map(case, data):
    dom, cod, twist = case
    expected = _law_maps(dom, cod, twist)
    assert [phi.image for phi in enumerate_twisted_maps(dom, cod, twist)] == expected
    # Under a relabelling of the domain, its generators and walk change; the maps move with it.
    perm = data.draw(st.permutations(range(dom.order)), label="perm")
    back = [perm.index(x) for x in range(dom.order)]
    moved = sorted(tuple(image[back[x]] for x in range(dom.order)) for image in expected)
    found = enumerate_twisted_maps(_relabelled(dom, perm), cod, [twist[back[x]] for x in range(dom.order)])
    assert [phi.image for phi in found] == moved
