"""Pointwise map algebra laws, exhaustive on tiny spaces, sampled beyond."""

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
    map_add,
    map_compose,
    map_inverse,
    map_neg,
    zero_map,
)
from sdmat.maps import twisted_law_witness

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
