import gc
import weakref

import pytest

from sdmat import (
    DomainMismatch,
    FMap,
    NotBijective,
    build_instance,
    cyclic_group,
    identity_map,
    identity_matrix,
    is_crossed_hom,
    map_inverse,
    trivial_action,
    twisted_hom_witness,
    zero_map,
)
from map_algebra import map_act, map_add, map_compose, map_neg

Z2 = cyclic_group(2, "Z2")
Z3 = cyclic_group(3, "Z3")


def test_add_cancels_neg():
    phi = FMap(Z3, Z3, (1, 2, 0))
    assert map_add(phi, map_neg(phi)) == zero_map(Z3, Z3)


def test_add_id_id_is_squaring():
    doubled = map_add(identity_map(Z3), identity_map(Z3))
    assert doubled.image == (0, 2, 1)


def test_add_id_id_z2_is_zero():
    assert map_add(identity_map(Z2), identity_map(Z2)) == zero_map(Z2, Z2)


def test_identity_map_is_not_kept_on_its_group():
    # The map refers to its group, so a map kept on the group would put the group in a
    # reference cycle.  Each call builds an equal map, and a group is freed by reference
    # counting once dropped; the identity matrix keeps its four entries on its product.
    ident = identity_map(Z3)
    assert ident == FMap(Z3, Z3, (0, 1, 2)) and hash(ident) == hash(FMap(Z3, Z3, (0, 1, 2)))
    assert type(ident.image) is tuple and ident.is_hom
    assert identity_map(Z3) == ident and identity_map(Z3) is not ident
    assert not any(isinstance(value, FMap) for value in vars(Z3).values())
    product = build_instance("dihedral:4")
    assert identity_matrix(product).alpha is identity_matrix(product).alpha
    assert identity_matrix(product).delta == identity_map(product.K)
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = cyclic_group(5, "Z5")
        assert identity_map(group).is_hom
        freed = weakref.ref(group)
        del group
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_neg_zero_and_involution():
    # zero_map is built unchecked (maps._trusted), and is the checked map of its table.
    zero, checked = zero_map(Z2, Z3), FMap(Z2, Z3, (0, 0))
    assert type(zero) is FMap and zero == checked and hash(zero) == hash(checked)
    assert map_neg(zero_map(Z2, Z3)) == zero_map(Z2, Z3)
    assert map_neg(identity_map(Z3)).image == (0, 2, 1)
    phi = FMap(Z2, Z3, (2, 1))
    assert map_neg(map_neg(phi)) == phi


def test_compose():
    inv = FMap(Z3, Z3, (0, 2, 1))
    phi = FMap(Z2, Z3, (0, 1))
    assert map_compose(identity_map(Z3), phi) == phi
    assert map_compose(inv, inv) == identity_map(Z3)
    squaring = map_add(identity_map(Z3), identity_map(Z3))
    assert map_compose(squaring, squaring) == identity_map(Z3)


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        map_compose(FMap(Z2, Z2, (0, 1)), FMap(Z2, Z3, (0, 1)))


def test_map_act_trivial_action():
    act = trivial_action(Z3, Z2)
    phi = FMap(Z2, Z3, (0, 2))
    steer = FMap(Z2, Z2, (1, 0))
    assert map_act(phi, steer, act) == phi


def test_map_act_inversion(s3):
    phi = FMap(s3.K, s3.H, (0, 1))
    steer = identity_map(s3.K)
    acted = map_act(phi, steer, s3.action)
    # k=1 steers through inversion: 1 goes to 2
    assert acted.image == (0, 2)


def test_map_inverse():
    assert map_inverse(identity_map(Z3)) == identity_map(Z3)
    inv = FMap(Z3, Z3, (0, 2, 1))
    assert map_inverse(inv) == inv
    squaring = FMap(Z3, Z3, (0, 2, 1))
    assert map_inverse(squaring) == squaring
    assert map_inverse(squaring) is map_inverse(squaring)  # kept on the map
    # A call that raises keeps nothing, so the next one raises again.
    zero = zero_map(Z3, Z3)
    for _ in range(2):
        with pytest.raises(NotBijective):
            map_inverse(zero)


def test_crossed_hom_zero_map(s3):
    assert is_crossed_hom(zero_map(s3.K, s3.H), identity_map(s3.K), s3.action)


def test_crossed_homs_into_z3(s3):
    # with delta = id every pointed map Z2 -> Z3 satisfies the crossed law:
    # beta(1+1) = beta(1) - beta(1) = 0
    ident = identity_map(s3.K)
    for b in range(3):
        beta = FMap(s3.K, s3.H, (0, b))
        assert is_crossed_hom(beta, ident, s3.action)


def test_crossed_hom_must_be_pointed(s3):
    beta = FMap(s3.K, s3.H, (1, 0))
    assert not is_crossed_hom(beta, identity_map(s3.K), s3.action)
    witness = twisted_hom_witness(beta, identity_map(s3.K), s3.action)
    assert witness is not None


def test_fmap_validation():
    with pytest.raises(DomainMismatch):
        FMap(Z2, Z3, (0, 3))
    with pytest.raises(DomainMismatch):
        FMap(Z2, Z3, (0,))


@pytest.mark.parametrize(
    "image",
    [
        [0, 1],  # a list: unequal to FMap(Z2, Z2, (0, 1)) and unhashable
        (False, True),  # bools pass a range test
        (0.0, 1.0),  # and so do floats
    ],
    ids=["list", "bools", "floats"],
)
def test_fmap_rejects_an_image_that_is_not_a_tuple_of_ints(image):
    with pytest.raises(DomainMismatch, match="tuple of int"):
        FMap(Z2, Z2, image)
    assert FMap(Z2, Z2, (0, 1)) == FMap(Z2, Z2, tuple(int(v) for v in image))
