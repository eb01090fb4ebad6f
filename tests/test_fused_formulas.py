"""The determinants, closed-form inverses and factor entries against their map-algebra forms.

``det_k``, ``det_h``, ``invert_via_det_k`` and ``invert_via_det_h`` evaluate
their formulas in one pass over the image tables and build their results
unchecked (``maps._trusted``).  The reference copies below write the same
formulas one map operation at a time, as ``map_add``/``map_neg``/
``map_compose`` chains; the factor entries of ``factorization`` are still
such chains and are pinned to their copies as well.  The nonabelian
products are where the order of a pointwise product shows.
"""

import pytest

from sdmat import (
    FMap,
    SdmatError,
    build_instance,
    cyclic_group,
    det_h,
    det_k,
    enumerate_matrices,
    factor_abcd,
    identity_map,
    invert_via_det_h,
    invert_via_det_k,
    is_automorphism_matrix,
    map_act,
    map_add,
    map_compose,
    map_inverse,
    map_neg,
    mat_mul,
    matrix_to_endo,
    unit_diagonal_b_factor,
)
from sdmat.maps import _trusted
from test_determinant import _z3_by_s3_sign
from test_matrices import _s3_by_conjugation


def _det_k_ref(m):
    ainv = map_inverse(m.alpha)
    return map_add(map_neg(map_compose(m.gamma, map_compose(ainv, m.beta))), m.delta)


def _det_h_ref(m):
    dinv = map_inverse(m.delta)
    return map_add(m.alpha, map_neg(map_compose(m.beta, map_compose(dinv, m.gamma))))


def _invert_k_ref(m):
    """(alpha', beta', gamma', delta') of the K-side closed form."""
    ainv = map_inverse(m.alpha)
    dkinv = map_inverse(_det_k_ref(m))
    gprime = map_compose(dkinv, map_neg(map_compose(m.gamma, ainv)))
    bprime = map_neg(map_compose(ainv, map_compose(m.beta, dkinv)))
    aprime = map_add(ainv, map_neg(map_compose(ainv, map_compose(m.beta, gprime))))
    return aprime, bprime, gprime, dkinv


def _invert_h_ref(m):
    """(alpha', beta', gamma', delta') of the H-side closed form."""
    dinv = map_inverse(m.delta)
    dhinv = map_inverse(_det_h_ref(m))
    bprime = map_compose(dhinv, map_neg(map_compose(m.beta, dinv)))
    gprime = map_neg(map_compose(dinv, map_compose(m.gamma, dhinv)))
    dprime = map_add(map_neg(map_compose(dinv, map_compose(m.gamma, bprime))), dinv)
    return dhinv, bprime, gprime, dprime


def _beta_b_ref(m):
    """beta of the B-factor of ``factor_abcd``: det_H(m)^-1 beta delta^-1."""
    return map_compose(map_inverse(_det_h_ref(m)), map_compose(m.beta, map_inverse(m.delta)))


def _b0_ref(m):
    """beta of ``unit_diagonal_b_factor``: (1 - beta gamma)^-1 beta."""
    return map_compose(map_inverse(_det_h_ref(m)), m.beta)


def _checked(phi):
    """``phi``, after the public constructor has accepted its table and agrees with it."""
    assert type(phi) is FMap and type(phi.image) is tuple
    assert FMap(phi.dom, phi.cod, phi.image) == phi
    return phi


def _same(fused, reference):
    assert _checked(fused) == reference, (fused, reference)


def _compare_with_references(m):
    """Each fused value of ``m`` against its reference copy, where it is defined; the names compared."""
    compared = set()
    if m.alpha.is_bijective:
        _same(det_k(m), _det_k_ref(m))
        compared.add("det_k")
        if det_k(m).is_bijective:
            for fused, ref in zip(invert_via_det_k(m).entries(), _invert_k_ref(m)):
                _same(fused, ref)
            compared.add("invert_via_det_k")
    if m.delta.is_bijective:
        _same(det_h(m), _det_h_ref(m))
        compared.add("det_h")
        if det_h(m).is_bijective:
            for fused, ref in zip(invert_via_det_h(m).entries(), _invert_h_ref(m)):
                _same(fused, ref)
            compared.add("invert_via_det_h")
    try:
        factors = factor_abcd(m)
    except SdmatError:
        pass
    else:
        _same(factors.b.beta, _beta_b_ref(m))
        compared.add("beta_b")
    if m.alpha.image == m.delta.image == tuple(range(m.alpha.dom.order)) and is_automorphism_matrix(m):
        try:
            b0 = unit_diagonal_b_factor(m).beta
        except SdmatError:
            pass
        else:
            _same(b0, _b0_ref(m))
            compared.add("b0")
    return compared


_PRODUCTS = {
    "klein": lambda: build_instance("klein"),
    "direct:3:3": lambda: build_instance("direct:3:3"),
    "z3_by_s3_sign": _z3_by_s3_sign,
    "s3_by_z2_conjugation": lambda: _s3_by_conjugation(cyclic_group(2)),
    "s3_by_s3_conjugation": lambda: _s3_by_conjugation(build_instance("dihedral:3").group),
}


@pytest.mark.parametrize("instance", sorted(_PRODUCTS))
def test_fused_formulas_match_the_map_algebra(instance):
    seen = set()
    for m in enumerate_matrices(_PRODUCTS[instance]()):
        seen |= _compare_with_references(m)
    assert seen >= {"det_k", "det_h", "invert_via_det_k", "invert_via_det_h", "beta_b"}


@pytest.mark.parametrize("instance", ["trivial", "cyclic:1", "direct:1:3", "direct:3:1"])
def test_fused_formulas_on_a_factor_of_order_one(instance):
    # A one-entry table is where a one-index gather would return a bare entry.
    P = build_instance(instance)
    for m in enumerate_matrices(P):
        assert _compare_with_references(m)
        if m.alpha.is_bijective and m.delta.is_bijective and is_automorphism_matrix(m):
            factors = factor_abcd(m)
            assert factors.a.alpha == _det_h_ref(m)
            assert factors.product() == m


@pytest.mark.parametrize("instance", ["klein", "z3_by_s3_sign", "s3_by_s3_conjugation"])
def test_every_product_and_endomorphism_table_passes_the_public_check(instance):
    P = _PRODUCTS[instance]()
    mats = enumerate_matrices(P)[::7]
    for left in mats:
        _checked(matrix_to_endo(left))
        for right in mats:
            for entry in mat_mul(left, right).entries():
                _checked(entry)


def test_a_trusted_map_is_the_checked_map():
    P = _z3_by_s3_sign()
    H, K, G = P.H, P.K, P.group
    tables = [
        (H, H, (0, 2, 1)),
        (H, H, (0, 0, 0)),
        (K, H, tuple(k % 3 for k in range(K.order))),
        (K, K, tuple(P.K.inverses)),
        (G, G, tuple(range(G.order))),
    ]
    for dom, cod, image in tables:
        trusted, checked = _trusted(dom, cod, image), FMap(dom, cod, image)
        assert type(trusted) is FMap
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert trusted.is_hom == checked.is_hom
        assert trusted.is_bijective == checked.is_bijective
        assert repr(trusted) == repr(checked)
        if checked.is_bijective:
            inverse = map_inverse(trusted)
            assert map_inverse(trusted) is inverse
            assert inverse == map_inverse(checked)
            assert map_compose(inverse, trusted) == identity_map(dom)


def test_map_algebra_results_are_trusted_maps_that_pass_the_check(s3):
    H, K, act = s3.H, s3.K, s3.action
    phi, psi = FMap(H, H, (0, 2, 1)), FMap(H, H, (1, 2, 0))
    steer = FMap(H, K, (0, 1, 0))
    for result in (
        map_add(phi, psi),
        map_neg(psi),
        map_compose(phi, psi),
        map_act(phi, steer, act),
        map_inverse(psi),
    ):
        _checked(result)
