import sys
import weakref
from collections import Counter

import pytest

from sdmat import (
    EndoMatrix,
    FMap,
    PreconditionFailed,
    VerificationFailed,
    build_instance,
    cli_main,
    cyclic_group,
    det_h,
    det_k,
    determinant,
    dual_det_inverses,
    enumerate_matrices,
    identity_map,
    identity_matrix,
    invert_combined,
    invert_via_det_h,
    invert_via_det_k,
    is_invertible,
    make_action,
    map_inverse,
    mat_mul,
    matrix_to_endo,
    semidirect,
    unit_diagonal_a_factor,
)
from sdmat import groups
from sdmat.verify import run_verification
from endo_reference import invert_endo
from map_algebra import map_add, map_compose, map_neg
from test_catalog_cli import _write_matrix


def _matrix(P, alpha, beta, gamma, delta):
    return EndoMatrix(
        alpha=FMap(P.H, P.H, tuple(alpha)),
        beta=FMap(P.K, P.H, tuple(beta)),
        gamma=FMap(P.H, P.K, tuple(gamma)),
        delta=FMap(P.K, P.K, tuple(delta)),
        context=P,
    )


def involution_matrix(P):
    return _matrix(P, (0, 2, 1), (0, 1), (0, 0, 0), (0, 1))


def test_identity_determinants(s3):
    ident = identity_matrix(s3)
    dk = det_k(ident)
    dh = det_h(ident)
    assert dk == identity_map(s3.K)
    assert dh == identity_map(s3.H)
    assert dk.is_bijective and dh.is_bijective
    assert dk.is_hom and dh.is_hom


def test_zero_gamma_reduces(s3):
    m = involution_matrix(s3)
    assert det_k(m) == m.delta
    assert det_h(m) == m.alpha


def test_determinants_need_bijective_entry(s3):
    zero = _matrix(s3, (0, 0, 0), (0, 0), (0, 0, 0), (0, 0))
    with pytest.raises(PreconditionFailed, match="alpha must be bijective to form the K-side determinant"):
        det_k(zero)
    with pytest.raises(PreconditionFailed, match="delta must be bijective to form the H-side determinant"):
        det_h(zero)


def test_involution_is_self_inverse(s3):
    m = involution_matrix(s3)
    ident = identity_matrix(s3)
    assert invert_via_det_k(m) == m
    assert invert_via_det_h(m) == m
    assert invert_combined(m) == m
    assert mat_mul(m, m) == ident


def test_identity_inverts_to_identity(s3):
    ident = identity_matrix(s3)
    assert invert_via_det_k(ident) == ident
    assert invert_via_det_h(ident) == ident
    assert invert_combined(ident) == ident


def test_formula_inverse_matches_oracle(s3_matrices, d4_matrices):
    for mats in (s3_matrices, d4_matrices):
        for m in mats:
            if not (m.alpha.is_bijective and det_k(m).is_bijective):
                continue
            inverse = invert_via_det_k(m)
            assert matrix_to_endo(inverse) == invert_endo(matrix_to_endo(m))


def test_both_formulas_agree(d4_matrices, direct33_matrices):
    for m in d4_matrices + direct33_matrices:
        if not (m.alpha.is_bijective and m.delta.is_bijective):
            continue
        if not det_k(m).is_bijective:
            continue
        inverse = invert_via_det_k(m)
        assert inverse == invert_via_det_h(m) == invert_combined(m)
        assert dual_det_inverses(m) == (inverse.alpha, inverse.delta)


def test_det_k_not_invertible_raises(klein):
    # (1 1; 1 1) over the direct product Z2 x Z2: det_K is the zero map
    m = _matrix(klein, (0, 1), (0, 1), (0, 1), (0, 1))
    assert not det_k(m).is_bijective
    with pytest.raises(PreconditionFailed, match="the K-side determinant is not bijective"):
        invert_via_det_k(m)
    assert not matrix_to_endo(m).is_bijective


def test_is_invertible_method_tags(s3):
    decided = is_invertible(identity_matrix(s3))
    assert decided.invertible and decided.method == "det_k"
    zero = _matrix(s3, (0, 0, 0), (0, 0), (0, 0, 0), (0, 0))
    decided = is_invertible(zero)
    assert not decided.invertible and decided.method == "brute"
    collapse = _matrix(s3, (0, 0, 0), (0, 1), (0, 0, 0), (0, 1))
    decided = is_invertible(collapse)
    assert not decided.invertible and decided.method == "det_h"


# Determinants and closed-form inverses are values of their matrix object.


def test_determinants_and_inverses_are_kept_on_the_matrix(s3):
    m = involution_matrix(s3)
    assert det_k(m) is det_k(m) and det_h(m) is det_h(m)
    assert invert_via_det_k(m) is invert_via_det_k(m) and invert_via_det_h(m) is invert_via_det_h(m)
    assert is_invertible(m).inverse is invert_via_det_k(m)


def test_is_invertible_returns_the_kept_det_h_inverse(direct33_matrices):
    m = next(m for m in direct33_matrices if _takes_det_h_route(m))
    decided = is_invertible(m)
    assert decided.method == "det_h"
    assert decided.inverse is invert_via_det_h(m)


def test_equal_tables_of_one_product_share_their_determinant(s3):
    # A determinant is one object per product and table: equal matrices share theirs, and so
    # does any matrix whose determinant has the same table.  The closed-form inverses stay
    # per matrix, each certified on its own matrix.
    m, twin = involution_matrix(s3), involution_matrix(s3)
    assert m == twin and m is not twin
    assert det_k(m) is det_k(twin) and det_h(m) is det_h(twin)
    assert det_k(m) == identity_map(s3.K) and det_k(identity_matrix(s3)) is det_k(m)
    assert invert_via_det_k(m) == invert_via_det_k(twin) and invert_via_det_k(m) is not invert_via_det_k(twin)


def test_builds_of_one_instance_share_no_determinant():
    # Each build is its own product with its own groups, so no determinant crosses products.
    builds = []
    for _ in range(2):
        P = build_instance("dihedral:8")
        mats = sorted(enumerate_matrices(P), key=lambda m: m.key())
        dets = [det_k(m) for m in mats if m.alpha.is_bijective] + [det_h(m) for m in mats if m.delta.is_bijective]
        assert all(d.dom is d.cod and d.dom in (P.H, P.K) for d in dets)
        builds.append(dets)
    first, second = builds
    assert [d.image for d in first] == [d.image for d in second]
    assert not {id(d) for d in first} & {id(d) for d in second}
    # Within one build, equal tables of one side are one object.
    assert len({id(d) for d in first}) == len({(id(d.dom), d.image) for d in first}) < len(first)


def test_kept_values_die_with_their_matrix(s3):
    m = involution_matrix(s3)
    invert_via_det_k(m), invert_via_det_h(m), matrix_to_endo(m)
    ref = weakref.ref(m)
    del m
    assert ref() is None


def test_failed_preconditions_are_not_kept(s3, klein):
    zero = _matrix(s3, (0, 0, 0), (0, 0), (0, 0, 0), (0, 0))
    singular = _matrix(klein, (0, 1), (0, 1), (0, 1), (0, 1))  # det_K is the zero map
    for _ in range(2):
        with pytest.raises(PreconditionFailed, match="alpha must be bijective"):
            det_k(zero)
        with pytest.raises(PreconditionFailed, match="alpha must be bijective"):
            invert_via_det_k(zero)
        with pytest.raises(PreconditionFailed, match="the K-side determinant is not bijective"):
            invert_via_det_k(singular)


def test_is_invertible_agrees_with_oracle(s3_matrices, klein_matrices, d4_matrices, direct33_matrices):
    for mats in (s3_matrices, klein_matrices, d4_matrices):
        for m in mats:
            assert is_invertible(m).invertible == matrix_to_endo(m).is_bijective
    # Both instances take all three routes; each route's inverse is the oracle's.
    routes = {"dihedral:4": {"brute": 12, "det_h": 16, "det_k": 8},
              "direct:3:3": {"brute": 9, "det_h": 18, "det_k": 54}}
    for mats in (d4_matrices, direct33_matrices):
        P = mats[0].context
        ident = identity_matrix(P)
        seen = Counter()
        for m in mats:
            decided = is_invertible(m)
            seen[decided.method] += 1
            theta = matrix_to_endo(m)
            assert decided.invertible == theta.is_bijective
            if not theta.is_bijective:
                assert decided.inverse is None
                continue
            inverse = decided.inverse
            assert mat_mul(m, inverse) == ident and mat_mul(inverse, m) == ident
            assert matrix_to_endo(inverse) == invert_endo(theta)
        assert seen == routes[P.name]


def test_dual_det_inverses_identity(s3):
    dh_inv, dk_inv = dual_det_inverses(identity_matrix(s3))
    assert dh_inv == identity_map(s3.H)
    assert dk_inv == identity_map(s3.K)


def test_dual_det_inverses_involution(s3):
    m = involution_matrix(s3)
    dh_inv, dk_inv = dual_det_inverses(m)
    assert dh_inv == m.alpha  # squaring is its own inverse
    assert dk_inv == identity_map(s3.K)
    assert map_compose(dh_inv, det_h(m)) == identity_map(s3.H)
    assert map_compose(dk_inv, det_k(m)) == identity_map(s3.K)


@pytest.mark.parametrize("side, what", [("k", "H-side"), ("h", "K-side")])
def test_dual_det_inverses_fails_on_a_wrong_diagonal(monkeypatch, side, what):
    # Negation on both factors of direct:3:3 is its own inverse, and so is each determinant,
    # which is not the identity: a closed form replaced by the identity matrix carries a
    # diagonal entry that is not the other determinant's inverse.
    m = _matrix(build_instance("direct:3:3"), (0, 2, 1), (0, 0, 0), (0, 0, 0), (0, 2, 1))
    monkeypatch.setattr(determinant, f"invert_via_det_{side}", lambda matrix: identity_matrix(matrix.context))
    with pytest.raises(VerificationFailed, match=f"^verification failed: {what} determinant inverse identity at "):
        dual_det_inverses(m)


def test_dual_det_inverses_preconditions(klein):
    not_auto = _matrix(klein, (0, 1), (0, 1), (0, 1), (0, 1))
    with pytest.raises(PreconditionFailed):
        dual_det_inverses(not_auto)
    swap = _matrix(klein, (0, 0), (0, 1), (0, 1), (0, 0))
    assert matrix_to_endo(swap).is_bijective
    with pytest.raises(PreconditionFailed):
        dual_det_inverses(swap)


def test_combined_preconditions(klein):
    swap = _matrix(klein, (0, 0), (0, 1), (0, 1), (0, 0))
    with pytest.raises(PreconditionFailed):
        invert_combined(swap)


def test_det_of_inverse(s3_matrices):
    for m in s3_matrices:
        if not (m.alpha.is_bijective and det_k(m).is_bijective):
            continue
        inverse = invert_via_det_k(m)
        assert det_h(inverse) == map_inverse(m.alpha)
        assert det_k(inverse) == map_inverse(m.delta)


def test_det_hom_law_on_invertibles(s3_matrices, d4_matrices):
    for mats in (s3_matrices, d4_matrices):
        for m in mats:
            if m.alpha.is_bijective and det_k(m).is_bijective:
                assert det_k(m).is_hom


# K of exponent > 2 with a nontrivial Hom(H, K): negation in K is not the
# identity and gamma can be nonzero, so a sign slip in the H-side formula shows.


@pytest.fixture(scope="module")
def direct33_matrices():
    mats = enumerate_matrices(build_instance("direct:3:3"))
    mats.sort(key=lambda m: m.key())
    return mats


def _takes_det_h_route(m):
    """What the CLI inverts with the H-side formula: no K-side formula, det_h bijective."""
    k_side = m.alpha.is_bijective and det_k(m).is_bijective
    return not k_side and m.delta.is_bijective and det_h(m).is_bijective


def test_det_h_route_inverts_to_oracle_on_direct_3_3(direct33_matrices):
    routed = [m for m in direct33_matrices if _takes_det_h_route(m)]
    assert len(routed) == 8
    for m in routed:
        assert matrix_to_endo(invert_via_det_h(m)) == invert_endo(matrix_to_endo(m))


def _z3_by_s3_sign():
    """Z3 acted on by S3 through the sign map: 18 elements, nonabelian K, 730 matrices."""
    s3 = build_instance("dihedral:3")
    H = cyclic_group(3)
    sign = [s3.decode(g)[1] for g in range(s3.group.order)]
    images = [[h if s == 0 else (-h) % 3 for h in range(3)] for s in sign]
    return semidirect(make_action(H, s3.group, images))


def test_det_h_inverse_sum_order_with_nonabelian_k():
    # The delta' entry is a sum of two maps into the nonabelian S3; on some
    # automorphisms only the order -(delta^-1 gamma beta') + delta^-1 gives the inverse.
    P = _z3_by_s3_sign()
    ident = identity_matrix(P)
    swapped_sum_fails = 0
    for m in enumerate_matrices(P):
        if not (m.delta.is_bijective and matrix_to_endo(m).is_bijective):
            continue
        inverse = invert_via_det_h(m)
        assert mat_mul(m, inverse) == ident and mat_mul(inverse, m) == ident
        dinv = map_inverse(m.delta)
        correction = map_neg(map_compose(dinv, map_compose(m.gamma, inverse.beta)))
        swapped_sum_fails += map_add(dinv, correction) != inverse.delta
    assert swapped_sum_fails > 0


def test_verify_passes_off_catalog_direct_products():
    # Z3 x| S3 is no direct product, but like them it is off the catalog, and its
    # nonabelian K is where the order of the sums in the inverse formulas matters.
    for instance in ("direct:3:3", "direct:4:8", _z3_by_s3_sign()):
        report = run_verification(instance)
        assert report.passed, [c for c in report.checks if c.status == "fail"]


def _drop_the_h_side_correction(monkeypatch):
    """Patch invert_via_det_h's body, below its certificate, to build delta' as delta^-1,
    without its -(delta^-1 gamma beta') term."""
    body = determinant.invert_via_det_h.__wrapped__.__code__
    trusted = determinant._trusted

    def patched(dom, cod, image):
        caller = sys._getframe(1)
        if caller.f_code is body and image is caller.f_locals.get("dp"):
            image = caller.f_locals["dinv"]
        return trusted(dom, cod, image)

    monkeypatch.setattr(determinant, "_trusted", patched)


def test_a_wrong_h_side_inverse_fails_its_certificate(monkeypatch, tmp_path, capsys):
    # (0, 1; 1, 1) over Z3 x Z3 takes the det_h route; without the correction term its delta'
    # is the identity, not the zero map.  The closed form raises, the calculator exits 1, and
    # verify reports the certificate's text.
    P = build_instance("direct:3:3")
    entries = ([0, 0, 0], [0, 1, 2], [0, 1, 2], [0, 1, 2])
    _drop_the_h_side_correction(monkeypatch)
    with pytest.raises(VerificationFailed, match=r"^verification failed: two-sided inverse law at ") as err:
        invert_via_det_h(_matrix(P, *entries))
    assert err.value.what == "two-sided inverse law"
    path = _write_matrix(tmp_path / "m.json", P, *entries)
    assert cli_main(["invert", "--instance", "direct:3:3", "--matrix", path]) == 1
    assert capsys.readouterr().err.startswith("error: verification failed: two-sided inverse law at ")
    (check,) = run_verification("direct:3:3", checks=["inverse_formula_det_h"]).checks
    assert (check.status, check.witness["detail"]) == ("fail", "two-sided inverse law")


def test_each_matrix_certifies_its_inverse_once(monkeypatch):
    # Negation on both factors of direct:3:3 has bijective alpha and delta: both closed forms
    # and the combined one give the same inverse, certified by one product.
    m = _matrix(build_instance("direct:3:3"), (0, 2, 1), (0, 0, 0), (0, 0, 0), (0, 2, 1))
    products = []

    def counting(left, *columns, product_images=determinant._product_images):
        products.append(left)
        return product_images(left, *columns)

    monkeypatch.setattr(determinant, "_product_images", counting)
    assert invert_via_det_k(m) == invert_via_det_h(m) == invert_combined(m) == m
    assert products == [m]


def test_automorphisms_with_bijective_alpha_build_no_product_group(monkeypatch):
    # "Is an automorphism" is decided on the det_k route, from the four entries alone.
    P = build_instance("dihedral:32")
    built = []

    def counted(table, *args, build=groups._group_of_rows, **kwargs):
        built.append(len(table))
        return build(table, *args, **kwargs)

    monkeypatch.setattr(sys.modules["sdmat.semidirect"], "_group_of_rows", counted)
    m = identity_matrix(P)
    dual_det_inverses(m)
    invert_combined(m)
    unit_diagonal_a_factor(m)
    assert built == []
    assert P.group.order == 64 and built == [64]
