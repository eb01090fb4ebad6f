import pytest

from sdmat import (
    ABCDFactors,
    EndoMatrix,
    FMap,
    PreconditionFailed,
    SdmatError,
    VerificationFailed,
    build_instance,
    classify,
    cyclic_group,
    det_h,
    enumerate_matrices,
    factor_abcd,
    identity_map,
    identity_matrix,
    is_automorphism_matrix,
    map_compose,
    map_inverse,
    mat_mul,
    matrix_to_endo,
    unit_diagonal_a_factor,
    unit_diagonal_b_factor,
    zero_map,
)
from sdmat import determinant, factorization
from sdmat.factorization import _b_entry, _certified
from test_determinant import _z3_by_s3_sign
from test_matrices import _NONABELIAN, _s3_by_conjugation


def _matrix(P, alpha, beta, gamma, delta):
    return EndoMatrix(
        alpha=FMap(P.H, P.H, tuple(alpha)),
        beta=FMap(P.K, P.H, tuple(beta)),
        gamma=FMap(P.H, P.K, tuple(gamma)),
        delta=FMap(P.K, P.K, tuple(delta)),
        context=P,
    )


def test_classify_identity(s3):
    tag = classify(identity_matrix(s3))
    assert tag.in_a and tag.in_b and tag.in_c and tag.in_d


def test_classify_squaring(s3):
    tag = classify(_matrix(s3, (0, 2, 1), (0, 0), (0, 0, 0), (0, 1)))
    assert tag.in_a
    assert not tag.in_b and not tag.in_c and not tag.in_d


def test_classify_beta_shape(s3):
    tag = classify(_matrix(s3, (0, 1, 2), (0, 1), (0, 0, 0), (0, 1)))
    assert tag.in_b
    assert not tag.in_a


def test_classify_witnesses_name_failures(s3):
    tag = classify(_matrix(s3, (0, 2, 1), (0, 0), (0, 0, 0), (0, 1)))
    assert "B" in tag.witnesses and "D" in tag.witnesses


def test_family_counts(s3_matrices, klein_matrices, d4_matrices):
    expected = {
        "s3": (2, 3, 1, 1),
        "klein": (1, 2, 2, 1),
        "d4": (2, 4, 1, 1),
    }
    for key, mats in (("s3", s3_matrices), ("klein", klein_matrices), ("d4", d4_matrices)):
        tags = [classify(m) for m in mats]
        got = (
            sum(t.in_a for t in tags),
            sum(t.in_b for t in tags),
            sum(t.in_c for t in tags),
            sum(t.in_d for t in tags),
        )
        assert got == expected[key]


def test_unit_diagonal_requires_automorphism(klein):
    stuck = _matrix(klein, (0, 1), (0, 1), (0, 1), (0, 1))
    assert not is_automorphism_matrix(stuck)
    with pytest.raises(PreconditionFailed, match="unit-diagonal matrix does not describe an automorphism"):
        unit_diagonal_a_factor(stuck)
    with pytest.raises(PreconditionFailed, match="unit-diagonal matrix does not describe an automorphism"):
        unit_diagonal_b_factor(stuck)


def test_unit_diagonal_requires_identity_entries(s3):
    squaring = _matrix(s3, (0, 2, 1), (0, 0), (0, 0, 0), (0, 1))
    with pytest.raises(PreconditionFailed, match="matrix must have identity diagonal entries"):
        unit_diagonal_a_factor(squaring)


def test_unit_diagonal_factors_on_s3(s3):
    # gamma is forced to zero, so the A-part is trivial and the B-part
    # returns the matrix itself
    m = _matrix(s3, (0, 1, 2), (0, 1), (0, 0, 0), (0, 1))
    assert unit_diagonal_a_factor(m) == identity_matrix(s3)
    assert unit_diagonal_b_factor(m) == m


def test_unit_diagonal_factors_compose(klein, klein_matrices):
    ident_h = identity_map(klein.H)
    ident_k = identity_map(klein.K)
    for m in klein_matrices:
        if m.alpha != ident_h or m.delta != ident_k:
            continue
        if not is_automorphism_matrix(m):
            continue
        a = unit_diagonal_a_factor(m)
        b = unit_diagonal_b_factor(m)
        assert classify(a).in_a
        assert classify(b).in_b


def test_factor_identity(s3):
    factors = factor_abcd(identity_matrix(s3))
    ident = identity_matrix(s3)
    assert factors.a == factors.b == factors.c == factors.d == ident


def test_factor_involution(s3):
    m = _matrix(s3, (0, 2, 1), (0, 1), (0, 0, 0), (0, 1))
    factors = factor_abcd(m)
    assert factors.a == _matrix(s3, (0, 2, 1), (0, 0), (0, 0, 0), (0, 1))
    assert factors.b == _matrix(s3, (0, 1, 2), (0, 2), (0, 0, 0), (0, 1))
    assert factors.c == identity_matrix(s3)
    assert factors.d == identity_matrix(s3)
    assert factors.product() == m


def test_factor_rejects_non_automorphism(klein):
    stuck = _matrix(klein, (0, 1), (0, 1), (0, 1), (0, 1))
    with pytest.raises(PreconditionFailed, match="only automorphism matrices factor"):
        factor_abcd(stuck)


def test_factor_rejects_degenerate_diagonal(klein):
    swap = _matrix(klein, (0, 0), (0, 1), (0, 1), (0, 0))
    assert is_automorphism_matrix(swap)
    with pytest.raises(PreconditionFailed, match="factorization requires bijective alpha and delta"):
        factor_abcd(swap)


def test_factor_reassembles_catalog(s3_matrices, d4_matrices):
    for mats in (s3_matrices, d4_matrices):
        for m in mats:
            if not is_automorphism_matrix(m):
                continue
            if not (m.alpha.is_bijective and m.delta.is_bijective):
                continue
            factors = factor_abcd(m)
            assert factors.product() == m
            assert classify(factors.a).in_a
            assert classify(factors.b).in_b
            assert classify(factors.c).in_c
            assert classify(factors.d).in_d


def test_b_family_product_twists(s3):
    # B is closed: the product of two beta-shapes is a beta-shape
    m1 = _matrix(s3, (0, 1, 2), (0, 1), (0, 0, 0), (0, 1))
    m2 = _matrix(s3, (0, 1, 2), (0, 2), (0, 0, 0), (0, 1))
    prod = mat_mul(m1, m2)
    assert classify(prod).in_b
    assert prod.alpha == identity_map(s3.H)
    assert prod.gamma == zero_map(s3.H, s3.K)


def _factor_by_unit_diagonal_reduction(m):
    """The two-step route, kept as a reference: None where it finds no certified factors.

    m = (alpha, 0; 0, 1) * (1, alpha^-1 beta delta^-1; gamma, 1) * (1, 0; 0, delta),
    and the unit-diagonal middle is reduced to its A- and B-parts.
    """
    if not (is_automorphism_matrix(m) and m.alpha.is_bijective and m.delta.is_bijective):
        return None
    P = m.context
    beta_mid = map_compose(map_inverse(m.alpha), map_compose(m.beta, map_inverse(m.delta)))
    mid = identity_matrix(P, beta=beta_mid, gamma=m.gamma)
    try:
        a = mat_mul(identity_matrix(P, alpha=m.alpha), unit_diagonal_a_factor(mid))
        b = unit_diagonal_b_factor(mid)
    except SdmatError:
        return None
    factors = ABCDFactors(a=a, b=b, c=identity_matrix(P, gamma=m.gamma), d=identity_matrix(P, delta=m.delta))
    members = (classify(a).in_a, classify(b).in_b, classify(factors.c).in_c, classify(factors.d).in_d)
    return factors if all(members) and factors.product() == m else None


@pytest.mark.parametrize(
    "instance",
    [
        "klein",
        "direct:3:3",
        "metacyclic:8:2:5",
        _z3_by_s3_sign,
        lambda: _s3_by_conjugation(cyclic_group(2)),
    ],
    ids=["klein", "direct:3:3", "metacyclic:8:2:5", "z3_by_s3_sign", "s3_by_z2_conjugation"],
)
def test_factors_read_off_det_h_match_the_reduction(instance):
    P = build_instance(instance) if isinstance(instance, str) else instance()
    factored = 0
    for m in enumerate_matrices(P):
        expected = _factor_by_unit_diagonal_reduction(m)
        try:
            factors = factor_abcd(m)
        except SdmatError:
            assert expected is None
            continue
        assert factors == expected
        assert factors.a.alpha == det_h(m)
        assert factors.c.gamma == m.gamma
        assert factors.d.delta == m.delta
        factored += 1
    assert factored > 0


def _factor_on_the_brute_route(m):
    """factor_abcd deciding "automorphism" by the endomorphism's bijectivity: the reference.

    The route factor_abcd took before it decided through is_invertible.
    """
    if not is_automorphism_matrix(m):
        raise PreconditionFailed("only automorphism matrices factor")
    if not (m.alpha.is_bijective and m.delta.is_bijective):
        raise PreconditionFailed("factorization requires bijective alpha and delta")
    P = m.context
    dh = det_h(m)
    a = _certified("A", identity_matrix(P, alpha=dh))
    factors = ABCDFactors(
        a=a,
        b=_certified("B", identity_matrix(P, beta=_b_entry(dh, m))),
        c=_certified("C", identity_matrix(P, gamma=m.gamma)),
        d=_certified("D", identity_matrix(P, delta=m.delta)),
    )
    if factors.product() != m:
        raise VerificationFailed("factor reassembly", m.key())
    return factors


def _outcome(route, m):
    try:
        return route(m)
    except SdmatError as err:
        return (type(err), str(err))


@pytest.mark.parametrize("instance", ["direct:3:3", "metacyclic:8:2:5", "metacyclic:9:3:4", *sorted(_NONABELIAN)])
def test_factor_refuses_exactly_the_non_automorphisms(instance):
    # factor_abcd decides "automorphism" on is_invertible's route (det_k, det_h, else brute);
    # on every enumerated matrix it refuses exactly those whose endomorphism is no bijection,
    # and otherwise does what the brute route does: the same factors or the same error.
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    refused = 0
    for m in enumerate_matrices(P):
        outcome = _outcome(factor_abcd, m)
        is_refused = outcome == (PreconditionFailed, "only automorphism matrices factor")
        assert is_refused == (not matrix_to_endo(m).is_bijective), m
        assert outcome == _outcome(_factor_on_the_brute_route, m), m
        refused += is_refused
    assert refused > 0


@pytest.mark.parametrize("instance", ["direct:3:3", "metacyclic:8:2:5", *sorted(_NONABELIAN)])
def test_factor_builds_no_closed_form_inverse(monkeypatch, instance):
    # factor_abcd reads is_invertible's route decision, not its inverse: on every matrix with a
    # bijective diagonal entry, refused or factored, it calls neither closed form, and
    # is_invertible on the same matrix then builds the one of its route when it is invertible.
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    built = []
    for side in ("k", "h"):
        invert = getattr(determinant, f"invert_via_det_{side}")

        def recording(matrix, side=side, invert=invert):
            built.append(f"det_{side}")
            return invert(matrix)

        monkeypatch.setattr(determinant, f"invert_via_det_{side}", recording)
    routes = set()
    for m in enumerate_matrices(P):
        if not (m.alpha.is_bijective or m.delta.is_bijective):
            continue
        outcome = _outcome(factor_abcd, m)
        assert built == [], m
        result = determinant.is_invertible(m)
        assert built == ([result.method] if result.invertible else []), m
        built.clear()
        refused = outcome == (PreconditionFailed, "only automorphism matrices factor")
        assert refused == (not result.invertible), m
        routes.add((result.method, result.invertible))
    # Each instance factors on det_k and refuses on a det route; direct:3:3 and z3_by_s3_sign
    # take all four (route, verdict) pairs.
    assert ("det_k", True) in routes and {("det_k", False), ("det_h", False)} & routes


def test_each_b_times_cd_is_kept_once_per_b0_gamma_and_delta():
    # factor_abcd keeps the tables of b*(c*d) on the action by the tables they depend on: b0
    # (the B-factor's entry), gamma and delta.  direct:16:4 has 8 pairs (gamma, delta), and
    # its 256 automorphisms, all with a bijective diagonal, form 32 such products.
    P = build_instance("direct:16:4")
    autos = [m for m in enumerate_matrices(P) if is_automorphism_matrix(m)]
    by_b0_gamma = {}
    for m in autos:
        b0 = factor_abcd(m).b.beta.image
        by_b0_gamma.setdefault((b0, m.gamma.image), {}).setdefault(m.delta.image, m.key())
    kept = [key for key in factorization._kept(P.action) if key[0] == "bcd"]
    assert (len(autos), len(kept)) == (256, 32)
    assert len({(m.gamma.image, m.delta.image) for m in autos}) == 8
    # Two automorphisms that differ in delta alone among these tables, factored in turn on a
    # fresh action: the second reads no product kept for the first, and each reassembles to
    # its own key.
    pair = next(list(keys.values())[:2] for keys in by_b0_gamma.values() if len(keys) > 1)
    Q = build_instance("direct:16:4")
    fresh = {m.key(): m for m in enumerate_matrices(Q)}
    for key in pair:
        assert factor_abcd(fresh[key]).product().key() == key
    assert len([k for k in factorization._kept(Q.action) if k[0] == "bcd"]) == 2
