import itertools
import operator
import random
from collections import defaultdict

import pytest

from sdmat import (
    DEFAULT_INSTANCES,
    BoundExceeded,
    CONDITION_NAMES,
    ConditionsViolated,
    DomainMismatch,
    EndoMatrix,
    FMap,
    VerificationFailed,
    build_instance,
    check_conditions,
    cyclic_group,
    det_h,
    det_k,
    endo_to_matrix,
    enumerate_homs,
    enumerate_matrices,
    factor_abcd,
    identity_map,
    identity_matrix,
    invert_via_det_h,
    invert_via_det_k,
    is_automorphism_matrix,
    is_invertible,
    make_action,
    matrices,
    map_act,
    map_add,
    map_compose,
    mat_mul,
    matrix_to_endo,
    semidirect,
    twisted_hom_witness,
    zero_map,
)
from sdmat.maps import _trusted
from sdmat.oracle import compose_endos
from endo_reference import first_disagreement
from pairwise_reference import product_table
from test_determinant import _z3_by_s3_sign


def _matrix(P, alpha, beta, gamma, delta):
    return EndoMatrix(
        alpha=FMap(P.H, P.H, tuple(alpha)),
        beta=FMap(P.K, P.H, tuple(beta)),
        gamma=FMap(P.H, P.K, tuple(gamma)),
        delta=FMap(P.K, P.K, tuple(delta)),
        context=P,
    )


def full_intertwine_witness(gamma, delta, action):
    """Condition 3 scanned over every pair (h, k), h outermost: the reference for its generator-pair decision."""
    kt, rows = action.K.table, action.images
    g, d = gamma.image, delta.image
    for h in range(action.H.order):
        for k in range(action.K.order):
            lhs, rhs = kt[g[rows[k][h]]][d[k]], kt[d[k]][g[h]]
            if lhs != rhs:
                return (h, k, lhs, rhs)
    return None


def full_compat_witness(alpha, beta, gamma, delta, action):
    """Condition 4 scanned over every pair (h, k), h outermost: the reference for its generator-pair decision."""
    ht, rows = action.H.table, action.images
    a, b, g, d = alpha.image, beta.image, gamma.image, delta.image
    for h in range(action.H.order):
        for k in range(action.K.order):
            hk = rows[k][h]
            lhs, rhs = ht[a[hk]][rows[g[hk]][b[k]]], ht[b[k]][rows[d[k]][a[h]]]
            if lhs != rhs:
                return (h, k, lhs, rhs)
    return None


def involution_matrix(P):
    # (squaring, beta(1)=1, 0, id): self-inverse on the S3 model
    return _matrix(P, (0, 2, 1), (0, 1), (0, 0, 0), (0, 1))


def test_condition_names_fixed():
    assert CONDITION_NAMES == (
        "alpha_twisted_by_gamma",
        "beta_crossed_by_delta",
        "gamma_delta_intertwine",
        "alpha_beta_compatible",
        "gamma_homomorphism",
        "delta_endomorphism",
    )


def test_a_matrix_with_a_non_homomorphic_gamma_violates_its_conditions(klein):
    # alpha, beta and delta make the first four conditions hold, but gamma(0) = 1.
    m = _matrix(klein, (0, 1), (0, 0), (1, 0), (0, 1))
    assert check_conditions(m) == ("gamma_homomorphism", (0, 0, 1, 0))
    # Each entry point meets the matrix fresh, so each decides the conditions itself.
    entry_points = (
        matrix_to_endo, is_automorphism_matrix, is_invertible, factor_abcd,
        det_k, det_h, invert_via_det_k, invert_via_det_h,
    )
    for entry_point in entry_points:
        with pytest.raises(ConditionsViolated, match=r"condition gamma_homomorphism fails at \(0, 0, 1, 0\)"):
            entry_point(_matrix(klein, (0, 1), (0, 0), (1, 0), (0, 1)))


def test_identity_matrix_with_given_entries_is_the_literal(s3):
    H, K = s3.H, s3.K
    alpha, beta = FMap(H, H, (0, 2, 1)), FMap(K, H, (0, 1))
    gamma, delta = FMap(H, K, (1, 1, 1)), FMap(K, K, (1, 0))
    one_h, one_k, zero_kh, zero_hk = identity_map(H), identity_map(K), zero_map(K, H), zero_map(H, K)
    cases = [
        ({}, (one_h, zero_kh, zero_hk, one_k)),
        ({"alpha": alpha}, (alpha, zero_kh, zero_hk, one_k)),
        ({"beta": beta}, (one_h, beta, zero_hk, one_k)),
        ({"gamma": gamma}, (one_h, zero_kh, gamma, one_k)),
        ({"delta": delta}, (one_h, zero_kh, zero_hk, delta)),
        ({"beta": beta, "gamma": gamma}, (one_h, beta, gamma, one_k)),
        ({"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}, (alpha, beta, gamma, delta)),
    ]
    for given, (a, b, c, d) in cases:
        built = identity_matrix(s3, **given)
        assert built == EndoMatrix(alpha=a, beta=b, gamma=c, delta=d, context=s3)
        assert all(getattr(built, key) is entry for key, entry in given.items())


def test_identity_matrix_passes_conditions(s3):
    assert check_conditions(identity_matrix(s3)) is None


def test_squaring_family_passes(s3):
    for b in range(3):
        m = _matrix(s3, (0, 2, 1), (0, b), (0, 0, 0), (0, 1))
        assert check_conditions(m) is None


def test_compat_condition_fails_with_witness(s3):
    # alpha = id, delta = 0: compatibility breaks at h=1, k=1
    m = _matrix(s3, (0, 1, 2), (0, 0), (0, 0, 0), (0, 0))
    assert check_conditions(m) == ("alpha_beta_compatible", (1, 1, 2, 1))
    with pytest.raises(ConditionsViolated):
        matrix_to_endo(m)


def test_check_conditions_returns_the_first_failure_in_order(s3):
    # Fails all four conditions: the first, alpha_twisted_by_gamma, is returned.
    m = _matrix(s3, (0, 2, 1), (0, 1), (0, 1, 0), (0, 0))
    act = s3.action
    assert twisted_hom_witness(m.beta, m.delta, act) is not None
    assert full_intertwine_witness(m.gamma, m.delta, act) is not None
    assert full_compat_witness(m.alpha, m.beta, m.gamma, m.delta, act) is not None
    assert check_conditions(m) == ("alpha_twisted_by_gamma", (1, 1, 1, 0))
    # Fails conditions 2 and 4 only: the second is returned.
    m = _matrix(s3, (0, 1, 2), (0, 1), (0, 0, 0), (0, 0))
    assert twisted_hom_witness(m.alpha, m.gamma, act) is None
    assert full_compat_witness(m.alpha, m.beta, m.gamma, m.delta, act) is not None
    assert check_conditions(m) == ("beta_crossed_by_delta", (1, 1, 0, 2))
    with pytest.raises(ConditionsViolated) as err:
        matrix_to_endo(m)
    assert (err.value.name, err.value.witness) == ("beta_crossed_by_delta", (1, 1, 0, 2))


def test_matrix_to_endo_certifies_the_homomorphism_law(s3, monkeypatch):
    # alpha is no homomorphism of Z3, so theta(h, k) = (alpha(h), k) is none of S3;
    # with the conditions check bypassed, matrix_to_endo must still refuse it.
    m = _matrix(s3, (0, 0, 1), (0, 0), (0, 0, 0), (0, 1))
    monkeypatch.setattr("sdmat.matrices.check_conditions", lambda matrix: None)
    with pytest.raises(VerificationFailed, match="verification failed: matrix passes its conditions but describes no homomorphism"):
        matrix_to_endo(m)


@pytest.mark.parametrize("instance", ["direct:3:3", "s3_by_z2_conjugation"])
def test_enumerated_matrices_keep_the_verdict_of_their_search(instance, monkeypatch):
    # The search decided all six conditions of each matrix it returns (matrices.py docstring):
    # with every condition scan made to raise, matrix_to_endo still maps each of them, while a
    # hand-built matrix with the same entries is still scanned.
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    mats, fresh = enumerate_matrices(P), enumerate_matrices(P)

    def scanned(matrix):
        raise AssertionError("conditions scanned")

    monkeypatch.setattr("sdmat.matrices._condition_witnesses", scanned)
    for m in mats:
        assert matrix_to_endo(m).is_hom
    twin = EndoMatrix(alpha=m.alpha, beta=m.beta, gamma=m.gamma, delta=m.delta, context=P)
    assert twin == m
    for entry_point in (check_conditions, matrix_to_endo, is_invertible):
        with pytest.raises(AssertionError, match="conditions scanned"):
            entry_point(twin)

    # theta's homomorphism law is still checked on each of them: a gather sending e anywhere
    # else is refused.
    def mutant(dom, cod, image):
        if dom is P.group:
            e = P.group.identity
            image = image[:e] + ((image[e] + 1) % P.group.order,) + image[e + 1 :]
        return _trusted(dom, cod, image)

    monkeypatch.setattr("sdmat.matrices._trusted", mutant)
    for m in fresh:
        with pytest.raises(VerificationFailed, match="describes no homomorphism"):
            matrix_to_endo(m)


def test_shape_validation(s3):
    # Each entry in turn gets the shape of its mirror entry (domain and codomain swapped, or a
    # map of the other group), then a wrong codomain alone, and the error names that entry and
    # the shape it must have.
    H, K = s3.H, s3.K
    entries = {"alpha": identity_map(H), "beta": zero_map(K, H), "gamma": zero_map(H, K), "delta": identity_map(K)}
    mirrored = {"alpha": identity_map(K), "beta": zero_map(H, K), "gamma": zero_map(K, H), "delta": identity_map(H)}
    for entry, (dom, cod) in {"alpha": (H, H), "beta": (K, H), "gamma": (H, K), "delta": (K, K)}.items():
        wrong_cod = FMap(dom, K if cod is H else H, (0,) * dom.order)
        for wrong in (mirrored[entry], wrong_cod):
            with pytest.raises(DomainMismatch) as err:
                EndoMatrix(**{**entries, entry: wrong}, context=s3)
            assert str(err.value) == f"entry {entry} must be a map {dom!r} -> {cod!r}"
    assert EndoMatrix(**entries, context=s3) == identity_matrix(s3)


def test_identity_law(s3, s3_matrices):
    ident = identity_matrix(s3)
    for m in s3_matrices:
        assert mat_mul(ident, m) == m
        assert mat_mul(m, ident) == m


def test_involution_squares_to_identity(s3):
    m = involution_matrix(s3)
    assert mat_mul(m, m) == identity_matrix(s3)


def test_mixed_product_collapses_betas(s3):
    # (squaring, b1, 0, id)(squaring, b2, 0, id) has identity alpha and
    # beta k -> 2*b2(k) + b1(k)
    m1 = _matrix(s3, (0, 2, 1), (0, 1), (0, 0, 0), (0, 1))
    m2 = _matrix(s3, (0, 2, 1), (0, 2), (0, 0, 0), (0, 1))
    prod = mat_mul(m1, m2)
    assert prod.alpha == identity_map(s3.H)
    assert prod.beta.image == (0, (2 * 2 + 1) % 3)
    assert prod.gamma == zero_map(s3.H, s3.K)
    assert prod.delta == identity_map(s3.K)


def test_zero_matrix_absorbs(s3, s3_matrices):
    zero = _matrix(s3, (0, 0, 0), (0, 0), (0, 0, 0), (0, 0))
    for m in s3_matrices:
        assert mat_mul(zero, m) == zero


def test_context_mismatch(s3, klein):
    with pytest.raises(DomainMismatch, match="matrices live over different products"):
        mat_mul(identity_matrix(s3), identity_matrix(klein))


def _s3_by_conjugation(K):
    """S3 acted on by K, k acting as conjugation by the element of S3 with index k.

    That is an action for K = Z2, as 1 is a reflection (nonabelian H, 64
    matrices), and for K = S3 (484 matrices).  There gamma(f_k h) =
    delta(k) gamma(h) delta(k)^-1, so unlike in a direct product the images
    of gamma and delta need not commute.
    """
    s3 = build_instance("dihedral:3").group
    t, inv = s3.table, s3.inverses
    rows = [[t[t[k][h]][inv[k]] for h in range(s3.order)] for k in range(K.order)]
    return semidirect(make_action(s3, K, rows))


_NONABELIAN = {
    "z3_by_s3_sign": _z3_by_s3_sign,
    "s3_by_z2_conjugation": lambda: _s3_by_conjugation(cyclic_group(2)),
    "s3_by_s3_conjugation": lambda: _s3_by_conjugation(build_instance("dihedral:3").group),
}


def _product_by_map_algebra(left, right):
    """The product's entry formula written out with map_add, map_compose and map_act."""
    act = left.context.action
    a2, b2, g2, d2 = left.entries()
    a1, b1, g1, d1 = right.entries()
    return EndoMatrix(
        alpha=map_add(map_compose(a2, a1), map_act(map_compose(b2, g1), map_compose(g2, a1), act)),
        beta=map_add(map_compose(a2, b1), map_act(map_compose(b2, d1), map_compose(g2, b1), act)),
        gamma=map_add(map_compose(g2, a1), map_compose(d2, g1)),
        delta=map_add(map_compose(g2, b1), map_compose(d2, d1)),
        context=left.context,
    )


@pytest.mark.parametrize("instance", ["klein", "direct:3:3", "dihedral:3", "s3_by_z2_conjugation"])
def test_mat_mul_matches_the_map_algebra_formula(instance):
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    mats = enumerate_matrices(P)
    for left in mats:
        for right in mats:
            assert mat_mul(left, right).key() == _product_by_map_algebra(left, right).key()


@pytest.mark.parametrize("instance", sorted(_NONABELIAN))
def test_mat_mul_is_composition_with_nonabelian_factors(instance):
    # In S3 the order of a pointwise product matters, so a product with swapped
    # operands shows: in H on S3 x| Z2, in K on Z3 x| S3 and, for the gamma entry,
    # whose two terms commute on the other instances, on S3 x| S3.
    mats = enumerate_matrices(_NONABELIAN[instance]())
    rng = random.Random(13)
    for _ in range(2000):
        left, right = rng.choice(mats), rng.choice(mats)
        assert matrix_to_endo(mat_mul(left, right)) == compose_endos(matrix_to_endo(left), matrix_to_endo(right))


@pytest.mark.parametrize(
    "instance", ["trivial", "klein", "dihedral:4", "direct:3:3", "z3_by_s3_sign", "s3_by_z2_conjugation"]
)
def test_product_table_is_mat_mul_looked_up(instance):
    # Z3 x| S3 (nonabelian K) has 730 matrices; a sample of them keeps the test short and
    # leaves many products outside the list, so the -1 entries are exercised as well.
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    mats = enumerate_matrices(P)
    if len(mats) > 90:
        mats = random.Random(19).sample(mats, 90)
    key_to_idx = {m.key(): i for i, m in enumerate(mats)}
    expected = [[key_to_idx.get(mat_mul(left, right).key(), -1) for right in mats] for left in mats]
    assert product_table(mats) == expected
    assert (-1 in sum(expected, [])) == (instance == "z3_by_s3_sign")


def test_product_table_rejects_mixed_products(s3, klein):
    assert product_table([]) == []
    with pytest.raises(DomainMismatch):
        product_table([identity_matrix(s3), identity_matrix(klein)])


def test_matrix_to_endo_identity(s3):
    theta = matrix_to_endo(identity_matrix(s3))
    assert theta.image == tuple(range(6))


def test_matrix_to_endo_squaring(s3):
    m = _matrix(s3, (0, 2, 1), (0, 0), (0, 0, 0), (0, 1))
    theta = matrix_to_endo(m)
    for h in range(3):
        for k in range(2):
            assert theta(s3.encode(h, k)) == s3.encode((2 * h) % 3, k)
    assert theta.is_hom


# The catalog, five instances of 78-144 matrices, the nonabelian products and order 128: theta,
# the entry formula's map on the grid, is the gather from the product group's table.
@pytest.mark.parametrize(
    "instance",
    [
        *DEFAULT_INSTANCES,
        *("dihedral:10", "direct:14:2", "metacyclic:7:6:3", "dihedral:11", "metacyclic:12:2:5"),
        *_NONABELIAN,
        "dihedral:64",
    ],
)
def test_matrix_to_endo_is_the_table_gather(instance):
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)
    mats = enumerate_matrices(P, bound=128)
    assert mats and first_disagreement(mats) is None


def test_thetas_of_a_product_share_their_code_objects():
    # Order 260: a code above 256 computed per theta would be a new int object in each table.
    P = build_instance("dihedral:130")
    first, second = matrix_to_endo(identity_matrix(P)), matrix_to_endo(identity_matrix(P))
    assert first.image == tuple(range(260))
    assert all(map(operator.is_, first.image, second.image))


def test_trivial_action_reduces_to_products(klein, klein_matrices):
    G, H, K = klein.group, klein.H, klein.K
    for m in klein_matrices:
        theta = matrix_to_endo(m)
        for h in H.elements():
            for k in K.elements():
                expected = klein.encode(
                    H.mul(m.alpha(h), m.beta(k)), K.mul(m.gamma(h), m.delta(k))
                )
                assert theta(klein.encode(h, k)) == expected


def test_endo_to_matrix_roundtrip(s3, s3_matrices):
    for m in s3_matrices:
        assert endo_to_matrix(matrix_to_endo(m), s3) == m


def test_endo_to_matrix_conjugation(s3, s3_census):
    # gamma lands in Hom(Z3, Z2) = {0} for every S3 endomorphism
    for theta in s3_census.endos:
        m = endo_to_matrix(theta, s3)
        assert m.gamma == zero_map(s3.H, s3.K)


def test_enumeration_counts(s3_matrices, klein_matrices):
    assert len(s3_matrices) == 10
    assert len(klein_matrices) == 16
    assert len(enumerate_matrices(build_instance("trivial"))) == 1


def filtered_matrix_keys(P):
    """Every valid matrix's key, sorted: homomorphisms gamma and delta, every (alpha, beta) table, kept iff all conditions hold."""
    H, K = P.H, P.K
    alphas = [FMap(H, H, img) for img in itertools.product(range(H.order), repeat=H.order)]
    betas = [FMap(K, H, img) for img in itertools.product(range(H.order), repeat=K.order)]
    found = []
    for gamma in enumerate_homs(H, K):
        for delta in enumerate_homs(K, K):
            for beta in betas:
                for alpha in alphas:
                    m = EndoMatrix(alpha=alpha, beta=beta, gamma=gamma, delta=delta, context=P)
                    if check_conditions(m) is None:
                        found.append(m.key())
    return sorted(found)


def test_exhaustive_route_agrees(s3, klein, d4):
    # The twisted-map searches for beta and alpha against the filter of every table (|H|, |K| <= 4).
    for P in (s3, klein, d4):
        assert sorted(m.key() for m in enumerate_matrices(P)) == filtered_matrix_keys(P)


def test_enumeration_searches_each_entry_once_and_shares_it(monkeypatch):
    # The alphas are searched once per gamma and the betas once per delta, each at its first
    # pair that passes the intertwining scan; the matrices of one gamma share its alpha objects
    # and those of one delta its beta objects, so a value kept on an entry map is decided once
    # per entry map.  The list keeps its order: gamma, delta, beta, alpha, each by image.
    P = build_instance("direct:16:4")
    searched = []
    search = matrices.enumerate_twisted_maps

    def counting(dom, cod, twist):
        searched.append(dom)
        return search(dom, cod, twist)

    monkeypatch.setattr(matrices, "enumerate_twisted_maps", counting)
    mats = enumerate_matrices(P)
    # (1, 0; gamma, delta) with zero alpha and beta is valid for every intertwining pair, so
    # each searched gamma and delta has a matrix.
    gammas, deltas = {m.gamma.image for m in mats}, {m.delta.image for m in mats}
    assert (searched.count(P.H), searched.count(P.K)) == (len(gammas), len(deltas))
    for entry, by in (("alpha", "gamma"), ("beta", "delta")):
        groups = defaultdict(list)
        for m in mats:
            groups[getattr(m, by).image].append(getattr(m, entry))
        for maps in groups.values():
            assert len({id(f) for f in maps}) == len({f.image for f in maps}) < len(maps)
    gamma_at = {g.image: i for i, g in enumerate(enumerate_homs(P.H, P.K))}
    delta_at = {d.image: i for i, d in enumerate(enumerate_homs(P.K, P.K))}
    order = [(gamma_at[m.gamma.image], delta_at[m.delta.image], m.beta.image, m.alpha.image) for m in mats]
    assert order == sorted(order) and len(set(order)) == len(mats) == 1024


def test_bound_guard(d4):
    with pytest.raises(BoundExceeded):
        enumerate_matrices(d4, bound=4)


def test_is_automorphism_matrix(s3, s3_matrices):
    assert is_automorphism_matrix(identity_matrix(s3))
    zero = _matrix(s3, (0, 0, 0), (0, 0), (0, 0, 0), (0, 0))
    assert not is_automorphism_matrix(zero)
    assert sum(1 for m in s3_matrices if is_automorphism_matrix(m)) == 6


def test_unique_solvability_matches_bijectivity(s3_matrices, klein_matrices):
    # solving theta(h,k) = target has a unique solution for every target
    # exactly when the endomorphism is bijective
    for mats in (s3_matrices, klein_matrices):
        for m in mats:
            theta = matrix_to_endo(m)
            n = m.context.group.order
            hits = [0] * n
            for g in range(n):
                hits[theta(g)] += 1
            unique = all(c == 1 for c in hits)
            assert unique == theta.is_bijective
