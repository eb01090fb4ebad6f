"""The four H x K conditions, decided on S_H x S_K, against full scans of every pair.

Conditions 3 and 4 of a matrix (``check_conditions``) and the action
conditions of families A and C (``classify``) are decided on the pairs of
the kept generators, with a full scan only to name the witness.  Each is
compared here with a copy that scans every pair (h, k), on instances whose
H or K needs two generators, so a decision that misses a generator shows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdmat import (
    CONDITION_NAMES,
    EndoMatrix,
    FMap,
    build_instance,
    check_conditions,
    classify,
    cyclic_group,
    enumerate_homs,
    enumerate_matrices,
    identity_matrix,
    semidirect,
    trivial_action,
)
from sdmat.groups import enumerate_twisted_maps
from sdmat.maps import twisted_law_witness
from test_determinant import _z3_by_s3_sign
from test_matrices import _s3_by_conjugation, full_compat_witness, full_intertwine_witness

S3 = build_instance("dihedral:3").group

_PRODUCTS = {
    "klein": build_instance("klein"),
    "dihedral:3": build_instance("dihedral:3"),
    "dihedral:4": build_instance("dihedral:4"),
    "direct:3:3": build_instance("direct:3:3"),
    # Two generators in K, acting through the sign map.
    "z3_by_s3_sign": _z3_by_s3_sign(),
    # Two generators in H, one of them moved by the conjugation.
    "s3_by_z2_conjugation": _s3_by_conjugation(cyclic_group(2)),
    # Two generators in each.
    "s3_by_s3_conjugation": _s3_by_conjugation(S3),
    # Two generators in K, acting trivially: K's conjugation alone constrains family C.
    "z3_times_s3": semidirect(trivial_action(cyclic_group(3), S3)),
}


def _twisted_maps(dom, cod, steer, action):
    return enumerate_twisted_maps(dom, cod, [action.images[s] for s in steer.image])


def _lawful_parts(P):
    """Every gamma and delta with, per each, every alpha and beta that meets conditions 1, 2, 5 and 6."""
    H, K, act = P.H, P.K, P.action
    gammas, deltas = enumerate_homs(H, K), enumerate_homs(K, K)
    alphas = {gamma: _twisted_maps(H, H, gamma, act) for gamma in gammas}
    betas = {delta: _twisted_maps(K, H, delta, act) for delta in deltas}
    return gammas, deltas, alphas, betas


_PARTS = {name: _lawful_parts(P) for name, P in _PRODUCTS.items()}


def full_check_conditions(m):
    """check_conditions with every condition scanned over all pairs."""
    a, b, g, d = m.entries()
    act = m.context.action
    rows = act.images
    witnesses = (
        twisted_law_witness(a.dom, a.cod, a.image, [rows[s] for s in g.image]),
        twisted_law_witness(b.dom, b.cod, b.image, [rows[s] for s in d.image]),
        full_intertwine_witness(g, d, act),
        full_compat_witness(a, b, g, d, act),
        twisted_law_witness(g.dom, g.cod, g.image),
        twisted_law_witness(d.dom, d.cod, d.image),
    )
    return next(((name, w) for name, w in zip(CONDITION_NAMES, witnesses) if w is not None), None)


def full_alpha_action(m):
    """Family A's alpha(f_k h) = f_k(alpha h), scanned over all pairs (h, k)."""
    P = m.context
    rows, a = P.action.images, m.alpha.image
    return next(
        (("alpha_action", h, k) for h in range(P.H.order) for k in range(P.K.order) if a[rows[k][h]] != rows[k][a[h]]),
        None,
    )


def full_gamma_action(m):
    """Family C's gamma(f_k h) = k gamma(h) k^-1, scanned over all pairs (h, k)."""
    P = m.context
    rows, g = P.action.images, m.gamma.image
    kt, kinv = P.K.table, P.K.inverses
    return next(
        (
            ("gamma_action", h, k)
            for h in range(P.H.order)
            for k in range(P.K.order)
            if g[rows[k][h]] != kt[kt[k][g[h]]][kinv[k]]
        ),
        None,
    )


_SHAPE_FAILURES = ("alpha_not_identity", "beta_not_zero", "gamma_not_zero", "delta_not_identity")


def full_classify(m):
    """The witnesses of classify, with every law and both H x K conditions scanned over all pairs."""
    P = m.context
    H, K, act = P.H, P.K, P.action
    unit, key = identity_matrix(P).key(), m.key()
    a, b, g, d = key

    def shape(free):
        return next(((name,) for i, name in enumerate(_SHAPE_FAILURES) if i != free and key[i] != unit[i]), None)

    def automorphism(phi):
        return phi.is_bijective and twisted_law_witness(phi.dom, phi.cod, phi.image) is None

    kt, kinv, kernel = K.table, K.inverses, act.kernel
    crossed = twisted_law_witness(K, H, b, act.images) is None
    witnesses = {
        "A": shape(0)
        or (None if automorphism(m.alpha) else ("alpha_not_automorphism",))
        or full_alpha_action(m),
        "B": shape(1)
        or (None if crossed else ("beta_not_crossed_hom",))
        or next((("beta_not_central", k, b[k]) for k in range(K.order) if b[k] not in H.center), None),
        "C": shape(2)
        or (None if twisted_law_witness(H, K, g) is None else ("gamma_not_hom",))
        or next((("gamma_not_in_kernel", h, g[h]) for h in range(H.order) if g[h] not in kernel), None)
        or full_gamma_action(m),
        "D": shape(3)
        or (None if automorphism(m.delta) else ("delta_not_automorphism",))
        or next(
            (("delta_displacement", k, kt[kinv[k]][d[k]]) for k in range(K.order) if kt[kinv[k]][d[k]] not in kernel),
            None,
        ),
    }
    return {letter: w for letter, w in witnesses.items() if w is not None}


def _matrix(P, alpha, beta, gamma, delta):
    return EndoMatrix(alpha=alpha, beta=beta, gamma=gamma, delta=delta, context=P)


@pytest.mark.parametrize("instance", sorted(_PRODUCTS))
def test_check_conditions_on_every_lawful_quadruple(instance):
    # Conditions 1, 2, 5 and 6 hold on each of these, so 3 and 4 are decided on the generator
    # pairs; a quadruple passes iff enumerate_matrices finds it.
    P = _PRODUCTS[instance]
    gammas, deltas, alphas, betas = _PARTS[instance]
    passing, failing = set(), 0
    for gamma in gammas:
        for delta in deltas:
            for alpha in alphas[gamma]:
                for beta in betas[delta]:
                    m = _matrix(P, alpha, beta, gamma, delta)
                    expected = full_check_conditions(m)
                    assert check_conditions(m) == expected, m
                    if expected is None:
                        passing.add(m.key())
                    else:
                        failing += 1
    # In an abelian product both conditions hold on every lawful quadruple.
    assert (failing > 0) != P.group.is_abelian
    assert {m.key() for m in enumerate_matrices(P)} == passing


@st.composite
def _quadruples(draw):
    """A lawful quadruple, or one with an entry replaced by an arbitrary map, which may break
    any condition, 1, 2, 5 or 6 included."""
    instance = draw(st.sampled_from(sorted(_PRODUCTS)))
    P = _PRODUCTS[instance]
    gammas, deltas, alphas, betas = _PARTS[instance]
    gamma = draw(st.sampled_from(gammas))
    delta = draw(st.sampled_from(deltas))
    entries = [draw(st.sampled_from(alphas[gamma])), draw(st.sampled_from(betas[delta])), gamma, delta]
    replaced = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if replaced is not None:
        dom, cod = entries[replaced].dom, entries[replaced].cod
        image = draw(st.tuples(*[st.integers(0, cod.order - 1)] * dom.order))
        entries[replaced] = FMap(dom, cod, image)
    return _matrix(P, *entries)


@given(_quadruples())
@settings(max_examples=400, deadline=None)
def test_check_conditions_agrees_with_the_full_scans(m):
    assert check_conditions(m) == full_check_conditions(m)


def _family_candidates(P):
    """Every matrix of one family's shape whose constrained entry is a homomorphism."""
    H, K = P.H, P.K
    autos_h = [a for a in enumerate_homs(H, H) if a.is_bijective]
    autos_k = [d for d in enumerate_homs(K, K) if d.is_bijective]
    crossed = enumerate_twisted_maps(K, H, P.action.images)
    return (
        [identity_matrix(P, alpha=a) for a in autos_h]
        + [identity_matrix(P, beta=b) for b in crossed]
        + [identity_matrix(P, gamma=g) for g in enumerate_homs(H, K)]
        + [identity_matrix(P, delta=d) for d in autos_k]
    )


_CLASSIFIED = ["klein", "direct:3:3", "z3_by_s3_sign", "s3_by_z2_conjugation"]


@pytest.mark.parametrize("instance", sorted(_PRODUCTS))
def test_classify_agrees_with_the_full_scans(instance):
    # Every matrix of four instances, and on every instance the family-shaped matrices,
    # valid or not: only there can the A and C action conditions fail.
    P = _PRODUCTS[instance]
    mats = _family_candidates(P) + (enumerate_matrices(P) if instance in _CLASSIFIED else [])
    for m in mats:
        tag, expected = classify(m), full_classify(m)
        assert tag.witnesses == expected, m
        assert (tag.in_a, tag.in_b, tag.in_c, tag.in_d) == tuple(letter not in expected for letter in "ABCD")


def test_the_action_conditions_fail_where_a_group_has_two_generators():
    # The cases above that can tell a decision on S_H x S_K from one on fewer pairs.
    seen = set()
    for instance in ("s3_by_z2_conjugation", "s3_by_s3_conjugation", "z3_times_s3"):
        for m in _family_candidates(_PRODUCTS[instance]):
            seen.update(w[0] for w in full_classify(m).values() if w[0] in ("alpha_action", "gamma_action"))
    assert seen == {"alpha_action", "gamma_action"}
