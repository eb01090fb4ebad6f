import pytest

from sdmat import (
    NotAutomorphism,
    NotHomomorphic,
    build_instance,
    cyclic_group,
    make_action,
    semidirect,
    trivial_action,
)


def test_trivial_action_gives_direct_product():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    P = semidirect(trivial_action(z3, z2))
    assert P.group.order == 6
    assert P.group.is_abelian


def test_inversion_action_builds_s3():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    act = make_action(z3, z2, [[0, 1, 2], [0, 2, 1]])
    P = semidirect(act)
    assert P.group.order == 6
    assert not P.group.is_abelian
    assert len(P.group.center) == 1


def test_row_not_automorphism_rejected():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    # swapping the identity with a generator is not a homomorphism
    with pytest.raises(NotAutomorphism):
        make_action(z3, z2, [[0, 1, 2], [1, 0, 2]])


def test_row_not_automorphism_names_its_witness_pair():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    # a bijection fixing 0 and 1: 1 + 1 = 2 goes to 3, but f(1) + f(1) = 2
    with pytest.raises(NotAutomorphism, match=r"element 1 .*row is not a homomorphism at \(1, 1\)"):
        make_action(z4, z2, [[0, 1, 2, 3], [0, 1, 3, 2]])


def test_row_not_bijective_rejected():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    with pytest.raises(NotAutomorphism):
        make_action(z3, z2, [[0, 1, 2], [0, 0, 0]])


def test_action_not_homomorphic_rejected():
    # f_1 = inversion on Z4 but f_2 = id breaks f(1+1) = f(1)f(1)... pick
    # rows so each is an automorphism yet the assignment is not a hom
    z4 = cyclic_group(4)
    ident = [0, 1, 2, 3]
    inv = [0, 3, 2, 1]
    with pytest.raises(NotHomomorphic):
        make_action(z4, cyclic_group(4), [ident, inv, inv, ident])


def test_bad_row_shape_rejected():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    with pytest.raises(ValueError):
        make_action(z3, z2, [[0, 1, 2]])
    with pytest.raises(ValueError):
        make_action(z3, z2, [[0, 1, 2], [0, 2]])


def test_d4_structure():
    P = build_instance("dihedral:4")
    assert P.group.order == 8
    assert not P.group.is_abelian
    assert len(P.group.center) == 2


def test_encode_decode_roundtrip(s3):
    for g in s3.group.elements():
        h, k = s3.decode(g)
        assert s3.encode(h, k) == g


def test_conj_action_identity(s3):
    for h in s3.H.elements():
        assert s3.action.images[s3.K.identity][h] == h


def test_conj_action_s3_inverts(s3):
    assert s3.action.images[1][1] == 2


def test_conj_action_matches_internal_conjugation(s3, d4):
    # k h = h^k k inside the product group
    for P in (s3, d4):
        G = P.group
        for h in P.H.elements():
            for k in P.K.elements():
                lhs = G.mul(P.embed_k(k), P.embed_h(h))
                rhs = G.mul(P.embed_h(P.action.images[k][h]), P.embed_k(k))
                assert lhs == rhs


def test_embedded_copies_are_subgroups(s3):
    G = s3.group
    hs = [s3.embed_h(h) for h in s3.H.elements()]
    ks = [s3.embed_k(k) for k in s3.K.elements()]
    for sub in (hs, ks):
        members = set(sub)
        assert G.identity in members
        for a in sub:
            assert G.inv(a) in members
            for b in sub:
                assert G.mul(a, b) in members


def test_action_kernel_trivial_action():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    assert sorted(trivial_action(z3, z2).kernel) == [0, 1]


def test_action_kernel_s3(s3):
    assert list(s3.action.kernel) == [0]


def test_action_kernel_through_quotient():
    # Z4 acting on Z4 through its order-2 quotient: kernel {0, 2}
    P = build_instance("metacyclic:4:4:3")
    assert sorted(P.action.kernel) == [0, 2]
