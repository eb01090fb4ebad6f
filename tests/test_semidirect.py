import importlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdmat import (
    DEFAULT_INSTANCES,
    NotAutomorphism,
    NotHomomorphic,
    build_instance,
    cli_main,
    cyclic_group,
    enumerate_endos,
    group_to_dict,
    make_action,
    make_group,
    semidirect,
    trivial_action,
)
from sdmat import groups
from sdmat.maps import FMap, twisted_law_witness
from sdmat.semidirect import GroupAction
from test_determinant import _z3_by_s3_sign
from test_matrices import _s3_by_conjugation


_HELPER_PRODUCTS = {
    "z3_by_s3_sign": _z3_by_s3_sign,
    "s3_by_z2_conjugation": lambda: _s3_by_conjugation(cyclic_group(2)),
    "s3_by_s3_conjugation": lambda: _s3_by_conjugation(build_instance("dihedral:3").group),
}


@pytest.mark.parametrize("instance", [*DEFAULT_INSTANCES, *_HELPER_PRODUCTS])
def test_product_table_is_the_defining_formula(instance):
    # The table is built by gathers, on the group's first read; entry by entry it is
    # (h1 f_k1(h2), k1 k2), and the group is what make_group builds from that table.
    P = _HELPER_PRODUCTS[instance]() if instance in _HELPER_PRODUCTS else build_instance(instance)
    ht, kt, rows = P.H.table, P.K.table, P.action.images
    pairs = [P.decode(g) for g in range(P.H.order * P.K.order)]
    expected = tuple(
        tuple(P.encode(ht[h1][rows[k1][h2]], kt[k1][k2]) for h2, k2 in pairs) for h1, k1 in pairs
    )
    names = [f"({P.H.element_name(h)},{P.K.element_name(k)})" for h, k in pairs]
    eager, lazy = make_group(expected, names=names, name=P.name), P.group
    assert lazy.table == expected
    for field in ("order", "identity", "inverses", "generators", "walk", "names", "name"):
        assert getattr(lazy, field) == getattr(eager, field), field


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


def _make_action_by_full_scan(H, K, images):
    """make_action with the row composition law scanned over all |K|^2 pairs, k1 outermost."""
    rows = tuple(tuple(row) for row in images)
    for k, row in enumerate(rows):
        if len(set(row)) != H.order:
            raise NotAutomorphism(k, "row is not a bijection")
        if not FMap(H, H, row).is_hom:
            x, y, _, _ = twisted_law_witness(H, H, row)
            raise NotAutomorphism(k, f"row is not a homomorphism at ({x}, {y})")
    for k1 in range(K.order):
        for k2 in range(K.order):
            r12, r1, r2 = rows[K.table[k1][k2]], rows[k1], rows[k2]
            if any(r12[h] != r1[r2[h]] for h in range(H.order)):
                raise NotHomomorphic(k1, k2)
    return rows


_ACTIONS = [
    build_instance(name).action
    for name in ("cyclic:2", "klein", "dihedral:4", "dihedral:5", "metacyclic:3:4:2", "metacyclic:7:6:3", "metacyclic:9:3:4")
] + [
    _z3_by_s3_sign().action,
    _s3_by_conjugation(cyclic_group(2)).action,
    _s3_by_conjugation(build_instance("dihedral:3").group).action,
    trivial_action(build_instance("dihedral:3").group, build_instance("klein").group),
    trivial_action(build_instance("klein").group, build_instance("klein").group),
]
_AUTOS = {id(act.H): sorted(a.image for a in enumerate_endos(act.H).autos) for act in _ACTIONS}


@st.composite
def _action_tables(draw):
    """A valid action table, one with one entry changed or one row replaced by another, or
    automorphisms of H given to K's generators and extended along K's walk.

    The last kind obeys f(ks) = f(k) o f(s) on every step of the walk, so only the
    generator equations off the walk can tell it from an action.
    """
    act = draw(st.sampled_from(_ACTIONS))
    rows = [list(row) for row in act.images]
    change = draw(st.sampled_from(["none", "entry", "row", "walk"]))
    k = draw(st.integers(0, act.K.order - 1))
    if change == "entry":
        rows[k][draw(st.integers(0, act.H.order - 1))] = draw(st.integers(0, act.H.order - 1))
    elif change == "row":
        rows[k] = list(act.images[draw(st.integers(0, act.K.order - 1))])
    elif change == "walk":
        rows = _walk_table(act.H, act.K, [draw(st.sampled_from(_AUTOS[id(act.H)])) for _ in act.K.generators])
    return act.H, act.K, rows


def _walk_table(H, K, generator_rows):
    """Rows f(e) = 1 and f(y) = f(x) o f(s_i) along each step (y, x, i) of K's walk."""
    rows = [None] * K.order
    rows[K.identity] = list(range(H.order))
    for y, x, i in K.walk:
        rows[y] = [rows[x][v] for v in generator_rows[i]]
    return rows


# Klein acting on Klein with the first generator trivial and the second of order 3: every
# equation at the first generator holds, but f(s2 s2) = f(e) = 1 fails.
_V4 = build_instance("klein").group
_ORDER_3_AUTO = next(a.image for a in enumerate_endos(_V4).autos if a.image[a.image[a.image[1]]] == 1 != a.image[1])
_FAILS_ONLY_AT_THE_SECOND_GENERATOR = (_V4, _V4, _walk_table(_V4, _V4, [tuple(range(4)), _ORDER_3_AUTO]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotAutomorphism, NotHomomorphic) as err:
        return type(err), str(err)


@given(_action_tables())
@example(_FAILS_ONLY_AT_THE_SECOND_GENERATOR)
@settings(max_examples=300, deadline=None)
def test_make_action_agrees_with_the_full_row_scan(case):
    H, K, rows = case
    made = _outcome(make_action, H, K, rows)
    expected = _outcome(_make_action_by_full_scan, H, K, rows)
    assert (made.images if hasattr(made, "images") else made) == expected


def test_a_non_identity_row_over_a_trivial_group_is_not_an_action():
    # A trivial K has no generators, so f(e) = 1 is the whole generator test there.
    with pytest.raises(NotHomomorphic) as err:
        make_action(cyclic_group(3), cyclic_group(1), [[0, 2, 1]])
    assert err.value.pair == (0, 0)


# The product group is built on first read (semidirect.py docstring).


def _counting_product_builds(monkeypatch):
    """Patch the builder the product group is built with; the returned list grows by one per build."""
    built = []
    build = groups._group_of_rows

    def counting(rows, *args, **kwargs):
        built.append(len(rows))
        return build(rows, *args, **kwargs)

    # The package exports the function semidirect under the module's name.
    monkeypatch.setattr(importlib.import_module("sdmat.semidirect"), "_group_of_rows", counting)
    return built


def test_semidirect_of_an_action_builds_its_group_once_on_first_read(monkeypatch):
    built = _counting_product_builds(monkeypatch)
    P = semidirect(make_action(cyclic_group(3), cyclic_group(2), [[0, 1, 2], [0, 2, 1]]), name="s3")
    assert built == [] and repr(P) == "SdProduct(s3)"
    assert repr(semidirect(trivial_action(cyclic_group(3), cyclic_group(4)))) == "SdProduct(12)"
    assert built == []
    G = P.group
    assert P.group is G and built == [6]


def _counting_make_action(monkeypatch):
    """Patch make_action where the catalog and semidirect call it; the returned list grows by one per call."""
    calls = []
    make = make_action

    def counting(H, K, images):
        calls.append(len(images))
        return make(H, K, images)

    for module in ("sdmat.catalog", "sdmat.semidirect"):
        monkeypatch.setattr(importlib.import_module(module), "make_action", counting)
    return calls


# GroupActions built by hand, bypassing make_action, that are no actions.  semidirect passes
# them through make_action and raises its error, naming the row and the entry, before any
# table is built.  Each case: the action and the error make_action and semidirect raise.
_NOT_ACTIONS = {
    # A bijection of Z4 fixing 0 and 1 but swapping 2 and 3: 1 + 1 = 2 goes to 3.
    "bijective_row_not_a_homomorphism": (
        (cyclic_group(4), cyclic_group(2), ((0, 1, 2, 3), (0, 1, 3, 2))),
        (NotAutomorphism, "action of element 1 is not an automorphism: row is not a homomorphism at (1, 1)"),
    ),
    "entry_out_of_range": (
        (cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2, 3))),
        (ValueError, "row 1 contains invalid entry 3"),
    ),
    "negative_entry": (
        (cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2, -1))),
        (ValueError, "row 1 contains invalid entry -1"),
    ),
    "row_of_the_wrong_length": (
        (cyclic_group(3), cyclic_group(2), ((0, 1, 2), (0, 2))),
        (ValueError, "row 1 has 2 entries, expected 3"),
    ),
}


@pytest.mark.parametrize("case", _NOT_ACTIONS)
def test_semidirect_validates_a_hand_built_non_action_at_once(case, monkeypatch):
    (H, K, rows), (error, message) = _NOT_ACTIONS[case]
    with pytest.raises(error) as err:
        make_action(H, K, rows)
    assert type(err.value) is error and str(err.value) == message
    built = _counting_product_builds(monkeypatch)
    calls = _counting_make_action(monkeypatch)
    # A refusal keeps no record, so a second product of the same action is refused again.
    action = GroupAction(H, K, rows)
    for attempt in (1, 2):
        with pytest.raises(error) as err:
            semidirect(action)
        assert type(err.value) is error and str(err.value) == message
        assert len(calls) == attempt
    assert built == []


def test_an_action_from_make_action_is_validated_once(monkeypatch, tmp_path):
    # make_action records on what it returns that it is an action, and semidirect reads the
    # record: build_instance and the CLI's --action path validate their action once.
    calls = _counting_make_action(monkeypatch)
    P = build_instance("metacyclic:7:6:3")
    assert calls == [6]
    calls.clear()
    (tmp_path / "act.json").write_text(json.dumps(
        {"H": group_to_dict(P.H), "K": group_to_dict(P.K), "images": P.action.images}
    ))
    assert cli_main(["census", "--action", str(tmp_path / "act.json")]) == 0
    assert calls == [6]


def test_semidirect_validates_an_unrecorded_action_once(monkeypatch):
    # A hand-built action and trivial_action's carry no record: semidirect runs make_action on
    # each once and keeps the verdict, so a second product of the same action does not.
    calls = _counting_make_action(monkeypatch)
    z3, z2 = cyclic_group(3), cyclic_group(2)
    for action in (GroupAction(z3, z2, ((0, 1, 2), (0, 2, 1))), trivial_action(z3, z2)):
        semidirect(action)
        semidirect(action)
        assert calls == [2]
        calls.clear()
