"""The verification harness: selected checks agree with a full run and
build only the shared data they read."""

import dataclasses
import gc
import json
import sys
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from sdmat import (
    DEFAULT_INSTANCES,
    EndoMatrix,
    FMap,
    FiniteGroup,
    NotBijective,
    VerificationFailed,
    build_instance,
    cli_main,
    determinant,
    enumerate_matrices,
    factorization,
    identity_matrix,
    make_action,
    make_group,
    maps,
    matrices,
    matrix_to_endo,
    semidirect,
    verify,
)
from sdmat.catalog import group_to_dict
from sdmat.matrices import mat_mul
from sdmat.oracle import EndCensus, enumerate_endos
from sdmat.verify import CHECK_NAMES, run_verification
from endo_reference import invert_endo
from pairwise_reference import pairwise_checks
from test_matrices import _NONABELIAN


@pytest.fixture(scope="module")
def full_reports():
    return {name: run_verification(name) for name in ("dihedral:4", "direct:3:3")}


@pytest.mark.parametrize("instance", ["dihedral:4", "direct:3:3"])
@pytest.mark.parametrize("check", CHECK_NAMES)
def test_single_check_matches_full_run(full_reports, instance, check):
    full = full_reports[instance]
    single = run_verification(instance, checks=[check])
    assert single.checks == tuple(c for c in full.checks if c.name == check)
    assert single.counts == full.counts
    assert single.notes.items() <= full.notes.items()


def test_no_check_skips_below_the_pairwise_limit(full_reports):
    # direct:3:3 has 81 matrices; every check runs and passes, monoid_laws alone as well.
    assert [(c.name, c.status) for c in full_reports["direct:3:3"].checks if c.status != "pass"] == []
    assert [c.status for c in run_verification("direct:3:3", checks=["monoid_laws"]).checks] == ["pass"]


_CENSUS_CHECKS = ("endo_matrix_correspondence", "monoid_laws")


def _no_formula_endomorphism(monkeypatch):
    """Make ``matrix_to_endo`` raise wherever a module holds it."""

    def unused(matrix):
        raise AssertionError("an endomorphism built through the entry formula")

    for module in (verify, matrices, determinant):
        monkeypatch.setattr(module, "matrix_to_endo", unused)


def test_every_selection_builds_the_census_once_and_no_endomorphism_by_formula(monkeypatch):
    # Each matrix's endomorphism is the census entry whose entries are its key, matched as the
    # context is built, so every selection builds the census exactly once; a passing run calls
    # matrix_to_endo on no matrix.
    built = []

    def counting(group, bound):
        built.append(group)
        return enumerate_endos(group, bound=bound)

    monkeypatch.setattr(verify, "enumerate_endos", counting)
    _no_formula_endomorphism(monkeypatch)
    for checks in ("all", *([c] for c in CHECK_NAMES)):
        built.clear()
        report = run_verification("dihedral:4", checks=checks)
        assert report.passed and [c.status for c in report.checks] == ["pass"] * len(report.checks)
        assert len(built) == 1


def test_the_census_is_built_once_and_freed_once_compared(monkeypatch):
    # The context builds the census and keeps only its maps, as the matrices' endomorphisms, so
    # nothing refers to the census object by the time monoid_laws, which reads the
    # correspondence's verdict, runs.
    built, alive = [], []

    def recording(group, bound):
        census = enumerate_endos(group, bound=bound)
        built.append(weakref.ref(census))
        return census

    monoid = verify._CHECK_FUNCS["monoid_laws"]

    def probing(ctx):
        alive.append([census() is not None for census in built])
        return monoid(ctx)

    monkeypatch.setattr(verify, "enumerate_endos", recording)
    monkeypatch.setitem(verify._CHECK_FUNCS, "monoid_laws", probing)
    report = run_verification("dihedral:4", checks=list(_CENSUS_CHECKS))
    assert [c.status for c in report.checks] == ["pass", "pass"]
    assert alive == [[False]]


def test_every_skip_reason_on_matrices_without_a_bijective_diagonal_entry(monkeypatch):
    # The identity matrix meets every precondition, so no skip is reachable on a correct
    # enumeration.  Keeping only the matrices of dihedral:4 whose alpha and delta are both not
    # bijective leaves no automorphism and no determinant: all nine skip reasons are reported,
    # and the family checks find no identity.
    enumerate_all = verify.enumerate_matrices

    def without_bijective_diagonal(product, bound):
        kept = enumerate_all(product, bound=bound)
        return [m for m in kept if not m.alpha.is_bijective and not m.delta.is_bijective]

    monkeypatch.setattr(verify, "enumerate_matrices", without_bijective_diagonal)
    report = run_verification("dihedral:4", checks=[c for c in CHECK_NAMES if c not in _CENSUS_CHECKS])
    no_diagonal = "no automorphism matrix with bijective diagonal"
    no_unit_diagonal = "no unit-diagonal automorphism matrix"
    assert [c.to_dict() for c in report.checks] == [
        {"name": "invertibility_via_det_k", "status": "skip", "reason": "no matrix with bijective alpha"},
        {"name": "invertibility_via_det_h", "status": "skip", "reason": "no matrix with bijective delta"},
        {
            "name": "inverse_formula_det_k",
            "status": "skip",
            "reason": "no matrix with bijective alpha and bijective det_k",
        },
        {
            "name": "inverse_formula_det_h",
            "status": "skip",
            "reason": "no matrix with bijective delta and bijective det_h",
        },
        {"name": "determinant_duality", "status": "skip", "reason": no_diagonal},
        {"name": "combined_inverse", "status": "skip", "reason": f"{no_diagonal} and determinants"},
        {"name": "unit_diagonal_a_factor", "status": "skip", "reason": no_unit_diagonal},
        {"name": "unit_diagonal_b_factor", "status": "skip", "reason": no_unit_diagonal},
        {"name": "abcd_factorization", "status": "skip", "reason": no_diagonal},
        {"name": "abcd_subgroup_closure", "status": "fail", "witness": {"family": "A", "detail": "identity missing"}},
        {"name": "abcd_normalization", "status": "pass"},
    ]
    assert report.counts == {"end": 12, "aut": 0, "A": 0, "B": 0, "C": 0, "D": 0}
    assert report.notes == {"aut_nonbij_alpha_delta": 0, "det_nonhom_witness": None}


def test_verify_bound_exceeded_exits_2(capsys):
    assert cli_main(["verify", "--instance", "dihedral:10", "--bound", "8"]) == 2
    assert "exceeds bound" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [[], ()])
def test_empty_check_selection_rejected(checks):
    with pytest.raises(ValueError, match="no checks selected"):
        run_verification("klein", checks=checks)


def _correspondence(instance):
    (check,) = run_verification(instance, checks=["endo_matrix_correspondence"]).checks
    return check


def test_check_selection_given_as_one_name_rejected():
    with pytest.raises(ValueError, match="checks must be 'all' or a list of check names, not 'monoid_laws'"):
        run_verification("klein", checks="monoid_laws")


def test_correspondence_fails_on_a_short_census(monkeypatch):
    def short(group, bound):
        census = enumerate_endos(group, bound=bound)
        return EndCensus(group, census.endos[1:])

    monkeypatch.setattr("sdmat.verify.enumerate_endos", short)
    check = _correspondence("dihedral:4")
    assert (check.status, check.witness) == ("fail", {"matrix_count": 36, "endo_count": 35})


def test_a_matrix_the_census_misses_gets_its_formula_endomorphism(monkeypatch):
    # The census lacks its last automorphism: the one matrix it matches gets its formula's map,
    # so every other check still runs on all 36 matrices and reports.
    def short(group, bound):
        census = enumerate_endos(group, bound=bound)
        return EndCensus(group, tuple(e for e in census.endos if e != census.autos[-1]))

    formula_built = []

    def recording(matrix):
        formula_built.append(matrix.key())
        return matrix_to_endo(matrix)

    monkeypatch.setattr(verify, "enumerate_endos", short)
    monkeypatch.setattr(verify, "matrix_to_endo", recording)
    report = run_verification("dihedral:4")
    P = build_instance("dihedral:4")
    missed = enumerate_endos(P.group).autos[-1]
    assert formula_built == [matrices._entry_images(missed, P)]
    assert report.counts == run_verification("dihedral:4").counts
    correspondence, monoid, *others = report.checks
    assert correspondence.to_dict() == {
        "name": "endo_matrix_correspondence",
        "status": "fail",
        "witness": {"matrix_count": 36, "endo_count": 35},
    }
    assert monoid.status == "fail"
    assert [(c.name, c.status) for c in others] == [(name, "pass") for name in CHECK_NAMES[2:]]


def test_correspondence_fails_on_an_image_the_matrices_do_not_give(monkeypatch):
    group = build_instance("dihedral:4").group
    auto = enumerate_endos(group).autos[-1].image
    swapped = (auto[0], auto[2], auto[1], *auto[3:])  # a bijection, but no homomorphism

    def swap_one(group, bound):
        census = enumerate_endos(group, bound=bound)
        endos = tuple(FMap(group, group, swapped) if e.image == auto else e for e in census.endos)
        return EndCensus(group, endos)

    assert not FMap(group, group, swapped).is_hom
    monkeypatch.setattr("sdmat.verify.enumerate_endos", swap_one)
    check = _correspondence("dihedral:4")
    assert (check.status, check.witness) == ("fail", {"image_mismatch": [list(auto)]})


def test_correspondence_fails_on_a_wrong_round_trip(monkeypatch):
    # Every census entry reads as the identity's code columns: the first matches the identity
    # matrix, every other matrix is matched by none and gets its formula's map, and the witness
    # is the first of those, the zero endomorphism's.
    read = verify._census_columns
    monkeypatch.setattr(verify, "_census_columns", lambda theta, P: read(maps.identity_map(P.group), P))
    check = _correspondence("dihedral:4")
    assert (check.status, check.witness) == ("fail", {"image_mismatch": [[0] * 8]})


def test_census_is_matched_by_code_columns_built_once_per_pair_of_entries(monkeypatch):
    # Each matrix is indexed by its columns (alpha, gamma) over H and (beta, delta) over K, as
    # codes; the enumeration shares its entry objects, so dihedral:30's 1024 matrices need 60 and
    # 32 columns, one per distinct pair.  A census map is read by two slices of its table, and
    # no entry table is decoded off it.
    P = build_instance("dihedral:30")
    built = []
    real = verify._code_column

    def recording(codes, top, bottom):
        built.append((top, bottom))
        return real(codes, top, bottom)

    decoded = []
    body = matrices._entry_images.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            decoded.append(frame.f_locals["theta"])

    monkeypatch.setattr(verify, "_code_column", recording)
    sys.setprofile(profile)
    try:
        assert run_verification(P).passed
    finally:
        sys.setprofile(None)
    assert decoded == []
    assert len({(id(top), id(bottom)) for top, bottom in built}) == len(built)
    assert Counter("H" if top.dom is P.H else "K" for top, _ in built) == {"H": 60, "K": 32}


def _z4_by_inversion_with_moved_identities():
    # Z4 with identity code 3, acted on by inversion from Z2 with identity code 1.
    h = [3, 0, 1, 2]  # code of the residue r
    z4 = make_group([[h[(h.index(x) + h.index(y)) % 4] for y in range(4)] for x in range(4)])
    z2 = make_group([[1, 0], [0, 1]])
    inverse = tuple(h[-h.index(x) % 4] for x in range(4))
    return semidirect(make_action(z4, z2, [inverse, tuple(range(4))]), "z4_by_z2_moved_identities")


def test_census_columns_read_the_embedded_copies_at_nonzero_identities():
    # With e_H = 3 and e_K = 1 the embedded copies are the codes x*|K| + 1 and 3*|K| + y, so the
    # slices start away from 0.  The product is the dihedral group of order 8, and verify
    # reports it as it does dihedral:4.
    P = _z4_by_inversion_with_moved_identities()
    assert (P.H.identity, P.K.identity) == (3, 1)
    codes = matrices._grid(P)[2]
    for theta in enumerate_endos(P.group).endos:
        a, b, g, d = matrices._entry_images(theta, P)
        columns = tuple(codes[x][y] for x, y in zip(a, g)), tuple(codes[x][y] for x, y in zip(b, d))
        assert verify._census_columns(theta, P) == columns
        assert columns == (tuple(map(theta, map(P.embed_h, range(4)))), tuple(map(theta, map(P.embed_k, range(2)))))
    report = run_verification(P)
    assert report.counts == {"end": 36, "aut": 8, "A": 2, "B": 4, "C": 1, "D": 1}
    reference = run_verification("dihedral:4")
    assert [(c.name, c.status) for c in report.checks] == [(c.name, c.status) for c in reference.checks]
    assert report.passed


def _formula_entry(P, a2, b2, g2, d2, x, y):
    """The entry formula at column (x; y): (alpha x * f_{gamma x}(beta y), gamma x * delta y)."""
    return P.H.table[a2[x]][P.action.images[g2[x]][b2[y]]], P.K.table[g2[x]][d2[y]]


def _swapped_operands(P, a2, b2, g2, d2, x, y):
    return P.H.table[P.action.images[g2[x]][b2[y]]][a2[x]], P.K.table[g2[x]][d2[y]]


def _gamma_at_y(P, a2, b2, g2, d2, x, y):
    return P.H.table[a2[x]][P.action.images[g2[x]][b2[y]]], P.K.table[g2[y]][d2[y]]


def _twist_dropped(P, a2, b2, g2, d2, x, y):
    return P.H.table[a2[x]][b2[y]], P.K.table[g2[x]][d2[y]]


def _wrong_at_last_pair(P, a2, b2, g2, d2, x, y):
    # Wrong in alpha's entry at u = v = the last element of G alone, whatever the left factor.
    top, bottom = _formula_entry(P, a2, b2, g2, d2, x, y)
    last = P.decode(P.group.order - 1)
    if (a2[x], g2[x]) == (b2[y], d2[y]) == last:
        top = (top + 1) % P.H.order
    return top, bottom


# Each mutant is a pure function of the left factor's tables at (x, y), as the formula is; one
# keyed to a single left matrix is not a formula of the entries, and is out of scope.
_MUTANT_FORMULAS = {
    "swapped_operands": ("s3_by_z2_conjugation", _swapped_operands, [4, 3]),
    "gamma_at_y": ("dihedral:4", _gamma_at_y, [0, 3]),
    "twist_dropped": ("metacyclic:19:3:7", _twist_dropped, [4, 4]),
    "wrong_at_last_pair": ("dihedral:4", _wrong_at_last_pair, [7, 7]),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANT_FORMULAS))
def test_correspondence_fails_on_a_mutant_entry_formula(monkeypatch, tmp_path, mutant):
    # theta is the census entry with m's entries, so a wrong formula breaks no theta: part 3 of the
    # correspondence sets the formula against G's table on every pair of G x G, and names the
    # first pair where they differ.  monoid_laws fails with it, and the CLI exits 1.
    instance, entry, pair = _MUTANT_FORMULAS[mutant]
    P = _NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance)

    def formula(left, a1, b1, g1, d1):
        tables = left.key()
        on_h = [entry(P, *tables, x, y) for x, y in zip(a1, g1)]
        on_k = [entry(P, *tables, x, y) for x, y in zip(b1, d1)]
        a, c = (tuple(v[i] for v in on_h) for i in (0, 1))
        b, d = (tuple(v[i] for v in on_k) for i in (0, 1))
        return a, b, c, d

    action = tmp_path / "act.json"
    action.write_text(json.dumps({"H": group_to_dict(P.H), "K": group_to_dict(P.K), "images": P.action.images}))
    assert run_verification(P, checks=list(_CENSUS_CHECKS)).passed
    monkeypatch.setattr(matrices, "_product_images", formula)
    report = run_verification(P, checks=list(_CENSUS_CHECKS))
    correspondence, monoid = report.checks
    assert correspondence.status == "fail"
    assert correspondence.witness == {"detail": "entry formula differs from the group product", "pair": pair}
    assert monoid.to_dict() == {
        "name": "monoid_laws", "status": "fail", "witness": {"detail": "endo_matrix_correspondence fails"}
    }
    assert cli_main(["verify", "--action", str(action), "--theorems", ",".join(_CENSUS_CHECKS)]) == 1


def test_factor_reassembly_fails_on_a_mutant_product(monkeypatch):
    # factor_abcd compares a*(b*(c*d)) with m as image tables through the entry formula; a
    # formula that sends every delta to the constant map makes the reassembly fail, and with it
    # the first eligible matrix of abcd_factorization.  The inverse checks form their products
    # through verify's own binding, unpatched, and still pass.
    product_images = matrices._product_images
    P = build_instance("direct:3:3")
    zero_k = (P.K.identity,) * P.K.order

    def mutant(left, a1, b1, g1, d1):
        a, b, c, _ = product_images(left, a1, b1, g1, d1)
        return a, b, c, zero_k

    monkeypatch.setattr(factorization, "_product_images", mutant)
    mats = sorted(enumerate_matrices(P), key=lambda m: m.key())
    first = next(
        m for m in mats if matrix_to_endo(m).is_bijective and m.alpha.is_bijective and m.delta.is_bijective
    )
    with pytest.raises(VerificationFailed, match="factor reassembly") as err:
        factorization.factor_abcd(first)
    assert str(err.value) == f"verification failed: factor reassembly at {first.key()}"
    report = run_verification(P, checks=["inverse_formula_det_k", "abcd_factorization"])
    inverse, factor = report.checks
    assert inverse.status == "pass"
    assert (factor.status, factor.witness["detail"]) == ("fail", str(err.value))
    assert factor.witness["alpha"] == list(first.alpha.image)


_INVERSE_CHECKS = ["inverse_formula_det_k", "inverse_formula_det_h", "determinant_duality", "combined_inverse"]


# The outcomes of the four inverse checks with one side's closed form returning the identity.
_WRONG_SIDE_OUTCOMES = {
    "k": {
        "inverse_formula_det_k": ("fail", "disagrees with brute-force inverse"),
        "inverse_formula_det_h": ("pass", None),
        "determinant_duality": ("fail", "H-side determinant inverse identity"),
        "combined_inverse": ("fail", "three-way inverse mismatch"),
    },
    "h": {
        "inverse_formula_det_k": ("pass", None),
        "inverse_formula_det_h": ("fail", "disagrees with brute-force inverse"),
        "determinant_duality": ("fail", "K-side determinant inverse identity"),
        "combined_inverse": ("fail", "three-way inverse mismatch"),
    },
}


@pytest.mark.parametrize("side", sorted(_WRONG_SIDE_OUTCOMES))
def test_inverse_checks_fail_on_a_wrong_one_sided_inverse(monkeypatch, side):
    # Patched where verify reads it and where invert_combined and dual_det_inverses read it.  The
    # patch bypasses the closed form's own certificate, so the comparison with the oracle's
    # inverse catches it; the other side's formula check still passes.
    for module in (determinant, verify):
        monkeypatch.setattr(module, f"invert_via_det_{side}", lambda matrix: identity_matrix(matrix.context))
    report = run_verification("direct:3:3", checks=_INVERSE_CHECKS)
    outcomes = {c.name: (c.status, c.witness and c.witness["detail"]) for c in report.checks}
    assert outcomes == _WRONG_SIDE_OUTCOMES[side]


def _det_k_with_swapped_operands(matrix):
    """det_k with the operands of its pointwise product swapped: delta(k) * (gamma alpha^-1 beta(k))^-1."""
    P = matrix.context
    kt, kinv = P.K.table, P.K.inverses
    ainv = maps.map_inverse(matrix.alpha).image
    _, b, g, d = matrix.key()
    return FMap(P.K, P.K, tuple(kt[d[k]][kinv[g[ainv[b[k]]]]] for k in range(P.K.order)))


def test_the_certificate_catches_a_det_k_with_swapped_operands(monkeypatch):
    # K = S3 is nonabelian, so the swapped product is another map, and the closed form built on
    # it is no inverse: the certificate of invert_via_det_k, not a check of verify's own, fails
    # the K-side formula check.
    for module in (determinant, verify):
        monkeypatch.setattr(module, "det_k", _det_k_with_swapped_operands)
    (check,) = run_verification(_NONABELIAN["z3_by_s3_sign"](), checks=["inverse_formula_det_k"]).checks
    assert (check.status, check.witness["detail"]) == ("fail", "two-sided inverse law")


def test_duality_and_combined_checks_call_the_public_functions(monkeypatch):
    # determinant_duality checks dual_det_inverses and combined_inverse checks invert_combined,
    # each called once on every automorphism matrix with bijective diagonal.
    calls = defaultdict(int)
    for name in ("dual_det_inverses", "invert_combined"):

        def counting(matrix, name=name, original=getattr(verify, name)):
            calls[name] += 1
            return original(matrix)

        monkeypatch.setattr(verify, name, counting)
    assert run_verification("direct:3:3", checks=["determinant_duality", "combined_inverse"]).passed
    diag_autos = [
        m
        for m in enumerate_matrices(build_instance("direct:3:3"))
        if m.alpha.is_bijective and m.delta.is_bijective and matrix_to_endo(m).is_bijective
    ]
    assert dict(calls) == {"dual_det_inverses": len(diag_autos), "invert_combined": len(diag_autos)}
    assert len(diag_autos) > 1


def test_full_run_with_a_wrong_h_side_inverse_fails_its_formula(monkeypatch):
    # Wrong only where alpha is bijective too, so the K-side check has already decided the
    # inverse of each matrix the H-side check gets wrong; it must still decide its own.  The
    # patch bypasses the closed form's certificate, so the oracle comparison catches it.
    invert = determinant.invert_via_det_h
    monkeypatch.setattr(
        "sdmat.verify.invert_via_det_h",
        lambda matrix: identity_matrix(matrix.context) if matrix.alpha.is_bijective else invert(matrix),
    )
    full = {c.name: c for c in run_verification("direct:3:3").checks}["inverse_formula_det_h"]
    (alone,) = run_verification("direct:3:3", checks=["inverse_formula_det_h"]).checks
    for check in (full, alone):
        assert (check.status, check.witness["detail"]) == ("fail", "disagrees with brute-force inverse")
    assert full == alone


class _DetBodies:
    """Records the matrix of each run of the determinants' bodies (the functions under their memo)."""

    def __init__(self):
        self.matrices = []
        self._codes = {determinant.det_k.__wrapped__.__code__, determinant.det_h.__wrapped__.__code__}

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code in self._codes:
            self.matrices.append(frame.f_locals["matrix"])  # kept alive, so ids stay distinct

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def _capture_enumeration(monkeypatch) -> list:
    """The matrices verify enumerates, collected as it enumerates them."""
    enumerated = []

    def capturing(*args, **kwargs):
        mats = enumerate_matrices(*args, **kwargs)
        enumerated.extend(mats)
        return mats

    monkeypatch.setattr(verify, "enumerate_matrices", capturing)
    return enumerated


def test_full_run_decides_each_inverse_once(monkeypatch):
    # verify forms no product: each closed form certifies its own inverse with one product,
    # m times the inverse, formed in determinant with the entry formula on the inverse's image
    # tables, and the certified key is kept on m, so the other closed form and invert_combined
    # compare keys.  That is one product per matrix and inverse key.  Each matrix's theta is
    # the census entry with its entries, so the formula runs on the H x K grid, with no
    # right-hand beta or delta, only for the |G| distinct left factors of the correspondence's
    # formula check.  Every determinant of the run is built on an enumerated matrix: those of
    # a closed-form inverse are read off the enumerated matrix with its key.
    assert not hasattr(verify, "_product_images")
    product_images = matrices._product_images
    for instance in ("dihedral:4", "direct:3:3"):
        with monkeypatch.context() as patch:
            calls = {determinant: ([], []), matrices: ([], [])}
            for module, (products, grids) in calls.items():

                def counting(left, a1, b1, g1, d1, products=products, grids=grids):
                    (products if b1 else grids).append((left.key(), (a1, b1, g1, d1)))
                    return product_images(left, a1, b1, g1, d1)

                patch.setattr(module, "_product_images", counting)
            enumerated = _capture_enumeration(patch)
            with _DetBodies() as dets:
                assert run_verification(instance).passed
        checked = [
            m
            for m in enumerated
            if (m.alpha.is_bijective and determinant.det_k(m).is_bijective)
            or (m.delta.is_bijective and determinant.det_h(m).is_bijective)
        ]
        both = [m for m in checked if m.alpha.is_bijective and m.delta.is_bijective]
        assert len(both) > 0
        (certificates, det_grids), (matrix_products, grid_maps) = calls[determinant], calls[matrices]
        assert len(set(certificates)) == len(certificates) == len(checked)
        assert {left for left, _ in certificates} == {m.key() for m in checked}
        assert (det_grids, matrix_products) == ([], [])
        assert len({left for left, _ in grid_maps}) == len(grid_maps) == build_instance(instance).group.order
        ids = {id(m) for m in enumerated}
        assert dets.matrices and all(id(m) in ids for m in dets.matrices)


def _off_the_enumeration(invert):
    """``invert`` with the inverse's alpha sent to the identity element and its gamma to a
    constant off it: the gamma is no homomorphism, and the alpha is no det_h^-1."""

    def mutant(matrix):
        inverse, P = invert(matrix), matrix.context
        k = next(k for k in range(P.K.order) if k != P.K.identity)
        alpha = FMap(P.H, P.H, (P.H.identity,) * P.H.order)
        gamma = FMap(P.H, P.K, (k,) * P.H.order)
        return identity_matrix(P, alpha=alpha, beta=inverse.beta, gamma=gamma, delta=inverse.delta)

    return mutant


def test_a_closed_form_off_the_enumeration_fails_every_inverse_check(monkeypatch):
    # Both closed forms, patched where verify and where invert_combined and dual_det_inverses
    # read them, give the same matrix, which no enumerated matrix has the key of.  The patches
    # bypass the closed forms' certificates, so the comparison with the oracle's inverse
    # catches them.  Every inverse check fails, combined_inverse alone as well, and no
    # determinant is built on a matrix outside the enumeration: an inverse's determinants are
    # read off the enumerated matrix with its key, once the inverse is certified to have it.
    for side in ("k", "h"):
        mutant = _off_the_enumeration(getattr(determinant, f"invert_via_det_{side}"))
        for module in (determinant, verify):
            monkeypatch.setattr(module, f"invert_via_det_{side}", mutant)
    enumerated = _capture_enumeration(monkeypatch)
    with _DetBodies() as dets:
        report = run_verification("direct:3:3", checks=_INVERSE_CHECKS)
        (alone,) = run_verification("direct:3:3", checks=["combined_inverse"]).checks
    outcomes = {c.name: (c.status, c.witness["detail"]) for c in report.checks}
    assert outcomes == {
        "inverse_formula_det_k": ("fail", "disagrees with brute-force inverse"),
        "inverse_formula_det_h": ("fail", "disagrees with brute-force inverse"),
        "determinant_duality": ("fail", "H-side determinant inverse identity"),
        "combined_inverse": ("fail", "disagrees with brute-force inverse"),
    }
    assert alone == report.checks[-1]
    ids = {id(m) for m in enumerated}
    assert dets.matrices and all(id(m) in ids for m in dets.matrices)


def test_a_run_leaves_no_matrix_in_cyclic_garbage():
    # Matrices, maps and groups a run drops are freed by reference counting: no EndoMatrix,
    # FMap or FiniteGroup is in a reference cycle.  DEBUG_SAVEALL keeps what each collection
    # finds.
    flags = gc.get_debug()
    gc.collect()
    saved = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_verification("direct:16:4").passed
        gc.collect()
        garbage = gc.garbage[saved:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
    assert [x for x in garbage if isinstance(x, (EndoMatrix, FMap, FiniteGroup))] == []


def test_full_run_builds_each_closed_form_inverse_once(monkeypatch):
    # Records every closed-form inverse the run asks for: those the inverse checks read,
    # directly and through invert_combined and dual_det_inverses.  Each matrix and side
    # gets one inverse object, however often and from wherever it is asked for.
    returned = defaultdict(list)
    for side in ("k", "h"):
        invert = getattr(determinant, f"invert_via_det_{side}")

        def recording(matrix, side=side, invert=invert):
            inverse = invert(matrix)
            returned[side, matrix.key()].append(inverse)
            return inverse

        for module in (determinant, verify):
            monkeypatch.setattr(module, f"invert_via_det_{side}", recording)
    assert run_verification("direct:3:3").passed
    assert {side for side, _ in returned} == {"k", "h"}
    assert all(inverse is inverses[0] for inverses in returned.values() for inverse in inverses)
    assert max(map(len, returned.values())) > 1


def test_full_run_builds_each_maps_inverse_once():
    # Records each run of map_inverse's body (the function under its memo) by the map it inverts.
    body = maps.map_inverse.__wrapped__.__code__
    inverted = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            inverted.append(frame.f_locals["phi"])  # kept alive, so ids stay distinct

    sys.setprofile(profile)
    try:
        assert run_verification("dihedral:30").passed
    finally:
        sys.setprofile(None)
    assert len({id(phi) for phi in inverted}) == len(inverted)
    # Equal determinant tables are one map, and a determinant whose table is its matrix's
    # diagonal entry's is that entry, so each of the 9 tables (the 8 bijective alphas and the one
    # bijective delta) is inverted once, not once as an entry and once as a determinant.
    tables = Counter((id(phi.dom), phi.image) for phi in inverted)
    assert len(tables) == 9 and set(tables.values()) == {1}


@pytest.mark.parametrize("factor, entry", [("A", "det_h"), ("B", "_b_entry")])
def test_a_fault_on_one_matrix_is_not_masked_by_kept_witnesses(monkeypatch, factor, entry):
    # A mutant whose A-factor (through det_h) or B-factor entry is wrong on one matrix alone: the
    # last one factored, where it returns the identity matrix's entry.  The identity matrix is
    # factored first, so that table's family witness is kept by then and says "member", rightly.
    # The fault still fails abcd_factorization, at that matrix's own reassembly, with the report
    # of a run that keeps no witness and decides each one per matrix.
    mats = sorted(enumerate_matrices(build_instance("dihedral:8")), key=lambda m: m.key())  # verify's order
    factored = [m for m in mats if m.alpha.is_bijective and m.delta.is_bijective]
    target = [m for m in factored if determinant.is_invertible(m).invertible][-1].key()
    changed = []  # per call on the target: whether the identity's entry differs from the right one
    real = getattr(factorization, entry)

    def mutant(*args):
        value = real(*args)
        matrix = args[-1]
        if matrix.key() != target:
            return value
        wrong = getattr(identity_matrix(matrix.context), "alpha" if factor == "A" else "beta")
        changed.append(wrong != value)
        return wrong

    monkeypatch.setattr(factorization, entry, mutant)
    kept = run_verification("dihedral:8").checks[CHECK_NAMES.index("abcd_factorization")]
    monkeypatch.setattr(factorization, "kept", lambda owner, key, compute: compute())
    fresh = run_verification("dihedral:8").checks[CHECK_NAMES.index("abcd_factorization")]
    assert changed == [True, True]
    assert kept == fresh
    assert kept.status == "fail"
    assert kept.witness == {
        **dict(zip(("alpha", "beta", "gamma", "delta"), map(list, target))),
        "detail": f"verification failed: factor reassembly at {target}",
    }


OFFCATALOG = ("metacyclic:8:2:5", "metacyclic:9:3:4", "direct:3:3")
OFFCATALOG_FIXTURE = Path(__file__).parent / "data" / "offcatalog_verify.json"


def _offcatalog_reports() -> str:
    reports = [run_verification(name).to_dict() for name in OFFCATALOG]
    reports += [run_verification(_NONABELIAN[name]()).to_dict() for name in _NONABELIAN_REPORTS]
    return json.dumps({"instances": reports}, indent=2, sort_keys=True) + "\n"


def test_offcatalog_reports_match_fixture():
    # Off the catalog: the two metacyclic instances fail inverse_formula_det_h and
    # abcd_factorization (ROADMAP item 1), direct:3:3 passes, and the three nonabelian products
    # follow (instances order-12, order-36 and order-18), with the outcomes _NONABELIAN_REPORTS
    # pins.  The reports, failure witnesses included, are frozen byte for byte; regenerate with
    #     PYTHONPATH=src python tests/test_verify.py
    # only when a change to them is intended.
    expected = OFFCATALOG_FIXTURE.read_text()
    for witness in (
        "((0, 1, 6, 7, 4, 5, 2, 3), (0, 0), (0, 0, 0, 0, 0, 0, 0, 0), (0, 1))",
        "((0, 1, 5, 3, 4, 8, 6, 7, 2), (0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 2))",
    ):
        assert f'"detail": "verification failed: A-factor membership at {witness}"' in expected
    assert _offcatalog_reports() == expected


# Nonabelian factors, as they stand: each report's counts, and every check that does not pass.
# The failures are the open hypotheses of the det_H theorems for nonabelian H (ROADMAP item 1);
# they are pinned, not narrowed, so a change to any of them shows here.
_NONABELIAN_REPORTS = {
    "s3_by_z2_conjugation": (
        {"end": 64, "aut": 12, "A": 2, "B": 1, "C": 1, "D": 1},
        {"abcd_factorization": "fail"},
    ),
    "s3_by_s3_conjugation": (
        {"end": 484, "aut": 72, "A": 1, "B": 1, "C": 1, "D": 1},
        {"inverse_formula_det_h": "fail", "abcd_factorization": "fail"},
    ),
    "z3_by_s3_sign": (
        {"end": 730, "aut": 432, "A": 2, "B": 9, "C": 3, "D": 6},
        {},
    ),
}


@pytest.mark.parametrize("instance", sorted(_NONABELIAN_REPORTS))
def test_verify_on_nonabelian_factors(instance):
    counts, not_passing = _NONABELIAN_REPORTS[instance]
    report = run_verification(_NONABELIAN[instance]())
    assert report.counts == counts
    statuses = {c.name: c.status for c in report.checks}
    assert statuses == {name: not_passing.get(name, "pass") for name in CHECK_NAMES}


_PAIRWISE_CHECKS = ("endo_matrix_correspondence", "monoid_laws", "abcd_subgroup_closure", "abcd_normalization")
_PAIRWISE_NOTES = ("c_family_closed", "c_family_witness", "abcd_product_set")


def _pairwise_checks_match_the_tables(product):
    """Verify ``product``; its four pairwise checks and their notes must be what the n² tables give."""
    report = run_verification(product)
    expected, notes = pairwise_checks(verify._Context(product, 64))
    assert {c.name: c for c in report.checks if c.name in _PAIRWISE_CHECKS} == expected
    assert {k: v for k, v in report.notes.items() if k in _PAIRWISE_NOTES} == notes
    return expected, notes


# Every instance of at most 200 matrices the tests verify, and the two nonabelian products of
# 484 and 730 matrices: the four checks decided with no n² table against the n² tables.
@pytest.mark.parametrize("instance", [*DEFAULT_INSTANCES, *OFFCATALOG, *_NONABELIAN])
def test_pairwise_checks_match_the_n2_tables(instance):
    _pairwise_checks_match_the_tables(_NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance))


@pytest.mark.parametrize("instance", ["dihedral:4", "s3_by_z2_conjugation"])
def test_product_index_is_the_matrix_product(instance):
    # The family checks multiply by generator-image lookups; on these noncommutative monoids
    # each must name mats[i] * mats[j], in that order, and each inverse must be two-sided.
    ctx = verify._Context(_NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance), 64)
    key_to_idx = {m.key(): i for i, m in enumerate(ctx.mats)}
    for i, left in enumerate(ctx.mats):
        products = [key_to_idx[mat_mul(left, right).key()] for right in ctx.mats]
        assert [ctx.product_index(i, j) for j in range(ctx.n)] == products
    assert any(ctx.product_index(i, j) != ctx.product_index(j, i) for i in range(ctx.n) for j in range(i))
    for i in ctx.auto_idx:
        j = ctx.inverse_index(i)
        assert ctx.product_index(i, j) == ctx.product_index(j, i) == ctx.identity_idx


@pytest.mark.parametrize("instance", ["dihedral:4", "s3_by_z2_conjugation"])
def test_inverse_index_reads_the_inverse_off_theta(instance):
    # The inverse's generator images are read off theta's table: for an automorphism it is the
    # oracle's inverse, and a theta that is not bijective has none, where the oracle raises.
    ctx = verify._Context(_NONABELIAN[instance]() if instance in _NONABELIAN else build_instance(instance), 64)
    singular = [i for i, theta in enumerate(ctx.thetas) if not theta.is_bijective]
    assert singular and ctx.auto_idx
    for i in singular:
        assert ctx.inverse_index(i) is None
        with pytest.raises(NotBijective):
            invert_endo(ctx.thetas[i])
    for i in ctx.auto_idx:
        assert ctx.thetas[ctx.inverse_index(i)] == invert_endo(ctx.thetas[i])


# The first or last automorphism outside a family is classified into it, so a family check
# fails or notes a witness; the verdicts, witness order included, must still be the tables'.
@pytest.mark.parametrize(
    "instance, letter, pick",
    [
        ("dihedral:4", "A", min),  # its inverse escapes A
        ("direct:3:3", "A", max),
        ("dihedral:5", "B", max),
        ("direct:3:3", "C", max),  # C is not closed, and is not normalized
        ("dihedral:5", "C", min),
        ("metacyclic:9:3:4", "D", min),
    ],
)
def test_family_witnesses_match_the_n2_tables(monkeypatch, instance, letter, pick):
    product = build_instance(instance)
    field = f"in_{letter.lower()}"
    classify = verify.classify
    autos = [m for m in enumerate_matrices(product) if matrices.matrix_to_endo(m).is_bijective]
    extra = pick(m.key() for m in autos if not getattr(classify(m), field))

    def misclassify(m):
        return dataclasses.replace(classify(m), **{field: True}) if m.key() == extra else classify(m)

    monkeypatch.setattr(verify, "classify", misclassify)
    expected, notes = _pairwise_checks_match_the_tables(product)
    assert any(c.status == "fail" for c in expected.values()) or not notes["c_family_closed"]


if __name__ == "__main__":
    OFFCATALOG_FIXTURE.write_text(_offcatalog_reports())
