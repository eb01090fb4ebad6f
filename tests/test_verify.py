"""The verification harness: selected checks agree with a full run and
build only the shared data they read."""

import dataclasses
import gc
import json
import sys
import weakref
from collections import defaultdict
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
    maps,
    matrices,
    matrix_to_endo,
    verify,
)
from sdmat.matrices import mat_mul
from sdmat.oracle import EndCensus, enumerate_endos, invert_endo
from sdmat.verify import CHECK_NAMES, run_verification
from endo_reference import gathered_endo
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


def test_per_matrix_checks_build_no_census(monkeypatch):
    # Every check but the correspondence and monoid_laws, which reads its verdict: the two
    # family checks multiply by the generator-image lookup, with no census.
    def unused(*args, **kwargs):
        raise AssertionError("built for a check that does not read it")

    monkeypatch.setattr("sdmat.verify.enumerate_endos", unused)
    report = run_verification("dihedral:4", checks=[c for c in CHECK_NAMES if c not in _CENSUS_CHECKS])
    assert [c.status for c in report.checks] == ["pass"] * (len(CHECK_NAMES) - 2)
    # The checks that do read it still reach the patched census.
    for check in _CENSUS_CHECKS:
        with pytest.raises(AssertionError):
            run_verification("dihedral:4", checks=[check])


def test_the_census_is_built_once_and_freed_once_compared(monkeypatch):
    # The correspondence builds the census and drops it as soon as it is compared, so nothing
    # refers to it by the time monoid_laws, which reads the correspondence's verdict, runs.
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
    monkeypatch.setattr("sdmat.verify._entry_images", lambda theta, product: identity_matrix(product).key())
    check = _correspondence("dihedral:4")
    first = min(enumerate_matrices(build_instance("dihedral:4")), key=lambda m: m.key())
    assert check.status == "fail"
    assert check.witness["detail"] == "round trip through endomorphism"
    assert check.witness["alpha"] == list(first.alpha.image)
    assert check.witness["delta"] == list(first.delta.image)


def _mutant_product_images(monkeypatch, P, target, mutate):
    """Make the entry formula give ``mutate(columns, images)`` for the left factor ``target``."""
    product_images = matrices._product_images

    def mutant(matrix, *columns):
        images = product_images(matrix, *columns)
        return mutate(columns, images) if matrix.key() == target.key() else images

    monkeypatch.setattr(matrices, "_product_images", mutant)


# A catalog instance and one of 381 matrices; the mutant column is the product's last element.
@pytest.mark.parametrize("instance, left", [("dihedral:4", 7), ("metacyclic:19:3:7", 300)])
def test_correspondence_fails_on_a_mutant_product_column(monkeypatch, capsys, instance, left):
    # theta is the entry formula's map on the grid, so a formula wrong for one left factor at
    # one column (h; k), alpha's entry moved, gives a theta that breaks the product group's
    # homomorphism law; matrix_to_endo refuses it, and verify fails with exit 1.
    P = build_instance(instance)
    target = sorted(enumerate_matrices(P), key=lambda m: m.key())[left]
    h0, k0 = P.decode(P.group.order - 1)

    def move_alpha(columns, images):
        a1, _, g1, _ = columns
        a, b, c, d = images
        return tuple((v + 1) % P.H.order if (x, y) == (h0, k0) else v for v, x, y in zip(a, a1, g1)), b, c, d

    _mutant_product_images(monkeypatch, P, target, move_alpha)
    with pytest.raises(VerificationFailed, match="describes no homomorphism"):
        run_verification(P, checks=list(_CENSUS_CHECKS))
    assert cli_main(["verify", "--instance", instance, "--theorems", ",".join(_CENSUS_CHECKS)]) == 1
    assert "describes no homomorphism" in capsys.readouterr().err


@pytest.mark.parametrize("instance, left", [("dihedral:4", 7), ("metacyclic:19:3:7", 300)])
def test_correspondence_fails_on_a_mutant_formula_that_gives_an_endomorphism(monkeypatch, instance, left):
    # A formula that evaluates one left factor as the identity matrix gives it the identity map,
    # which passes the homomorphism law; the census then misses that matrix's own endomorphism,
    # the gather from the product group's table.
    P = build_instance(instance)
    target = sorted(enumerate_matrices(P), key=lambda m: m.key())[left]
    assert target.key() != identity_matrix(P).key()
    _mutant_product_images(monkeypatch, P, target, lambda columns, images: columns)
    report = run_verification(P, checks=list(_CENSUS_CHECKS))
    assert [c.to_dict() for c in report.checks] == [
        {
            "name": "endo_matrix_correspondence",
            "status": "fail",
            "witness": {"image_mismatch": [list(gathered_endo(target).image)]},
        },
        {"name": "monoid_laws", "status": "fail", "witness": {"detail": "endo_matrix_correspondence fails"}},
    ]


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


def test_inverse_checks_fail_on_a_wrong_h_side_inverse(monkeypatch):
    monkeypatch.setattr("sdmat.verify.invert_via_det_h", lambda matrix: identity_matrix(matrix.context))
    report = run_verification("direct:3:3", checks=_INVERSE_CHECKS)
    outcomes = {c.name: (c.status, c.witness and c.witness["detail"]) for c in report.checks}
    assert outcomes == {
        "inverse_formula_det_k": ("pass", None),
        "inverse_formula_det_h": ("fail", "two-sided inverse law"),
        "determinant_duality": ("fail", "K-side determinant inverse identity"),
        "combined_inverse": ("fail", "three-way inverse mismatch"),
    }


def test_full_run_with_a_wrong_h_side_inverse_fails_its_formula(monkeypatch):
    # Wrong only where alpha is bijective too, so the K-side check has already decided the
    # inverse of each matrix the H-side check gets wrong; it must still decide its own.
    invert = determinant.invert_via_det_h
    monkeypatch.setattr(
        "sdmat.verify.invert_via_det_h",
        lambda matrix: identity_matrix(matrix.context) if matrix.alpha.is_bijective else invert(matrix),
    )
    full = {c.name: c for c in run_verification("direct:3:3").checks}["inverse_formula_det_h"]
    (alone,) = run_verification("direct:3:3", checks=["inverse_formula_det_h"]).checks
    for check in (full, alone):
        assert (check.status, check.witness["detail"]) == ("fail", "two-sided inverse law")
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
    # The two-sided law m m' = m' m = 1 costs two products per unordered pair {m, m'}: both
    # closed forms ask it of the same pair on a passing instance, and so do an automorphism and
    # its inverse.  verify forms the products with the entry formula on the two factors' image
    # tables.  Each matrix's theta is the formula's map on the H x K grid, with no right-hand
    # beta or delta, built once by matrix_to_endo; verify evaluates the formula on the grid
    # nowhere else.  Every determinant of the run is built on an enumerated matrix: those of a
    # closed-form inverse are read off the enumerated matrix with its key.
    product_images = matrices._product_images
    for instance in ("dihedral:4", "direct:3:3"):
        with monkeypatch.context() as patch:
            calls = {verify: ([], []), matrices: ([], [])}
            for module, (products, grids) in calls.items():

                def counting(left, a1, b1, g1, d1, products=products, grids=grids):
                    (products if b1 else grids).append(left)
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
        pairs = {frozenset((t.image, invert_endo(t).image)) for t in map(matrix_to_endo, checked)}
        (inverse_products, verify_grids), (matrix_products, grid_maps) = calls[verify], calls[matrices]
        assert len(inverse_products) == 2 * len(pairs) < 2 * len(checked)
        assert (verify_grids, matrix_products) == ([], [])
        assert len(grid_maps) == len(enumerated)
        ids = {id(m) for m in enumerated}
        assert dets.matrices and all(id(m) in ids for m in dets.matrices)


def _off_the_enumeration(invert):
    """``invert`` with the inverse's gamma sent to a constant off the identity, no homomorphism."""

    def mutant(matrix):
        inverse, P = invert(matrix), matrix.context
        k = next(k for k in range(P.K.order) if k != P.K.identity)
        gamma = FMap(P.H, P.K, (k,) * P.H.order)
        return identity_matrix(P, alpha=inverse.alpha, beta=inverse.beta, gamma=gamma, delta=inverse.delta)

    return mutant


def test_a_closed_form_off_the_enumeration_builds_its_own_determinants(monkeypatch):
    # Both closed forms give a matrix no enumerated matrix has the key of, so combined_inverse
    # builds both determinants on the inverse itself.  The run fails with the witnesses and
    # the note it gave when every determinant of an inverse was built that way.
    for side in ("k", "h"):
        invert = getattr(determinant, f"invert_via_det_{side}")
        monkeypatch.setattr(verify, f"invert_via_det_{side}", _off_the_enumeration(invert))
    enumerated = _capture_enumeration(monkeypatch)
    with _DetBodies() as dets:
        report = run_verification("direct:3:3", checks=_INVERSE_CHECKS)
    ids = {id(m) for m in enumerated}
    diag_autos = [
        m for m in enumerated if m.alpha.is_bijective and m.delta.is_bijective and matrix_to_endo(m).is_bijective
    ]
    # det_h and det_k, each built once on the inverse of each automorphism with bijective diagonal.
    built_off = [m.key() for m in dets.matrices if id(m) not in ids]
    assert sorted(built_off) == sorted(verify.invert_via_det_k(m).key() for m in diag_autos for _ in "hk")

    def two_sided(alpha, beta, gamma):
        return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": [0, 1, 2], "detail": "two-sided inverse law"}

    assert [c.to_dict() for c in report.checks] == [
        {"name": "inverse_formula_det_k", "status": "fail", "witness": two_sided([0, 1, 2], [0, 0, 0], [0, 0, 0])},
        {"name": "inverse_formula_det_h", "status": "fail", "witness": two_sided([0, 0, 0], [0, 1, 2], [0, 1, 2])},
        {"name": "determinant_duality", "status": "pass"},
        {"name": "combined_inverse", "status": "fail", "witness": {"detail": "det_h of inverse is not alpha^-1"}},
    ]
    assert report.notes["det_reading"] == {
        "det_h_of_inverse_is_alpha_inv": False,
        "det_k_of_inverse_is_delta_inv": False,
    }


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
    # Records every closed-form inverse the run asks for: those the inverse checks read
    # and those is_invertible returns to the invertibility checks.  Each matrix and side
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
    assert len(inverted) > 100
    assert len({id(phi) for phi in inverted}) == len(inverted)


OFFCATALOG = ("metacyclic:8:2:5", "metacyclic:9:3:4", "direct:3:3")
OFFCATALOG_FIXTURE = Path(__file__).parent / "data" / "offcatalog_verify.json"


def _offcatalog_reports() -> str:
    reports = [run_verification(name).to_dict() for name in OFFCATALOG]
    return json.dumps({"instances": reports}, indent=2, sort_keys=True) + "\n"


def test_offcatalog_reports_match_fixture():
    # Off the catalog: the two metacyclic instances fail inverse_formula_det_h and
    # abcd_factorization (ROADMAP item 1), direct:3:3 passes.  The reports, failure witnesses
    # included, are frozen byte for byte; regenerate with
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
