"""The verification harness: selected checks agree with a full run and
build only the shared data they read."""

from collections import Counter

import pytest

from sdmat import FMap, build_instance, cli_main, determinant, enumerate_matrices, identity_matrix
from sdmat.oracle import EndCensus, enumerate_endos
from sdmat.verify import CHECK_NAMES, run_verification


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
    # direct:3:3 has 81 matrices, under the pairwise limit of 200, so every check runs.
    assert [(c.name, c.status) for c in full_reports["direct:3:3"].checks if c.status != "pass"] == []
    assert [c.status for c in run_verification("direct:3:3", checks=["monoid_laws"]).checks] == ["pass"]


def test_selected_check_builds_no_census_or_product_table(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("built for a check that does not read it")

    monkeypatch.setattr("sdmat.verify.enumerate_endos", unused)
    monkeypatch.setattr("sdmat.verify.mat_mul", unused)
    report = run_verification("dihedral:4", checks=["invertibility_via_det_k"])
    assert [c.status for c in report.checks] == ["pass"]
    # The checks that do read them still reach the patched functions.
    for check in ("endo_matrix_correspondence", "monoid_laws"):
        with pytest.raises(AssertionError):
            run_verification("dihedral:4", checks=[check])


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


def test_correspondence_fails_on_a_short_census(monkeypatch):
    def short(group, bound):
        census = enumerate_endos(group, bound=bound)
        return EndCensus(group, census.endos[1:], census.autos)

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
        return EndCensus(group, endos, census.autos)

    assert not FMap(group, group, swapped).is_hom
    monkeypatch.setattr("sdmat.verify.enumerate_endos", swap_one)
    check = _correspondence("dihedral:4")
    assert (check.status, check.witness) == ("fail", {"image_mismatch": [list(auto)]})


def test_correspondence_fails_on_a_wrong_round_trip(monkeypatch):
    monkeypatch.setattr("sdmat.verify.endo_to_matrix", lambda theta, product: identity_matrix(product))
    check = _correspondence("dihedral:4")
    first = min(enumerate_matrices(build_instance("dihedral:4")), key=lambda m: m.key())
    assert check.status == "fail"
    assert check.witness["detail"] == "round trip through endomorphism"
    assert check.witness["alpha"] == list(first.alpha.image)
    assert check.witness["delta"] == list(first.delta.image)


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


def test_full_run_builds_each_closed_form_inverse_once(monkeypatch):
    # Counts every closed-form inverse of the run: those verify builds itself and
    # those is_invertible builds for the invertibility checks.
    calls = Counter()
    for side in ("k", "h"):
        invert = getattr(determinant, f"invert_via_det_{side}")

        def counted(matrix, side=side, invert=invert):
            calls[side, matrix.key()] += 1
            return invert(matrix)

        monkeypatch.setattr(determinant, f"invert_via_det_{side}", counted)
    monkeypatch.setattr("sdmat.verify.invert_via_det_h", determinant.invert_via_det_h)
    assert run_verification("direct:3:3").passed
    assert {side for side, _ in calls} == {"k", "h"}
    assert max(calls.values()) == 1
