"""The verification harness: selected checks agree with a full run and
build only the shared data they read."""

import json
from collections import defaultdict
from pathlib import Path

import pytest

from sdmat import FMap, build_instance, cli_main, determinant, enumerate_matrices, identity_matrix, verify
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


def test_check_selection_given_as_one_name_rejected():
    with pytest.raises(ValueError, match="checks must be 'all' or a list of check names, not 'monoid_laws'"):
        run_verification("klein", checks="monoid_laws")


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


if __name__ == "__main__":
    OFFCATALOG_FIXTURE.write_text(_offcatalog_reports())
