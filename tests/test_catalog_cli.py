import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdmat import (
    CHECK_NAMES,
    DEFAULT_INSTANCES,
    BoundExceeded,
    InvalidInstance,
    VerificationFailed,
    build_instance,
    check_conditions,
    cli_main,
    cyclic_group,
    enumerate_matrices,
    group_from_dict,
    group_to_dict,
    identity_matrix,
    is_invertible,
    make_group,
    matrix_from_dict,
    matrix_to_dict,
    run_verification,
)
from sdmat import cli, groups
from sdmat.catalog import load_group, save_group, save_matrix


def test_default_instances_all_build():
    for name in DEFAULT_INSTANCES:
        P = build_instance(name)
        assert P.group.order == P.H.order * P.K.order


def test_instance_structure():
    assert build_instance("trivial").group.order == 1
    assert build_instance("cyclic:5").group.is_abelian
    assert build_instance("klein").group.order == 4
    d3 = build_instance("dihedral:3")
    assert not d3.group.is_abelian
    g21 = build_instance("metacyclic:7:3:2")
    assert g21.group.order == 21
    assert len(g21.group.center) == 1


def test_bad_instances_rejected():
    for bad in ("nonsense", "cyclic", "cyclic:0", "dihedral:x", "metacyclic:4:2:2", ""):
        with pytest.raises(InvalidInstance):
            build_instance(bad)


def test_group_json_roundtrip(tmp_path, s3):
    path = tmp_path / "g.json"
    save_group(s3.group, path)
    loaded = load_group(path)
    assert loaded.table == s3.group.table
    assert loaded.name == s3.group.name


def test_group_dict_order_mismatch(s3):
    data = group_to_dict(s3.group)
    data["order"] = 7
    with pytest.raises(ValueError):
        group_from_dict(data)


def test_matrix_json_roundtrip(tmp_path, s3):
    m = identity_matrix(s3)
    path = tmp_path / "m.json"
    save_matrix(m, path)
    with open(path) as fh:
        data = json.load(fh)
    assert matrix_from_dict(data, s3) == m


def test_matrix_context_mismatch(s3, d4):
    data = matrix_to_dict(identity_matrix(s3))
    with pytest.raises(ValueError):
        matrix_from_dict(data, d4)


def test_cli_enumerate_trivial(capsys):
    assert cli_main(["enumerate", "--instance", "trivial"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 1


def test_cli_census_text(capsys):
    assert cli_main(["census", "--instance", "dihedral:3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "10 endomorphisms" in out
    assert "6 automorphisms" in out


def test_cli_det_identity(tmp_path, capsys, s3):
    path = tmp_path / "ident.json"
    save_matrix(identity_matrix(s3), path)
    code = cli_main(["det", "--instance", "dihedral:3", "--matrix", str(path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["det_H"] == [0, 1, 2]
    assert data["det_K"] == [0, 1]
    assert data["invertible"] is True
    assert data["is_hom_H"] is True and data["is_hom_K"] is True
    assert data["inverse"]["alpha"] == [0, 1, 2]


def test_cli_det_builds_each_determinant_once(tmp_path, capsys, monkeypatch):
    # Both diagonal entries of the identity are bijective, so det prints both determinants
    # and is_invertible inverts through det_k.  However often a determinant is asked for,
    # every call returns the one map built for the matrix.
    from sdmat import determinant

    returned = {"det_k": [], "det_h": []}

    def recording(name):
        original = getattr(determinant, name)

        def wrapper(matrix):
            result = original(matrix)
            returned[name].append((matrix, result))
            return result

        return wrapper

    for name in returned:
        wrapper = recording(name)
        for module in (determinant, cli):
            monkeypatch.setattr(module, name, wrapper)
    path = tmp_path / "ident.json"
    save_matrix(identity_matrix(build_instance("direct:3:3")), path)
    assert cli_main(["det", "--instance", "direct:3:3", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["det_H"] == [0, 1, 2] and data["det_K"] == [0, 1, 2] and data["invertible"] is True
    for name, calls in returned.items():
        matrix, det = calls[0]
        assert all(m is matrix and d is det for m, d in calls), name


def test_cli_invert_and_factor(tmp_path, capsys, s3, s3_matrices):
    involution = next(
        m for m in s3_matrices if m.alpha.image == (0, 2, 1) and m.beta.image == (0, 1)
    )
    path = tmp_path / "inv.json"
    save_matrix(involution, path)
    assert cli_main(["invert", "--instance", "dihedral:3", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "det_k"
    assert data["inverse"]["alpha"] == [0, 2, 1]

    assert cli_main(["factor", "--instance", "dihedral:3", "--matrix", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] is True
    assert data["a"]["alpha"] == [0, 2, 1]


def test_cli_invert_non_invertible(tmp_path, capsys, s3, s3_matrices):
    collapse = next(m for m in s3_matrices if set(m.alpha.image) == {0} and m.delta.image == (0, 1))
    path = tmp_path / "c.json"
    save_matrix(collapse, path)
    assert cli_main(["invert", "--instance", "dihedral:3", "--matrix", str(path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["invertible"] is False


def test_cli_factor_degenerate_diagonal(tmp_path, capsys, klein, klein_matrices):
    from sdmat import matrix_to_endo

    swap = next(
        m
        for m in klein_matrices
        if matrix_to_endo(m).is_bijective and not m.alpha.is_bijective
    )
    path = tmp_path / "swap.json"
    save_matrix(swap, path)
    assert cli_main(["factor", "--instance", "klein", "--matrix", str(path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["factored"] is False


def test_cli_invalid_inputs(tmp_path, capsys):
    assert cli_main(["census", "--instance", "nonsense:3"]) == 2
    assert cli_main(["census"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["det", "--instance", "dihedral:3", "--matrix", str(bad)]) == 2
    capsys.readouterr()


def test_cli_rejects_condition_violations(tmp_path, capsys, s3):
    data = matrix_to_dict(identity_matrix(s3))
    data["gamma"] = [1, 1, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli_main(["det", "--instance", "dihedral:3", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert "alpha_twisted_by_gamma" in err


@pytest.mark.parametrize("command", ["det", "invert", "factor"])
@pytest.mark.parametrize("entry", ["gamma", "delta"])
def test_cli_rejects_a_non_homomorphic_gamma_or_delta(tmp_path, capsys, klein, command, entry):
    # Each matrix passes the first four conditions, but its entry maps the identity to 1.
    data = {"alpha": [0, 1], "beta": [0, 0], "gamma": [0, 0], "delta": [0, 1], entry: [1, 1]}
    name = {"gamma": "gamma_homomorphism", "delta": "delta_endomorphism"}[entry]
    assert check_conditions(matrix_from_dict(data, klein)) == (name, (0, 0, 1, 0))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert cli_main([command, "--instance", "klein", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix violates condition {name}: witness (0, 0, 1, 0)\n"


def test_cli_reports_the_first_failing_condition(tmp_path, capsys, s3):
    # This matrix fails beta_crossed_by_delta and alpha_beta_compatible.
    data = {**matrix_to_dict(identity_matrix(s3)), "beta": [0, 1], "delta": [0, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli_main(["det", "--instance", "dihedral:3", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix violates condition beta_crossed_by_delta: witness (1, 1, 0, 2)\n"


def test_cli_verify_single_instance(capsys):
    code = cli_main(["verify", "--instance", "dihedral:3", "--theorems", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert "end=10" in out and "aut=6" in out


def test_cli_verify_check_subset(capsys):
    code = cli_main(
        ["verify", "--instance", "klein", "--theorems", "monoid_laws", "--format", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    checks = data["instances"][0]["checks"]
    assert [c["name"] for c in checks] == ["monoid_laws"]


def test_cli_verify_unknown_check(capsys):
    assert cli_main(["verify", "--instance", "klein", "--theorems", "bogus,monoid_laws"]) == 2
    # run_verification names the unknown and the known checks; the CLI has no copy of the rule.
    assert capsys.readouterr().err == f"error: unknown checks: bogus; known: {', '.join(CHECK_NAMES)}\n"


def test_cli_verify_output_deterministic(capsys):
    args = ["verify", "--instance", "dihedral:4", "--format", "json"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first


def test_cli_verify_file_sourced_product(tmp_path, capsys, s3):
    save_group(s3.H, tmp_path / "h.json")
    save_group(s3.K, tmp_path / "k.json")
    (tmp_path / "act.json").write_text(
        json.dumps({"images": [list(r) for r in s3.action.images]})
    )
    code = cli_main(
        [
            "verify",
            "--group-h",
            str(tmp_path / "h.json"),
            "--group-k",
            str(tmp_path / "k.json"),
            "--action",
            str(tmp_path / "act.json"),
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["instances"][0]["counts"]["end"] == 10


@pytest.mark.parametrize("argv, message", [
    (["verify", "--group-k", "k.json"], "--group-h and --group-k go together, and with --action"),
    (["census", "--group-h", "h.json", "--action", "act.json"], "--group-h and --group-k go together, and with --action"),
    (["census", "--instance", "klein", "--group-h", "h.json", "--group-k", "k.json"],
     "--group-h and --group-k go together, and with --action"),
    (["census", "--instance", "klein", "--action", "act.json"], "give --instance or --action, not both"),
    (["verify", "--instance", "all", "--action", "act.json"], "give --instance or --action, not both"),
], ids=["verify-k-only", "census-h-only", "census-groups-without-action", "census-instance-and-action",
        "verify-all-and-action"])
def test_cli_rejects_conflicting_or_partial_sources(tmp_path, monkeypatch, capsys, argv, message):
    # Each file is valid: only the combination is bad input.
    monkeypatch.chdir(tmp_path)
    save_group(cyclic_group(4), tmp_path / "h.json")
    save_group(cyclic_group(2), tmp_path / "k.json")
    action = {"H": "h.json", "K": "k.json", "images": [[0, 1, 2, 3], [0, 3, 2, 1]]}
    (tmp_path / "act.json").write_text(json.dumps(action))
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    for valid in (["--action", "act.json"], ["--group-h", "h.json", "--group-k", "k.json", "--action", "act.json"]):
        assert cli_main(["census", *valid]) == 0
    capsys.readouterr()


def _write_matrix(path, P, alpha, beta, gamma, delta):
    data = {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}
    data["context"] = {"h_order": P.H.order, "k_order": P.K.order}
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_invert_names_each_route_of_is_invertible(tmp_path, capsys):
    # direct:3:3 has invertible matrices on all three routes, the swap (0, 1; 1, 0) on "brute".
    printed = {}
    for m in sorted(enumerate_matrices(build_instance("direct:3:3")), key=lambda m: m.key()):
        decided = is_invertible(m)
        if decided.invertible and decided.method not in printed:
            save_matrix(m, tmp_path / "m.json")
            assert cli_main(["invert", "--instance", "direct:3:3", "--matrix", str(tmp_path / "m.json")]) == 0
            printed[decided.method] = json.loads(capsys.readouterr().out)["method"]
    assert printed == {"det_k": "det_k", "det_h": "det_h", "brute": "brute"}


# dihedral:32 is Z32 acted on by Z2 through inversion.  Multiplying by 3 commutes with
# inversion, so (h, k) -> (3h, k) is an automorphism with alpha bijective (the det_k route);
# (h, k) -> (e, k) has only delta bijective (det_h); the zero matrix has neither (brute).
_D32_MATRICES = {
    "alpha_bijective": ([3 * h % 32 for h in range(32)], [0, 0], [0] * 32, [0, 1]),
    "delta_only_bijective": ([0] * 32, [0, 0], [0] * 32, [0, 1]),
    "neither_bijective": ([0] * 32, [0, 0], [0] * 32, [0, 0]),
}


@pytest.mark.parametrize(
    ("command", "matrix", "code", "product_builds"),
    [
        ("det", "alpha_bijective", 0, 0),
        ("invert", "alpha_bijective", 0, 0),
        ("det", "delta_only_bijective", 0, 0),
        ("invert", "delta_only_bijective", 1, 0),
        ("factor", "alpha_bijective", 0, 0),
        ("factor", "delta_only_bijective", 1, 0),
        ("invert", "neither_bijective", 1, 1),
        ("factor", "neither_bijective", 1, 1),
    ],
)
def test_cli_builds_the_product_group_only_where_it_is_read(
    tmp_path, capsys, monkeypatch, command, matrix, code, product_builds
):
    # det, invert and factor decide invertibility from the four entries alone on the det_k and
    # det_h routes; the brute route reads the product group, which is then built exactly once.
    path = _write_matrix(tmp_path / "m.json", build_instance("dihedral:32"), *_D32_MATRICES[matrix])
    built = []

    def counting(build):
        def counted(table, *args, **kwargs):
            built.append(len(table))
            return build(table, *args, **kwargs)

        return counted

    # The cyclic factors and the product are built from tuple rows through the private builder,
    # each module's own binding of it.  The package exports the function semidirect under the
    # module's name.
    monkeypatch.setattr(sys.modules["sdmat.catalog"], "_group_of_rows", counting(groups._group_of_rows))
    monkeypatch.setattr(sys.modules["sdmat.semidirect"], "_group_of_rows", counting(groups._group_of_rows))
    assert cli_main([command, "--instance", "dihedral:32", "--matrix", path]) == code
    capsys.readouterr()
    assert sorted(built) == sorted([32, 2] + [64] * product_builds)


def test_cli_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


def test_cli_invert_det_h_route_direct_3_3(tmp_path, capsys):
    # (0, 1; 1, 1) over Z3 x Z3 has no K-side formula; its inverse is (-1, 1; 1, 0).
    P = build_instance("direct:3:3")
    path = _write_matrix(tmp_path / "m.json", P, [0, 0, 0], [0, 1, 2], [0, 1, 2], [0, 1, 2])
    assert cli_main(["invert", "--instance", "direct:3:3", "--matrix", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "det_h"
    inverse = data["inverse"]
    assert [inverse[k] for k in ("alpha", "beta", "gamma", "delta")] == [
        [0, 2, 1],
        [0, 1, 2],
        [0, 1, 2],
        [0, 0, 0],
    ]


def test_cli_factor_own_condition_failure_exits_1(tmp_path, capsys):
    # A known fault: the A-factor (det_H, 0; 0, 1) read off this automorphism
    # is not in family A.  The input is valid, so this is exit 1, not 2.
    P = build_instance("metacyclic:8:2:5")
    path = _write_matrix(
        tmp_path / "m.json", P, [0, 1, 6, 7, 4, 5, 2, 3], [0, 0], [0, 1, 0, 1, 0, 1, 0, 1], [0, 1]
    )
    assert cli_main(["factor", "--instance", "metacyclic:8:2:5", "--matrix", path]) == 1
    assert capsys.readouterr().err == (
        "error: verification failed: A-factor membership at "
        "((0, 1, 6, 7, 4, 5, 2, 3), (0, 0), (0, 0, 0, 0, 0, 0, 0, 0), (0, 1))\n"
    )


def test_cli_verification_failed_exits_1(tmp_path, capsys, monkeypatch, s3):
    def failing(matrix):
        raise VerificationFailed("factor reassembly", matrix.key())

    monkeypatch.setattr("sdmat.cli.factor_abcd", failing)
    path = tmp_path / "ident.json"
    save_matrix(identity_matrix(s3), path)
    assert cli_main(["factor", "--instance", "dihedral:3", "--matrix", str(path)]) == 1
    assert "factor reassembly" in capsys.readouterr().err


def test_cli_action_file_without_images_exits_2(tmp_path, capsys, s3):
    save_group(s3.H, tmp_path / "h.json")
    save_group(s3.K, tmp_path / "k.json")
    (tmp_path / "act.json").write_text(json.dumps({"rows": []}))
    args = ["--group-h", str(tmp_path / "h.json"), "--group-k", str(tmp_path / "k.json")]
    assert cli_main(["census", *args, "--action", str(tmp_path / "act.json")]) == 2
    assert "images" in capsys.readouterr().err
    (tmp_path / "self.json").write_text(json.dumps({"H": "h.json", "K": "k.json"}))
    assert cli_main(["census", "--action", str(tmp_path / "self.json")]) == 2
    assert "images" in capsys.readouterr().err


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0, 0]], "no two-sided identity element exists"),
    ([[0, 1], [1, 1]], "element 1 has no two-sided inverse"),
])
def test_cli_action_file_with_a_non_group_exits_2(tmp_path, capsys, table, message):
    action = {"H": {"table": table}, "K": {"table": [[0]]}, "images": [[0, 1]]}
    (tmp_path / "act.json").write_text(json.dumps(action))
    assert cli_main(["census", "--action", str(tmp_path / "act.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("element_names", 5, "element_names must be a list of strings"),
    ("element_names", "ab", "element_names must be a list of strings"),
    ("element_names", {"a": 0, "b": 1}, "element_names must be a list of strings"),
    ("element_names", ["a", 1], "element_names must be a list of strings"),
    ("element_names", ["a"], "names must match the table size"),
    ("name", 5, "group name must be a string"),
    ("order", True, "declared order must be an integer"),
    ("order", 2.0, "declared order must be an integer"),
], ids=["names-int", "names-str", "names-dict", "names-non-str", "names-short", "name-int", "order-bool",
        "order-float"])
def test_cli_group_file_with_malformed_fields_exits_2(tmp_path, capsys, field, value, message):
    group = group_to_dict(cyclic_group(2))
    (tmp_path / "act.json").write_text(json.dumps({"images": [[0, 1], [0, 1]]}))
    argv = ["census", "--action", str(tmp_path / "act.json"), "--group-h", str(tmp_path / "g.json"),
            "--group-k", str(tmp_path / "g.json")]
    (tmp_path / "g.json").write_text(json.dumps(group))
    assert cli_main(argv) == 0
    capsys.readouterr()
    (tmp_path / "g.json").write_text(json.dumps({**group, field: value}))
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_catalog_report_matches_fixture(capsys):
    # The default-catalog report, frozen byte for byte; regenerate only when
    # a change to the report is intended.
    expected = (Path(__file__).parent / "data" / "catalog_verify.json").read_text()
    assert cli_main(["verify", "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


_IDENTITY_S3 = {"alpha": [0, 1, 2], "beta": [0, 0], "gamma": [0, 0, 0], "delta": [0, 1]}
_S3_IMAGES = [[0, 1, 2], [0, 2, 1]]
_IDENTITY_TRIVIAL = {"alpha": [0], "beta": [0], "gamma": [0], "delta": [0]}


@pytest.mark.parametrize(
    "kind, content",
    [
        pytest.param("matrix", {**_IDENTITY_S3, "alpha": 5}, id="matrix-entry-int"),
        pytest.param("matrix", [_IDENTITY_S3], id="matrix-top-level-list"),
        pytest.param("matrix", {**_IDENTITY_S3, "context": 5}, id="matrix-context-int"),
        pytest.param("matrix", {**_IDENTITY_S3, "beta": [0, 1.5]}, id="matrix-value-float"),
        pytest.param("matrix", {**_IDENTITY_S3, "delta": ["0", 1]}, id="matrix-value-str"),
        pytest.param("matrix", {**_IDENTITY_S3, "alpha": [0, True, 2]}, id="matrix-value-bool"),
        # On the trivial instance True and 1.0 equal both orders, so only their types are wrong.
        pytest.param(
            "trivial-matrix", {**_IDENTITY_TRIVIAL, "context": {"h_order": True}}, id="matrix-context-order-bool"
        ),
        pytest.param(
            "trivial-matrix", {**_IDENTITY_TRIVIAL, "context": {"k_order": 1.0}}, id="matrix-context-order-float"
        ),
        pytest.param("action", {"images": [_S3_IMAGES[0], 5]}, id="action-row-int"),
        pytest.param("action", {"images": [["0", 1, 2], _S3_IMAGES[1]]}, id="action-value-str"),
        pytest.param("action", {"images": [_S3_IMAGES[0], [0, 2, 1.0]]}, id="action-value-float"),
    ],
)
def test_cli_malformed_matrix_and_action_files_exit_2(tmp_path, capsys, s3, kind, content):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(content))
    if kind != "action":
        instance = "trivial" if kind == "trivial-matrix" else "dihedral:3"
        argv = ["det", "--instance", instance, "--matrix", str(path)]
    else:
        save_group(s3.H, tmp_path / "h.json")
        save_group(s3.K, tmp_path / "k.json")
        argv = ["census", "--group-h", str(tmp_path / "h.json"), "--group-k", str(tmp_path / "k.json"),
                "--action", str(path)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# One instance family: every alias is a metacyclic:n:m:u product


@pytest.mark.parametrize(
    "alias,explicit",
    [
        ("trivial", "metacyclic:1:1:1"),
        ("klein", "metacyclic:2:2:1"),
        ("cyclic:5", "metacyclic:5:1:1"),
        ("direct:3:2", "metacyclic:3:2:1"),
        ("direct:1:3", "metacyclic:1:3:1"),
        ("dihedral:1", "metacyclic:1:2:1"),
        ("dihedral:2", "metacyclic:2:2:1"),
        ("dihedral:5", "metacyclic:5:2:4"),
    ],
)
def test_alias_is_its_metacyclic_form(alias, explicit):
    a, b = build_instance(alias), build_instance(explicit)
    assert a.name == alias
    assert (a.H.order, a.K.order) == (b.H.order, b.K.order)
    assert a.group.table == b.group.table
    assert a.action.images == b.action.images


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
def test_cyclic_group_is_make_group_of_its_addition_table(n):
    # The rows are built as rotations and skip only make_group's per-entry scan.
    built = cyclic_group(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    expected = make_group(table, names=[str(a) for a in range(n)], name=f"Z{n}")
    for field in ("order", "table", "identity", "inverses", "generators", "walk", "names", "name"):
        assert getattr(built, field) == getattr(expected, field)


def test_instance_names_are_canonical():
    assert build_instance("cyclic:05").name == "cyclic:5"
    assert build_instance("metacyclic:7:3:09").name == "metacyclic:7:3:9"


@pytest.mark.parametrize(
    "name,message",
    [
        ("metacyclic:4:2:2", "unit 2 is not invertible mod 4"),
        ("metacyclic:6:2:3", "unit 3 is not invertible mod 6"),
        ("metacyclic:7:2:2", "unit 2 does not have order dividing 2 mod 7"),
        ("metacyclic:5:3:2", "unit 2 does not have order dividing 3 mod 5"),
    ],
)
def test_invalid_units_rejected(name, message):
    with pytest.raises(InvalidInstance, match=message):
        build_instance(name)


# ---------------------------------------------------------------------------
# --bound is checked before any table is built


def _no_tables(*args, **kwargs):
    raise AssertionError("a table was built before the bound guard")


def test_build_instance_bound_guards_before_any_table(monkeypatch):
    monkeypatch.setattr("sdmat.catalog._group_of_rows", _no_tables)
    with pytest.raises(BoundExceeded, match="exceeds bound 64"):
        build_instance("cyclic:600", bound=64)
    with pytest.raises(BoundExceeded, match="exceeds bound"):
        run_verification("direct:20:20", bound=64)
    monkeypatch.undo()
    assert build_instance("cyclic:70").group.order == 70  # no bound by default


@pytest.mark.parametrize("command", ["enumerate", "det", "invert", "factor", "census", "verify"])
def test_cli_bound_guards_before_any_table(monkeypatch, capsys, tmp_path, command):
    monkeypatch.setattr("sdmat.catalog._group_of_rows", _no_tables)
    argv = [command, "--instance", "cyclic:600"]
    if command in ("det", "invert", "factor"):
        argv += ["--matrix", str(tmp_path / "unread.json")]
    assert cli_main(argv) == 2
    assert "exceeds bound 64" in capsys.readouterr().err


def test_cli_calculator_honours_bound(tmp_path, capsys):
    P = build_instance("dihedral:3")
    save_matrix(identity_matrix(P), tmp_path / "id.json")
    for command in ("det", "invert", "factor"):
        argv = [command, "--instance", "dihedral:3", "--matrix", str(tmp_path / "id.json")]
        assert cli_main(argv + ["--bound", "5"]) == 2
        assert "product order 6 exceeds bound 5" in capsys.readouterr().err
        assert cli_main(argv + ["--bound", "6"]) == 0
        capsys.readouterr()


def test_cli_file_product_bound_guards_before_semidirect(monkeypatch, tmp_path, capsys):
    save_group(cyclic_group(8), tmp_path / "h.json")
    save_group(cyclic_group(9), tmp_path / "k.json")
    (tmp_path / "act.json").write_text(json.dumps({"images": [list(range(8))] * 9}))
    monkeypatch.setattr("sdmat.cli.semidirect", _no_tables)
    argv = ["census", "--group-h", str(tmp_path / "h.json"), "--group-k", str(tmp_path / "k.json"),
            "--action", str(tmp_path / "act.json")]
    assert cli_main(argv) == 2
    assert "product order 72 exceeds bound 64" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Check selection and the module entry point


@pytest.mark.parametrize("theorems", ["", ","])
def test_cli_empty_theorem_selection_exits_2(capsys, theorems):
    assert cli_main(["verify", "--instance", "klein", "--theorems", theorems]) == 2
    captured = capsys.readouterr()
    assert "no checks selected" in captured.err
    assert "PASS" not in captured.out


def test_python_m_sdmat_runs_without_warnings():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sdmat", "verify", "--instance", "klein"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.rstrip().endswith("1 instance(s) verified")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's src first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_python_m_sdmat_cli_runs_without_warnings():
    # The package sdmat imports sdmat.cli; -m runs the cli package's __main__, not a second copy.
    proc = _python("-W", "error", "-m", "sdmat.cli", "census", "--instance", "klein")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"aut": 6, "end": 16, "group_order": 4, "instance": "klein"}


def test_import_leaves_multiprocessing_out():
    proc = _python("-c", "import sys, sdmat; print('multiprocessing' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_cli_verify_has_no_jobs_option():
    proc = _python("-m", "sdmat", "verify", "--jobs", "2")
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs 2" in proc.stderr


def test_cli_enumerate_has_no_exhaustive_option():
    proc = _python("-m", "sdmat", "enumerate", "--instance", "klein", "--exhaustive")
    assert proc.returncode == 2
    assert "unrecognized arguments: --exhaustive" in proc.stderr
