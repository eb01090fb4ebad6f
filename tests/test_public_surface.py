"""The package's public surface, the names the benchmark's tracer wraps, and the code-line count.

``sdmat.__all__`` is pinned, so adding or dropping a public name is a
visible edit here.  Each submodule exports only what it defines.  The
tracer of ``bench/tracer.py`` swaps the functions of its ``FUNCTION_LAYERS``
by module and name, so a function it names cannot leave ``src/`` while the
tracer names it: the list is read from the file, which this test does not
import, and each pair must resolve on the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sdmat
from code_lines import code_lines

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("catalog", "cli", "determinant", "factorization", "groups", "maps", "matrices", "oracle",
              "semidirect", "verify")

PUBLIC = [
    "ABCDFactors", "BoundExceeded", "CHECK_NAMES", "CONDITION_NAMES", "CheckResult", "ConditionsViolated",
    "DEFAULT_INSTANCES", "DomainMismatch", "EndCensus", "EndoMatrix", "FMap", "FiniteGroup", "GroupAction",
    "GroupValidationError", "InvalidInstance", "InvertibilityResult", "NotAssociative", "NotAutomorphism",
    "NotBijective", "NotHomomorphic", "PreconditionFailed", "SdProduct", "SdmatError", "SubsetTag",
    "VerificationFailed", "VerifyReport", "build_instance", "check_conditions", "classify", "cli_main",
    "compose_endos", "cyclic_group", "det_h", "det_k", "dual_det_inverses", "endo_to_matrix", "enumerate_endos",
    "enumerate_homs", "enumerate_matrices", "factor_abcd", "group_from_dict", "group_to_dict", "identity_map",
    "identity_matrix", "invert_combined", "invert_via_det_h", "invert_via_det_k", "is_crossed_hom",
    "is_invertible", "load_action", "load_group", "load_matrix", "make_action", "make_group", "map_inverse",
    "matrix_from_dict", "matrix_to_dict", "matrix_to_endo", "run_verification", "save_group", "save_matrix",
    "semidirect", "trivial_action", "twisted_hom_witness", "unit_diagonal_a_factor", "unit_diagonal_b_factor",
    "zero_map",
]

# Called by no command or check; the tests keep their reference copies (map_algebra, endo_reference).
MOVED_TO_TESTS = ("map_add", "map_neg", "map_compose", "map_act", "invert_endo", "is_automorphism_matrix",
                  "enumerate_autos", "trivial_group")


def _top_level_names(path: Path) -> set[str]:
    """The names a module's own top-level statements bind: defs, classes and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _function_layers() -> tuple:
    """``FUNCTION_LAYERS`` of ``bench/tracer.py``, read as a literal from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [
            "FUNCTION_LAYERS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no FUNCTION_LAYERS")


def test_the_package_exports_the_pinned_names():
    assert sorted(sdmat.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(sdmat, name) is not None, name


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_exports_only_what_it_defines(name):
    module = importlib.import_module(f"sdmat.{name}")
    path = Path(module.__file__)
    defined = _top_level_names(path)
    for exported in module.__all__:
        assert exported in defined, f"sdmat.{name} exports {exported} but does not define it"
        assert hasattr(module, exported)


def test_the_names_moved_to_the_tests_are_gone_from_the_package():
    modules = [sdmat, *(importlib.import_module(f"sdmat.{name}") for name in SUBMODULES)]
    for module in modules:
        for name in MOVED_TO_TESTS:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # The tracer times these two by name; they stay while it does.
    assert callable(sdmat.compose_endos) and callable(sdmat.matrices.mat_mul)


def test_every_function_the_tracer_wraps_resolves_on_the_package():
    layers = _function_layers()
    assert layers
    for layer, module, attr in layers:
        assert module.startswith("sdmat."), (layer, module)
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{layer}: {module}.{attr}"


def test_code_lines_skip_docstrings_comments_and_blanks():
    text = '''"""Module docstring,
over two lines."""

import os  # a comment


def f(x):
    """One line."""
    # a comment line
    return (x +
            1)


class C:
    """Class
    docstring."""
    y = "not a docstring"
'''
    # import os; def f; return over two lines; class C; y = ...
    assert code_lines(text) == 6
