"""Command-line interface.

Subcommands:

    enumerate   list every endomorphism matrix of an instance
    det         both determinants of a matrix, invertibility, inverse
    invert      closed-form inverse with method tag, brute fallback
    factor      a*b*c*d factorization of an automorphism matrix
    census      endomorphism/automorphism counts straight from the oracle
    verify      the full named-check harness (default: all instances)

Instances come from ``--instance name:params`` (see the catalog module) or
from ``--group-h FILE --group-k FILE --action FILE``.  Exit codes: 0 success,
1 a failed or unsatisfiable mathematical claim (a failed check or internal
verification, not invertible, not factorable), 2 input that fails
validation, and nothing else.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import (
    DEFAULT_INSTANCES,
    build_instance,
    load_action,
    load_group,
    load_matrix,
    matrix_to_dict,
)
from .determinant import _decide, det_h, is_invertible
from .errors import (
    BoundExceeded,
    DomainMismatch,
    GroupValidationError,
    InvalidInstance,
    NotAutomorphism,
    NotHomomorphic,
    PreconditionFailed,
    SdmatError,
)
from .factorization import factor_abcd
from .matrices import (
    EndoMatrix,
    check_conditions,
    enumerate_matrices,
    matrix_to_endo,
)
from .oracle import enumerate_endos
from .semidirect import SdProduct, semidirect
from .verify import CHECK_NAMES, run_verification

__all__ = ["cli_main", "main"]

# What validating instance names, files and options raises (exit 2).
_INPUT_ERRORS = (ValueError, OSError, InvalidInstance, BoundExceeded, GroupValidationError,
                 NotAutomorphism, NotHomomorphic, DomainMismatch)


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", help="catalog instance, e.g. dihedral:3")
    parser.add_argument("--group-h", help="JSON file for the acted-on factor")
    parser.add_argument("--group-k", help="JSON file for the acting factor")
    parser.add_argument("--action", help="JSON file with the action images")
    parser.add_argument("--bound", type=int, default=64,
                        help="largest product order, checked before any table is built (default 64)")


def _add_format_arg(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--format", choices=("json", "text"), default=default)


def _resolve_product(args: argparse.Namespace) -> SdProduct:
    if args.instance:
        return build_instance(args.instance, bound=args.bound)
    if args.action:
        # Factor files given on the command line replace the groups the action file names.
        given = (args.group_h, args.group_k) if args.group_h and args.group_k else ()
        action = load_action(args.action, *map(load_group, given))
        order = action.H.order * action.K.order
        if order > args.bound:
            raise BoundExceeded(f"product order {order} exceeds bound {args.bound}")
        return semidirect(action, name=Path(args.action).stem)
    raise ValueError("give --instance or --group-h/--group-k/--action")


def _load_matrix_checked(path: str, product: SdProduct) -> EndoMatrix:
    matrix = load_matrix(path, product)
    failed = check_conditions(matrix)
    if failed is not None:
        name, witness = failed
        raise ValueError(f"matrix violates condition {name}: witness {witness}")
    for label, entry in (("gamma", matrix.gamma), ("delta", matrix.delta)):
        if not entry.is_hom:
            raise ValueError(f"matrix entry {label} is not a homomorphism")
    return matrix


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    mats = enumerate_matrices(product, bound=args.bound)
    mats.sort(key=lambda m: m.key())
    autos = [m for m in mats if matrix_to_endo(m).is_bijective]
    payload = {
        "instance": product.name,
        "group_order": product.group.order,
        "count": len(mats),
        "aut_count": len(autos),
        "matrices": [matrix_to_dict(m) for m in mats],
    }
    lines = [
        f"instance {product.name}: order {product.group.order}, "
        f"{len(mats)} endomorphisms, {len(autos)} automorphisms"
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    matrix = _load_matrix_checked(args.matrix, product)
    decided, det = _decide(matrix)
    # The route's determinant is built once: det_k whenever alpha is bijective, else det_h.
    dk = det if decided.method == "det_k" else None
    dh = det if decided.method == "det_h" else None
    if dh is None and matrix.delta.is_bijective:
        dh = det_h(matrix)
    dh_image = None if dh is None else list(dh.image)
    dk_image = None if dk is None else list(dk.image)
    payload = {
        "det_H": dh_image,
        "det_K": dk_image,
        "invertible": decided.invertible,
        "is_hom_H": None if dh is None else dh.is_hom,
        "is_hom_K": None if dk is None else dk.is_hom,
        "inverse": matrix_to_dict(decided.inverse) if decided.invertible else None,
    }
    lines = [
        f"det_H: {dh_image if dh_image is not None else 'undefined (delta not bijective)'}",
        f"det_K: {dk_image if dk_image is not None else 'undefined (alpha not bijective)'}",
        f"invertible: {decided.invertible} (method {decided.method})",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_invert(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    matrix = _load_matrix_checked(args.matrix, product)
    decided = is_invertible(matrix)
    if not decided.invertible:
        _emit(args, {"invertible": False, "inverse": None, "method": None}, ["not invertible"])
        return 1
    inverse = matrix_to_dict(decided.inverse)
    payload = {"invertible": True, "method": decided.method, "inverse": inverse}
    _emit(args, payload, [f"inverted via {decided.method}", json.dumps(inverse, sort_keys=True)])
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    matrix = _load_matrix_checked(args.matrix, product)
    try:
        factors = factor_abcd(matrix)
    except PreconditionFailed as err:
        _emit(args, {"factored": False, "reason": str(err)}, [f"not factorable: {err}"])
        return 1
    # factor_abcd certifies the four memberships and the reassembly before it returns.
    payload = {
        "factored": True,
        "verified": True,
        "a": matrix_to_dict(factors.a),
        "b": matrix_to_dict(factors.b),
        "c": matrix_to_dict(factors.c),
        "d": matrix_to_dict(factors.d),
    }
    lines = ["factored; verified=True"]
    for letter in ("a", "b", "c", "d"):
        lines.append(f"{letter}: {json.dumps(payload[letter], sort_keys=True)}")
    _emit(args, payload, lines)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    product = _resolve_product(args)
    census = enumerate_endos(product.group, bound=args.bound)
    payload = {
        "instance": product.name,
        "group_order": product.group.order,
        "end": census.n_endos,
        "aut": census.n_autos,
    }
    lines = [
        f"instance {product.name}: order {product.group.order}, "
        f"{census.n_endos} endomorphisms, {census.n_autos} automorphisms"
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.theorems == "all":
        checks: str | list[str] = "all"
    else:
        checks = [c.strip() for c in args.theorems.split(",") if c.strip()]
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; known: {', '.join(CHECK_NAMES)}")
    if args.instance in (None, "all"):
        if args.action or args.group_h:
            reports = [run_verification(_resolve_product(args), bound=args.bound, checks=checks)]
        else:
            reports = [run_verification(name, bound=args.bound, checks=checks) for name in DEFAULT_INSTANCES]
    else:
        reports = [run_verification(args.instance, bound=args.bound, checks=checks)]
    passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = {
            "instances": [r.to_dict(include_timing=args.timing) for r in reports],
            "passed": passed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        blocks = [r.to_text(include_timing=args.timing) for r in reports]
        print("\n\n".join(blocks))
        failed = [r.instance for r in reports if not r.passed]
        summary = f"{len(reports)} instance(s) verified"
        if failed:
            summary += f"; FAILED: {', '.join(failed)}"
        print(summary)
    return 0 if passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="sdmat",
        description="Endomorphism matrices, determinants and factorizations "
        "of semidirect products of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all endomorphism matrices")
    _add_source_args(p)
    _add_format_arg(p, "json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("det", help="determinants and invertibility of a matrix")
    _add_source_args(p)
    _add_format_arg(p, "json")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("invert", help="closed-form inverse of a matrix")
    _add_source_args(p)
    _add_format_arg(p, "json")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("factor", help="a*b*c*d factorization of an automorphism matrix")
    _add_source_args(p)
    _add_format_arg(p, "json")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("census", help="oracle endomorphism/automorphism counts")
    _add_source_args(p)
    _add_format_arg(p, "json")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run the named-check harness")
    _add_source_args(p)
    _add_format_arg(p, "text")
    p.add_argument("--theorems", default="all", help="'all' or comma-separated check names")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing")
    p.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SdmatError as err:
        # The input passed validation; a claim of the theory failed on it.
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
