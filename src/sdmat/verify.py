"""Exhaustive verification harness over one product instance.

Every structural claim of the matrix calculus is checked against brute
force on the instance and reported under a fixed name:

    endo_matrix_correspondence   matrices <-> endomorphisms, bijectively and
                                 multiplicatively, with trivial kernel
    monoid_laws                  closure, identity, associativity
    invertibility_via_det_k      bijective alpha: invertible <=> det_k bijective
    invertibility_via_det_h      bijective delta: invertible <=> det_h bijective
    inverse_formula_det_k        the K-side closed inverse and its side claims
    inverse_formula_det_h        the H-side closed inverse and its side claims
    determinant_duality          det_h/det_k bijective together; cross formulas
    combined_inverse             mixed formula agrees with both one-sided ones
    unit_diagonal_a_factor       A-part of the unit-diagonal reduction
    unit_diagonal_b_factor       B-part of the unit-diagonal reduction
    abcd_factorization           a*b*c*d factorization of eligible matrices
    abcd_subgroup_closure        A, B, D are subgroups (C closure reported)
    abcd_normalization           A and D conjugate B into B and C into C

Reports are deterministic byte for byte for a fixed instance: ordering is
fixed everywhere and wall-clock timing is kept out of the canonical
serialization (pass ``include_timing=True`` to add it).

A run over a selection of checks (``checks=[...]``, ``--theorems`` on the
command line) builds the oracle census and the pairwise product table only
when a selected check reads them: ``endo_matrix_correspondence`` reads both,
``monoid_laws``, ``abcd_subgroup_closure`` and ``abcd_normalization`` the
table.

The two n² tables that ``endo_matrix_correspondence`` compares are built
independently.  ``matrices.product_table`` evaluates ``mat_mul``'s entry
formula from the H and K tables and the action rows, once per left factor
on every column of H x K, and reads each product's index off those maps, so
the formula is checked on every column.  ``oracle.composition_table``
composes the endomorphisms' image tables over the product group, each
composite keyed by its images of the oracle's own generators, which fix an
endomorphism.  Neither reads the other's data, so their agreement is
evidence that composition is the matrix product, not a restatement of it.
The round trip compares the entry tables read back off each endomorphism
with the matrix's own key.  ``monoid_laws`` decides associativity of the
product table by Light's test on a small generating set of the monoid
(``groups.associativity_witness``).

The determinants and closed-form inverses are values of their
matrix (``sdmat.determinant``), built on first use and kept on it, so the
two invertibility checks, the two inverse formulas, ``determinant_duality``
and ``combined_inverse`` all read the same ones, whichever runs first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .catalog import build_instance
from .determinant import det_h, det_k, invert_via_det_h, invert_via_det_k, is_invertible
from .errors import SdmatError
from .factorization import classify, factor_abcd, unit_diagonal_a_factor, unit_diagonal_b_factor
from .groups import associativity_witness
from .maps import identity_map, map_add, map_compose, map_inverse
from .matrices import (
    EndoMatrix,
    _entry_images,
    enumerate_matrices,
    identity_matrix,
    mat_mul,
    matrix_to_endo,
    product_table,
)
from .oracle import composition_table, enumerate_endos, invert_endo
from .semidirect import SdProduct

__all__ = ["CheckResult", "VerifyReport", "CHECK_NAMES", "run_verification"]

_PAIR_LIMIT = 200

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skip"
    witness: dict | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class VerifyReport:
    instance: str
    group_order: int
    counts: dict[str, int]
    checks: tuple[CheckResult, ...]
    notes: dict
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "instance": self.instance,
            "group_order": self.group_order,
            "counts": self.counts,
            "checks": [c.to_dict() for c in self.checks],
            "notes": self.notes,
            "passed": self.passed,
        }
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out

    def to_text(self, include_timing: bool = False) -> str:
        lines = [f"instance {self.instance}  (group order {self.group_order})"]
        lines.append("counts: " + " ".join(f"{k}={v}" for k, v in self.counts.items()))
        for c in self.checks:
            dots = "." * max(2, 34 - len(c.name))
            line = f"check {c.name} {dots} {c.status}"
            if c.reason:
                line += f" ({c.reason})"
            lines.append(line)
            if c.witness is not None:
                lines.append(f"  witness: {c.witness}")
        for key in sorted(self.notes):
            lines.append(f"note {key}: {self.notes[key]}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if include_timing:
            lines.append(f"elapsed: {self.elapsed_s:.3f}s")
        return "\n".join(lines)


def _mat_witness(matrix: EndoMatrix, **extra) -> dict:
    out = {
        "alpha": list(matrix.alpha.image),
        "beta": list(matrix.beta.image),
        "gamma": list(matrix.gamma.image),
        "delta": list(matrix.delta.image),
    }
    out.update(extra)
    return out


class _Context:
    """Shared data for the checks over one instance.

    The core is built once, up front: the sorted matrices and their
    endomorphisms, both determinants of every matrix, and the automorphism
    index sets the checks and the counts read.  The oracle census, the
    pairwise product table and the inverse indices are built the first time
    a check reads them.  The checks read closed-form inverses off each matrix;
    the two inverse formulas share one verdict on each (matrix, inverse) pair.
    """

    def __init__(self, product: SdProduct, bound: int) -> None:
        self.product = product
        self.bound = bound
        self.notes: dict = {}
        mats = sorted(enumerate_matrices(product, bound=bound), key=lambda m: m.key())
        self.mats = mats
        self.n = len(mats)
        self.key_to_idx = {m.key(): i for i, m in enumerate(mats)}
        self.thetas = [matrix_to_endo(m) for m in mats]
        self.theta_to_idx = {t.image: i for i, t in enumerate(self.thetas)}
        self.identity = identity_matrix(product)
        self.identity_idx = self.key_to_idx.get(self.identity.key())
        self._inverse_verdicts: dict[tuple, str | None] = {}
        self.bijective = [t.is_bijective for t in self.thetas]
        self.auto_idx = [i for i in range(self.n) if self.bijective[i]]
        # Determinants per index; None marks an undefined side.
        self.detk = [det_k(m) if m.alpha.is_bijective else None for m in mats]
        self.deth = [det_h(m) if m.delta.is_bijective else None for m in mats]
        self.diag_autos = [i for i in self.auto_idx if self.detk[i] is not None and self.deth[i] is not None]
        id_h, id_k = identity_map(product.H), identity_map(product.K)
        self.unit_diag_autos = [i for i in self.auto_idx if mats[i].alpha == id_h and mats[i].delta == id_k]
        self.families: dict[str, list[int]] = {"A": [], "B": [], "C": [], "D": []}
        for i in self.auto_idx:
            tag = classify(mats[i])
            for letter, flag in zip("ABCD", (tag.in_a, tag.in_b, tag.in_c, tag.in_d)):
                if flag:
                    self.families[letter].append(i)

    @cached_property
    def census(self):
        return enumerate_endos(self.product.group, bound=self.bound)

    @cached_property
    def ptable(self) -> list[list[int]] | None:
        """Index of every pairwise product, -1 outside the enumeration; None above the pairwise bound."""
        if self.n > _PAIR_LIMIT:
            return None
        return product_table(self.mats)

    @cached_property
    def closure_witness(self) -> dict | None:
        """The first pair whose product falls outside the enumeration, if any."""
        for i, row in enumerate(self.ptable):
            if -1 in row:
                j = row.index(-1)
                key = mat_mul(self.mats[i], self.mats[j]).key()
                return {"left": i, "right": j, "product": [list(x) for x in key]}
        return None

    @cached_property
    def inv_idx(self) -> dict[int, int]:
        """The index of each automorphism's two-sided inverse, read off the product table."""
        pt, e = self.ptable, self.identity_idx
        out: dict[int, int] = {}
        if pt is None or e is None:
            return out
        for i in self.auto_idx:
            j = next((j for j in range(self.n) if pt[i][j] == e and pt[j][i] == e), None)
            if j is not None:
                out[i] = j
        return out

    def inverse_failure(self, i: int, inverse: EndoMatrix) -> str | None:
        """Why ``inverse`` is not the inverse of matrix ``i``, or None.

        It must be two-sided under ``mat_mul`` and be the matrix of the
        oracle's inverse of endomorphism ``i``.  Both inverse formulas ask,
        and where their closed forms agree they ask about the same matrix, so
        the verdict is kept per ``(i, inverse)``.
        """
        memo_key = (i, inverse.key())
        if memo_key not in self._inverse_verdicts:
            m, ident = self.mats[i], self.identity
            verdict = None
            if mat_mul(m, inverse) != ident or mat_mul(inverse, m) != ident:
                verdict = "two-sided inverse law"
            else:
                j = self.key_to_idx.get(inverse.key())
                if j is None or self.thetas[j] != invert_endo(self.thetas[i]):
                    verdict = "disagrees with brute-force inverse"
            self._inverse_verdicts[memo_key] = verdict
        return self._inverse_verdicts[memo_key]


def _pairwise_skip(name: str, n: int) -> CheckResult:
    return CheckResult(name, "skip", reason=f"matrix count {n} exceeds pairwise bound {_PAIR_LIMIT}")


def _first_escape(pt: list[list[int]], members: set[int], inv_idx: dict[int, int] | None = None) -> dict | None:
    """The first member whose inverse (when ``inv_idx`` is given) or product with a member escapes."""
    ordered = sorted(members)
    for i in ordered:
        if inv_idx is not None and inv_idx.get(i) not in members:
            return {"index": i, "detail": "inverse escapes"}
        for j in ordered:
            if pt[i][j] not in members:
                return {"pair": [i, j]}
    return None


def _check_correspondence(ctx: _Context) -> CheckResult:
    name = "endo_matrix_correspondence"
    if len(ctx.census.endos) != ctx.n:
        return CheckResult(name, "fail", witness={"matrix_count": ctx.n, "endo_count": len(ctx.census.endos)})
    oracle_images = {e.image for e in ctx.census.endos}
    matrix_images = set(ctx.theta_to_idx)
    if oracle_images != matrix_images:
        extra = sorted(matrix_images - oracle_images) + sorted(oracle_images - matrix_images)
        return CheckResult(name, "fail", witness={"image_mismatch": [list(x) for x in extra[:1]]})
    P = ctx.product
    # The read-off uses only theta.image, so with equal image sets this covers every census
    # endomorphism.  Matrices over one product are equal iff their keys are, so equal tables
    # mean the read-back matrix is m, whose conditions matrix_to_endo has already decided.
    for i, m in enumerate(ctx.mats):
        if _entry_images(ctx.thetas[i], P) != m.key():
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="round trip through endomorphism"))
    if ctx.identity_idx is None:
        return CheckResult(name, "fail", witness={"detail": "identity matrix missing from enumeration"})
    identity_image = tuple(range(P.group.order))
    kernel = [i for i, t in enumerate(ctx.thetas) if t.image == identity_image]
    if kernel != [ctx.identity_idx]:
        return CheckResult(name, "fail", witness={"kernel_indices": kernel})
    if ctx.ptable is None:
        return _pairwise_skip(name, ctx.n)
    if ctx.closure_witness is not None:
        return CheckResult(name, "fail", witness=ctx.closure_witness)
    # The matrix side composes by the entry formula over the H and K tables and the
    # action rows, the oracle side by gathering image tables over the product group.
    for i, (composed, row) in enumerate(zip(composition_table(ctx.thetas), ctx.ptable)):
        if composed != row:
            j = next(j for j, (c, p) in enumerate(zip(composed, row)) if c != p)
            return CheckResult(
                name,
                "fail",
                witness={"left": i, "right": j, "detail": "matrix product differs from composition"},
            )
    return CheckResult(name, "pass")


def _check_monoid(ctx: _Context) -> CheckResult:
    name = "monoid_laws"
    if ctx.ptable is None:
        return _pairwise_skip(name, ctx.n)
    if ctx.closure_witness is not None:
        return CheckResult(name, "fail", witness=ctx.closure_witness)
    e = ctx.identity_idx
    if e is None:
        return CheckResult(name, "fail", witness={"detail": "no identity matrix"})
    for j in range(ctx.n):
        if ctx.ptable[e][j] != j or ctx.ptable[j][e] != j:
            return CheckResult(name, "fail", witness={"index": j, "detail": "identity law"})
    triple = associativity_witness(ctx.ptable)
    if triple is not None:
        return CheckResult(name, "fail", witness={"triple": list(triple)})
    return CheckResult(name, "pass")


def _check_invertibility_k(ctx: _Context) -> CheckResult:
    name = "invertibility_via_det_k"
    seen = False
    for i, m in enumerate(ctx.mats):
        dk = ctx.detk[i]
        if dk is None:
            continue
        seen = True
        if dk.is_bijective != ctx.bijective[i]:
            return CheckResult(
                name,
                "fail",
                witness=_mat_witness(m, det_bijective=dk.is_bijective, endo_bijective=ctx.bijective[i]),
            )
        decided = is_invertible(m)
        if decided.method != "det_k" or decided.invertible != ctx.bijective[i]:
            return CheckResult(name, "fail", witness=_mat_witness(m, method=decided.method))
    if not seen:
        return CheckResult(name, "skip", reason="no matrix with bijective alpha")
    return CheckResult(name, "pass")


def _check_invertibility_h(ctx: _Context) -> CheckResult:
    name = "invertibility_via_det_h"
    seen = False
    for i, m in enumerate(ctx.mats):
        dh = ctx.deth[i]
        if dh is None:
            continue
        seen = True
        if dh.is_bijective != ctx.bijective[i]:
            return CheckResult(
                name,
                "fail",
                witness=_mat_witness(m, det_bijective=dh.is_bijective, endo_bijective=ctx.bijective[i]),
            )
        if m.alpha.is_bijective:
            continue  # is_invertible takes det_k here, checked by invertibility_via_det_k
        decided = is_invertible(m)
        if decided.method != "det_h" or decided.invertible != ctx.bijective[i]:
            return CheckResult(name, "fail", witness=_mat_witness(m, method=decided.method))
    if not seen:
        return CheckResult(name, "skip", reason="no matrix with bijective delta")
    return CheckResult(name, "pass")


def _check_inverse_k(ctx: _Context) -> CheckResult:
    name = "inverse_formula_det_k"
    id_k = identity_map(ctx.product.K)
    seen = False
    for i, m in enumerate(ctx.mats):
        dk = ctx.detk[i]
        if dk is None or not dk.is_bijective:
            continue
        seen = True
        inverse = invert_via_det_k(m)
        failure = ctx.inverse_failure(i, inverse)
        if failure is not None:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail=failure))
        if det_h(inverse) != map_inverse(m.alpha):
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="det_h of inverse is not alpha^-1"))
        if not dk.is_hom:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="det_k of invertible matrix not a homomorphism"))
        # Rearranged inverse identities: gamma alpha^-1 beta D^-1 + 1 = delta D^-1
        # and D^-1 composed with the determinant is the identity.
        dkinv = map_inverse(dk)
        ainv = map_inverse(m.alpha)
        lhs = map_add(map_compose(m.gamma, map_compose(ainv, map_compose(m.beta, dkinv))), id_k)
        rhs = map_compose(m.delta, dkinv)
        if lhs != rhs or map_compose(dkinv, dk) != id_k:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="determinant inverse identity"))
    if not seen:
        return CheckResult(name, "skip", reason="no matrix with bijective alpha and bijective det_k")
    return CheckResult(name, "pass")


def _check_inverse_h(ctx: _Context) -> CheckResult:
    name = "inverse_formula_det_h"
    seen = False
    for i, m in enumerate(ctx.mats):
        dh = ctx.deth[i]
        if dh is None or not dh.is_bijective:
            continue
        seen = True
        inverse = invert_via_det_h(m)
        failure = ctx.inverse_failure(i, inverse)
        if failure is not None:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail=failure))
        if det_k(inverse) != map_inverse(m.delta):
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="det_k of inverse is not delta^-1"))
        if not dh.is_hom:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="det_h of invertible matrix not a homomorphism"))
    if not seen:
        return CheckResult(name, "skip", reason="no matrix with bijective delta and bijective det_h")
    return CheckResult(name, "pass")


def _check_duality(ctx: _Context) -> CheckResult:
    name = "determinant_duality"
    if not ctx.diag_autos:
        return CheckResult(name, "skip", reason="no automorphism matrix with bijective diagonal")
    for i in ctx.diag_autos:
        m = ctx.mats[i]
        dh, dk = ctx.deth[i], ctx.detk[i]
        if dh.is_bijective != dk.is_bijective:
            return CheckResult(
                name,
                "fail",
                witness=_mat_witness(m, det_h_bijective=dh.is_bijective, det_k_bijective=dk.is_bijective),
            )
        if not dh.is_bijective:
            continue
        # Each side's inverse carries the other determinant's inverse on its diagonal.
        if invert_via_det_k(m).alpha != map_inverse(dh):
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="H-side determinant inverse identity"))
        if invert_via_det_h(m).delta != map_inverse(dk):
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="K-side determinant inverse identity"))
    return CheckResult(name, "pass")


def _check_combined(ctx: _Context) -> CheckResult:
    name = "combined_inverse"
    eligible = [i for i in ctx.diag_autos if ctx.detk[i].is_bijective and ctx.deth[i].is_bijective]
    if not eligible:
        return CheckResult(name, "skip", reason="no automorphism matrix with bijective diagonal and determinants")
    h_side = k_side = True
    for i in eligible:
        m = ctx.mats[i]
        # The combined form is the H-side left column next to the K-side right
        # column, so it equals both one-sided inverses exactly when they agree.
        combined, via_h = invert_via_det_k(m), invert_via_det_h(m)
        if combined != via_h:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail="three-way inverse mismatch"))
        if det_h(combined) != map_inverse(m.alpha):
            h_side = False
        # via_h equals combined; inverse_formula_det_h may already have built its det_k.
        if det_k(via_h) != map_inverse(m.delta):
            k_side = False
    ctx.notes["det_reading"] = {
        "det_h_of_inverse_is_alpha_inv": h_side,
        "det_k_of_inverse_is_delta_inv": k_side,
    }
    if not h_side:
        return CheckResult(name, "fail", witness={"detail": "det_h of inverse is not alpha^-1"})
    return CheckResult(name, "pass")


def _check_unit_a(ctx: _Context) -> CheckResult:
    name = "unit_diagonal_a_factor"
    if not ctx.unit_diag_autos:
        return CheckResult(name, "skip", reason="no unit-diagonal automorphism matrix")
    for i in ctx.unit_diag_autos:
        m = ctx.mats[i]
        # unit_diagonal_a_factor certifies the A-membership itself.
        try:
            unit_diagonal_a_factor(m)
        except SdmatError as err:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail=str(err)))
    return CheckResult(name, "pass")


def _check_unit_b(ctx: _Context) -> CheckResult:
    name = "unit_diagonal_b_factor"
    if not ctx.unit_diag_autos:
        return CheckResult(name, "skip", reason="no unit-diagonal automorphism matrix")
    central = True
    for i in ctx.unit_diag_autos:
        m = ctx.mats[i]
        try:
            part = unit_diagonal_b_factor(m)
        except SdmatError as err:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail=str(err)))
        if not classify(part).in_b:
            central = False
    ctx.notes["b_factor_image_central"] = central
    return CheckResult(name, "pass")


def _check_factorization(ctx: _Context) -> CheckResult:
    name = "abcd_factorization"
    eligible = set(ctx.diag_autos)
    skipped = [i for i in ctx.auto_idx if i not in eligible]
    ctx.notes["aut_nonbij_alpha_delta"] = len(skipped)
    if skipped:
        ctx.notes["aut_nonbij_example"] = _mat_witness(ctx.mats[skipped[0]])
    if not eligible:
        return CheckResult(name, "skip", reason="no automorphism matrix with bijective diagonal")
    # factor_abcd certifies the four memberships and the reassembly itself.
    for i in ctx.diag_autos:
        m = ctx.mats[i]
        try:
            factor_abcd(m)
        except SdmatError as err:
            return CheckResult(name, "fail", witness=_mat_witness(m, detail=str(err)))
    return CheckResult(name, "pass")


def _check_subgroups(ctx: _Context) -> CheckResult:
    name = "abcd_subgroup_closure"
    if ctx.ptable is None:
        return _pairwise_skip(name, ctx.n)
    families = ctx.families
    pt = ctx.ptable
    for letter in ("A", "B", "D"):
        members = set(families[letter])
        if ctx.identity_idx not in members:
            return CheckResult(name, "fail", witness={"family": letter, "detail": "identity missing"})
        witness = _first_escape(pt, members, ctx.inv_idx)
        if witness is not None:
            return CheckResult(name, "fail", witness={"family": letter, **witness})
    c_witness = _first_escape(pt, set(families["C"]))
    ctx.notes["c_family_closed"] = c_witness is None
    if c_witness is not None:
        ctx.notes["c_family_witness"] = c_witness
    abcd = set()
    for a in families["A"]:
        for b in families["B"]:
            ab = pt[a][b]
            for c in families["C"]:
                abc = pt[ab][c]
                for d in families["D"]:
                    abcd.add(pt[abc][d])
    ctx.notes["abcd_product_set"] = {
        "size": len(abcd),
        "aut_size": len(ctx.auto_idx),
        "equals_aut": abcd == set(ctx.auto_idx),
    }
    return CheckResult(name, "pass")


def _check_normalization(ctx: _Context) -> CheckResult:
    name = "abcd_normalization"
    if ctx.ptable is None:
        return _pairwise_skip(name, ctx.n)
    pt = ctx.ptable
    conjugators = sorted(set(ctx.families["A"]) | set(ctx.families["D"]))
    for x in conjugators:
        xi = ctx.inv_idx.get(x)
        if xi is None:
            return CheckResult(name, "fail", witness={"index": x, "detail": "conjugator has no inverse"})
        for letter in ("B", "C"):
            members = set(ctx.families[letter])
            for y in sorted(members):
                if pt[pt[x][y]][xi] not in members:
                    return CheckResult(name, "fail", witness={"family": letter, "conjugator": x, "member": y})
    return CheckResult(name, "pass")


_CHECK_FUNCS = {
    "endo_matrix_correspondence": _check_correspondence,
    "monoid_laws": _check_monoid,
    "invertibility_via_det_k": _check_invertibility_k,
    "invertibility_via_det_h": _check_invertibility_h,
    "inverse_formula_det_k": _check_inverse_k,
    "inverse_formula_det_h": _check_inverse_h,
    "determinant_duality": _check_duality,
    "combined_inverse": _check_combined,
    "unit_diagonal_a_factor": _check_unit_a,
    "unit_diagonal_b_factor": _check_unit_b,
    "abcd_factorization": _check_factorization,
    "abcd_subgroup_closure": _check_subgroups,
    "abcd_normalization": _check_normalization,
}

CHECK_NAMES = tuple(_CHECK_FUNCS)


def _det_nonhom_note(ctx: _Context) -> None:
    for i, m in enumerate(ctx.mats):
        for side, det in (("K", ctx.detk[i]), ("H", ctx.deth[i])):
            if det is not None and not det.is_hom:
                ctx.notes["det_nonhom_witness"] = _mat_witness(m, side=side, det=list(det.image))
                return
    ctx.notes["det_nonhom_witness"] = None


def run_verification(
    instance: str | SdProduct,
    bound: int = 64,
    checks: str | list[str] = "all",
) -> VerifyReport:
    """Run the named checks (default all) over one instance.

    Raises ValueError for an unknown or empty selection, and for a string
    other than ``"all"``.
    """
    started = time.perf_counter()
    if checks == "all":
        selected = list(CHECK_NAMES)
    elif isinstance(checks, str):
        raise ValueError(f"checks must be 'all' or a list of check names, not {checks!r}")
    else:
        unknown = [c for c in checks if c not in _CHECK_FUNCS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; known: {', '.join(CHECK_NAMES)}")
        if not checks:
            raise ValueError("no checks selected")
        selected = [c for c in CHECK_NAMES if c in set(checks)]
    product = build_instance(instance, bound=bound) if isinstance(instance, str) else instance
    ctx = _Context(product, bound)
    results = tuple(_CHECK_FUNCS[name](ctx) for name in selected)
    _det_nonhom_note(ctx)
    counts = {"end": ctx.n, "aut": len(ctx.auto_idx), **{k: len(v) for k, v in ctx.families.items()}}
    return VerifyReport(
        instance=product.name or f"order-{product.group.order}",
        group_order=product.group.order,
        counts=counts,
        checks=results,
        notes=dict(sorted(ctx.notes.items())),
        elapsed_s=time.perf_counter() - started,
    )
