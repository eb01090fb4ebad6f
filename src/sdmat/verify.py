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

A check returns its outcome: None when it passes, a reason when it
skips, a witness when it fails; ``run_verification`` reports it under the
check's name.

The oracle census is built once per run, whatever the selection, as the
context is built, and is the only source of each matrix's endomorphism:
for every census entry the context reads its four entry tables off the
embedded copies of H and K (``matrices._entry_images``) and looks up the
enumerated matrix with that key, and theta_i is that census map.  The
lookup index holds only the matrices' keys and is dropped once matching is
done; each entry's read-off tables live only for their lookup.  A matrix
no census entry matches can only come from a fault: it gets its formula's
map (:func:`~sdmat.matrices.matrix_to_endo`), so the other checks still
run and report, and the correspondence fails.  A passing run builds no
endomorphism through the entry formula.

``endo_matrix_correspondence`` decides the n² products of the n matrices
with no product formed.  Write F_i for the map that ``mat_mul`` sends
every column of the right factor through when m_i is the left factor
(``matrices._product_images``, the entry formula over the H and K tables
and the action rows).  F_i(x; y) reads m_i's alpha and gamma only at x
and its beta and delta only at y, so F_i(x; y) = A_i(x) * B_i(y) for
A_i(x) = (alpha_i x, gamma_i x) and B_i(y) = (beta_i y, delta_i y), where
* is the formula's own product of two elements of G.  The check decides,
in order:

1. count: the oracle's census (:mod:`sdmat.oracle`, raw Cayley tables
   only) has n endomorphisms;
2. key bijection: the entries read off every census entry are the key of
   exactly one matrix, and every matrix is matched, so theta_i is a census
   endomorphism whose entries are m_i's: theta_i(x, e) = A_i(x) and
   theta_i(e, y) = B_i(y);
3. formula: * is G's product.  ``matrices._formula_witness`` runs the
   formula on the H x K grid for |G| left factors whose entries vary,
   which together give every pair of G x G as (A(x), B(y)), and sets each
   column against G's table at that pair;
4. kernel: the identity matrix is enumerated, and its theta is the only
   one that is the identity map.

Then F_i = theta_i on all of G: theta_i is a homomorphism (a census
entry) and (x, y) = (x, e)(e, y), so theta_i(x, y) = A_i(x) B_i(y),
which is F_i(x; y) by 3.  And m_i * m_j is the enumerated matrix of
theta_i o theta_j for every i and j:

- by 2, the columns of m_j are theta_j on the embedded copies of H and K;
- ``mat_mul`` computes the columns of m_i * m_j as F_i at those, which is
  theta_i there, so they are theta_i o theta_j on the embedded copies;
- theta_i o theta_j is an endomorphism, so it is in the census, and by 2
  it is some theta_l;
- by 2, the columns of m_l are theta_l on the embedded copies too, and a
  matrix is its columns, so m_i * m_j = m_l.

By 1 and 2, i -> theta_i is a bijection onto End(G), so it is an
isomorphism from the matrices under ``mat_mul`` onto (End(G), o).  The
oracle stays independent of the entry formula: the census is the oracle's
own search, and part 3 reads G's table, as the census does.  Every check
reads the oracle's theta: bijectivity, the inverse index and the
products.  That F_i reads the entries only at x and y, and combines their
values the same way for every left factor, is a property of the code of
``_product_images``; given it, a wrong entry formula fails part 3, at the
first pair where it is not G's product, and the run fails.

``monoid_laws`` follows from the correspondence.  Closure is the m_l
above.  By 4, the theta of the identity matrix m_e is the identity map, so
m_e * m_j and m_j * m_e are the matrix of theta_j, which is m_j.  Both
(m_i m_j) m_k and m_i (m_j m_k) are the matrix of
theta_i o theta_j o theta_k, as composition of maps is associative.  So
the check reads the correspondence's verdict, decided once per run, and
passes exactly when it passes; if the correspondence fails, the laws are
not established and the check fails with it.

``abcd_subgroup_closure`` and ``abcd_normalization`` multiply family
members through the same isomorphism, with no matrix built
(``_Context.product_index``): the product of m_i and m_j is the index of
theta_i o theta_j, looked up by its images of the product group's
generators, which fix an endomorphism.  The inverse of an automorphism is
looked up the same way (``_Context.inverse_index``): its image of a
generator s is the one element theta_i sends to s, read off theta_i's
table, so no table is inverted.

The determinants and closed-form inverses are values of their
matrix (``sdmat.determinant``), built on first use and kept on it, so the
two inverse formulas, ``determinant_duality`` and ``combined_inverse``
all read the same ones, whichever runs first.  The two invertibility
checks read only the route and the verdict
(``determinant._decide_invertible``), and build no inverse.  Each closed
form certifies the two-sided law m m' = m' m = 1 itself before it returns
(``sdmat.determinant`` docstring), so verify forms no product: the inverse
checks call the public :func:`~sdmat.determinant.invert_via_det_k`,
:func:`~sdmat.determinant.invert_via_det_h` and
:func:`~sdmat.determinant.invert_combined`, report a failed certificate
by its text, and compare each certified inverse with the oracle's
(``_Context.inverse_failure``).  An inverse that is the oracle's has the
key of the enumerated matrix found through ``_Context.inverse_index``, and
a determinant depends only on its matrix's key, so the checks read an
inverse's determinants at that index: verify builds no determinant on a
matrix outside the enumeration.  ``determinant_duality`` checks the
public :func:`~sdmat.determinant.dual_det_inverses`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .catalog import build_instance
from .determinant import (
    _decide_invertible,
    det_h,
    det_k,
    dual_det_inverses,
    invert_combined,
    invert_via_det_h,
    invert_via_det_k,
)
from .errors import SdmatError, VerificationFailed
from .factorization import classify, factor_abcd, unit_diagonal_a_factor, unit_diagonal_b_factor
from .maps import FMap, identity_map, map_add, map_compose, map_inverse
from .matrices import EndoMatrix, _entry_images, _formula_witness, enumerate_matrices, identity_matrix, matrix_to_endo
from .oracle import enumerate_endos
from .semidirect import SdProduct

__all__ = ["CheckResult", "VerifyReport", "CHECK_NAMES", "run_verification"]

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

    The core is built once, up front: the sorted matrices, the census,
    matched to them by their entries so that each matrix's endomorphism is
    a census map (module docstring), both determinants of every matrix,
    and the automorphism index sets the checks and the counts read.  A
    matrix is found by its endomorphism's images of the product group's
    generators; that lookup, each inverse index and the correspondence's
    verdict (its witness, or None) are built the first time a check reads
    them.  The census object itself is not kept: only its maps, as the
    thetas.  The checks read closed-form inverses off each matrix,
    certified where they are built, and compare each with the oracle's; no
    product is formed (module docstring).
    """

    def __init__(self, product: SdProduct, bound: int) -> None:
        self.product = product
        self.bound = bound
        self.notes: dict = {}
        mats = sorted(enumerate_matrices(product, bound=bound), key=lambda m: m.key())
        self.mats = mats
        self.n = len(mats)
        # theta_i is the census endomorphism whose entries are m_i's key.  A matrix no census entry
        # matches can only come from a fault: it gets its formula's map, so the other checks run.
        endos = enumerate_endos(product.group, bound=bound).endos
        self.endo_count = len(endos)
        index = {m.key(): i for i, m in enumerate(mats)}
        self.identity_idx = index.get(identity_matrix(product).key())
        thetas: list[FMap | None] = [None] * self.n
        self.unmatched: list[tuple[int, ...]] = []  # census images matching no matrix, or a matched one
        for e in endos:
            i = index.get(_entry_images(e, product))
            if i is None or thetas[i] is not None:
                self.unmatched.append(e.image)
            else:
                thetas[i] = e
        del endos, index
        self.fallback = [i for i, t in enumerate(thetas) if t is None]
        self.thetas = [matrix_to_endo(m) if t is None else t for m, t in zip(mats, thetas)]
        self._inverse_idx: dict[int, int | None] = {}
        self.auto_idx = [i for i, t in enumerate(self.thetas) if t.is_bijective]
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
    def correspondence(self) -> dict | None:
        """The witness of ``endo_matrix_correspondence``, or None; ``monoid_laws`` reads it too."""
        return _correspondence(self)

    @cached_property
    def _generator_images(self) -> list[tuple[int, ...]]:
        """Each endomorphism's images of the product group's generators."""
        gens = self.product.group.generators
        return [tuple(map(t.image.__getitem__, gens)) for t in self.thetas]

    @cached_property
    def _index_by_generators(self) -> dict[tuple[int, ...], int]:
        return {images: i for i, images in enumerate(self._generator_images)}

    def product_index(self, i: int, j: int) -> int | None:
        """The index of the endomorphism theta_i after theta_j, or None if it is not enumerated.

        An endomorphism is fixed by its images of the generators, so the
        composite is looked up by its |S| images, theta_i at theta_j's.  With
        the correspondence this is the index of ``mats[i] * mats[j]``
        (module docstring).
        """
        outer = self.thetas[i].image.__getitem__
        return self._index_by_generators.get(tuple(map(outer, self._generator_images[j])))

    def inverse_index(self, i: int) -> int | None:
        """The index of theta_i's inverse, or None if theta_i is not bijective or the inverse is not enumerated.

        The inverse is fixed by its images of the product group's
        generators, and its image of s is the one element theta_i sends to
        s, so it is looked up by those images with no table inverted.
        """
        if i not in self._inverse_idx:
            theta, found = self.thetas[i], None
            if theta.is_bijective:
                images = tuple(map(theta.image.index, self.product.group.generators))
                found = self._index_by_generators.get(images)
            self._inverse_idx[i] = found
        return self._inverse_idx[i]

    def inverse_failure(self, i: int, build: Callable[[EndoMatrix], EndoMatrix]) -> str | None:
        """Why ``build(mats[i])`` is not the inverse of matrix ``i``, or None.

        ``build`` is a public closed form, which certifies its inverse or
        raises VerificationFailed, whose text is returned.  A returned
        inverse must be the matrix of the oracle's inverse of endomorphism
        ``i``, so an inverse that passes has the key of
        ``mats[inverse_index(i)]``.
        """
        try:
            inverse = build(self.mats[i])
        except VerificationFailed as err:
            return err.what
        j = self.inverse_index(i)
        if j is None or self.mats[j].key() != inverse.key():
            return "disagrees with brute-force inverse"
        return None


def _first_escape(ctx: _Context, members: set[int], inverses: bool = False) -> dict | None:
    """The first member whose inverse (when ``inverses``) or product with a member escapes."""
    ordered = sorted(members)
    for i in ordered:
        if inverses and ctx.inverse_index(i) not in members:
            return {"index": i, "detail": "inverse escapes"}
        for j in ordered:
            if ctx.product_index(i, j) not in members:
                return {"pair": [i, j]}
    return None


def _correspondence(ctx: _Context) -> dict | None:
    """The first witness of parts 1-4 of the correspondence (module docstring), or None."""
    if ctx.endo_count != ctx.n:
        return {"matrix_count": ctx.n, "endo_count": ctx.endo_count}
    extra = sorted(ctx.thetas[i].image for i in ctx.fallback) + sorted(ctx.unmatched)
    if extra:
        return {"image_mismatch": [list(x) for x in extra[:1]]}
    pair = _formula_witness(ctx.product)
    if pair is not None:
        return {"detail": "entry formula differs from the group product", "pair": list(pair)}
    if ctx.identity_idx is None:
        return {"detail": "identity matrix missing from enumeration"}
    identity_image = tuple(range(ctx.product.group.order))
    kernel = [i for i, t in enumerate(ctx.thetas) if t.image == identity_image]
    if kernel != [ctx.identity_idx]:
        return {"kernel_indices": kernel}
    return None


def _check_correspondence(ctx: _Context) -> dict | str | None:
    return ctx.correspondence


def _check_monoid(ctx: _Context) -> dict | str | None:
    # The laws are derived from the correspondence (module docstring).
    return None if ctx.correspondence is None else {"detail": "endo_matrix_correspondence fails"}


def _check_invertibility_k(ctx: _Context) -> dict | str | None:
    eligible = [i for i, dk in enumerate(ctx.detk) if dk is not None]
    if not eligible:
        return "no matrix with bijective alpha"
    for i in eligible:
        m, dk, bijective = ctx.mats[i], ctx.detk[i], ctx.thetas[i].is_bijective
        if dk.is_bijective != bijective:
            return _mat_witness(m, det_bijective=dk.is_bijective, endo_bijective=bijective)
        invertible, method = _decide_invertible(m)
        if method != "det_k" or invertible != bijective:
            return _mat_witness(m, method=method)
    return None


def _check_invertibility_h(ctx: _Context) -> dict | str | None:
    eligible = [i for i, dh in enumerate(ctx.deth) if dh is not None]
    if not eligible:
        return "no matrix with bijective delta"
    for i in eligible:
        m, dh, bijective = ctx.mats[i], ctx.deth[i], ctx.thetas[i].is_bijective
        if dh.is_bijective != bijective:
            return _mat_witness(m, det_bijective=dh.is_bijective, endo_bijective=bijective)
        if m.alpha.is_bijective:
            continue  # the route is det_k here, checked by invertibility_via_det_k
        invertible, method = _decide_invertible(m)
        if method != "det_h" or invertible != bijective:
            return _mat_witness(m, method=method)
    return None


def _check_inverse_k(ctx: _Context) -> dict | str | None:
    eligible = [i for i, dk in enumerate(ctx.detk) if dk is not None and dk.is_bijective]
    if not eligible:
        return "no matrix with bijective alpha and bijective det_k"
    id_k = identity_map(ctx.product.K)
    for i in eligible:
        m, dk = ctx.mats[i], ctx.detk[i]
        failure = ctx.inverse_failure(i, invert_via_det_k)
        if failure is not None:
            return _mat_witness(m, detail=failure)
        # The inverse has the key of mats[inverse_index(i)], so it has that matrix's det_h.
        if ctx.deth[ctx.inverse_index(i)] != map_inverse(m.alpha):
            return _mat_witness(m, detail="det_h of inverse is not alpha^-1")
        if not dk.is_hom:
            return _mat_witness(m, detail="det_k of invertible matrix not a homomorphism")
        # Rearranged inverse identities: gamma alpha^-1 beta D^-1 + 1 = delta D^-1
        # and D^-1 composed with the determinant is the identity.
        dkinv = map_inverse(dk)
        ainv = map_inverse(m.alpha)
        lhs = map_add(map_compose(m.gamma, map_compose(ainv, map_compose(m.beta, dkinv))), id_k)
        rhs = map_compose(m.delta, dkinv)
        if lhs != rhs or map_compose(dkinv, dk) != id_k:
            return _mat_witness(m, detail="determinant inverse identity")
    return None


def _check_inverse_h(ctx: _Context) -> dict | str | None:
    eligible = [i for i, dh in enumerate(ctx.deth) if dh is not None and dh.is_bijective]
    if not eligible:
        return "no matrix with bijective delta and bijective det_h"
    for i in eligible:
        m, dh = ctx.mats[i], ctx.deth[i]
        failure = ctx.inverse_failure(i, invert_via_det_h)
        if failure is not None:
            return _mat_witness(m, detail=failure)
        if ctx.detk[ctx.inverse_index(i)] != map_inverse(m.delta):
            return _mat_witness(m, detail="det_k of inverse is not delta^-1")
        if not dh.is_hom:
            return _mat_witness(m, detail="det_h of invertible matrix not a homomorphism")
    return None


def _check_duality(ctx: _Context) -> dict | str | None:
    if not ctx.diag_autos:
        return "no automorphism matrix with bijective diagonal"
    for i in ctx.diag_autos:
        m = ctx.mats[i]
        dh, dk = ctx.deth[i], ctx.detk[i]
        if dh.is_bijective != dk.is_bijective:
            return _mat_witness(m, det_h_bijective=dh.is_bijective, det_k_bijective=dk.is_bijective)
        if not dh.is_bijective:
            continue
        try:
            dual_det_inverses(m)
        except VerificationFailed as err:
            return _mat_witness(m, detail=err.what)
    return None


def _check_combined(ctx: _Context) -> dict | str | None:
    eligible = [i for i in ctx.diag_autos if ctx.detk[i].is_bijective and ctx.deth[i].is_bijective]
    if not eligible:
        return "no automorphism matrix with bijective diagonal and determinants"
    h_side = k_side = True
    for i in eligible:
        m = ctx.mats[i]
        failure = ctx.inverse_failure(i, invert_combined)
        if failure is not None:
            return _mat_witness(m, detail=failure)
        j = ctx.inverse_index(i)
        if ctx.deth[j] != map_inverse(m.alpha):
            h_side = False
        if ctx.detk[j] != map_inverse(m.delta):
            k_side = False
    ctx.notes["det_reading"] = {
        "det_h_of_inverse_is_alpha_inv": h_side,
        "det_k_of_inverse_is_delta_inv": k_side,
    }
    if not h_side:
        return {"detail": "det_h of inverse is not alpha^-1"}
    return None


def _check_unit_a(ctx: _Context) -> dict | str | None:
    if not ctx.unit_diag_autos:
        return "no unit-diagonal automorphism matrix"
    for i in ctx.unit_diag_autos:
        m = ctx.mats[i]
        # unit_diagonal_a_factor certifies the A-membership itself.
        try:
            unit_diagonal_a_factor(m)
        except SdmatError as err:
            return _mat_witness(m, detail=str(err))
    return None


def _check_unit_b(ctx: _Context) -> dict | str | None:
    if not ctx.unit_diag_autos:
        return "no unit-diagonal automorphism matrix"
    central = True
    for i in ctx.unit_diag_autos:
        m = ctx.mats[i]
        try:
            part = unit_diagonal_b_factor(m)
        except SdmatError as err:
            return _mat_witness(m, detail=str(err))
        if not classify(part).in_b:
            central = False
    ctx.notes["b_factor_image_central"] = central
    return None


def _check_factorization(ctx: _Context) -> dict | str | None:
    eligible = set(ctx.diag_autos)
    skipped = [i for i in ctx.auto_idx if i not in eligible]
    ctx.notes["aut_nonbij_alpha_delta"] = len(skipped)
    if skipped:
        ctx.notes["aut_nonbij_example"] = _mat_witness(ctx.mats[skipped[0]])
    if not eligible:
        return "no automorphism matrix with bijective diagonal"
    # factor_abcd certifies the four memberships and the reassembly itself.
    for i in ctx.diag_autos:
        m = ctx.mats[i]
        try:
            factor_abcd(m)
        except SdmatError as err:
            return _mat_witness(m, detail=str(err))
    return None


def _check_subgroups(ctx: _Context) -> dict | str | None:
    families = ctx.families
    product = ctx.product_index
    for letter in ("A", "B", "D"):
        members = set(families[letter])
        if ctx.identity_idx not in members:
            return {"family": letter, "detail": "identity missing"}
        witness = _first_escape(ctx, members, inverses=True)
        if witness is not None:
            return {"family": letter, **witness}
    c_witness = _first_escape(ctx, set(families["C"]))
    ctx.notes["c_family_closed"] = c_witness is None
    if c_witness is not None:
        ctx.notes["c_family_witness"] = c_witness
    abcd = set()
    for a in families["A"]:
        for b in families["B"]:
            ab = product(a, b)
            for c in families["C"]:
                abc = product(ab, c)
                for d in families["D"]:
                    abcd.add(product(abc, d))
    ctx.notes["abcd_product_set"] = {
        "size": len(abcd),
        "aut_size": len(ctx.auto_idx),
        "equals_aut": abcd == set(ctx.auto_idx),
    }
    return None


def _check_normalization(ctx: _Context) -> dict | str | None:
    product = ctx.product_index
    conjugators = sorted(set(ctx.families["A"]) | set(ctx.families["D"]))
    for x in conjugators:
        xi = ctx.inverse_index(x)
        if xi is None:
            return {"index": x, "detail": "conjugator has no inverse"}
        for letter in ("B", "C"):
            members = set(ctx.families[letter])
            for y in sorted(members):
                if product(product(x, y), xi) not in members:
                    return {"family": letter, "conjugator": x, "member": y}
    return None


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

    def result(name: str) -> CheckResult:
        outcome = _CHECK_FUNCS[name](ctx)
        skip = isinstance(outcome, str)
        status = "skip" if skip else "pass" if outcome is None else "fail"
        return CheckResult(name, status, witness=None if skip else outcome, reason=outcome if skip else None)

    results = tuple(map(result, selected))
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
