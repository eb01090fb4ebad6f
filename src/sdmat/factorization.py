"""Classification and factorization of automorphism matrices.

Four distinguished families of matrices sit inside the automorphisms:

    A  (alpha, 0; 0, 1)  alpha an automorphism of H commuting with the action
    B  (1, beta; 0, 1)   beta a crossed homomorphism into the center of H
    C  (1, 0; gamma, 1)  gamma a homomorphism into the action kernel,
                         compatible with conjugation
    D  (1, 0; 0, delta)  delta an automorphism of K moving nothing out of
                         the action kernel (k^-1 delta(k) acts trivially)

A, B and D are subgroups; C need not be closed.  An automorphism matrix m
whose diagonal entries are bijective factors as a product a*b*c*d with one
factor from each family, read off m and its H-side determinant (a block LDU,
or Schur-complement, factorization):

    a = (det_H(m), 0; 0, 1)          b = (1, det_H(m)^-1 beta delta^-1; 0, 1)
    c = (1, 0; gamma, 1)             d = (1, 0; 0, delta)

Multiplying out a product p = a*b*c*d gives gamma_p = gamma_c,
delta_p = delta_d, beta_p = alpha_a beta_b delta_d and, as alpha_a is a
homomorphism, det_H(p) = alpha_a.  So m = a*b*c*d forces the four factors
above: they exist exactly when these four matrices land in their families,
and then they are unique.
"""

from __future__ import annotations

from dataclasses import dataclass

from .determinant import det_h
from .errors import PreconditionFailed, VerificationFailed
from .maps import identity_map, is_crossed_hom, map_compose, map_inverse
from .matrices import EndoMatrix, identity_matrix, is_automorphism_matrix, mat_mul

__all__ = [
    "SubsetTag",
    "ABCDFactors",
    "classify",
    "unit_diagonal_a_factor",
    "unit_diagonal_b_factor",
    "factor_abcd",
]


@dataclass(frozen=True)
class SubsetTag:
    """Membership of a matrix in each family, with first-failure witnesses.

    ``witnesses`` maps a family letter to a short tuple describing why the
    matrix is not in that family; families the matrix belongs to are absent.
    """

    in_a: bool
    in_b: bool
    in_c: bool
    in_d: bool
    witnesses: dict[str, tuple]


@dataclass(frozen=True)
class ABCDFactors:
    """An ordered factorization m = a * b * c * d."""

    a: EndoMatrix
    b: EndoMatrix
    c: EndoMatrix
    d: EndoMatrix

    def product(self) -> EndoMatrix:
        return mat_mul(self.a, mat_mul(self.b, mat_mul(self.c, self.d)))


def _is_identity(phi) -> bool:
    return phi.image == tuple(range(phi.dom.order))


def _is_zero(phi) -> bool:
    return all(v == phi.cod.identity for v in phi.image)


def classify(matrix: EndoMatrix) -> SubsetTag:
    """Evaluate the four family predicates on a condition-satisfying matrix."""
    P = matrix.context
    H, K, act = P.H, P.K, P.action
    alpha, beta, gamma, delta = matrix.entries()
    witnesses: dict[str, tuple] = {}

    def shape_witness(family: str, want_alpha_id: bool, want_delta_id: bool) -> tuple | None:
        if want_alpha_id and not _is_identity(alpha):
            return ("alpha_not_identity",)
        if not _is_zero(beta) and family != "B":
            return ("beta_not_zero",)
        if not _is_zero(gamma) and family != "C":
            return ("gamma_not_zero",)
        if want_delta_id and not _is_identity(delta):
            return ("delta_not_identity",)
        return None

    # A: bijective homomorphism alpha commuting with every action map.
    w = shape_witness("A", want_alpha_id=False, want_delta_id=True)
    if w is None and not (alpha.is_hom and alpha.is_bijective):
        w = ("alpha_not_automorphism",)
    if w is None:
        rows = act.images
        a = alpha.image
        w = next(
            (
                ("alpha_action", h, k)
                for h in range(H.order)
                for k in range(K.order)
                if a[rows[k][h]] != rows[k][a[h]]
            ),
            None,
        )
    in_a = w is None
    if w is not None:
        witnesses["A"] = w

    # B: crossed homomorphism with image inside the center of H.
    w = shape_witness("B", want_alpha_id=True, want_delta_id=True)
    if w is None and not is_crossed_hom(beta, identity_map(K), act):
        w = ("beta_not_crossed_hom",)
    if w is None:
        zh = H.center
        w = next(
            (("beta_not_central", k, beta.image[k]) for k in range(K.order) if beta.image[k] not in zh),
            None,
        )
    in_b = w is None
    if w is not None:
        witnesses["B"] = w

    # C: homomorphism gamma into the action kernel, compatible with conjugation.
    w = shape_witness("C", want_alpha_id=True, want_delta_id=True)
    if w is None and not gamma.is_hom:
        w = ("gamma_not_hom",)
    if w is None:
        kernel = act.kernel
        g = gamma.image
        w = next(
            (("gamma_not_in_kernel", h, g[h]) for h in range(H.order) if g[h] not in kernel),
            None,
        )
        if w is None:
            kt, kinv = K.table, K.inverses
            rows = act.images
            w = next(
                (
                    ("gamma_action", h, k)
                    for h in range(H.order)
                    for k in range(K.order)
                    if g[rows[k][h]] != kt[kt[k][g[h]]][kinv[k]]
                ),
                None,
            )
    in_c = w is None
    if w is not None:
        witnesses["C"] = w

    # D: automorphism delta with k^-1 delta(k) in the action kernel.
    w = shape_witness("D", want_alpha_id=True, want_delta_id=False)
    if w is None and not (delta.is_hom and delta.is_bijective):
        w = ("delta_not_automorphism",)
    if w is None:
        kernel = act.kernel
        kt, kinv = K.table, K.inverses
        d = delta.image
        w = next(
            (("delta_displacement", k, kt[kinv[k]][d[k]]) for k in range(K.order) if kt[kinv[k]][d[k]] not in kernel),
            None,
        )
    in_d = w is None
    if w is not None:
        witnesses["D"] = w

    return SubsetTag(in_a=in_a, in_b=in_b, in_c=in_c, in_d=in_d, witnesses=witnesses)


def _require_unit_diagonal_auto(matrix: EndoMatrix) -> None:
    if not (_is_identity(matrix.alpha) and _is_identity(matrix.delta)):
        raise PreconditionFailed("matrix must have identity diagonal entries")
    if not is_automorphism_matrix(matrix):
        raise PreconditionFailed("unit-diagonal matrix does not describe an automorphism")


def unit_diagonal_a_factor(matrix: EndoMatrix) -> EndoMatrix:
    """From a unit-diagonal automorphism matrix (1, beta; gamma, 1), the A-part.

    Returns (1 - beta gamma, 0; 0, 1), which is (det_H, 0; 0, 1) as delta = 1,
    and verifies it lands in family A.
    """
    _require_unit_diagonal_auto(matrix)
    result = identity_matrix(matrix.context, alpha=det_h(matrix))
    tag = classify(result)
    if not tag.in_a:
        raise VerificationFailed("A-part of unit-diagonal reduction", tag.witnesses.get("A"))
    return result


def unit_diagonal_b_factor(matrix: EndoMatrix) -> EndoMatrix:
    """From a unit-diagonal automorphism matrix, the B-part of its reduction.

    Returns (1, (1 - beta gamma)^-1 beta; 0, 1).  The crossed-homomorphism
    law is verified here; centrality of the image is a separate stronger
    property that callers check via :func:`classify` and report.
    """
    _require_unit_diagonal_auto(matrix)
    P = matrix.context
    a0 = det_h(matrix)
    if not a0.is_bijective:
        raise VerificationFailed("bijectivity of 1 - beta gamma", tuple(a0.image))
    b0 = map_compose(map_inverse(a0), matrix.beta)
    result = identity_matrix(P, beta=b0)
    if not is_crossed_hom(b0, identity_map(P.K), P.action):
        raise VerificationFailed("crossed-homomorphism law of the B-part", tuple(b0.image))
    return result


def _certified(letter: str, factor: EndoMatrix) -> EndoMatrix:
    if letter in classify(factor).witnesses:
        raise VerificationFailed(f"{letter}-factor membership", factor.key())
    return factor


def factor_abcd(matrix: EndoMatrix) -> ABCDFactors:
    """Factor an automorphism matrix with bijective diagonal as a*b*c*d.

    The four factors are read off the matrix and :func:`det_h` (see the
    module docstring).  Each family membership is verified, in the order
    A, B, C, D, and then the reassembly, before returning.
    """
    if not is_automorphism_matrix(matrix):
        raise PreconditionFailed("only automorphism matrices factor")
    if not (matrix.alpha.is_bijective and matrix.delta.is_bijective):
        raise PreconditionFailed("factorization requires bijective alpha and delta")
    P = matrix.context
    dh = det_h(matrix)
    # A-membership makes det_H bijective, so b can be built only after it.
    a = _certified("A", identity_matrix(P, alpha=dh))
    beta_b = map_compose(map_inverse(dh), map_compose(matrix.beta, map_inverse(matrix.delta)))
    factors = ABCDFactors(
        a=a,
        b=_certified("B", identity_matrix(P, beta=beta_b)),
        c=_certified("C", identity_matrix(P, gamma=matrix.gamma)),
        d=_certified("D", identity_matrix(P, delta=matrix.delta)),
    )
    if factors.product() != matrix:
        raise VerificationFailed("factor reassembly", matrix.key())
    return factors
