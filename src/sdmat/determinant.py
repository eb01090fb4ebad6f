"""Determinant maps for matrices over a semidirect product.

A matrix (alpha beta; gamma delta) has two Schur-complement style
determinants, one valued in each factor:

    det_K = -gamma alpha^-1 beta + delta     (needs alpha bijective)
    det_H = alpha - beta delta^-1 gamma      (needs delta bijective)

Each is a plain set map, and :func:`det_k` and :func:`det_h` return that
map itself: its ``is_bijective`` decides invertibility of the whole
matrix, and for invertible matrices its ``is_hom`` turns out to hold.
Each determinant D gives a closed-form inverse, and the two are mirror
images:

    K side, D = det_K                           H side, D = det_H
    alpha' = alpha^-1 - alpha^-1 beta gamma'    alpha' = D^-1
    beta'  = -alpha^-1 beta D^-1                beta'  = D^-1 (-beta delta^-1)
    gamma' = D^-1 (-gamma alpha^-1)             gamma' = -delta^-1 gamma D^-1
    delta' = D^-1                               delta' = -(delta^-1 gamma beta') + delta^-1

An invertible matrix has one inverse, so when both sides apply the
combined form takes one column from each, and each determinant's inverse
can be read off the other side's diagonal (the duality).

:func:`is_invertible` is the one place that chooses a route: ``det_k`` when
alpha is bijective, else ``det_h`` when delta is bijective, else ``brute``,
bijectivity of the described endomorphism.  It returns the inverse from the
route it chose; ``sdmat det`` also reads the determinant that route built,
so that each determinant is built once.  Every precondition of this module
is a map that is not bijective, and each raises PreconditionFailed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionFailed, VerificationFailed
from .maps import FMap, identity_map, map_add, map_compose, map_inverse, map_neg
from .matrices import EndoMatrix, endo_to_matrix, is_automorphism_matrix, matrix_to_endo

__all__ = [
    "InvertibilityResult",
    "det_k",
    "det_h",
    "invert_via_det_k",
    "invert_via_det_h",
    "is_invertible",
    "dual_det_inverses",
    "invert_combined",
]


class InvertibilityResult(NamedTuple):
    invertible: bool
    method: str  # the route: "det_k", "det_h" or "brute" (bijectivity of theta)
    inverse: EndoMatrix | None  # from the chosen route; None when not invertible


def det_k(matrix: EndoMatrix) -> FMap:
    """K-valued determinant: k -> gamma(alpha^-1(beta(k)))^-1 * delta(k)."""
    if not matrix.alpha.is_bijective:
        raise PreconditionFailed("alpha must be bijective to form the K-side determinant")
    ainv = map_inverse(matrix.alpha)
    return map_add(map_neg(map_compose(matrix.gamma, map_compose(ainv, matrix.beta))), matrix.delta)


def det_h(matrix: EndoMatrix) -> FMap:
    """H-valued determinant: h -> alpha(h) * beta(delta^-1(gamma(h)))^-1."""
    if not matrix.delta.is_bijective:
        raise PreconditionFailed("delta must be bijective to form the H-side determinant")
    dinv = map_inverse(matrix.delta)
    return map_add(matrix.alpha, map_neg(map_compose(matrix.beta, map_compose(dinv, matrix.gamma))))


def invert_via_det_k(matrix: EndoMatrix) -> EndoMatrix:
    """Closed-form inverse from the K-side determinant.

    With D = det_k bijective the inverse matrix is

        ( alpha^-1 - alpha^-1 beta gamma',  -alpha^-1 beta D^-1 )
        ( gamma' = D^-1 (-gamma alpha^-1),   D^-1               )

    Raises PreconditionFailed when alpha or D is not bijective.
    """
    return _inverse_via_det_k(matrix, det_k(matrix))


def _inverse_via_det_k(matrix: EndoMatrix, dk: FMap) -> EndoMatrix:
    """:func:`invert_via_det_k` given ``dk = det_k(matrix)``."""
    if not dk.is_bijective:
        raise PreconditionFailed("the K-side determinant is not bijective")
    ainv = map_inverse(matrix.alpha)
    dkinv = map_inverse(dk)
    gprime = map_compose(dkinv, map_neg(map_compose(matrix.gamma, ainv)))
    bprime = map_neg(map_compose(ainv, map_compose(matrix.beta, dkinv)))
    aprime = map_add(ainv, map_neg(map_compose(ainv, map_compose(matrix.beta, gprime))))
    return EndoMatrix(alpha=aprime, beta=bprime, gamma=gprime, delta=dkinv, context=matrix.context)


def invert_via_det_h(matrix: EndoMatrix) -> EndoMatrix:
    """Closed-form inverse from the H-side determinant.

    With D = det_h bijective the inverse matrix is

        ( D^-1,                   beta' = D^-1 (-beta delta^-1)      )
        ( -delta^-1 gamma D^-1,   -(delta^-1 gamma beta') + delta^-1 )

    the mirror image of :func:`invert_via_det_k`.  Raises PreconditionFailed
    when delta or D is not bijective.
    """
    return _inverse_via_det_h(matrix, det_h(matrix))


def _inverse_via_det_h(matrix: EndoMatrix, dh: FMap) -> EndoMatrix:
    """:func:`invert_via_det_h` given ``dh = det_h(matrix)``."""
    if not dh.is_bijective:
        raise PreconditionFailed("the H-side determinant is not bijective")
    dinv = map_inverse(matrix.delta)
    dhinv = map_inverse(dh)
    bprime = map_compose(dhinv, map_neg(map_compose(matrix.beta, dinv)))
    gprime = map_neg(map_compose(dinv, map_compose(matrix.gamma, dhinv)))
    dprime = map_add(map_neg(map_compose(dinv, map_compose(matrix.gamma, bprime))), dinv)
    return EndoMatrix(alpha=dhinv, beta=bprime, gamma=gprime, delta=dprime, context=matrix.context)


def is_invertible(matrix: EndoMatrix) -> InvertibilityResult:
    """Decide invertibility and invert, preferring determinant criteria over brute force.

    Uses det_k when alpha is bijective, else det_h when delta is bijective,
    else falls back to bijectivity of the described endomorphism.  The
    inverse comes from the same route: the closed form of that side, or the
    inverse of the endomorphism's image table.
    """
    return _decide(matrix)[0]


def _decide(matrix: EndoMatrix) -> tuple[InvertibilityResult, FMap | None]:
    """:func:`is_invertible` and the determinant its route built, None on the brute route.

    The result does not carry the determinant, so that callers who keep
    results, such as ``verify`` for every matrix, do not keep it too.
    """
    if matrix.alpha.is_bijective:
        method, det, invert = "det_k", det_k(matrix), _inverse_via_det_k
    elif matrix.delta.is_bijective:
        method, det, invert = "det_h", det_h(matrix), _inverse_via_det_h
    else:
        theta = matrix_to_endo(matrix)
        if not theta.is_bijective:
            return InvertibilityResult(False, "brute", None), None
        inverse = endo_to_matrix(map_inverse(theta), matrix.context)
        return InvertibilityResult(True, "brute", inverse), None
    if not det.is_bijective:
        return InvertibilityResult(False, method, None), det
    return InvertibilityResult(True, method, invert(matrix, det)), det


def _require_automorphism_with_bijective_diagonal(matrix: EndoMatrix) -> None:
    if not is_automorphism_matrix(matrix):
        raise PreconditionFailed("matrix does not describe an automorphism")
    if not matrix.alpha.is_bijective:
        raise PreconditionFailed("alpha is not bijective")
    if not matrix.delta.is_bijective:
        raise PreconditionFailed("delta is not bijective")


def dual_det_inverses(matrix: EndoMatrix) -> tuple[FMap, FMap]:
    """Each determinant's inverse expressed through the other determinant.

    For an automorphism matrix with bijective diagonal the two determinants
    are bijective together, and the inverse matrix has det_h^-1 as alpha'
    and det_k^-1 as delta'.  So det_h^-1 is read off the K-side inverse
    (through det_k) and det_k^-1 off the H-side inverse (through det_h).

    Both results are verified to compose with their determinant to the
    identity on both sides before being returned.
    """
    _require_automorphism_with_bijective_diagonal(matrix)
    dh = det_h(matrix)
    dk = det_k(matrix)
    if not dh.is_bijective and not dk.is_bijective:
        raise PreconditionFailed("neither determinant is bijective")
    if not dh.is_bijective or not dk.is_bijective:
        # The duality theorem says this cannot happen; surface it loudly.
        raise VerificationFailed(
            "determinant bijectivity duality",
            (dh.is_bijective, dk.is_bijective),
        )
    via_k = invert_via_det_k(matrix).alpha
    via_h = invert_via_det_h(matrix).delta
    id_h = identity_map(matrix.context.H)
    id_k = identity_map(matrix.context.K)
    if map_compose(via_k, dh) != id_h or map_compose(dh, via_k) != id_h:
        raise VerificationFailed("H-side determinant inverse identity", tuple(via_k.image))
    if map_compose(via_h, dk) != id_k or map_compose(dk, via_h) != id_k:
        raise VerificationFailed("K-side determinant inverse identity", tuple(via_h.image))
    return via_k, via_h


def invert_combined(matrix: EndoMatrix) -> EndoMatrix:
    """Inverse built from both determinants at once:

        ( det_h^-1,                    -alpha^-1 beta det_k^-1 )
        ( -delta^-1 gamma det_h^-1,     det_k^-1               )

    that is, the left column of the H-side inverse next to the right column
    of the K-side inverse.  Requires an automorphism matrix with bijective
    diagonal entries and both determinants bijective.
    """
    _require_automorphism_with_bijective_diagonal(matrix)
    via_k = invert_via_det_k(matrix)
    via_h = invert_via_det_h(matrix)
    return EndoMatrix(
        alpha=via_h.alpha,
        beta=via_k.beta,
        gamma=via_h.gamma,
        delta=via_k.delta,
        context=matrix.context,
    )
