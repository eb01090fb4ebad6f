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

Both determinants read the matrix's kept verdict on its conditions
(``matrices.check_conditions``) and raise ConditionsViolated on a matrix
that fails them, as ``matrix_to_endo`` does, so every function of this
module refuses such a matrix.  ``_decide_invertible`` is the one place
that chooses a route: ``det_k`` when alpha is bijective, else ``det_h``
when delta is bijective, else ``brute``, bijectivity of the described
endomorphism.  :func:`is_invertible` adds the inverse of that route; the
helper alone decides "is an automorphism" for ``dual_det_inverses``,
``invert_combined``, ``factorization.factor_abcd`` and the unit-diagonal
factors, so it builds no inverse, and with alpha bijective no product
group.  Both determinants and both closed-form inverses are built on the
first call and kept on the matrix object (``maps.memo``), so the inverse
``is_invertible`` returns is the one :func:`invert_via_det_k` or
:func:`invert_via_det_h` returns, and no caller passes them along.  A map
that must be bijective and is not raises PreconditionFailed, on every
call.

A determinant is a map K -> K or H -> H, so many matrices share one, and
each is one object per product and table: the product keeps every
determinant built on it, keyed by its group and image table
(``_determinants``), and a matrix whose determinant table is one seen
before gets that map.  So a determinant's ``is_hom``, ``is_bijective`` and
``maps.map_inverse`` are decided once per distinct table, not once per
matrix.  Sharing changes no result: each of the three is a function of
the map's domain, codomain and image table alone, and the shared map has
the same three as the one it stands for, its domain and codomain being
the product's own K or H.  The store lives and dies with its product, so
no table crosses products.  The closed-form inverses are built per matrix,
and each is certified on its own matrix.

Each closed form certifies its inverse before returning it: it forms
m * inv with the product's entry formula on inv's image tables
(``matrices._product_images``), with no matrix built, and raises
VerificationFailed("two-sided inverse law") unless the four tables are
the identity matrix's.  One product is enough.  m meets its conditions,
so its entry formula at a column (x; y) is theta_m(x, y), for theta_m the
endomorphism m describes (``matrices`` docstring).  m * inv = 1 says that
theta_m sends inv's columns to (h, e) and (e, k) for every h and k, so
theta_m's image, a subgroup, contains both embedded copies and is all of
G: theta_m is onto, and so bijective, G being finite.  inv's columns are
then theta_m^-1 at (h, e) and (e, k), so inv is the matrix of the
endomorphism theta_m^-1, and inv * m = 1 as well.  The key of the
certified inverse is kept on m (``maps.memo``), so the other closed form,
which gives the same inverse, costs only a comparison of keys.

The certificate also proves the K side's rearranged inverse identity
gamma alpha^-1 beta D^-1 + 1 = delta D^-1, for D = det_K, so nothing
checks it again.  The delta table of m * inv at k is
gamma(beta'(k)) * delta(D^-1(k)), and the certificate says it is k.
beta'(k) is (alpha^-1 beta D^-1 k)^-1 and gamma is a homomorphism, so
gamma(beta'(k)) = (gamma alpha^-1 beta D^-1 k)^-1, and the certified table
reads delta(D^-1(k)) = (gamma alpha^-1 beta D^-1 k) * k: the rearranged
identity at k.  D^-1 o D = 1 holds because that is how ``maps.map_inverse`` builds
D^-1.

The formulas are evaluated on the image tables of the entries, in one
pass per returned entry: each point of the result is one chain of table
lookups, and each pointwise product keeps the formula's order
(-gamma alpha^-1 beta + delta at k is ``kt[kinv[g[ainv[b[k]]]]][d[k]]``).
Each returned entry is one map, built unchecked (``maps._trusted``), as
every chain ends in a table of the entry's codomain; no intermediate map
is built.  The checks of these results do not reuse these passes: the
certificate evaluates the product's entry formula, and
:func:`dual_det_inverses` compares each diagonal entry with the inverse
of the other determinant (``maps.map_inverse``).  ``sdmat.verify`` then
compares each certified inverse with the oracle's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionFailed, VerificationFailed
from .groups import FiniteGroup
from .maps import FMap, _trusted, map_inverse, memo
from .matrices import (
    EndoMatrix,
    _identity_entries,
    _product_images,
    _require_conditions,
    endo_to_matrix,
    matrix_to_endo,
)
from .semidirect import SdProduct

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


@memo
def _determinants(product: SdProduct) -> dict[tuple, FMap]:
    """Every determinant built on ``product``, keyed by its group (H or K) and image table (module docstring)."""
    return {}


def _shared(product: SdProduct, group: FiniteGroup, image: tuple[int, ...]) -> FMap:
    """The one determinant of ``product`` valued in ``group`` with image table ``image``."""
    kept = _determinants(product)
    det = kept.get((group, image))
    if det is None:
        det = kept[group, image] = _trusted(group, group, image)
    return det


@memo
def det_k(matrix: EndoMatrix) -> FMap:
    """K-valued determinant: k -> gamma(alpha^-1(beta(k)))^-1 * delta(k)."""
    _require_conditions(matrix)
    if not matrix.alpha.is_bijective:
        raise PreconditionFailed("alpha must be bijective to form the K-side determinant")
    P = matrix.context
    kt, kinv = P.K.table, P.K.inverses
    ainv = map_inverse(matrix.alpha).image
    _, b, g, d = matrix.key()
    return _shared(P, P.K, tuple([kt[kinv[g[ainv[b[k]]]]][d[k]] for k in range(P.K.order)]))


@memo
def det_h(matrix: EndoMatrix) -> FMap:
    """H-valued determinant: h -> alpha(h) * beta(delta^-1(gamma(h)))^-1."""
    _require_conditions(matrix)
    if not matrix.delta.is_bijective:
        raise PreconditionFailed("delta must be bijective to form the H-side determinant")
    P = matrix.context
    ht, hinv = P.H.table, P.H.inverses
    dinv = map_inverse(matrix.delta).image
    a, b, g, _ = matrix.key()
    return _shared(P, P.H, tuple([ht[a[h]][hinv[b[dinv[g[h]]]]] for h in range(P.H.order)]))


@memo
def _certified_key(matrix: EndoMatrix) -> tuple | None:
    """The key of the inverse :func:`_certify` has certified for ``matrix``; None until then."""
    return None


def _certify(matrix: EndoMatrix, inverse: EndoMatrix) -> EndoMatrix:
    """``inverse``, once ``matrix * inverse`` is the identity (module docstring); VerificationFailed otherwise."""
    key = inverse.key()
    if _certified_key(matrix) != key:
        if _product_images(matrix, *key) != tuple([e.image for e in _identity_entries(matrix.context)]):
            raise VerificationFailed("two-sided inverse law", matrix.key())
        _certified_key.record(matrix, key)
    return inverse


@memo
def invert_via_det_k(matrix: EndoMatrix) -> EndoMatrix:
    """Closed-form inverse from the K-side determinant.

    With D = det_k bijective the inverse matrix is

        ( alpha^-1 - alpha^-1 beta gamma',  -alpha^-1 beta D^-1 )
        ( gamma' = D^-1 (-gamma alpha^-1),   D^-1               )

    Raises PreconditionFailed when alpha or D is not bijective, and
    VerificationFailed when the result fails its certificate (module
    docstring).
    """
    dk = det_k(matrix)
    if not dk.is_bijective:
        raise PreconditionFailed("the K-side determinant is not bijective")
    P = matrix.context
    H, K = P.H, P.K
    ht, hinv, kinv = H.table, H.inverses, K.inverses
    ainv = map_inverse(matrix.alpha).image
    dkinv = map_inverse(dk)
    di = dkinv.image
    _, b, g, _ = matrix.key()
    gp = tuple([di[kinv[g[ainv[h]]]] for h in range(H.order)])
    bp = tuple([hinv[ainv[b[di[k]]]] for k in range(K.order)])
    ap = tuple([ht[ainv[h]][hinv[ainv[b[gp[h]]]]] for h in range(H.order)])
    inverse = EndoMatrix(
        alpha=_trusted(H, H, ap), beta=_trusted(K, H, bp), gamma=_trusted(H, K, gp), delta=dkinv, context=P
    )
    return _certify(matrix, inverse)


@memo
def invert_via_det_h(matrix: EndoMatrix) -> EndoMatrix:
    """Closed-form inverse from the H-side determinant.

    With D = det_h bijective the inverse matrix is

        ( D^-1,                   beta' = D^-1 (-beta delta^-1)      )
        ( -delta^-1 gamma D^-1,   -(delta^-1 gamma beta') + delta^-1 )

    the mirror image of :func:`invert_via_det_k`.  Raises PreconditionFailed
    when delta or D is not bijective, and VerificationFailed when the result
    fails its certificate.
    """
    dh = det_h(matrix)
    if not dh.is_bijective:
        raise PreconditionFailed("the H-side determinant is not bijective")
    P = matrix.context
    H, K = P.H, P.K
    hinv, kt, kinv = H.inverses, K.table, K.inverses
    dinv = map_inverse(matrix.delta).image
    dhinv = map_inverse(dh)
    hi = dhinv.image
    _, b, g, _ = matrix.key()
    bp = tuple([hi[hinv[b[dinv[k]]]] for k in range(K.order)])
    gp = tuple([kinv[dinv[g[hi[h]]]] for h in range(H.order)])
    dp = tuple([kt[kinv[dinv[g[bp[k]]]]][dinv[k]] for k in range(K.order)])
    inverse = EndoMatrix(
        alpha=dhinv, beta=_trusted(K, H, bp), gamma=_trusted(H, K, gp), delta=_trusted(K, K, dp), context=P
    )
    return _certify(matrix, inverse)


def _decide_invertible(matrix: EndoMatrix) -> tuple[bool, str]:
    """Whether the matrix is invertible, and the route that decided it.

    Reads the bijectivity of det_k when alpha is bijective, else of det_h
    when delta is bijective, else of the described endomorphism, so it
    raises ConditionsViolated, through that determinant or
    :func:`~sdmat.matrices.matrix_to_endo`, if the matrix fails its
    compatibility conditions.  No inverse is built.
    """
    if matrix.alpha.is_bijective:
        return det_k(matrix).is_bijective, "det_k"
    if matrix.delta.is_bijective:
        return det_h(matrix).is_bijective, "det_h"
    return matrix_to_endo(matrix).is_bijective, "brute"


def is_invertible(matrix: EndoMatrix) -> InvertibilityResult:
    """Decide invertibility and invert, preferring determinant criteria over brute force.

    The decision and its route are those of ``_decide_invertible``
    (ConditionsViolated on a matrix that fails its conditions).  The
    inverse comes from the same route: the certified closed form of that
    side, or the inverse of the endomorphism's image table.
    """
    invertible, method = _decide_invertible(matrix)
    if not invertible:
        return InvertibilityResult(False, method, None)
    if method == "det_k":
        inverse = invert_via_det_k(matrix)
    elif method == "det_h":
        inverse = invert_via_det_h(matrix)
    else:
        inverse = endo_to_matrix(map_inverse(matrix_to_endo(matrix)), matrix.context)
    return InvertibilityResult(True, method, inverse)


def _require_automorphism_with_bijective_diagonal(matrix: EndoMatrix) -> None:
    if not _decide_invertible(matrix)[0]:
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

    Each result is verified to be the inverse of its determinant before
    being returned.  The automorphism is decided through det_k, which is
    then bijective.
    """
    _require_automorphism_with_bijective_diagonal(matrix)
    dh = det_h(matrix)
    dk = det_k(matrix)
    if not dh.is_bijective:
        # The duality theorem says this cannot happen; surface it loudly.
        raise VerificationFailed(
            "determinant bijectivity duality",
            (dh.is_bijective, dk.is_bijective),
        )
    via_k = invert_via_det_k(matrix).alpha
    via_h = invert_via_det_h(matrix).delta
    if via_k != map_inverse(dh):
        raise VerificationFailed("H-side determinant inverse identity", tuple(via_k.image))
    if via_h != map_inverse(dk):
        raise VerificationFailed("K-side determinant inverse identity", tuple(via_h.image))
    return via_k, via_h


def invert_combined(matrix: EndoMatrix) -> EndoMatrix:
    """Inverse built from both determinants at once:

        ( det_h^-1,                    -alpha^-1 beta det_k^-1 )
        ( -delta^-1 gamma det_h^-1,     det_k^-1               )

    that is, the left column of the H-side inverse next to the right column
    of the K-side inverse.  Requires an automorphism matrix with bijective
    diagonal entries.  Both closed forms are certified, so they must be
    equal, and VerificationFailed("three-way inverse mismatch") is raised
    when they are not.
    """
    _require_automorphism_with_bijective_diagonal(matrix)
    via_k = invert_via_det_k(matrix)
    via_h = invert_via_det_h(matrix)
    if via_k != via_h:
        raise VerificationFailed("three-way inverse mismatch", matrix.key())
    return EndoMatrix(
        alpha=via_h.alpha,
        beta=via_k.beta,
        gamma=via_h.gamma,
        delta=via_k.delta,
        context=matrix.context,
    )
