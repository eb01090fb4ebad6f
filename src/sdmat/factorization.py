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

Each family has its own predicate, and :func:`classify` is the four of
them; a factor is certified against its own family only.  Two of the
predicates range over all pairs (h, k) of H x K, and like the matrix
conditions 3 and 4 (:mod:`sdmat.matrices`) they are decided on the pairs
S_H x S_K of the kept generators, once the entry they constrain is a
homomorphism:

    A   alpha(f_k h) = f_k(alpha h)            alpha a homomorphism
    C   gamma(f_k h) = k gamma(h) k^-1          gamma a homomorphism

For a fixed k both sides are homomorphisms in h (alpha after f_k and f_k
after alpha; gamma after f_k and conjugation by k after gamma), so the h
where they agree form a subgroup, generated by S_H.  The k for which it
holds for every h contain e and are closed under products, as the rows
compose like K:

    alpha f_kk' = alpha f_k f_k' = f_k alpha f_k' = f_k f_k' alpha = f_kk' alpha
    gamma f_kk' = gamma f_k f_k' = k (gamma f_k') k^-1 = kk' gamma (kk')^-1

(the last with conjugation applied pointwise), so S_K suffices.  Only a
failure on the generator pairs is followed by the full scan, h outermost,
which names the first witness.

Only automorphism matrices factor.  :func:`factor_abcd` and the
unit-diagonal factors decide that on the route of
``determinant.is_invertible``, through the helper
``determinant._decide_invertible`` that builds no inverse: it takes the
bijectivity of det_K when alpha is bijective, of det_H when delta is, and
of the described endomorphism otherwise, and each of these reads the
verdict kept on the matrix for its conditions (ConditionsViolated when
they fail).  A matrix with bijective alpha or delta is thus decided from
its four entries, and the product group is built only for one with
neither, which does not factor anyway.  The certification does not rest on that
decision: every member of the four families is an automorphism matrix
(each entry it constrains makes the six conditions hold, and its
endomorphism is bijective), and matrix products compose endomorphisms, so
a product a*b*c*d that equals m proves m an automorphism.

The reassembly is compared as image tables, and no product matrix is
built: the entry formula (``matrices._product_images``) takes c*d from
the tables of c and d, then b*(c*d) from the tables of b and of c*d, then
a*(b*(c*d)), and the last four tables must be m's key.  Each step is the
entry formula on the right factor's own columns, exactly what ``mat_mul``
computes, so the comparison is that of ``ABCDFactors.product()`` with m.

Six of these values depend only on the action and the image tables of one
to three maps: the family witness of each of a, b, c and d, the tables of
c*d on (gamma, delta), and the tables of b*(c*d) on (b0, gamma, delta),
with b0 the B-factor's entry.  Each factor is the identity matrix but for
its family's entry: det_H(m) for A, b0 = det_H(m)^-1 beta delta^-1 for B,
gamma for C and delta for D.  Each factor takes its other three entries
from the identity entries kept per product
(``matrices._identity_entries``), and ``_shape_witness`` compares each
table with those entries' tables, so neither builds an identity table.
Its witness reads the action and that entry only: the other three entries
are the identity matrix's, so ``_shape_witness`` passes them, and the
B-witness twists its crossed law by delta = 1.  So equal entry tables give
equal witnesses.  Likewise c*d is the entry formula over the action with
c's and d's tables, which are gamma's and delta's and the identity's, and
b*(c*d) is the formula with b's tables, which are b0's and the identity's,
on those of c*d.  Each value is kept on the action object, keyed by the
family letter (or "cd", "bcd") and the tables (``maps.kept``), and
computed on the first call that needs it; many automorphisms share a
det_H, a B-entry, a gamma or a delta.  :func:`unit_diagonal_a_factor`
reads the same kept A-witness.  Only tables are kept there, never a
matrix, which refers to its product and so to the action.  Every call
still builds its own four factors and forms its own last product
a*(b*(c*d)), compared with m's key, so a factor that is wrong for one
matrix, even one whose table is a member's, fails that matrix's
reassembly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .determinant import _decide_invertible, det_h
from .errors import PreconditionFailed, VerificationFailed
from .maps import FMap, _trusted, is_crossed_hom, kept, map_inverse
from .matrices import (
    EndoMatrix,
    _identity_entries,
    _product_images,
    first_pair_witness,
    identity_matrix,
    mat_mul,
)

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


def _shape_witness(matrix: EndoMatrix, free: str) -> tuple | None:
    """The first entry of ``matrix``, other than ``free``, that differs from the identity matrix's.

    Each table is compared with that of the product's kept identity entry
    (``matrices._identity_entries``), so no table is built.
    """
    one_h, zero_kh, zero_hk, one_k = _identity_entries(matrix.context)
    a, b, g, d = matrix.key()
    if free != "alpha" and a != one_h.image:
        return ("alpha_not_identity",)
    if free != "beta" and b != zero_kh.image:
        return ("beta_not_zero",)
    if free != "gamma" and g != zero_hk.image:
        return ("gamma_not_zero",)
    if free != "delta" and d != one_k.image:
        return ("delta_not_identity",)
    return None


def _a_witness(matrix: EndoMatrix) -> tuple | None:
    """A: bijective homomorphism alpha commuting with every action map."""
    w = _shape_witness(matrix, "alpha")
    if w is not None:
        return w
    alpha = matrix.alpha
    if not (alpha.is_hom and alpha.is_bijective):
        return ("alpha_not_automorphism",)
    act = matrix.context.action
    rows, a = act.images, alpha.image

    def scan(hs, ks):
        return next((("alpha_action", h, k) for h in hs for k in ks if a[rows[k][h]] != rows[k][a[h]]), None)

    return first_pair_witness(scan, act, True)


def _b_witness(matrix: EndoMatrix) -> tuple | None:
    """B: crossed homomorphism with image inside the center of H."""
    w = _shape_witness(matrix, "beta")
    if w is not None:
        return w
    P = matrix.context
    beta = matrix.beta
    # The shape is checked, so delta is the identity of K.
    if not is_crossed_hom(beta, matrix.delta, P.action):
        return ("beta_not_crossed_hom",)
    zh = P.H.center
    return next((("beta_not_central", k, b) for k, b in enumerate(beta.image) if b not in zh), None)


def _c_witness(matrix: EndoMatrix) -> tuple | None:
    """C: homomorphism gamma into the action kernel, compatible with conjugation."""
    w = _shape_witness(matrix, "gamma")
    if w is not None:
        return w
    gamma = matrix.gamma
    if not gamma.is_hom:
        return ("gamma_not_hom",)
    P = matrix.context
    act = P.action
    kernel = act.kernel
    g = gamma.image
    w = next((("gamma_not_in_kernel", h, gh) for h, gh in enumerate(g) if gh not in kernel), None)
    if w is not None:
        return w
    kt, kinv, rows = P.K.table, P.K.inverses, act.images

    def scan(hs, ks):
        return next(
            (("gamma_action", h, k) for h in hs for k in ks if g[rows[k][h]] != kt[kt[k][g[h]]][kinv[k]]), None
        )

    return first_pair_witness(scan, act, True)


def _d_witness(matrix: EndoMatrix) -> tuple | None:
    """D: automorphism delta with k^-1 delta(k) in the action kernel."""
    w = _shape_witness(matrix, "delta")
    if w is not None:
        return w
    delta = matrix.delta
    if not (delta.is_hom and delta.is_bijective):
        return ("delta_not_automorphism",)
    P = matrix.context
    kernel = P.action.kernel
    kt, kinv = P.K.table, P.K.inverses
    displacements = (("delta_displacement", k, kt[kinv[k]][dk]) for k, dk in enumerate(delta.image))
    return next((w for w in displacements if w[2] not in kernel), None)


_FAMILY_WITNESSES = {"A": _a_witness, "B": _b_witness, "C": _c_witness, "D": _d_witness}


def classify(matrix: EndoMatrix) -> SubsetTag:
    """Evaluate the four family predicates on a condition-satisfying matrix."""
    witnesses = {letter: w for letter, family in _FAMILY_WITNESSES.items() if (w := family(matrix)) is not None}
    return SubsetTag(*(letter not in witnesses for letter in "ABCD"), witnesses=witnesses)


def _require_unit_diagonal_auto(matrix: EndoMatrix) -> None:
    one_h, _, _, one_k = _identity_entries(matrix.context)
    if not (matrix.alpha.image == one_h.image and matrix.delta.image == one_k.image):
        raise PreconditionFailed("matrix must have identity diagonal entries")
    if not _decide_invertible(matrix)[0]:
        raise PreconditionFailed("unit-diagonal matrix does not describe an automorphism")


def unit_diagonal_a_factor(matrix: EndoMatrix) -> EndoMatrix:
    """From a unit-diagonal automorphism matrix (1, beta; gamma, 1), the A-part.

    Returns (1 - beta gamma, 0; 0, 1), which is (det_H, 0; 0, 1) as delta = 1,
    and verifies it lands in family A.
    """
    _require_unit_diagonal_auto(matrix)
    result = identity_matrix(matrix.context, alpha=det_h(matrix))
    w = _kept_witness("A", result)
    if w is not None:
        raise VerificationFailed("A-part of unit-diagonal reduction", w)
    return result


def _b_entry(dh: FMap, matrix: EndoMatrix) -> FMap:
    """The B-factor's entry det_H(m)^-1 beta delta^-1, for bijective ``dh`` = det_H(m) and delta.

    One pass, k -> dh^-1(beta(delta^-1 k)): a gather from a table of H, one
    entry per element of K, so its FMap is built unchecked (``maps._trusted``).
    """
    P = matrix.context
    hi, b, dinv = map_inverse(dh).image, matrix.beta.image, map_inverse(matrix.delta).image
    return _trusted(P.K, P.H, tuple([hi[b[x]] for x in dinv]))


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
    b0 = _b_entry(a0, matrix)
    result = identity_matrix(P, beta=b0)
    if not is_crossed_hom(b0, result.delta, P.action):
        raise VerificationFailed("crossed-homomorphism law of the B-part", tuple(b0.image))
    return result


def _kept_witness(letter: str, factor: EndoMatrix) -> tuple | None:
    """The family ``letter`` witness of ``factor``, the identity matrix but for that family's entry.

    Such a witness depends only on the action and that entry's image table,
    so it is kept on the action under (letter, table) (module docstring).
    """
    table = factor.key()["ABCD".index(letter)]  # A, B, C and D free alpha, beta, gamma and delta
    return kept(factor.context.action, (letter, table), lambda: _FAMILY_WITNESSES[letter](factor))


def _certified(letter: str, factor: EndoMatrix) -> EndoMatrix:
    """``factor``, if :func:`_kept_witness` puts it in family ``letter``; VerificationFailed otherwise."""
    if _kept_witness(letter, factor) is not None:
        raise VerificationFailed(f"{letter}-factor membership", factor.key())
    return factor


def factor_abcd(matrix: EndoMatrix) -> ABCDFactors:
    """Factor an automorphism matrix with bijective diagonal as a*b*c*d.

    Raises ConditionsViolated for a matrix that fails its conditions, and
    PreconditionFailed for one that is no automorphism, decided on the
    route of :func:`~sdmat.determinant.is_invertible` without building its
    inverse, or has a diagonal entry that is not bijective.  The four
    factors are read off the matrix and :func:`det_h` (see the module
    docstring).  Each family membership is verified, in the order A, B, C,
    D, and then the reassembly, before returning.
    """
    invertible, _ = _decide_invertible(matrix)
    if not invertible:
        raise PreconditionFailed("only automorphism matrices factor")
    if not (matrix.alpha.is_bijective and matrix.delta.is_bijective):
        raise PreconditionFailed("factorization requires bijective alpha and delta")
    P = matrix.context
    one_h, zero_kh, zero_hk, one_k = _identity_entries(P)
    g, d = matrix.gamma.image, matrix.delta.image
    dh = det_h(matrix)
    # A-membership makes det_H bijective, so b can be built only after it.
    a = _certified("A", EndoMatrix(dh, zero_kh, zero_hk, one_k, P))
    factors = ABCDFactors(
        a=a,
        b=_certified("B", EndoMatrix(one_h, _b_entry(dh, matrix), zero_hk, one_k, P)),
        c=_certified("C", EndoMatrix(one_h, zero_kh, matrix.gamma, one_k, P)),
        d=_certified("D", EndoMatrix(one_h, zero_kh, zero_hk, matrix.delta, P)),
    )
    # a*(b*(c*d)) as image tables, each product's tables the columns of the next.
    cd = kept(P.action, ("cd", g, d), lambda: _product_images(factors.c, *factors.d.key()))
    b0 = factors.b.beta.image
    bcd = kept(P.action, ("bcd", b0, g, d), lambda: _product_images(factors.b, *cd))
    if _product_images(a, *bcd) != matrix.key():
        raise VerificationFailed("factor reassembly", matrix.key())
    return factors
