"""Endomorphisms of a semidirect product as 2x2 matrices of maps.

An endomorphism theta of G = H x| K is determined by four maps read off the
embedded copies of H and K:

    theta(h, 1) = (alpha(h), gamma(h))      theta(1, k) = (beta(k), delta(k))

so theta corresponds to the matrix (alpha beta; gamma delta) with
alpha: H -> H, beta: K -> H, gamma: H -> K and delta: K -> K.  Such a
quadruple describes an endomorphism exactly when these six conditions hold:

    alpha_twisted_by_gamma   alpha(h h') = alpha(h) * f_{gamma(h)}(alpha(h'))
    beta_crossed_by_delta    beta(k k')  = beta(k)  * f_{delta(k)}(beta(k'))
    gamma_delta_intertwine   gamma(f_k(h)) delta(k) = delta(k) gamma(h)
    alpha_beta_compatible    alpha(f_k(h)) * f_{gamma(f_k(h))}(beta(k))
                                         = beta(k) * f_{delta(k)}(alpha(h))
    gamma_homomorphism       gamma(h h') = gamma(h) gamma(h')
    delta_endomorphism       delta(k k') = delta(k) delta(k')

Composition of endomorphisms then becomes a matrix product whose entries mix
map addition, composition and twisting, and the set of valid matrices is a
monoid under it.

A matrix is valid when all six hold, as decided here.  An endomorphism of
G is an FMap from G to itself.  :func:`check_conditions` takes the
conditions in the order of ``CONDITION_NAMES`` and returns the first that
fails as ``(name, witness)``, or None when all six hold.  That verdict is
a value of its matrix, like the determinants: decided on the first call
and kept on the matrix object (``maps.memo``).  Every later reader of the
same matrix reads it, and none decides it again: :func:`matrix_to_endo`
and the determinants ``determinant.det_k`` and ``det_h`` (and, through
them, the closed-form inverses and ``factorization.factor_abcd``) raise
ConditionsViolated on a failing verdict.  :func:`endo_to_matrix` checks
the conditions of the matrix it reads off.  All of them raise through one
helper, ``_require_conditions``.  matrix_to_endo then checks the
homomorphism law of the map it builds, once per matrix, whoever decided
the verdict.

Conditions 1, 2, 5 and 6 are laws of one map each, decided on the
generators of its domain (:mod:`sdmat.maps`).  Conditions 3 and 4 range
over all pairs (h, k) of H x K, and are decided on the pairs S_H x S_K of
the kept generators (``FiniteGroup.generators``).  Write

    A(h) = (alpha h, gamma h)        B(k) = (beta k, delta k)

for the images of the embedded copies.  Conditions 1 and 5 say that
A: H -> G is a homomorphism, conditions 2 and 6 the same of B: K -> G, and
conditions 3 and 4 at (h, k) are the K- and H-components of

    B(k) A(h) = A(f_k h) B(k),   i.e.   B(k) A(h) B(k)^-1 = A(f_k h).

When A and B are homomorphisms this holds for all pairs iff it holds on
S_H x S_K.  For a fixed k both sides are homomorphisms H -> G in h
(conjugation by B(k) after A, and A after the automorphism f_k), so the h
where they agree form a subgroup, and S_H generates it.  The k for which it holds
for every h contain e and are closed under products: if it holds for k
and k', then

    B(kk') A(h) B(kk')^-1 = B(k) B(k') A(h) B(k')^-1 B(k)^-1   (B a homomorphism)
                          = B(k) A(f_k' h) B(k)^-1             (it holds for k')
                          = A(f_k f_k' h) = A(f_kk' h)          (it holds for k; rows compose like K)

so they are all of K, as every element is a positive word in S_K.  The
same argument, with the K-components alone and gamma and delta
homomorphisms, decides condition 3 on S_H x S_K; with it holding on all
pairs, condition 4 on S_H x S_K is the equation above there.  The
matrix search (:func:`enumerate_matrices`) meets these premises by
construction; :func:`check_conditions` reaches condition 3 only when 1 and
2 hold, and uses the generator pairs only when 5 and 6 hold as well.  As
for the laws of one map, a witness is only ever named by the full scan of
all pairs, h outermost (:func:`first_pair_witness`), so it is the first
one whichever way the condition was decided.

Every matrix :func:`enumerate_matrices` returns satisfies all six
conditions, so the search records None as its verdict
(``check_conditions.record``), and no condition of it is scanned again.
gamma and delta come from the homomorphism search: conditions 5 and 6
hold.  beta is searched as a twisted map with t_k = f_{delta(k)} and alpha
as one with t_h = f_{gamma(h)}.  With delta and gamma homomorphisms these
twists meet the premise of ``maps.law_holds_on_generators``, so the
searches (``groups.enumerate_twisted_maps``) return exactly the maps that
obey conditions 2 and 1 on all pairs.  A quadruple is kept only when
conditions 3 and 4 hold on S_H x S_K, which, with the other four holding,
is the two conditions on all pairs (above).  A matrix built with the same
entries by other means is another object, and its conditions are decided
on their own.

The alphas depend on gamma alone and the betas on delta alone, so each is
searched once: the alphas of a gamma at its first pair (gamma, delta) that
passes the intertwining scan, the betas of a delta at its first such pair,
and none for a gamma or delta with no such pair.  The matrices of one gamma
share its alpha objects, and those of one delta its beta objects, so every
value kept on an entry map (``maps.map_inverse``, ``FMap.is_bijective``,
``FMap.is_hom``) is decided once per entry map, not once per matrix.  The
list and its order are those of a search per pair.

The product's entry formula is written once, in ``_product_images``.  It
sends each column of the right factor through one map of the left factor,
whatever the columns are: :func:`mat_mul` passes the right factor's own,
and :func:`matrix_to_endo` and ``_formula_witness`` the whole H x K grid,
kept once per product with the table of element codes (``_grid``).  The
column (h; k) goes to

    (alpha h * f_{gamma h}(beta k); gamma h * delta k) = (alpha h, gamma h) * (beta k, delta k),

the product in G of the images of (h, e) and (e, k), which is theta(h, k).
So the map on the grid, read as codes h*|K| + k, is the matrix's
endomorphism theta: matrix_to_endo builds it that way, and reads G's
table only to check it once against G's homomorphism law.  The tests
keep the gather of theta from G's table as a reference to set it against.
``verify`` builds no theta this way: it takes each matrix's endomorphism
from the oracle census by its code columns, the codes of (alpha x, gamma x)
and of (beta y, delta y), which are theta on the embedded copies of H and
K.  ``codes`` is a bijection H x K -> G, so equal columns are equal
entries.  It checks once per product, with ``_formula_witness``, that the
formula's product of two elements of G is G's (the ``sdmat.verify``
docstring).  matrix_to_endo serves the
``enumerate`` command, the brute-force invertibility route and the
calculator.

Where a product is only compared, its four image tables are compared with
a matrix's key and no matrix is built: the certificates of the closed-form
inverses (``sdmat.determinant``) and the reassembly of
``factorization.factor_abcd``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded, ConditionsViolated, DomainMismatch, VerificationFailed
from .groups import enumerate_homs, enumerate_twisted_maps
from .maps import FMap, _trusted, identity_map, memo, twisted_hom_witness, twisted_law_witness, zero_map
from .semidirect import GroupAction, SdProduct

__all__ = [
    "EndoMatrix",
    "CONDITION_NAMES",
    "identity_matrix",
    "check_conditions",
    "first_pair_witness",
    "mat_mul",
    "matrix_to_endo",
    "endo_to_matrix",
    "enumerate_matrices",
    "is_automorphism_matrix",
]

CONDITION_NAMES = (
    "alpha_twisted_by_gamma",
    "beta_crossed_by_delta",
    "gamma_delta_intertwine",
    "alpha_beta_compatible",
    "gamma_homomorphism",
    "delta_endomorphism",
)


@dataclass(frozen=True, eq=False, init=False)
class EndoMatrix:
    """A 2x2 matrix of maps over a fixed semidirect product.

    Shapes are validated at construction; the compatibility conditions are
    not, so candidate matrices can be built and then checked by
    :func:`check_conditions`, whose verdict is kept on the object.
    """

    alpha: FMap
    beta: FMap
    gamma: FMap
    delta: FMap
    context: SdProduct

    def __init__(self, alpha: FMap, beta: FMap, gamma: FMap, delta: FMap, context: SdProduct) -> None:
        H, K = context.H, context.K
        if not (
            alpha.dom is H and alpha.cod is H and beta.dom is K and beta.cod is H
            and gamma.dom is H and gamma.cod is K and delta.dom is K and delta.cod is K
        ):
            # Some shape fails: name the first failing entry.
            shapes = (("alpha", H, H), ("beta", K, H), ("gamma", H, K), ("delta", K, K))
            for (label, dom, cod), entry in zip(shapes, (alpha, beta, gamma, delta)):
                if entry.dom is not dom or entry.cod is not cod:
                    raise DomainMismatch(f"entry {label} must be a map {dom!r} -> {cod!r}")
        # Written into __dict__ directly, as the frozen dataclass's own __setattr__ refuses.
        fields = self.__dict__
        fields["alpha"] = alpha
        fields["beta"] = beta
        fields["gamma"] = gamma
        fields["delta"] = delta
        fields["context"] = context

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Serialized form used for ordering, hashing and equality."""
        return (self.alpha.image, self.beta.image, self.gamma.image, self.delta.image)

    def entries(self) -> tuple[FMap, FMap, FMap, FMap]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EndoMatrix):
            return NotImplemented
        return self.context is other.context and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((id(self.context), self.key()))

    def __repr__(self) -> str:
        return f"EndoMatrix(alpha={list(self.alpha.image)}, beta={list(self.beta.image)}, gamma={list(self.gamma.image)}, delta={list(self.delta.image)})"


def identity_matrix(
    product: SdProduct,
    *,
    alpha: FMap | None = None,
    beta: FMap | None = None,
    gamma: FMap | None = None,
    delta: FMap | None = None,
) -> EndoMatrix:
    """The matrix of the identity endomorphism: identity diagonal, zero off-diagonal.

    An entry given as an argument takes the place of the identity's own, so
    ``identity_matrix(P, gamma=g)`` is (1, 0; g, 1).  The four default
    entries are kept per product, so every identity matrix of a product
    shares them.
    """
    one_h, zero_kh, zero_hk, one_k = _identity_entries(product)
    return EndoMatrix(
        alpha=one_h if alpha is None else alpha,
        beta=zero_kh if beta is None else beta,
        gamma=zero_hk if gamma is None else gamma,
        delta=one_k if delta is None else delta,
        context=product,
    )


@memo
def _identity_entries(product: SdProduct) -> tuple[FMap, FMap, FMap, FMap]:
    """The identity matrix's entries (1_H, 0, 0, 1_K) of a product, one set per product."""
    H, K = product.H, product.K
    return identity_map(H), zero_map(K, H), zero_map(H, K), identity_map(K)


def first_pair_witness(scan, action: GroupAction, on_generators: bool) -> tuple | None:
    """``scan`` over every pair of H x K, decided first on S_H x S_K if ``on_generators``.

    ``scan(hs, ks)`` returns the first violating pair of a condition over
    ``hs`` x ``ks``, h outermost, or None.  ``on_generators`` asserts that the
    condition holds on all pairs once it holds on the generator pairs (see
    the module docstring); the full scan then runs only to name a witness.
    """
    H, K = action.H, action.K
    if on_generators and scan(H.generators, K.generators) is None:
        return None
    return scan(range(H.order), range(K.order))


def _intertwine_scan(gamma: FMap, delta: FMap, action: GroupAction):
    """``scan(hs, ks)``: the first (h, k, lhs, rhs) violating gamma(f_k(h)) delta(k) = delta(k) gamma(h)."""
    kt = action.K.table
    rows = action.images
    g, d = gamma.image, delta.image

    def scan(hs, ks):
        for h in hs:
            gh = g[h]
            for k in ks:
                dk = d[k]
                lhs = kt[g[rows[k][h]]][dk]
                rhs = kt[dk][gh]
                if lhs != rhs:
                    return (h, k, lhs, rhs)
        return None

    return scan


def _compat_scan(alpha: FMap, beta: FMap, gamma: FMap, delta: FMap, action: GroupAction):
    """``scan(hs, ks)``: the first (h, k, lhs, rhs) violating the alpha/beta compatibility condition."""
    ht = action.H.table
    rows = action.images
    a, b, g, d = alpha.image, beta.image, gamma.image, delta.image

    def scan(hs, ks):
        for h in hs:
            ah = a[h]
            for k in ks:
                hk = rows[k][h]
                lhs = ht[a[hk]][rows[g[hk]][b[k]]]
                rhs = ht[b[k]][rows[d[k]][ah]]
                if lhs != rhs:
                    return (h, k, lhs, rhs)
        return None

    return scan


def _condition_witnesses(matrix: EndoMatrix):
    """The witness of each condition in ``CONDITION_NAMES`` order, each computed when asked for."""
    a, b, g, d = matrix.entries()
    act = matrix.context.action
    yield twisted_hom_witness(a, g, act)
    yield twisted_hom_witness(b, d, act)
    # Conditions 1 and 2 hold from here on, and 3 as well when 4 is reached.
    homs = g.is_hom and d.is_hom
    yield first_pair_witness(_intertwine_scan(g, d, act), act, homs)
    yield first_pair_witness(_compat_scan(a, b, g, d, act), act, homs)
    yield None if g.is_hom else twisted_law_witness(g.dom, g.cod, g.image)
    yield None if d.is_hom else twisted_law_witness(d.dom, d.cod, d.image)


@memo
def check_conditions(matrix: EndoMatrix) -> tuple[str, tuple] | None:
    """The first failing compatibility condition as (name, witness), or None.

    Conditions are taken in ``CONDITION_NAMES`` order, and each is decided
    only once the earlier ones hold; the witness is the first violating
    (x, y, lhs, rhs) of that condition.  The last two read ``is_hom``, which
    the first two have already computed.  The verdict is kept on the matrix
    (module docstring).
    """
    return next(
        ((name, w) for name, w in zip(CONDITION_NAMES, _condition_witnesses(matrix)) if w is not None), None
    )


# Bound at import: a wrapper swapped in for the module's ``check_conditions``
# (as bench/tracer.py does) has no ``record``.
_conditions_hold = check_conditions.record


def _require_conditions(matrix: EndoMatrix) -> None:
    """Raise ConditionsViolated with the matrix's failing condition, if it has one."""
    failed = check_conditions(matrix)
    if failed is not None:
        raise ConditionsViolated(*failed)


def _product_images(left: EndoMatrix, a1, b1, g1, d1) -> tuple[tuple[int, ...], ...]:
    """The four image tables of ``left`` times the right factor with image tables a1, b1, g1, d1.

    Column (x; y) of the right factor maps to (a2 x + (b2 y)^{g2 x}; g2 x + d2 y),
    so the tables may be any columns: :func:`mat_mul` passes the right
    factor's own, :func:`matrix_to_endo` the whole H x K grid.  With the
    right factor's own tables the result is the product's key, so it can be
    compared with a matrix's ``key()`` or passed on as the columns of the
    next product.
    """
    P = left.context
    ht, kt, rows = P.H.table, P.K.table, P.action.images
    a2, b2, g2, d2 = left.key()  # the four image tables
    a = tuple([ht[a2[x]][rows[g2[x]][b2[y]]] for x, y in zip(a1, g1)])
    b = tuple([ht[a2[x]][rows[g2[x]][b2[y]]] for x, y in zip(b1, d1)])
    c = tuple([kt[g2[x]][d2[y]] for x, y in zip(a1, g1)])
    d = tuple([kt[g2[x]][d2[y]] for x, y in zip(b1, d1)])
    return a, b, c, d


def mat_mul(left: EndoMatrix, right: EndoMatrix) -> EndoMatrix:
    """Matrix product corresponding to composition (left after right).

    With primes on the left factor the entries are

        a = alpha' alpha + (beta' gamma)^{gamma' alpha}
        b = alpha' beta  + (beta' delta)^{gamma' beta}
        c = gamma' alpha + delta' gamma
        d = gamma' beta  + delta' delta

    where + is the pointwise product, juxtaposition is composition and the
    exponent twists through the action.  Each entry is built in one pass over
    the image tables, with no intermediate maps, as a gather from tables of
    its codomain with one entry per column of the right factor, so its FMap
    is built unchecked (``maps._trusted``); the matrix still checks shapes.
    """
    if left.context is not right.context:
        raise DomainMismatch("matrices live over different products")
    P = left.context
    H, K = P.H, P.K
    a, b, c, d = _product_images(left, *right.key())
    return EndoMatrix(
        alpha=_trusted(H, H, a), beta=_trusted(K, H, b), gamma=_trusted(H, K, c), delta=_trusted(K, K, d), context=P
    )


@memo
def _grid(product: SdProduct) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The H x K grid, kept once per product: (hs, ks, codes).

    Column g = h*|K| + k of the grid is (hs[g]; ks[g]), and codes[h][k] = g.
    Every theta reads its codes from the one ``codes`` table, so all of them
    share its int objects; a code computed per theta would be a new object
    for each code above 256 (CPython shares only the ints up to 256).
    """
    nH, nK = product.H.order, product.K.order
    flat = tuple(range(nH * nK))
    codes = tuple([flat[h * nK : h * nK + nK] for h in range(nH)])
    return tuple([h for h in range(nH) for _ in range(nK)]), tuple(range(nK)) * nH, codes


@memo
def matrix_to_endo(matrix: EndoMatrix) -> FMap:
    """The endomorphism (h, k) -> (alpha(h) * f_{gamma(h)}(beta(k)), gamma(h) delta(k)).

    That is the entry formula ``_product_images`` on the column (h; k), so
    theta is the formula's map on the H x K grid, read as codes h*|K| + k
    (module docstring).  Raises ConditionsViolated if the matrix fails its
    compatibility conditions, as :func:`check_conditions` decided them once
    for this matrix.  The result is an FMap from the product group to
    itself, checked once against the group's homomorphism law
    (VerificationFailed otherwise, as the six conditions imply it) and kept
    on the matrix.  ``verify`` calls it only for a matrix that no census
    entry matches, which can only come from a fault.
    """
    _require_conditions(matrix)
    P = matrix.context
    hs, ks, codes = _grid(P)
    a, _, c, _ = _product_images(matrix, hs, (), ks, ())
    # The code of each image (h, k), one per element of the product: built unchecked.
    theta = _trusted(P.group, P.group, tuple([codes[h][k] for h, k in zip(a, c)]))
    if not theta.is_hom:
        raise VerificationFailed("matrix passes its conditions but describes no homomorphism")
    return theta


def _formula_witness(product: SdProduct) -> tuple[int, int] | None:
    """The first pair (u, v) of G x G whose entry-formula product is not G's table at (u, v), or None.

    ``_product_images`` sends the grid column (x; y) to u * v for
    u = (alpha x, gamma x) and v = (beta y, delta y), with * the formula's
    own product of two elements of G (module docstring).  The left factors
    (1, beta_t; gamma_s, 1) with gamma_s(x) = x + s (mod |K|) and
    beta_t(y) = y + t (mod |H|) on element codes, for every s < |K| and
    t < |H|, give each pair (u, v) of G x G exactly once on the grid.  Their
    entries vary, so an entry read at a wrong index shows.  Pairs are taken
    by t, then s, then grid column.
    """
    hs, ks, codes = _grid(product)
    H, K, table = product.H, product.K, product.group.table
    nH, nK = H.order, K.order
    gammas = [_trusted(H, K, tuple([(x + s) % nK for x in range(nH)])) for s in range(nK)]
    us = [[codes[x][gamma.image[x]] for x in hs] for gamma in gammas]
    for t in range(nH):
        beta = _trusted(K, H, tuple([(y + t) % nH for y in range(nK)]))
        vs = [codes[beta.image[y]][y] for y in ks]
        for gamma, u_s in zip(gammas, us):
            a, _, c, _ = _product_images(identity_matrix(product, beta=beta, gamma=gamma), hs, (), ks, ())
            got = [codes[h][k] for h, k in zip(a, c)]
            if got != [table[u][v] for u, v in zip(u_s, vs)]:
                return next((u, v) for u, v, w in zip(u_s, vs, got) if table[u][v] != w)
    return None


def _entry_images(theta: FMap, product: SdProduct) -> tuple[tuple[int, ...], ...]:
    """The image tables (alpha, beta, gamma, delta) of an endomorphism, read off the embedded copies of H and K."""
    if theta.dom is not product.group or theta.cod is not product.group:
        raise DomainMismatch("endomorphism does not belong to this product group")
    # (h, 1) and (1, k) are coded h*|K| + e_K and e_H*|K| + k (``SdProduct.encode``).
    img, nK = theta.image, product.K.order
    eK, start = product.K.identity, product.H.identity * nK
    alpha, gamma = zip(*[divmod(v, nK) for v in img[eK::nK]])
    beta, delta = zip(*[divmod(v, nK) for v in img[start : start + nK]])
    return (alpha, beta, gamma, delta)


def endo_to_matrix(theta: FMap, product: SdProduct) -> EndoMatrix:
    """Read the four entry maps of an endomorphism of the product off the embedded copies of H and K."""
    alpha, beta, gamma, delta = _entry_images(theta, product)
    H, K = product.H, product.K
    matrix = EndoMatrix(
        alpha=FMap(H, H, alpha),
        beta=FMap(K, H, beta),
        gamma=FMap(H, K, gamma),
        delta=FMap(K, K, delta),
        context=product,
    )
    _require_conditions(matrix)  # cannot fail for a genuine endomorphism; kept as a hard guard
    return matrix


def enumerate_matrices(product: SdProduct, bound: int = 64) -> list[EndoMatrix]:
    """All valid matrices over the product, i.e. its full endomorphism monoid.

    The search runs over gamma, then delta, then beta, then alpha: gamma and
    delta come from homomorphism enumeration, the gamma/delta intertwining
    prunes pairs early, beta and alpha come from twisted-map searches, once
    per delta and once per gamma, shared by their matrices (module
    docstring), and the remaining compatibility condition filters the final
    quadruples.
    Both are decided on S_H x S_K alone, as every candidate meets the
    premises of the module docstring.  Each matrix returned keeps the
    verdict "all six hold" that the search decided (module docstring).
    This is the search's only route; the tests set it against a reference
    filter of every (alpha, beta) table through :func:`check_conditions`.
    """
    H, K, act = product.H, product.K, product.action
    if H.order * K.order > bound:
        raise BoundExceeded(f"product order {H.order * K.order} exceeds bound {bound}")
    gammas = enumerate_homs(H, K)
    deltas = enumerate_homs(K, K)
    out: list[EndoMatrix] = []
    # The betas of each delta, searched at its first intertwining pair, by delta's position.
    betas_of: list[list[FMap] | None] = [None] * len(deltas)
    for gamma in gammas:
        alphas = None  # searched at gamma's first intertwining pair
        for di, delta in enumerate(deltas):
            if _intertwine_scan(gamma, delta, act)(H.generators, K.generators) is not None:
                continue
            # beta and alpha are twisted through t_x = f_{delta(x)} and f_{gamma(x)}.
            betas = betas_of[di]
            if betas is None:
                betas = betas_of[di] = enumerate_twisted_maps(K, H, [act.images[s] for s in delta.image])
            if alphas is None:
                alphas = enumerate_twisted_maps(H, H, [act.images[s] for s in gamma.image])
            for beta in betas:
                for alpha in alphas:
                    if _compat_scan(alpha, beta, gamma, delta, act)(H.generators, K.generators) is None:
                        m = EndoMatrix(alpha=alpha, beta=beta, gamma=gamma, delta=delta, context=product)
                        _conditions_hold(m, None)
                        out.append(m)
    return out


def is_automorphism_matrix(matrix: EndoMatrix) -> bool:
    """Whether the described endomorphism is bijective."""
    return matrix_to_endo(matrix).is_bijective
