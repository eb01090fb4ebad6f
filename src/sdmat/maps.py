"""Maps between finite groups and their pointwise algebra.

A map ``phi: U -> V`` is stored as a dense image table ``phi.image`` with
``phi.image[u]`` the index of the value in V.  The set of all such maps
carries a group structure under the pointwise product

    (phi + psi)(u) = phi(u) * psi(u)

with the constant-identity map as zero and pointwise inversion as negation.
Composition and twisting through an action (:func:`map_act`) complete the
toolbox the matrix calculus is stated in.  The determinants are built from
it; ``matrices.mat_mul`` reads the image tables itself.  Sums are written
additively though values multiply, as the codomain is rarely abelian.

An endomorphism is an FMap whose ``dom is cod``.  Its homomorphism law is
checked where it first appears: in the oracle's census
(``oracle.enumerate_endos``) and when a matrix is turned into its
endomorphism (``matrices.matrix_to_endo``).  Composites and inverses of
these are homomorphisms by construction and are not checked again.

The twisted law ``phi(xy) = phi(x) * t_x(phi(y))`` for all pairs is decided
on the generating set S the domain carries (``FiniteGroup.generators``), in
|S|·n steps rather than n², when every t_x is an automorphism of the
codomain and x -> t_x is multiplicative, t_xy = t_x t_y (so t_e = t_e t_e is
the identity).  Under these premises the law holds for all pairs iff

    phi(e) = e   and   phi(xs) = phi(x) * t_x(phi(s))  for every x and every s in S.

Only if: the pair (e, e) gives phi(e) = phi(e) * phi(e), as t_e = 1, and
the generator law is a case of the law.  If: every y is a positive word in
S, so induct on its length.  For y = e, phi(xe) = phi(x) * t_x(e) =
phi(x) * t_x(phi(e)), as t_x is an endomorphism and phi(e) = e.  If the law
holds for y, then

    phi(x·ys) = phi(xy) * t_xy(phi(s))                 (generator law at xy)
              = phi(x) * t_x(phi(y)) * t_x(t_y(phi(s))) (law for y; t multiplicative)
              = phi(x) * t_x(phi(y) * t_y(phi(s)))      (t_x an endomorphism)
              = phi(x) * t_x(phi(ys))                   (generator law at y).

The identity twist gives :attr:`FMap.is_hom`.  t_x = f_{steer(x)} meets the
premises when steer is a homomorphism: the rows of a validated action are
automorphisms that compose like K (``semidirect.make_action``), so
f_{steer(xy)} = f_{steer(x)} f_{steer(y)}; see :func:`twisted_hom_witness`.
A witness is only ever named by the full x-outermost scan of
:func:`twisted_law_witness`, so it is the first one whichever way the law
was decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .errors import DomainMismatch, NotBijective

if TYPE_CHECKING:
    from .groups import FiniteGroup
    from .semidirect import GroupAction

__all__ = [
    "FMap",
    "identity_map",
    "zero_map",
    "map_add",
    "map_neg",
    "map_compose",
    "map_act",
    "map_inverse",
    "twisted_law_witness",
    "twisted_hom_witness",
    "is_crossed_hom",
]


@dataclass(frozen=True, eq=False)
class FMap:
    """A set map between two finite groups, given by its image table."""

    dom: "FiniteGroup"
    cod: "FiniteGroup"
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.dom.order:
            raise DomainMismatch(
                f"image table has {len(self.image)} entries for a domain of order {self.dom.order}"
            )
        if self.image and not (0 <= min(self.image) and max(self.image) < self.cod.order):
            raise DomainMismatch("image table contains indices outside the codomain")

    def __call__(self, u: int) -> int:
        return self.image[u]

    @cached_property
    def is_hom(self) -> bool:
        """Whether phi(ab) = phi(a)phi(b) for all pairs: the twisted law with every twist the identity.

        Decided on the domain's generators: phi(e) = e and phi(xs) = phi(x)phi(s)
        for every x and generator s, which is equivalent (module docstring).
        Computed once, lazily.
        """
        return _law_holds_on_generators(self.dom, self.cod, self.image)

    @cached_property
    def is_bijective(self) -> bool:
        """Whether the image table is a bijection onto the codomain."""
        return self.dom.order == self.cod.order and len(set(self.image)) == self.dom.order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMap):
            return NotImplemented
        return self.dom is other.dom and self.cod is other.cod and self.image == other.image

    def __hash__(self) -> int:
        return hash((id(self.dom), id(self.cod), self.image))

    def __repr__(self) -> str:
        return f"FMap({list(self.image)})"


def identity_map(group: "FiniteGroup") -> FMap:
    """The identity endomap of a group."""
    return FMap(group, group, tuple(range(group.order)))


def zero_map(dom: "FiniteGroup", cod: "FiniteGroup") -> FMap:
    """The constant map at the codomain identity (the zero of map addition)."""
    return FMap(dom, cod, (cod.identity,) * dom.order)


def _require_parallel(phi: FMap, psi: FMap) -> None:
    if phi.dom is not psi.dom or phi.cod is not psi.cod:
        raise DomainMismatch("operands must share domain and codomain")


def map_add(phi: FMap, psi: FMap) -> FMap:
    """Pointwise product: u -> phi(u) * psi(u), in that order."""
    _require_parallel(phi, psi)
    ct = phi.cod.table
    return FMap(phi.dom, phi.cod, tuple(ct[a][b] for a, b in zip(phi.image, psi.image)))


def map_neg(phi: FMap) -> FMap:
    """Pointwise inverse: u -> phi(u)^-1."""
    inv = phi.cod.inverses
    return FMap(phi.dom, phi.cod, tuple(inv[v] for v in phi.image))


def map_compose(eta: FMap, phi: FMap) -> FMap:
    """Composition eta o phi: first apply phi, then eta."""
    if phi.cod is not eta.dom:
        raise DomainMismatch("codomain of the inner map must be the domain of the outer map")
    return FMap(phi.dom, eta.cod, tuple(eta.image[v] for v in phi.image))


def map_act(phi: FMap, steer: FMap, action: "GroupAction") -> FMap:
    """Twist a map into H through an action, steered by a map into K.

    Returns u -> f_{steer(u)}(phi(u)) where f is the action of K on H.  When
    both groups sit inside the semidirect product this is conjugation of
    phi(u) by steer(u).
    """
    if phi.dom is not steer.dom:
        raise DomainMismatch("map and steering map must share a domain")
    if phi.cod is not action.H or steer.cod is not action.K:
        raise DomainMismatch("map must land in the acted-on group, steering map in the acting group")
    rows = action.images
    out = tuple(rows[s][v] for v, s in zip(phi.image, steer.image))
    return FMap(phi.dom, phi.cod, out)


def map_inverse(phi: FMap) -> FMap:
    """Inverse of a bijective map (as a set map; no homomorphy implied)."""
    if not phi.is_bijective:
        raise NotBijective(f"map {list(phi.image)} is not bijective")
    inv = [0] * phi.cod.order
    for u, v in enumerate(phi.image):
        inv[v] = u
    return FMap(phi.cod, phi.dom, tuple(inv))


def twisted_law_witness(
    dom: "FiniteGroup", cod: "FiniteGroup", image: Sequence[int], twist: Sequence[Sequence[int]]
) -> tuple | None:
    """First (x, y, lhs, rhs) violating phi(xy) = phi(x) * t_x(phi(y)), or None.

    ``image`` is the image table of phi: dom -> cod and ``twist[x]`` that of
    the endomap t_x of cod.  Every t_x the identity gives the homomorphism
    law; t_x = f_{steer(x)} gives the twisted and crossed laws of the matrix
    conditions.  Pairs are scanned with x outermost.
    """
    ct = cod.table
    for x, row in enumerate(dom.table):
        row_fx, tx = ct[image[x]], twist[x]
        for y, xy in enumerate(row):
            if image[xy] != row_fx[tx[image[y]]]:
                return (x, y, image[xy], row_fx[tx[image[y]]])
    return None


def _law_holds_on_generators(
    dom: "FiniteGroup", cod: "FiniteGroup", image: Sequence[int], twist: Sequence[Sequence[int]] | None = None
) -> bool:
    """Whether phi(e) = e and phi(xs) = phi(x) * t_x(phi(s)) for every x and generator s of dom.

    The twisted law of :func:`twisted_law_witness` in |S|·n steps; ``twist``
    None stands for every t_x the identity.  It is equivalent to the law for
    all pairs only when every t_x is an automorphism and x -> t_x is
    multiplicative (module docstring).
    """
    if image[dom.identity] != cod.identity:
        return False
    ct = cod.table
    # A trivial dom has no generators; any other has two or more elements, so each
    # itemgetter below returns a tuple.
    for s in dom.generators:
        fs = image[s]
        if twist is None:
            rhs = itemgetter(*image)(cod.columns[fs])  # x -> phi(x) phi(s)
        else:
            rhs = tuple([ct[fx][tx[fs]] for fx, tx in zip(image, twist)])
        if itemgetter(*dom.columns[s])(image) != rhs:  # x -> phi(xs)
            return False
    return True


def twisted_hom_witness(phi: FMap, steer: FMap, action: "GroupAction") -> tuple | None:
    """First violation of phi(uv) = phi(u) * f_{steer(u)}(phi(v)), or None.

    The witness is (u, v, lhs, rhs).  With ``steer`` a homomorphism this is
    the crossed-homomorphism law; the matrix conditions reuse it with other
    steering maps.

    When ``steer`` is a homomorphism, u -> f_{steer(u)} is multiplicative and
    each f_k an automorphism, as ``action`` is a validated action, so the law
    is decided on the generators of the domain (module docstring).  Only when
    that fails, or ``steer`` is not a homomorphism, are all pairs scanned,
    u outermost, and the first violation returned.
    """
    if phi.dom is not steer.dom:
        raise DomainMismatch("map and steering map must share a domain")
    if phi.cod is not action.H or steer.cod is not action.K:
        raise DomainMismatch("map must land in the acted-on group, steering map in the acting group")
    rows = action.images
    twist = [rows[s] for s in steer.image]
    if steer.is_hom and _law_holds_on_generators(phi.dom, phi.cod, phi.image, twist):
        return None
    return twisted_law_witness(phi.dom, phi.cod, phi.image, twist)


def is_crossed_hom(beta: FMap, delta: FMap, action: "GroupAction") -> bool:
    """Whether beta(k k') = beta(k) * f_{delta(k)}(beta(k')) for all pairs."""
    if beta.dom is not action.K or delta.dom is not action.K or delta.cod is not action.K:
        raise DomainMismatch("crossed homomorphisms go from the acting group, twisted by an endomap of it")
    return twisted_hom_witness(beta, delta, action) is None
