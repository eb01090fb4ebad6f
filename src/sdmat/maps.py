"""Maps between finite groups and their pointwise algebra.

A map ``phi: U -> V`` is stored as a dense image table ``phi.image`` with
``phi.image[u]`` the index of the value in V.  The set of all such maps
carries a group structure under the pointwise product

    (phi + psi)(u) = phi(u) * psi(u)

with the constant-identity map as zero and pointwise inversion as negation.
Composition and twisting through an action (:func:`map_act`) complete the
toolbox the matrix calculus is stated in.  Sums are written additively
though values multiply, as the codomain is rarely abelian.

A public ``FMap(...)`` checks its table: a tuple of ``int``, one entry per
domain element, each an index into the codomain.  The private ``_trusted``
builds the same FMap without that check, for a table that cannot fail it:
a gather, one entry per domain element, of entries read from tables of
the codomain.  Its callers, and why each table passes:

- :func:`map_add`, :func:`map_neg`, :func:`map_compose` and :func:`map_act`
  read one entry of a codomain table (the multiplication table, the
  inverses, the outer map, an action row) per entry of a domain-length
  operand;
- :func:`map_inverse` puts each domain index u at the position of its
  image, and a bijection hits every position of the codomain once;
- :func:`zero_map` repeats the codomain's identity once per domain element;
- :func:`identity_map` is the group's own row of its identity, a tuple;
- the determinants and closed-form inverses (``determinant``), the entries
  of a matrix product (``matrices``) and the B-factor's entry
  (``factorization``) are such gathers as well, written out in one pass
  over the image tables;
- the endomorphism of a matrix (``matrices.matrix_to_endo``) reads one
  code h*|K| + k per element of the product from the product's table of
  codes, h read from a table of H and k from a table of K;
- the oracle census (``oracle.enumerate_endos``) sets each image to the
  identity or to an entry of a column of the Cayley table.

An endomorphism is an FMap whose ``dom is cod``.  Its homomorphism law is
checked where it first appears: in the oracle's census, on the oracle's own
generators (``oracle.enumerate_endos``), and by :attr:`FMap.is_hom` in
``matrices.matrix_to_endo``.  Composites and inverses of these are
homomorphisms by construction and are not checked again.

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

:func:`law_holds_on_generators` decides every such law outside the oracle.
The identity twist gives :attr:`FMap.is_hom`, which also decides each
action row (``semidirect.make_action``).  t_x = f_{steer(x)} meets the
premises when steer is a homomorphism: the rows of a validated action are
automorphisms that compose like K, so f_{steer(xy)} = f_{steer(x)}
f_{steer(y)}; see :func:`twisted_hom_witness` and the searches of
``groups.enumerate_twisted_maps``.  A witness is only ever named by the
full x-outermost scan of :func:`twisted_law_witness`, so it is the first
one whichever way the law was decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
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
    "law_holds_on_generators",
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
        # An exact type test: a list would be unhashable and unequal to its tuple, and a bool
        # or a float is no index.
        if type(self.image) is not tuple or not set(map(type, self.image)) <= {int}:
            raise DomainMismatch("image table must be a tuple of int indices")
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
        return law_holds_on_generators(self.dom, self.cod, self.image)

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


_new = object.__new__


def _trusted(dom: "FiniteGroup", cod: "FiniteGroup", image: tuple[int, ...]) -> FMap:
    """``FMap(dom, cod, image)`` without its range check, for a table that cannot fail it.

    ``image`` must be a tuple with one entry per element of ``dom``, each
    read from a table of ``cod`` (module docstring).  The result is a plain
    FMap: equal to, and hashed as, the checked one.
    """
    phi = _new(FMap)
    fields = phi.__dict__
    fields["dom"] = dom
    fields["cod"] = cod
    fields["image"] = image
    return phi


def memo(fn):
    """``fn(obj)``, computed on the first call and then kept in ``obj.__dict__``.

    As with :class:`functools.cached_property`, the value lives exactly as
    long as ``obj``, and a call that raises keeps nothing.  The returned
    function's ``record(obj, value)`` keeps ``value`` as ``fn(obj)`` without
    calling ``fn``, for a caller that has decided it another way (the matrix
    search of ``matrices.enumerate_matrices``).
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def kept(obj):
        if key not in obj.__dict__:
            obj.__dict__[key] = fn(obj)
        return obj.__dict__[key]

    def record(obj, value) -> None:
        obj.__dict__[key] = value

    kept.record = record
    return kept


def identity_map(group: "FiniteGroup") -> FMap:
    """The identity endomap of a group: its table is the identity's row, 0..n-1.

    Not kept on the group, which it refers to: a kept map would put every
    group in a reference cycle.
    """
    return _trusted(group, group, group.table[group.identity])


def zero_map(dom: "FiniteGroup", cod: "FiniteGroup") -> FMap:
    """The constant map at the codomain identity (the zero of map addition)."""
    return _trusted(dom, cod, (cod.identity,) * dom.order)


def _require_parallel(phi: FMap, psi: FMap) -> None:
    if phi.dom is not psi.dom or phi.cod is not psi.cod:
        raise DomainMismatch("operands must share domain and codomain")


def map_add(phi: FMap, psi: FMap) -> FMap:
    """Pointwise product: u -> phi(u) * psi(u), in that order."""
    _require_parallel(phi, psi)
    ct = phi.cod.table
    return _trusted(phi.dom, phi.cod, tuple([ct[a][b] for a, b in zip(phi.image, psi.image)]))


def map_neg(phi: FMap) -> FMap:
    """Pointwise inverse: u -> phi(u)^-1."""
    inv = phi.cod.inverses
    return _trusted(phi.dom, phi.cod, tuple([inv[v] for v in phi.image]))


def map_compose(eta: FMap, phi: FMap) -> FMap:
    """Composition eta o phi: first apply phi, then eta."""
    if phi.cod is not eta.dom:
        raise DomainMismatch("codomain of the inner map must be the domain of the outer map")
    outer = eta.image
    return _trusted(phi.dom, eta.cod, tuple([outer[v] for v in phi.image]))


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
    return _trusted(phi.dom, phi.cod, tuple([rows[s][v] for v, s in zip(phi.image, steer.image)]))


@memo
def map_inverse(phi: FMap) -> FMap:
    """Inverse of a bijective map (as a set map; no homomorphy implied), kept on ``phi``."""
    if not phi.is_bijective:
        raise NotBijective(f"map {list(phi.image)} is not bijective")
    inv = [0] * phi.cod.order
    for u, v in enumerate(phi.image):
        inv[v] = u
    return _trusted(phi.cod, phi.dom, tuple(inv))


def twisted_law_witness(
    dom: "FiniteGroup", cod: "FiniteGroup", image: Sequence[int], twist: Sequence[Sequence[int]] | None = None
) -> tuple | None:
    """First (x, y, lhs, rhs) violating phi(xy) = phi(x) * t_x(phi(y)), or None.

    ``image`` is the image table of phi: dom -> cod and ``twist[x]`` that of
    the endomap t_x of cod.  Every t_x the identity (``twist`` None) gives
    the homomorphism law; t_x = f_{steer(x)} gives the twisted and crossed
    laws of the matrix conditions.  Pairs are scanned with x outermost.
    """
    if twist is None:
        twist = (range(cod.order),) * dom.order
    ct = cod.table
    for x, row in enumerate(dom.table):
        row_fx, tx = ct[image[x]], twist[x]
        for y, xy in enumerate(row):
            if image[xy] != row_fx[tx[image[y]]]:
                return (x, y, image[xy], row_fx[tx[image[y]]])
    return None


def law_holds_on_generators(
    dom: "FiniteGroup", cod: "FiniteGroup", image: Sequence[int], twist: Sequence[Sequence[int]] | None = None
) -> bool:
    """Whether phi(e) = e and phi(xs) = phi(x) * t_x(phi(s)) for every x and generator s of dom.

    The twisted law of :func:`twisted_law_witness` in |S|·n steps; ``twist``
    None stands for every t_x the identity.  Premise: every t_x is an
    automorphism of cod and x -> t_x is multiplicative; under it, this is
    the law on all pairs (module docstring), without it a map can pass here
    and fail the law.  Every caller meets it: the identity twist, or
    t_x = f_{steer(x)} with f a validated action and steer a homomorphism
    (gamma or delta in ``matrices.enumerate_matrices``).
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
    if steer.is_hom and law_holds_on_generators(phi.dom, phi.cod, phi.image, twist):
        return None
    return twisted_law_witness(phi.dom, phi.cod, phi.image, twist)


def is_crossed_hom(beta: FMap, delta: FMap, action: "GroupAction") -> bool:
    """Whether beta(k k') = beta(k) * f_{delta(k)}(beta(k')) for all pairs."""
    if beta.dom is not action.K or delta.dom is not action.K or delta.cod is not action.K:
        raise DomainMismatch("crossed homomorphisms go from the acting group, twisted by an endomap of it")
    return twisted_hom_witness(beta, delta, action) is None
