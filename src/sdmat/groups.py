"""Finite groups as validated Cayley tables, 0-based element indices.

A group of order n is a table ``table[a][b] = a*b`` over indices 0..n-1.
The identity is detected, never assumed to be 0.  Construction via
:func:`make_group` checks every axiom exhaustively and reports the first
witnessing elements on failure: the identity and the inverses by a scan
of the table, associativity by Light's test (see
:func:`_associativity_witness`) over the greedy generating set, each
generator the first element the earlier ones do not reach.  The group keeps
that generating set and its walk, so laws over all pairs of elements are
decided on the generators (see :mod:`sdmat.maps`), and searches extend
images of the generators along the walk (:func:`enumerate_twisted_maps`).

The center and commutativity are decided on the generators too.  The
centralizer of an element a, the x with ax = xa, is a subgroup: it holds
e, and with x and y it holds xy, as a(xy) = xay = (xy)a.  So a is central
iff it commutes with every generator, as the generators reach every
element by products.  The group is abelian iff its generators commute
pairwise: then each generator commutes with every generator, so it is
central, and the center, a subgroup, holds every element.

make_group first reads each row through :func:`index_row`, the shape rule
for tables read from a file.  The product table of a semidirect product
(``semidirect.SdProduct.group``) is gathered as tuple rows of pair codes,
and a catalog cyclic group (``catalog.cyclic_group``) as rotations of
0..n-1; neither can fail that rule, so both go through the private
``_group_of_rows`` instead: every axiom check of make_group, without the
per-entry scan, as ``maps._trusted`` is FMap without its range check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import GroupValidationError, NotAssociative
from .maps import FMap, law_holds_on_generators

__all__ = [
    "FiniteGroup",
    "make_group",
    "index_row",
    "enumerate_twisted_maps",
    "enumerate_homs",
    "enumerate_autos",
]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable group data; compare by object identity.

    Each of the ``generators`` is the first element the earlier ones do not
    reach from the identity by right multiplication.  ``walk`` is the
    breadth-first walk over them from the identity: its step ``(y, x, i)``
    first reaches y as ``x * generators[i]``, x the identity or an earlier y.
    Every element but the identity is the y of exactly one step.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    generators: tuple[int, ...]
    walk: tuple[tuple[int, int, int], ...]
    names: tuple[str, ...] | None = None
    name: str = ""

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The table read by columns: ``columns[b][a] = a*b``."""
        return tuple(zip(*self.table))

    @cached_property
    def is_abelian(self) -> bool:
        """Whether all elements commute, decided on the generators pairwise (module docstring)."""
        t, gens = self.table, self.generators
        return all(t[s][u] == t[u][s] for s in gens for u in gens)

    @cached_property
    def center(self) -> frozenset[int]:
        """Elements commuting with everything: those commuting with each generator (module docstring)."""
        t, gens = self.table, self.generators
        return frozenset(a for a in range(self.order) if all(t[a][s] == t[s][a] for s in gens))

    def element_name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def index_row(row: object, n: int, what: str) -> tuple[int, ...]:
    """``row`` as a tuple, if it is a list of integers in 0..n-1.

    The shape rule for every table read from a file; raises ValueError.
    JSON ``true``/``false`` load as bools, which are not indices.
    """
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"{what} is not a list")
    for v in row:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"{what} contains invalid entry {v!r}")
    return tuple(row)


def make_group(
    table: Sequence[Sequence[int]],
    names: Sequence[str] | None = None,
    name: str = "",
) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Raises ValueError for malformed tables, then GroupValidationError for a
    missing identity or a missing inverse and NotAssociative, in that
    checking order, for axiom violations.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    return _group_of_rows(tuple(index_row(row, n, f"row {i}") for i, row in enumerate(table)), names, name)


def _group_of_rows(rows: tuple[tuple[int, ...], ...], names: Sequence[str] | None, name: str) -> FiniteGroup:
    """:func:`make_group` on a table already in its shape: tuple rows of indices in 0..n-1.

    Every check of make_group runs but the per-entry scan of
    :func:`index_row`, for a table that cannot fail it: the product table
    of ``semidirect.SdProduct.group``, gathered as tuples from pair codes,
    and the rows of ``catalog.cyclic_group``, each a rotation of 0..n-1.
    The rows' lengths, the names, the identity, the inverses and
    associativity are all checked, as for any table.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
    if names is not None and len(names) != n:
        raise ValueError("names must match the table size")

    identity = _identity(rows)
    if identity is None:
        raise GroupValidationError("no two-sided identity element exists")

    inverses = []
    for a, row in enumerate(rows):
        # The first b with a*b = e and b*a = e, tried only where row a holds e.
        b = -1
        while True:
            try:
                b = row.index(identity, b + 1)
            except ValueError:
                raise GroupValidationError(f"element {a} has no two-sided inverse") from None
            if rows[b][a] == identity:
                break
        inverses.append(b)

    generators, walk = _greedy_walk(rows, identity)
    triple = _associativity_witness(rows, generators)
    if triple is not None:
        raise NotAssociative(*triple)

    return FiniteGroup(
        order=n,
        table=rows,
        identity=identity,
        inverses=tuple(inverses),
        generators=generators,
        walk=walk,
        names=tuple(names) if names is not None else None,
        name=name,
    )


def _identity(table: Sequence[Sequence[int]]) -> int | None:
    """The first two-sided identity of a square table, or None."""
    n = len(table)
    for e, row in enumerate(table):
        if all(row[a] == a and table[a][e] == a for a in range(n)):
            return e
    return None


def _associativity_witness(
    rows: tuple[tuple[int, ...], ...], generators: Sequence[int] | None
) -> tuple[int, int, int] | None:
    """The first (a, b, c), a outermost, with (ab)c != a(bc) in a square table; None if there is none.

    ``generators`` must reach every element from the identity by right
    multiplication, or be None for a table with no identity.  Light's test
    decides whether there is a triple in |S|·n² steps rather than n³.  Call
    an element g good when (xg)y = x(gy) for all x, y.  The good elements
    are closed under the product: for good a and b,

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),

    using a, b, a and b in turn.  The identity is good.  So if every
    generator is good, so is every element they reach, and the whole table
    is associative.  Only when some generator fails, or ``generators`` is
    None, is the witness found by the a-outermost scan of all triples, so it
    does not depend on the generators.
    """
    if generators is not None and all(_is_good(rows, g) for g in generators):
        return None
    n = len(rows)
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            row_ab, row_b = rows[ab], rows[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return (a, b, c)
    return None


def _is_good(rows: tuple[tuple[int, ...], ...], g: int) -> bool:
    """Whether (xg)y = x(gy) for all x, y, in a table of two or more tuple rows."""
    x_gy = itemgetter(*rows[g])  # row x -> the row y -> x(gy); a tuple, as row g has 2+ entries
    return all(rows[row_x[g]] == x_gy(row_x) for row_x in rows)


def _greedy_walk(
    table: Sequence[Sequence[int]], identity: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Greedy generators of a square table with an identity, and the walk over them that reaches every element."""
    gens: list[int] = []
    walk: list[tuple[int, int, int]] = []
    reached = {identity}
    while len(reached) < len(table):
        gens.append(next(a for a in range(len(table)) if a not in reached))
        walk = _walk(table, identity, gens)
        reached = {identity, *(y for y, _, _ in walk)}
    return tuple(gens), tuple(walk)


def _walk(table: Sequence[Sequence[int]], identity: int, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """The ``(y, x, i)`` steps of a breadth-first walk from the identity over what gens reach."""
    seen = {identity}
    order: list[tuple[int, int, int]] = []
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = table[x][g]
                if y not in seen:
                    seen.add(y)
                    order.append((y, x, i))
                    nxt.append(y)
        frontier = nxt
    return order


def enumerate_twisted_maps(
    dom: FiniteGroup, cod: FiniteGroup, twist: Sequence[Sequence[int]]
) -> list[FMap]:
    """All maps phi: dom -> cod with phi(xy) = phi(x) * t_x(phi(y)), sorted by image table.

    ``twist[x]`` is the image table of the endomap t_x of cod, under the
    premise of :func:`sdmat.maps.law_holds_on_generators`: every t_x an
    automorphism and x -> t_x multiplicative.  Each choice of images of
    ``dom.generators`` is extended along ``dom.walk`` by the law itself, and
    the map it gives is kept iff the law holds on the generators, which
    under the premise is the law on every pair.
    """
    ct = cod.table
    out: list[FMap] = []
    for images in itertools.product(range(cod.order), repeat=len(dom.generators)):
        img = [0] * dom.order
        img[dom.identity] = cod.identity
        for y, x, i in dom.walk:
            img[y] = ct[img[x]][twist[x][images[i]]]
        if law_holds_on_generators(dom, cod, img, twist):
            out.append(FMap(dom, cod, tuple(img)))
    out.sort(key=lambda m: m.image)
    return out


def enumerate_homs(dom: FiniteGroup, cod: FiniteGroup) -> list[FMap]:
    """All homomorphisms dom -> cod: the twisted maps with every t_x the identity."""
    return enumerate_twisted_maps(dom, cod, (tuple(range(cod.order)),) * dom.order)


def enumerate_autos(group: FiniteGroup) -> list[FMap]:
    """All automorphisms, i.e. the bijective members of enumerate_homs."""
    return [phi for phi in enumerate_homs(group, group) if phi.is_bijective]
