"""Finite groups as validated Cayley tables, 0-based element indices.

A group of order n is a table ``table[a][b] = a*b`` over indices 0..n-1.
The identity is detected, never assumed to be 0.  Construction via
:func:`make_group` checks every axiom exhaustively and reports the first
witnessing elements on failure: the identity and the inverses by a scan
of the table, associativity by Light's test over a generating set read
off the table (see :func:`associativity_witness`).  The group keeps that
generating set, so laws over all pairs of elements can be decided on the
generators (see :mod:`sdmat.maps`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .errors import GroupValidationError, NotAssociative
from .maps import FMap, twisted_law_witness

__all__ = [
    "FiniteGroup",
    "make_group",
    "index_row",
    "associativity_witness",
    "greedy_generators",
    "word_sequence",
    "enumerate_twisted_maps",
    "enumerate_homs",
    "enumerate_autos",
]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable group data; compare by object identity.

    ``generators`` is the greedy generating set of :func:`greedy_generators`:
    every element is a product of them, each reached from the identity by
    right multiplication.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]
    generators: tuple[int, ...]
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
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    @cached_property
    def center(self) -> frozenset[int]:
        """Elements commuting with everything."""
        t = self.table
        return frozenset(a for a in range(self.order) if all(t[a][b] == t[b][a] for b in range(self.order)))

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
    rows = tuple(index_row(row, n, f"row {i}") for i, row in enumerate(table))
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

    generators = _greedy_generators(rows, identity)
    triple = _associativity_witness(rows, generators)
    if triple is not None:
        raise NotAssociative(*triple)

    return FiniteGroup(
        order=n,
        table=rows,
        identity=identity,
        inverses=tuple(inverses),
        generators=generators,
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


def associativity_witness(table: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (a, b, c), a outermost, with (ab)c != a(bc) in a square table; None if there is none.

    Light's test decides whether there is one in |S|·n² steps rather than
    n³.  Call an element g good when (xg)y = x(gy) for all x, y.  The good
    elements are closed under the product: for good a and b,

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),

    using a, b, a and b in turn.  The identity is good.  So if every g in a
    set S is good, so is every element reached from the identity by right
    multiplication by S, and S is read off the table by the same greedy
    walk as :func:`greedy_generators`: if it passes, the whole table is
    associative.  Only when some generator fails, or the table has no
    identity, is the witness found by the a-outermost scan of all triples.
    """
    rows = tuple(map(tuple, table))
    identity = _identity(rows)
    return _associativity_witness(rows, None if identity is None else _greedy_generators(rows, identity))


def _associativity_witness(
    rows: tuple[tuple[int, ...], ...], generators: Sequence[int] | None
) -> tuple[int, int, int] | None:
    """:func:`associativity_witness` given the table's greedy generators, None if it has no identity."""
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


def greedy_generators(group: FiniteGroup) -> tuple[int, ...]:
    """A generating set built greedily: keep adding the first element not yet generated.

    ``make_group`` builds it once, for Light's test, and the group keeps it.
    """
    return group.generators


def word_sequence(group: FiniteGroup, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """Breadth-first discovery order of the group from its generators.

    Each entry ``(y, x, i)`` says element y was first reached as x * gens[i],
    with x already discovered.  Iterating the list in order lets a search
    propagate candidate images from generator images deterministically.
    """
    order = _walk(group.table, group.identity, gens)
    if len(order) != group.order - 1:
        raise ValueError("generators do not generate the group")
    return order


def _greedy_generators(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Generators of a square table with an identity, by right multiplication, chosen greedily."""
    gens: list[int] = []
    reached = {identity}
    while len(reached) < len(table):
        gens.append(next(a for a in range(len(table)) if a not in reached))
        reached = {identity, *(y for y, _, _ in _walk(table, identity, gens))}
    return tuple(gens)


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
    """All maps phi: dom -> cod with phi(xy) = phi(x) * t_x(phi(y)).

    ``twist[x]`` is the image table of the endomap t_x of cod.  Candidate
    images of a greedy generating set are propagated along the word
    sequence and then verified on every pair, so no unverified map is ever
    returned.  Results are sorted by image table.
    """
    gens = greedy_generators(dom)
    seq = word_sequence(dom, gens)
    ct = cod.table
    out: list[FMap] = []
    for images in itertools.product(range(cod.order), repeat=len(gens)):
        img = [0] * dom.order
        img[dom.identity] = cod.identity
        for y, x, i in seq:
            img[y] = ct[img[x]][twist[x][images[i]]]
        if twisted_law_witness(dom, cod, img, twist) is None:
            out.append(FMap(dom, cod, tuple(img)))
    out.sort(key=lambda m: m.image)
    return out


def enumerate_homs(dom: FiniteGroup, cod: FiniteGroup) -> list[FMap]:
    """All homomorphisms dom -> cod: the twisted maps with every t_x the identity."""
    return enumerate_twisted_maps(dom, cod, (tuple(range(cod.order)),) * dom.order)


def enumerate_autos(group: FiniteGroup) -> list[FMap]:
    """All automorphisms, i.e. the bijective members of enumerate_homs."""
    return [phi for phi in enumerate_homs(group, group) if phi.is_bijective]
