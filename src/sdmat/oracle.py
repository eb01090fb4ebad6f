"""Brute-force enumeration of endomorphisms, independent of the matrix route.

This module works on raw Cayley tables only.  It deliberately reimplements
its generating-set, image-propagation and law-checking helpers instead of
sharing them with the rest of the package: the whole point of the oracle is
that agreement with the matrix-based enumeration is evidence, and shared
search code would make that agreement partly tautological.

The default search assigns images to the oracle's own generating set S,
extends them along a breadth-first spanning tree of the Cayley graph, and
keeps a candidate ``img`` iff it respects every edge of that graph:

    img(xs) = img(x) * img(s)   for every element x and every s in S,

which is |S|·n steps rather than n².  ``img(e) = e`` holds by construction.
This is exactly the homomorphism law.  Only if: an edge is a pair.  If:
every element of a finite group is a positive word in S (s^-1 is a power
of s), so induct on the length of y to show img(xy) = img(x) * img(y) for
all x.  For y = e both sides are img(x), as img(e) = e.  If it holds for y,
then for s in S

    img(x·ys) = img(xy) * img(s)             (edge at xy)
              = img(x) * img(y) * img(s)     (law for y)
              = img(x) * img(ys)             (edge at y).

A homomorphism is fixed by its images of S, and the tree extension of those
images is that homomorphism, so every endomorphism is found exactly once.
This is the census's only route.  The tests keep reference searches to set
against it: one grows generator images and scans all n² pairs, the other
scans the full map space depth first, pruned on partial homomorphism
violations, with no generating set at all.

An endomorphism is a plain :class:`~sdmat.maps.FMap` from the group to
itself.  Each census entry has passed the edge check, so the law holds on
all pairs; :func:`compose_endos` and :func:`invert_endo` take such maps and
return their composite and inverse without re-checking them.

:func:`composition_table` composes every ordered pair of a list of such
maps: ``table[i][j]`` is the index of ``endos[i]`` after ``endos[j]`` in the
list, or -1.  A composite is the outer image table gathered at the inner
map's images (one ``itemgetter`` per inner map), looked up in a dict of
the listed image tables.  It reads the image tables over the product group
only, so ``verify`` can set it against the matrix side's product table as
an independent computation of the same n² products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import BoundExceeded, DomainMismatch, NotBijective
from .groups import FiniteGroup
from .maps import FMap

__all__ = ["EndCensus", "enumerate_endos", "invert_endo", "compose_endos", "composition_table"]


@dataclass(frozen=True)
class EndCensus:
    """All endomorphisms of one group, with the bijective ones split out."""

    group: FiniteGroup
    endos: tuple[FMap, ...]
    autos: tuple[FMap, ...]

    @property
    def n_endos(self) -> int:
        return len(self.endos)

    @property
    def n_autos(self) -> int:
        return len(self.autos)


def _oracle_generators(t: tuple[tuple[int, ...], ...], identity: int) -> list[int]:
    """Greedy generating set: repeatedly adopt the first non-generated element."""
    n = len(t)
    gens: list[int] = []
    generated = {identity}
    while len(generated) < n:
        gens.append(next(a for a in range(n) if a not in generated))
        generated = {identity}
        frontier = [identity]
        while frontier:
            step = []
            for x in frontier:
                for g in gens:
                    y = t[x][g]
                    if y not in generated:
                        generated.add(y)
                        step.append(y)
            frontier = step
    return gens


def _holds_on_edges(cols: list[tuple[int, ...]], gens: list[int], img: list[int]) -> bool:
    """Whether img(xg) = img(x) * img(g) on every edge (x, g) of the Cayley graph of gens."""
    for g in gens:
        right = cols[img[g]]  # v -> v * img(g)
        for xg, ix in zip(cols[g], img):
            if img[xg] != right[ix]:
                return False
    return True


def _endos_by_generators(group: FiniteGroup) -> list[tuple[int, ...]]:
    t = group.table
    n = group.order
    e = group.identity
    gens = _oracle_generators(t, e)
    cols = list(zip(*t))  # cols[a][x] = x * a
    # Reach every element once as (known element) * generator, breadth first.
    reach: list[tuple[int, int, int]] = []
    seen = {e}
    frontier = [e]
    while frontier:
        step = []
        for x in frontier:
            for g in gens:
                y = t[x][g]
                if y not in seen:
                    seen.add(y)
                    reach.append((y, x, g))
                    step.append(y)
        frontier = step
    found: list[tuple[int, ...]] = []
    for images in itertools.product(range(n), repeat=len(gens)):
        assigned = dict(zip(gens, images))
        img = [0] * n
        img[e] = e
        for y, x, g in reach:
            img[y] = t[img[x]][assigned[g]]
        if _holds_on_edges(cols, gens, img):
            found.append(tuple(img))
    return found


def enumerate_endos(group: FiniteGroup, bound: int = 64) -> EndCensus:
    """All endomorphisms of a group, sorted by image table.

    ``bound`` guards the group order.  The search runs over images of the
    oracle's generators (module docstring); its reference copies live in
    the tests.
    """
    if group.order > bound:
        raise BoundExceeded(f"group order {group.order} exceeds bound {bound}")
    tables = _endos_by_generators(group)
    tables.sort()
    endos = tuple(FMap(group, group, img) for img in tables)
    autos = tuple(e for e in endos if e.is_bijective)
    return EndCensus(group=group, endos=endos, autos=autos)


def _group_of(*thetas: FMap) -> FiniteGroup:
    """The one group that every given map sends to itself."""
    group = thetas[0].dom
    if any(t.dom is not group or t.cod is not group for t in thetas):
        raise DomainMismatch("endomorphisms must map one group to itself")
    return group


def invert_endo(theta: FMap) -> FMap:
    """Inverse of a bijective endomorphism, by inverting its image table."""
    group = _group_of(theta)
    if not theta.is_bijective:
        raise NotBijective("endomorphism is not bijective")
    inv = [0] * group.order
    for g, v in enumerate(theta.image):
        inv[v] = g
    return FMap(group, group, tuple(inv))


def compose_endos(outer: FMap, inner: FMap) -> FMap:
    """Composition outer after inner, as endomorphisms of the same group."""
    group = _group_of(outer, inner)
    return FMap(group, group, tuple(outer.image[v] for v in inner.image))


def composition_table(endos: list[FMap]) -> list[list[int]]:
    """``table[i][j]``: the index of ``endos[i]`` after ``endos[j]`` in ``endos``, -1 if it is not there.

    Each composite is the image table of the outer map gathered at the
    inner map's images, looked up among the given image tables.
    """
    if not endos:
        return []
    group = _group_of(*endos)
    index = {t.image: i for i, t in enumerate(endos)}
    if group.order == 1:
        # itemgetter of a single index returns a bare value, not a tuple.
        gathers = [lambda image, v=t.image[0]: (image[v],) for t in endos]
    else:
        gathers = [itemgetter(*t.image) for t in endos]
    return [[index.get(gather(outer.image), -1) for gather in gathers] for outer in endos]
