"""Brute-force enumeration of endomorphisms, independent of the matrix route.

This module works on raw Cayley tables only.  It deliberately reimplements
its generating-set, image-propagation and law-checking helpers instead of
sharing them with the rest of the package: the whole point of the oracle is
that agreement with the matrix-based enumeration is evidence, and shared
search code would make that agreement partly tautological.

The search assigns images to the oracle's own generating set
S = g_0, ..., g_{m-1}, chosen greedily so that each G_k = <g_0..g_k> is
larger than G_{k-1}, and keeps a candidate ``img`` iff it respects every
edge of the Cayley graph of S:

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

The edges are walked in stages, built once per group.  Stage k holds every
edge (x, g_j) with j <= k and x in G_k that no earlier stage took, in
breadth-first order from the elements of G_{k-1}; so every edge lies in
exactly one stage, and an edge of stage k reads only the images of
g_0..g_k.  An edge whose end y is reached first is a tree edge and assigns
img(y) = img(x) * img(g_j); every other edge is a check edge, whose two
ends are already assigned.  The search is depth first: choose img(g_0) and
run stage 0; only for a survivor choose img(g_1) and run stage 1; and so
on.  A candidate is dropped at its first broken edge, and with it every
choice of the later images, as none of them changes that edge.

A homomorphism is fixed by its images of S and respects every edge, so no
stage drops it and its tree edges assign exactly its images: every
endomorphism is found exactly once.
This is the census's only route.  The tests keep reference searches to set
against it: one grows generator images and scans all n² pairs, the other
scans the full map space depth first, pruned on partial homomorphism
violations, with no generating set at all.

An endomorphism is a plain :class:`~sdmat.maps.FMap` from the group to
itself.  Each census entry has passed the edge check, so the law holds on
all pairs; :func:`compose_endos` takes two such maps and returns their
composite without re-checking it.  No command calls it: the tests use it,
and the benchmark's tracer times it by name.  The census builds its tables
unchecked (``maps._trusted``): every entry is read from a column of the
Cayley table, or is the identity.

``verify`` takes the endomorphism of every enumerated matrix from the
census: it reads each entry's images of the embedded copies of H and K as
two slices of its table, and the entry is the endomorphism of the matrix
with those code columns.  Element codes are a bijection H x K -> G, so
equal columns are equal entry tables, and that matrix is the one whose
key the entry's entries are.  Every entry must match exactly one matrix,
and every matrix one entry.
The matrix side's entry formula is set against the group's table there,
not against these maps (the ``sdmat.verify`` docstring).  No product of
two census entries is formed: their composite is an endomorphism, so it
is in the census.  Nor is any inverse: ``verify`` reads an automorphism's
inverse off its image table, one generator at a time.  The census lists
its bijective entries (:attr:`EndCensus.autos`) only when asked;
``verify`` never asks, and decides the bijectivity of each entry once, on
the map itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BoundExceeded, DomainMismatch
from .groups import FiniteGroup
from .maps import FMap, _trusted

__all__ = ["EndCensus", "enumerate_endos", "compose_endos"]


@dataclass(frozen=True)
class EndCensus:
    """All endomorphisms of one group, with the bijective ones split out."""

    group: FiniteGroup
    endos: tuple[FMap, ...]

    @cached_property
    def autos(self) -> tuple[FMap, ...]:
        """The bijective endomorphisms, in census order, decided on first read."""
        return tuple(e for e in self.endos if e.is_bijective)

    @property
    def n_endos(self) -> int:
        return len(self.endos)

    @property
    def n_autos(self) -> int:
        return len(self.autos)


def _edge_walk(t: tuple[tuple[int, ...], ...], identity: int) -> tuple[list[int], list[list[tuple]]]:
    """The oracle's generators and the stages of their Cayley-graph edges (module docstring).

    Each generator is the first element the earlier ones do not generate.
    Stage k walks <gens[0..k]> breadth first from the elements of earlier
    stages, whose edges of gens[k] are new; a new element adds its edges of
    gens[0..k].  Each edge y = x * gens[j] is one step ``(y, x, j, tree)``:
    a tree step reaches y first, a check step finds it reached.
    """
    n = len(t)
    gens: list[int] = []
    stages: list[list[tuple]] = []
    seen = {identity}
    reached = [identity]
    while len(seen) < n:
        k = len(gens)
        gens.append(next(a for a in range(n) if a not in seen))
        before = set(seen)
        steps = []
        frontier = list(reached)
        while frontier:
            step = []
            for x in frontier:
                for j in (k,) if x in before else range(k + 1):
                    y = t[x][gens[j]]
                    tree = y not in seen
                    if tree:
                        seen.add(y)
                        reached.append(y)
                        step.append(y)
                    steps.append((y, x, j, tree))
            frontier = step
        stages.append(steps)
    return gens, stages


def _descend(
    stages: list[list[tuple]], k: int, cols: list[tuple[int, ...]], rights: list, img: list[int], found: list
) -> None:
    """Run stage k for every image of generator k, and the later stages for each survivor."""
    if k == len(stages):
        found.append(tuple(img))
        return
    steps = stages[k]
    for right in cols:
        rights[k] = right
        for y, x, j, tree in steps:
            w = rights[j][img[x]]
            if tree:
                img[y] = w
            elif img[y] != w:
                break
        else:
            _descend(stages, k + 1, cols, rights, img, found)


def _endos_by_generators(group: FiniteGroup) -> list[tuple[int, ...]]:
    gens, stages = _edge_walk(group.table, group.identity)
    cols = list(zip(*group.table))  # cols[a][x] = x * a
    rights = [cols[0]] * len(gens)  # rights[j]: v -> v * img(gens[j])
    found: list[tuple[int, ...]] = []
    _descend(stages, 0, cols, rights, [group.identity] * group.order, found)
    return found


def enumerate_endos(group: FiniteGroup, bound: int = 64) -> EndCensus:
    """All endomorphisms of a group, sorted by image table.

    ``bound`` guards the group order.  The search walks the Cayley-graph
    edges of the oracle's generators stage by stage (module docstring); its
    reference copies live in the tests.
    """
    if group.order > bound:
        raise BoundExceeded(f"group order {group.order} exceeds bound {bound}")
    tables = _endos_by_generators(group)
    tables.sort()
    return EndCensus(group=group, endos=tuple(_trusted(group, group, img) for img in tables))


def _group_of(*thetas: FMap) -> FiniteGroup:
    """The one group that every given map sends to itself."""
    group = thetas[0].dom
    if any(t.dom is not group or t.cod is not group for t in thetas):
        raise DomainMismatch("endomorphisms must map one group to itself")
    return group


def compose_endos(outer: FMap, inner: FMap) -> FMap:
    """Composition outer after inner, as endomorphisms of the same group."""
    group = _group_of(outer, inner)
    return FMap(group, group, tuple(outer.image[v] for v in inner.image))
