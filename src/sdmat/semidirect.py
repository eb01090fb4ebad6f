"""Group actions by automorphisms and the semidirect products they define.

An action of K on H is a table ``images[k][h] = f_k(h)`` where every row is
an automorphism of H and rows compose like K does.  The product group G has
pairs (h, k) encoded as the single index ``h * |K| + k`` and multiplication

    (h1, k1) (h2, k2) = (h1 * f_{k1}(h2), k1 k2).

Conjugating h by k inside G gives ``images[k][h]``: the action is
conjugation, which is what makes the matrix calculus built on top of this
file work.

The table of G is built and validated through make_group's checks when
:attr:`SdProduct.group` is first read, not when :func:`semidirect` returns:
``det``, ``invert`` and ``factor`` decide invertibility from the four entry
maps of a matrix alone when a diagonal entry is bijective, and never read
it then.  Deferring it changes no outcome, because the table of a
valid action is always a group, so those checks cannot fail on it.  With
every f_k an automorphism of H and f(k1 k2) = f(k1) o f(k2) (so f(e) = 1):

- (e, e) is the identity: (e, e)(h, k) = (f_e(h), k) = (h, k), and
  (h, k)(e, e) = (h f_k(e), k) = (h, k), as f_k(e) = e;
- (f_{k^-1}(h^-1), k^-1) is the inverse of (h, k): on the right,
  (h f_k(f_{k^-1}(h^-1)), e) = (h f_e(h^-1), e) = (e, e); on the left,
  (f_{k^-1}(h^-1) f_{k^-1}(h), e) = (f_{k^-1}(h^-1 h), e) = (e, e);
- the product is associative:

      ((h1, k1)(h2, k2))(h3, k3) = (h1 f_k1(h2) f_{k1 k2}(h3), k1 k2 k3)
      (h1, k1)((h2, k2)(h3, k3)) = (h1 f_k1(h2 f_k2(h3)), k1 k2 k3)
                                 = (h1 f_k1(h2) f_k1(f_k2(h3)), k1 k2 k3),

  equal as f_{k1 k2} = f_k1 o f_k2.

On that first read the table is gathered as tuple rows of pair codes, each
in 0..|G|-1, so it skips only the per-entry range scan of make_group
(``groups._group_of_rows``).  The rows' lengths, the two-sided identity,
every two-sided inverse and associativity (Light's test on the greedy
generators) are still checked, and the greedy generators and their walk
are kept, as for any table.

:func:`make_action` records on each ``GroupAction`` it returns that it is
an action (``maps.memo``, as ``matrices.check_conditions`` records its
verdict), and :func:`semidirect` reads that record, so an action from
make_action (``catalog.build_instance``, ``catalog.load_action``) is
validated once.  A ``GroupAction`` built by hand, bypassing make_action,
or by :func:`trivial_action` has no record and may not be an action, so
semidirect first passes its table through make_action and raises its
error; the record it then keeps is that of a valid action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Sequence

from .errors import NotAutomorphism, NotHomomorphic
from .groups import FiniteGroup, _group_of_rows, index_row
from .maps import FMap, memo, twisted_law_witness

__all__ = [
    "GroupAction",
    "SdProduct",
    "make_action",
    "trivial_action",
    "semidirect",
]


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A validated action of K on H by automorphisms."""

    H: FiniteGroup
    K: FiniteGroup
    images: tuple[tuple[int, ...], ...]

    @cached_property
    def kernel(self) -> frozenset[int]:
        """Elements of K acting trivially on H.

        Inside the product this is the centralizer of the H-copy in the K-copy;
        it is the kernel of the action homomorphism, hence a subgroup.
        """
        identity_row = tuple(range(self.H.order))
        return frozenset(k for k in range(self.K.order) if self.images[k] == identity_row)


def make_action(H: FiniteGroup, K: FiniteGroup, images: Sequence[Sequence[int]]) -> GroupAction:
    """Validate an action table row by row, then as a homomorphism into Aut(H).

    Raises ValueError for a malformed table, NotAutomorphism(k) if row k is
    not a bijective endomorphism of H (decided by :attr:`FMap.is_hom`), and
    NotHomomorphic(k1, k2) if rows fail f(k1 k2) = f(k1) o f(k2).

    With every row a bijection, that law holds for all pairs iff

        f(e) = 1   and   f(ks) = f(k) o f(s)   for every k and every s in K.generators,

    |S|·|K| row comparisons rather than |K|².  Only if: f(e) = f(e) o f(e)
    and f(e) is invertible, and the second is a case of the law.  If: every
    k2 is a positive word in S, so induct on its length.  For k2 = e,
    f(k1 e) = f(k1) = f(k1) o f(e).  If the law holds for k2, then

        f(k1·k2 s) = f(k1 k2) o f(s)          (generator law at k1 k2)
                   = f(k1) o f(k2) o f(s)     (law for k2)
                   = f(k1) o f(k2 s)          (generator law at k2).

    Only when this fails are all pairs scanned, k1 outermost, so the pair
    named is the first failing one either way.
    """
    if not isinstance(images, (list, tuple)) or len(images) != K.order:
        raise ValueError(f"expected a list of {K.order} rows")
    rows = tuple(index_row(row, H.order, f"row {k}") for k, row in enumerate(images))
    for k, row in enumerate(rows):
        if len(row) != H.order:
            raise ValueError(f"row {k} has {len(row)} entries, expected {H.order}")
        if len(set(row)) != H.order:
            raise NotAutomorphism(k, "row is not a bijection")
        if not FMap(H, H, row).is_hom:
            x, y, _, _ = twisted_law_witness(H, H, row)
            raise NotAutomorphism(k, f"row is not a homomorphism at ({x}, {y})")
    kt = K.table
    composes = rows[K.identity] == tuple(range(H.order)) and all(
        rows[kt[k][s]] == tuple(map(rows[k].__getitem__, rows[s])) for s in K.generators for k in range(K.order)
    )
    if not composes:
        for k1 in range(K.order):
            r1 = rows[k1]
            for k2 in range(K.order):
                r12 = rows[kt[k1][k2]]
                r2 = rows[k2]
                if any(r12[h] != r1[r2[h]] for h in range(H.order)):
                    raise NotHomomorphic(k1, k2)
    action = GroupAction(H=H, K=K, images=rows)
    _is_action.record(action, True)
    return action


@memo
def _is_action(action: GroupAction) -> bool:
    """True, kept on ``action``, or make_action's error if its table is no action.

    make_action records True on every action it returns, so only a
    ``GroupAction`` built another way is validated here (module docstring).
    """
    make_action(action.H, action.K, action.images)
    return True


def trivial_action(H: FiniteGroup, K: FiniteGroup) -> GroupAction:
    """Every element of K fixes H pointwise; the product is then direct."""
    row = tuple(range(H.order))
    return GroupAction(H=H, K=K, images=(row,) * K.order)


@dataclass(frozen=True, eq=False)
class SdProduct:
    """A semidirect product with its pair encoding and embedded copies.

    Only :func:`semidirect` constructs it, having checked that ``action``
    is an action (module docstring).
    """

    H: FiniteGroup
    K: FiniteGroup
    action: GroupAction
    name: str = ""

    @cached_property
    def group(self) -> FiniteGroup:
        """The product group: its table gathered and validated on first read (module docstring)."""
        H, K = self.H, self.K
        nK = K.order
        ht, kt, rows = H.table, K.table, self.action.images
        # Row (h1, k1) sends (h2, k2) to (h1 f_k1(h2), k1 k2): first to (f_k1(h2), k1 k2),
        # a map of k1 alone, then (h, k) to (h1 h, k), a map of h1 alone.  So each row is
        # the second map gathered at the positions the first one names.
        by_k = [itemgetter(*(h * nK + k for h in row for k in kt[k1])) for k1, row in enumerate(rows)]
        codes = [range(h * nK, h * nK + nK) for h in range(H.order)]  # (h, k) for every k
        by_h = [tuple(chain.from_iterable(map(codes.__getitem__, row))) for row in ht]
        # An itemgetter of one index returns the entry, not a tuple: the one-element case.
        table = tuple([gather(left) for left in by_h for gather in by_k]) if H.order * nK > 1 else ((0,),)
        names = tuple(
            f"({H.element_name(h)},{K.element_name(k)})"
            for h in range(H.order)
            for k in range(nK)
        )
        return _group_of_rows(table, names=names, name=self.name)

    def encode(self, h: int, k: int) -> int:
        return h * self.K.order + k

    def decode(self, g: int) -> tuple[int, int]:
        return divmod(g, self.K.order)

    def embed_h(self, h: int) -> int:
        return h * self.K.order + self.K.identity

    def embed_k(self, k: int) -> int:
        return self.H.identity * self.K.order + k

    def __repr__(self) -> str:
        return f"SdProduct({self.name or self.H.order * self.K.order})"


def semidirect(action: GroupAction, name: str = "") -> SdProduct:
    """The semidirect product of an action; its group is built on first read.

    An ``action`` that :func:`make_action` returned is taken as validated;
    any other is checked by make_action, which raises its ValueError,
    NotAutomorphism or NotHomomorphic for a hand-built ``GroupAction`` that
    is no action (module docstring).  An action's table is a group (proof
    in the module docstring), and it is gathered and validated when
    :attr:`SdProduct.group` is first read.
    """
    _is_action(action)
    return SdProduct(H=action.H, K=action.K, action=action, name=name)
