"""Reference copy of the pointwise map algebra the matrix calculus is stated in.

The package evaluates every formula of the calculus in one pass over the
image tables: the product's entries in ``matrices._product_images``, the
determinants and closed-form inverses in ``determinant``.  The tests set
those passes against the same formulas written here one map operation at a
time.  Each result is built with the public, checked ``FMap(...)``, so the
reference checks its own tables.

With values multiplied in the codomain and written additively,

    (phi + psi)(u) = phi(u) * psi(u),   (-phi)(u) = phi(u)^-1,

the constant-identity map (``maps.zero_map``) is the zero, composition is
``eta o phi`` and twisting through an action is ``u -> f_{steer(u)}(phi(u))``.
"""

from sdmat import DomainMismatch, FMap


def _require_parallel(phi, psi):
    if phi.dom is not psi.dom or phi.cod is not psi.cod:
        raise DomainMismatch("operands must share domain and codomain")


def map_add(phi, psi):
    """Pointwise product: u -> phi(u) * psi(u), in that order."""
    _require_parallel(phi, psi)
    ct = phi.cod.table
    return FMap(phi.dom, phi.cod, tuple([ct[a][b] for a, b in zip(phi.image, psi.image)]))


def map_neg(phi):
    """Pointwise inverse: u -> phi(u)^-1."""
    inv = phi.cod.inverses
    return FMap(phi.dom, phi.cod, tuple([inv[v] for v in phi.image]))


def map_compose(eta, phi):
    """Composition eta o phi: first apply phi, then eta."""
    if phi.cod is not eta.dom:
        raise DomainMismatch("codomain of the inner map must be the domain of the outer map")
    outer = eta.image
    return FMap(phi.dom, eta.cod, tuple([outer[v] for v in phi.image]))


def map_act(phi, steer, action):
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
    return FMap(phi.dom, phi.cod, tuple([rows[s][v] for v, s in zip(phi.image, steer.image)]))
