"""Reference copies of a matrix's endomorphism, and of its bijectivity and inverse.

``matrices.matrix_to_endo`` builds theta as the entry formula's map on the
H x K grid (the ``sdmat.matrices`` docstring).  Before that it gathered theta
from the product group's table, theta(h, k) = theta(h, 1) * theta(1, k), and
``verify`` compared the two for every matrix.  The gather lives on here
only, so the tests can set the one route against it.

:func:`is_automorphism_matrix` decides invertibility by brute force, the
bijectivity of theta, and :func:`invert_endo` inverts a whole image table:
the tests set the determinant routes and the closed-form inverses against
them.

Run as a script, it sets the two against each other on every matrix of one
instance and exits 1 on the first that disagrees:

    PYTHONPATH=src python tests/endo_reference.py dihedral:128 256
"""

import sys

from sdmat import DomainMismatch, FMap, NotBijective, build_instance, enumerate_matrices, matrix_to_endo


def gathered_endo(matrix):
    """theta(h, k) = (alpha h, gamma h) * (beta k, delta k), read off the product group's table."""
    P = matrix.context
    gt, nK = P.group.table, P.K.order
    on_h = [a * nK + g for a, g in zip(matrix.alpha.image, matrix.gamma.image)]
    on_k = [b * nK + d for b, d in zip(matrix.beta.image, matrix.delta.image)]
    return FMap(P.group, P.group, tuple(gt[x][y] for x in on_h for y in on_k))


def is_automorphism_matrix(matrix):
    """Whether the described endomorphism is bijective."""
    return matrix_to_endo(matrix).is_bijective


def invert_endo(theta):
    """Inverse of a bijective endomorphism, by inverting its image table."""
    group = theta.dom
    if theta.cod is not group:
        raise DomainMismatch("endomorphisms must map one group to itself")
    if not theta.is_bijective:
        raise NotBijective("endomorphism is not bijective")
    inv = [0] * group.order
    for g, v in enumerate(theta.image):
        inv[v] = g
    return FMap(group, group, tuple(inv))


def first_disagreement(mats):
    """The first matrix whose ``matrix_to_endo`` is not its gathered endomorphism, or None."""
    return next((m for m in mats if matrix_to_endo(m) != gathered_endo(m)), None)


if __name__ == "__main__":
    instance, bound = sys.argv[1], int(sys.argv[2])
    mats = enumerate_matrices(build_instance(instance, bound=bound), bound=bound)
    wrong = first_disagreement(mats)
    print(f"{instance}: {len(mats)} matrices, " + ("all agree" if wrong is None else f"first disagreement {wrong!r}"))
    sys.exit(wrong is not None)
