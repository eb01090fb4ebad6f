"""Reference copy of a matrix's endomorphism, gathered from the product group's table.

``matrices.matrix_to_endo`` builds theta as the entry formula's map on the
H x K grid (the ``sdmat.matrices`` docstring).  Before that it gathered theta
from the product group's table, theta(h, k) = theta(h, 1) * theta(1, k), and
``verify`` compared the two for every matrix.  The gather lives on here
only, so the tests can set the one route against it.

Run as a script, it sets the two against each other on every matrix of one
instance and exits 1 on the first that disagrees:

    PYTHONPATH=src python tests/endo_reference.py dihedral:128 256
"""

import sys

from sdmat import FMap, build_instance, enumerate_matrices, matrix_to_endo


def gathered_endo(matrix):
    """theta(h, k) = (alpha h, gamma h) * (beta k, delta k), read off the product group's table."""
    P = matrix.context
    gt, nK = P.group.table, P.K.order
    on_h = [a * nK + g for a, g in zip(matrix.alpha.image, matrix.gamma.image)]
    on_k = [b * nK + d for b, d in zip(matrix.beta.image, matrix.delta.image)]
    return FMap(P.group, P.group, tuple(gt[x][y] for x in on_h for y in on_k))


def first_disagreement(mats):
    """The first matrix whose ``matrix_to_endo`` is not its gathered endomorphism, or None."""
    return next((m for m in mats if matrix_to_endo(m) != gathered_endo(m)), None)


if __name__ == "__main__":
    instance, bound = sys.argv[1], int(sys.argv[2])
    mats = enumerate_matrices(build_instance(instance, bound=bound), bound=bound)
    wrong = first_disagreement(mats)
    print(f"{instance}: {len(mats)} matrices, " + ("all agree" if wrong is None else f"first disagreement {wrong!r}"))
    sys.exit(wrong is not None)
