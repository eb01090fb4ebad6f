"""Independent reference arithmetic for the benchmark's output checks.

Every catalog instance is a split metacyclic group

    G = Z_n x|_u Z_m = <a, b | a^n, b^m, b a b^-1 = a^u>,

with elements a^i b^j stored as the pair (i, j) and indexed i*m + j, the
same encoding the program's matrix files use (H = Z_n on indices 0..n-1,
K = Z_m on 0..m-1, k acting on H as multiplication by u^k).  Nothing here
imports the program: the counts and maps below are computed from the
presentation with plain modular arithmetic, so agreement with the program
is evidence, not a tautology.
"""

from __future__ import annotations

from math import gcd

# Documented verify limits: monoid_laws skips above _ASSOC, the pairwise
# checks skip above _PAIR matrices.  A check the limits say must run has to
# pass; above a limit it may skip (or pass, once a limit is raised).
ASSOC_LIMIT = 60
PAIR_LIMIT = 200
PAIRWISE_CHECKS = ("endo_matrix_correspondence", "abcd_subgroup_closure", "abcd_normalization")

# The named checks every verify report lists.
CHECK_NAMES = (
    "endo_matrix_correspondence",
    "monoid_laws",
    "invertibility_via_det_k",
    "invertibility_via_det_h",
    "inverse_formula_det_k",
    "inverse_formula_det_h",
    "determinant_duality",
    "combined_inverse",
    "unit_diagonal_a_factor",
    "unit_diagonal_b_factor",
    "abcd_factorization",
    "abcd_subgroup_closure",
    "abcd_normalization",
)


def parse_instance(name: str) -> tuple[int, int, int]:
    """(n, m, u) of a catalog instance name."""
    head, _, rest = name.partition(":")
    p = [int(x) for x in rest.split(":")] if rest else []
    if head == "trivial":
        return 1, 1, 1
    if head == "cyclic":
        return p[0], 1, 1
    if head == "klein":
        return 2, 2, 1
    if head == "direct":
        return p[0], p[1], 1
    if head == "dihedral":
        return p[0], 2, p[0] - 1
    if head == "metacyclic":
        return p[0], p[1], p[2]
    raise ValueError(f"no reference model for instance {name!r}")


class Metacyclic:
    """Z_n x|_u Z_m with its multiplication table."""

    def __init__(self, n: int, m: int, u: int) -> None:
        self.n, self.m, self.u = n, m, u % n if n > 1 else 0
        self.order = n * m
        self.upow = [pow(self.u, j, n) for j in range(m)]
        self.table = [
            [self._mul(x, y) for y in range(self.order)] for x in range(self.order)
        ]

    def _mul(self, x: int, y: int) -> int:
        i1, j1 = divmod(x, self.m)
        i2, j2 = divmod(y, self.m)
        return ((i1 + self.upow[j1] * i2) % self.n) * self.m + (j1 + j2) % self.m

    def power(self, x: int, e: int) -> int:
        out = 0
        for _ in range(e):
            out = self.table[out][x]
        return out

    def generates(self, x: int, y: int) -> bool:
        seen = {0}
        frontier = [0]
        t = self.table
        while frontier:
            step = []
            for g in frontier:
                for s in (x, y):
                    h = t[g][s]
                    if h not in seen:
                        seen.add(h)
                        step.append(h)
            frontier = step
        return len(seen) == self.order


def end_aut_counts(n: int, m: int, u: int) -> tuple[int, int]:
    """|End(G)| and |Aut(G)|: images (x, y) of (a, b) that satisfy the relations.

    An endomorphism is fixed by the images x of a and y of b, and any pair
    with x^n = y^m = 1 and y x = x^u y extends.  It is an automorphism
    exactly when x and y generate G.
    """
    G = Metacyclic(n, m, u)
    t = G.table
    xs = [(x, G.power(x, G.u)) for x in range(G.order) if G.power(x, n) == 0]
    ys = [y for y in range(G.order) if G.power(y, m) == 0]
    end = aut = 0
    for x, xu in xs:
        for y in ys:
            if t[y][x] == t[xu][y]:
                end += 1
                aut += G.generates(x, y)
    return end, aut


def expected_statuses(n_end: int) -> dict[str, tuple[str, ...]]:
    """Allowed statuses per check for an instance with ``n_end`` matrices."""
    allowed: dict[str, tuple[str, ...]] = {}
    for check in PAIRWISE_CHECKS:
        allowed[check] = ("skip", "pass") if n_end > PAIR_LIMIT else ("pass",)
    allowed["monoid_laws"] = ("skip", "pass") if n_end > ASSOC_LIMIT else ("pass",)
    return allowed


# ---------------------------------------------------------------------------
# Matrices as endomorphisms


def theta(G: Metacyclic, mat: dict) -> tuple[int, ...]:
    """(h, k) -> (alpha(h) + u^gamma(h) beta(k), gamma(h) + delta(k)), indexed h*m + k."""
    a, b, g, d = mat["alpha"], mat["beta"], mat["gamma"], mat["delta"]
    n, m, up = G.n, G.m, G.upow
    return tuple(
        ((a[h] + up[g[h]] * b[k]) % n) * m + (g[h] + d[k]) % m
        for h in range(n)
        for k in range(m)
    )


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[x] for x in inner)


def is_bijective(image) -> bool:
    return len(set(image)) == len(image)


def is_hom_cyclic(image, order: int) -> bool:
    """Whether a map Z_order -> Z_order is additive."""
    return all(
        image[(x + y) % order] == (image[x] + image[y]) % order
        for x in range(order)
        for y in range(order)
    )


def _inverse_table(image) -> list[int]:
    inv = [0] * len(image)
    for x, y in enumerate(image):
        inv[y] = x
    return inv


def det_k(G: Metacyclic, mat: dict) -> list[int] | None:
    """delta - gamma alpha^-1 beta in Z_m, when alpha is bijective."""
    if not is_bijective(mat["alpha"]):
        return None
    ainv = _inverse_table(mat["alpha"])
    g, b, d = mat["gamma"], mat["beta"], mat["delta"]
    return [(d[k] - g[ainv[b[k]]]) % G.m for k in range(G.m)]


def det_h(G: Metacyclic, mat: dict) -> list[int] | None:
    """alpha - beta delta^-1 gamma in Z_n, when delta is bijective."""
    if not is_bijective(mat["delta"]):
        return None
    dinv = _inverse_table(mat["delta"])
    a, b, g = mat["alpha"], mat["beta"], mat["gamma"]
    return [(a[h] - b[dinv[g[h]]]) % G.n for h in range(G.n)]


def _is_identity(image) -> bool:
    return list(image) == list(range(len(image)))


def _is_zero(image) -> bool:
    return all(v == 0 for v in image)


def factor_shapes_ok(f: dict) -> bool:
    """a = (*, 0; 0, 1), b = (1, *; 0, 1), c = (1, 0; *, 1), d = (1, 0; 0, *)."""
    a, b, c, d = f["a"], f["b"], f["c"], f["d"]
    return (
        _is_zero(a["beta"]) and _is_zero(a["gamma"]) and _is_identity(a["delta"])
        and _is_identity(b["alpha"]) and _is_zero(b["gamma"]) and _is_identity(b["delta"])
        and _is_identity(c["alpha"]) and _is_zero(c["beta"]) and _is_identity(c["delta"])
        and _is_identity(d["alpha"]) and _is_zero(d["beta"]) and _is_zero(d["gamma"])
    )


# ---------------------------------------------------------------------------
# Closed forms that test the counter itself


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def self_test() -> None:
    """Check end_aut_counts against closed forms; raise ValueError on a mismatch."""
    cases = []
    for n, m in ((1, 1), (2, 2), (3, 2), (4, 6), (6, 4), (3, 3), (5, 1), (4, 4)):
        cases.append((f"|End(Z{n} x Z{m})|", end_aut_counts(n, m, 1)[0], n * m * gcd(n, m) ** 2))
    for n in range(3, 9):
        cases.append((f"|Aut(D{n})|", end_aut_counts(n, 2, n - 1)[1], n * _phi(n)))
    # Odd n: a maps to any rotation and b to any reflection, or both to 1.
    # (1 + n + sum over d | n, d > 1 of d*phi(d) agrees only for prime n.)
    for n in (3, 5, 7, 9, 15):
        cases.append((f"|End(D{n})|", end_aut_counts(n, 2, n - 1)[0], n * n + 1))
    bad = [f"{label}: counted {got}, closed form {want}" for label, got, want in cases if got != want]
    if bad:
        raise ValueError("reference counter disagrees with closed forms: " + "; ".join(bad))


if __name__ == "__main__":
    self_test()
    print("reference counter agrees with the closed forms")
