"""Named example products, file formats, and builders.

Every catalog product is one family, Z_n acted on by Z_m with the generator
multiplying by u (requires gcd(u, n) = 1 and u^m = 1 mod n), written

    metacyclic:n:m:u

The other names are aliases for members of it, and keep their own names:

    trivial              1:1:1      the one-element product
    klein                2:2:1      Z_2 x Z_2
    cyclic:n             n:1:1      Z_n acted on by the trivial group
    direct:n:m           n:m:1      Z_n x Z_m, a direct product
    dihedral:n           n:2:n-1    Z_n acted on by Z_2 through inversion

Files are JSON.  A group is {"name", "order", "table", "element_names"?}
with a row-major table.  An action is {"H", "K", "images"} where H and K are
either inline group objects or path strings resolved relative to the action
file.  A matrix is the four image arrays plus a context descriptor with the
factor orders.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

from .errors import BoundExceeded, InvalidInstance
from .groups import FiniteGroup, _group_of_rows, index_row, make_group
from .maps import FMap
from .matrices import EndoMatrix
from .semidirect import GroupAction, SdProduct, make_action, semidirect

__all__ = [
    "DEFAULT_INSTANCES",
    "cyclic_group",
    "build_instance",
    "group_to_dict",
    "group_from_dict",
    "load_group",
    "save_group",
    "load_action",
    "matrix_to_dict",
    "matrix_from_dict",
    "load_matrix",
    "save_matrix",
]


def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    if n < 1:
        raise InvalidInstance(f"cyclic group order must be positive, got {n}")
    # Row a is 0..n-1 rotated left by a: tuple rows of indices in range, so the table skips
    # only make_group's per-entry scan (``groups._group_of_rows``).
    row = tuple(range(n))
    rows = tuple([row[a:] + row[:a] for a in range(n)])
    return _group_of_rows(rows, names=[str(a) for a in range(n)], name=name or f"Z{n}")


DEFAULT_INSTANCES: tuple[str, ...] = (
    "trivial",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "klein",
    "direct:3:2",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "metacyclic:3:4:2",
    "metacyclic:7:3:2",
)


# Each instance name's parameters -> (n, m, u) of the family above.
_FAMILY: dict[str, tuple[int, Callable[..., tuple[int, int, int]]]] = {
    "trivial": (0, lambda: (1, 1, 1)),
    "klein": (0, lambda: (2, 2, 1)),
    "cyclic": (1, lambda n: (n, 1, 1)),
    "direct": (2, lambda n, m: (n, m, 1)),
    "dihedral": (1, lambda n: (n, 2, n - 1)),
    "metacyclic": (3, lambda n, m, u: (n, m, u)),
}


def build_instance(name: str, bound: int | None = None) -> SdProduct:
    """Build a product from its instance name.

    Raises InvalidInstance, and BoundExceeded before any table is built if
    the product order exceeds ``bound`` (None: no guard).
    """
    head, _, rest = name.partition(":")
    if head not in _FAMILY:
        raise InvalidInstance(f"unknown instance {name!r}")
    arity, to_nmu = _FAMILY[head]
    params = rest.split(":") if rest else []
    if len(params) != arity:
        raise InvalidInstance(f"{head} takes {arity} parameter(s), got {len(params)}")
    try:
        values = [int(p) for p in params]
    except ValueError:
        raise InvalidInstance(f"non-integer parameter in {name!r}") from None
    if any(v < 1 for v in values):
        raise InvalidInstance(f"parameters must be positive in {name!r}")
    n, m, u = to_nmu(*values)
    if math.gcd(u, n) != 1:
        raise InvalidInstance(f"unit {u} is not invertible mod {n}")
    if pow(u, m, n) != 1 % n:
        raise InvalidInstance(f"unit {u} does not have order dividing {m} mod {n}")
    if bound is not None and n * m > bound:
        raise BoundExceeded(f"product order {n * m} exceeds bound {bound}")
    images = [[pow(u, j, n) * h % n for h in range(n)] for j in range(m)]
    action = make_action(cyclic_group(n), cyclic_group(m), images)
    return semidirect(action, name=":".join([head, *map(str, values)]))


# ---------------------------------------------------------------------------
# JSON file formats


def group_to_dict(group: FiniteGroup) -> dict:
    data = {
        "name": group.name,
        "order": group.order,
        "table": [list(row) for row in group.table],
    }
    if group.names is not None:
        data["element_names"] = list(group.names)
    return data


def group_from_dict(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "table" in data and not isinstance(data["table"], list):
        raise ValueError("malformed group object")
    table = data.get("table")
    if table is None:
        raise ValueError("group object lacks a table")
    names, name, declared = data.get("element_names"), data.get("name", ""), data.get("order")
    if names is not None and not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
        raise ValueError("element_names must be a list of strings")
    if not isinstance(name, str):
        raise ValueError("group name must be a string")
    if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
        raise ValueError("declared order must be an integer")
    group = make_group(table, names=names, name=name)
    if declared is not None and declared != group.order:
        raise ValueError(f"declared order {declared} does not match table size {group.order}")
    return group


def load_group(path: str | Path) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_dict(json.load(fh))


def save_group(group: FiniteGroup, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_to_dict(group), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_action(
    path: str | Path, H: FiniteGroup | None = None, K: FiniteGroup | None = None
) -> GroupAction:
    """Load an action file; H and K may be inline objects or relative paths.

    Groups passed in replace the file's ``H``/``K`` entries; the file may
    then be just the images table.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        data = {"images": data}

    def resolve(side: str, given: FiniteGroup | None) -> FiniteGroup:
        if given is not None:
            return given
        ref = data.get(side)
        if isinstance(ref, str):
            return load_group(path.parent / ref)
        if isinstance(ref, dict):
            return group_from_dict(ref)
        raise ValueError(f"action file lacks a usable {side!r} entry")

    H = resolve("H", H)
    K = resolve("K", K)
    images = data.get("images")
    if images is None:
        raise ValueError("action file lacks an images table")
    return make_action(H, K, images)


def matrix_to_dict(matrix: EndoMatrix) -> dict:
    P = matrix.context
    return {
        "alpha": list(matrix.alpha.image),
        "beta": list(matrix.beta.image),
        "gamma": list(matrix.gamma.image),
        "delta": list(matrix.delta.image),
        "context": {
            "h_order": P.H.order,
            "k_order": P.K.order,
            "instance": P.name,
        },
    }


def matrix_from_dict(data: dict, product: SdProduct) -> EndoMatrix:
    """Rebuild a matrix over a known product, validating the descriptor."""
    if not isinstance(data, dict):
        raise ValueError("malformed matrix object")
    ctx = data.get("context", {})
    if not isinstance(ctx, dict):
        raise ValueError("matrix context is not an object")
    if ctx:
        h_order, k_order = ctx.get("h_order"), ctx.get("k_order")
        if any(n is not None and (isinstance(n, bool) or not isinstance(n, int)) for n in (h_order, k_order)):
            raise ValueError("matrix context orders must be integers")
        if h_order not in (None, product.H.order) or k_order not in (None, product.K.order):
            raise ValueError(
                f"matrix context ({h_order}, {k_order}) does not match "
                f"product factors ({product.H.order}, {product.K.order})"
            )
    H, K = product.H, product.K
    maps = {}
    for key, dom, cod in (("alpha", H, H), ("beta", K, H), ("gamma", H, K), ("delta", K, K)):
        if key not in data:
            raise ValueError(f"matrix object lacks entry {key!r}")
        maps[key] = FMap(dom, cod, index_row(data[key], cod.order, f"matrix entry {key!r}"))
    return EndoMatrix(*maps.values(), product)


def load_matrix(path: str | Path, product: SdProduct) -> EndoMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh), product)


def save_matrix(matrix: EndoMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(matrix), fh, indent=2, sort_keys=True)
        fh.write("\n")
