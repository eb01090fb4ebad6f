"""Reference copies of the n² pairwise tables and the checks that read them.

``verify`` decides its four pairwise checks with no n² table (the
``sdmat.verify`` docstring).  Before that it built two n² tables and ran
Light's test; those routes live on here only, so the tests can set the
per-matrix decision against them on every instance small enough to build
the tables:

- :func:`product_table` evaluates ``mat_mul``'s entry formula once per left
  factor on the whole H x K grid and reads the n² products off those maps;
- :func:`composition_table` composes endomorphisms keyed by their images of
  the oracle's generators, after checking on the oracle's Cayley-graph edges
  that each listed map is an endomorphism;
- :func:`associativity_witness` runs Light's test on a square table over a
  small generating set of the monoid (:func:`monoid_generators`);
- :func:`pairwise_checks` decides the four checks from these tables, with
  the witnesses and notes the harness gave when it built them.
"""

from itertools import repeat
from operator import getitem

from sdmat.errors import DomainMismatch, PreconditionFailed
from sdmat.groups import _associativity_witness, _identity
from sdmat.matrices import _entry_images, _product_images, mat_mul
from sdmat.oracle import _edge_walk, _group_of, enumerate_endos
from sdmat.verify import CheckResult, _mat_witness


def product_table(mats):
    """``table[i][j]``: the index of ``mats[i] * mats[j]`` in ``mats``, -1 if it is not there.

    A matrix is its columns, each coded as the product element ``h * |K| + k``
    it names.  A left factor sends every column through the same map
    (``_product_images``), so it is evaluated once per left factor on the
    whole H x K grid; column j then reads the codes of every product with
    ``mats[j]`` on the right off those maps at ``mats[j]``'s column codes.
    """
    if not mats:
        return []
    P = mats[0].context
    if any(m.context is not P for m in mats):
        raise DomainMismatch("matrices live over different products")
    nH, nK = P.H.order, P.K.order
    xs = tuple(h for h in range(nH) for _ in range(nK))
    ys = tuple(range(nK)) * nH
    codes = [
        tuple(x * nK + y for x, y in zip(m.alpha.image + m.beta.image, m.gamma.image + m.delta.image))
        for m in mats
    ]
    get = {c: j for j, c in enumerate(codes)}.get
    colmaps = []
    for left in mats:
        a, _, c, _ = _product_images(left, xs, (), ys, ())
        colmaps.append([x * nK + y for x, y in zip(a, c)])
    at = list(zip(*colmaps))  # at[x][i]: where mats[i] sends the column coded x
    columns = [list(map(get, zip(*map(at.__getitem__, c)), repeat(-1))) for c in codes]
    return [list(row) for row in zip(*columns)]


def composition_table(endos):
    """``table[i][j]``: the index of ``endos[i]`` after ``endos[j]`` in ``endos``, -1 if it is not there.

    Each map is keyed by its images of the oracle's generators S, which fix an
    endomorphism, so a composite's key is |S| entries of the outer map at the
    inner map's images of S.  Raises PreconditionFailed if a listed map breaks
    an edge of the oracle's Cayley graph, i.e. is not an endomorphism.
    """
    if not endos:
        return []
    group = _group_of(*endos)
    t = group.table
    images_at = list(zip(*[e.image for e in endos]))  # images_at[x][i] = endos[i].image[x]
    gens, stages = _edge_walk(t, group.identity)
    for steps in stages:
        for y, x, j, _ in steps:
            at_y, at_x, at_g = images_at[y], images_at[x], images_at[gens[j]]
            if at_y != tuple(map(getitem, map(t.__getitem__, at_x), at_g)):
                i = next(i for i, v in enumerate(at_y) if v != t[at_x[i]][at_g[i]])
                raise PreconditionFailed(f"map {i} is not an endomorphism: it breaks the edge {x} * {gens[j]} = {y}")
    gens = gens or [group.identity]  # the trivial group is generated by its identity
    get = {key: i for i, key in enumerate(zip(*[images_at[g] for g in gens]))}.get
    columns = [list(map(get, zip(*[images_at[e.image[g]] for g in gens]), repeat(-1))) for e in endos]
    return [list(row) for row in zip(*columns)]


def monoid_generators(rows, identity):
    """Elements that reach every element of a table with an identity from it by right multiplication.

    Candidates come in order of decreasing row image ``len(set(row))``, ties
    by index, and each one the earlier ones do not reach is kept.
    """
    n = len(rows)
    gens = []
    reached = {identity}
    for g in sorted(range(n), key=lambda a: -len(set(rows[a]))):
        if len(reached) == n:
            break
        if g in reached:
            continue
        gens.append(g)
        # reached was closed under the earlier gens: add its products by g, and close under all gens.
        todo = [row[g] for row in map(rows.__getitem__, reached)]
        while todo:
            y = todo.pop()
            if y not in reached:
                reached.add(y)
                row_y = rows[y]
                todo.extend(row_y[s] for s in gens)
    return gens


def associativity_witness(table):
    """The first (a, b, c), a outermost, with (ab)c != a(bc) in a square table; None if there is none.

    Light's test over :func:`monoid_generators`; only when a generator fails,
    or the table has no identity, is the witness found by the a-outermost scan.
    """
    rows = tuple(map(tuple, table))
    identity = _identity(rows)
    return _associativity_witness(rows, None if identity is None else monoid_generators(rows, identity))


def _first_escape(pt, members, inv_idx=None):
    ordered = sorted(members)
    for i in ordered:
        if inv_idx is not None and inv_idx.get(i) not in members:
            return {"index": i, "detail": "inverse escapes"}
        for j in ordered:
            if pt[i][j] not in members:
                return {"pair": [i, j]}
    return None


def pairwise_checks(ctx):
    """The four pairwise checks of a ``verify._Context``, decided on the n² tables: (results by name, notes)."""
    pt = product_table(ctx.mats)
    n, e, notes = ctx.n, ctx.identity_idx, {}
    closure = None
    for i, row in enumerate(pt):
        if -1 in row:
            j = row.index(-1)
            closure = {"left": i, "right": j, "product": [list(x) for x in mat_mul(ctx.mats[i], ctx.mats[j]).key()]}
            break
    inv_idx = {}
    if e is not None:
        for i in ctx.auto_idx:
            j = next((j for j in range(n) if pt[i][j] == e and pt[j][i] == e), None)
            if j is not None:
                inv_idx[i] = j

    def correspondence():
        name = "endo_matrix_correspondence"
        endos = enumerate_endos(ctx.product.group, bound=ctx.bound).endos
        if len(endos) != n:
            return CheckResult(name, "fail", witness={"matrix_count": n, "endo_count": len(endos)})
        oracle_images, matrix_images = {t.image for t in endos}, {t.image for t in ctx.thetas}
        if oracle_images != matrix_images:
            extra = sorted(matrix_images - oracle_images) + sorted(oracle_images - matrix_images)
            return CheckResult(name, "fail", witness={"image_mismatch": [list(x) for x in extra[:1]]})
        for theta, m in zip(ctx.thetas, ctx.mats):
            if _entry_images(theta, ctx.product) != m.key():
                return CheckResult(name, "fail", witness=_mat_witness(m, detail="round trip through endomorphism"))
        if e is None:
            return CheckResult(name, "fail", witness={"detail": "identity matrix missing from enumeration"})
        identity_image = tuple(range(ctx.product.group.order))
        kernel = [i for i, t in enumerate(ctx.thetas) if t.image == identity_image]
        if kernel != [e]:
            return CheckResult(name, "fail", witness={"kernel_indices": kernel})
        if closure is not None:
            return CheckResult(name, "fail", witness=closure)
        for i, (composed, row) in enumerate(zip(composition_table(ctx.thetas), pt)):
            if composed != row:
                j = next(j for j, (c, p) in enumerate(zip(composed, row)) if c != p)
                return CheckResult(
                    name, "fail", witness={"left": i, "right": j, "detail": "matrix product differs from composition"}
                )
        return CheckResult(name, "pass")

    def monoid():
        name = "monoid_laws"
        if closure is not None:
            return CheckResult(name, "fail", witness=closure)
        if e is None:
            return CheckResult(name, "fail", witness={"detail": "no identity matrix"})
        for j in range(n):
            if pt[e][j] != j or pt[j][e] != j:
                return CheckResult(name, "fail", witness={"index": j, "detail": "identity law"})
        triple = associativity_witness(pt)
        if triple is not None:
            return CheckResult(name, "fail", witness={"triple": list(triple)})
        return CheckResult(name, "pass")

    def subgroups():
        name = "abcd_subgroup_closure"
        families = ctx.families
        for letter in ("A", "B", "D"):
            members = set(families[letter])
            if e not in members:
                return CheckResult(name, "fail", witness={"family": letter, "detail": "identity missing"})
            witness = _first_escape(pt, members, inv_idx)
            if witness is not None:
                return CheckResult(name, "fail", witness={"family": letter, **witness})
        c_witness = _first_escape(pt, set(families["C"]))
        notes["c_family_closed"] = c_witness is None
        if c_witness is not None:
            notes["c_family_witness"] = c_witness
        abcd = {
            pt[pt[pt[a][b]][c]][d]
            for a in families["A"]
            for b in families["B"]
            for c in families["C"]
            for d in families["D"]
        }
        notes["abcd_product_set"] = {
            "size": len(abcd),
            "aut_size": len(ctx.auto_idx),
            "equals_aut": abcd == set(ctx.auto_idx),
        }
        return CheckResult(name, "pass")

    def normalization():
        name = "abcd_normalization"
        for x in sorted(set(ctx.families["A"]) | set(ctx.families["D"])):
            xi = inv_idx.get(x)
            if xi is None:
                return CheckResult(name, "fail", witness={"index": x, "detail": "conjugator has no inverse"})
            for letter in ("B", "C"):
                members = set(ctx.families[letter])
                for y in sorted(members):
                    if pt[pt[x][y]][xi] not in members:
                        return CheckResult(name, "fail", witness={"family": letter, "conjugator": x, "member": y})
        return CheckResult(name, "pass")

    return {r.name: r for r in (correspondence(), monoid(), subgroups(), normalization())}, notes
