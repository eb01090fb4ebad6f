"""Workload definitions, input building and output checks.

An operation is one in-process ``cli_main(argv)`` call, i.e. one ``sdmat``
command without interpreter start-up.  A workload is an ordered list of
operations; a run repeats the whole list (a pass) until its time is up, so
every run times the same operations in the same order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

# The default catalog plus five instances with 78..144 matrices, under the
# pairwise limit, so the n^2 product table and the n^2 oracle compositions
# dominate.  The five take about the same time each: with two or more passes
# a run, the median falls inside a cluster of ten or more similar timings,
# not on one timing.
VERIFY_PAIRWISE = (
    "dihedral:10",
    "direct:14:2",
    "metacyclic:7:6:3",
    "dihedral:11",
    "metacyclic:12:2:5",
)

# Orders 57..64 with 381..1024 matrices, above the pairwise limit: the
# census, matrix_to_endo over every matrix and the per-matrix determinant,
# inverse and factorization checks dominate.  They take about the same time
# each, for the same reason as above.
VERIFY_WIDE = (
    "metacyclic:19:3:7",
    "dihedral:30",
    "metacyclic:21:3:4",
    "direct:16:4",
    "metacyclic:32:2:15",
)

# Matrix categories: (automorphism, alpha bijective, delta bijective).
# Automorphisms with bijective alpha invert through det_k, those with only
# delta bijective through det_h, the rest through brute force.
DET_H_ROUTE = (True, False, True)

# Matrices drawn per pass, per instance and category.  Every drawn matrix
# is run through det, invert and factor, in an order shuffled by the seed.
# The direct:3:3 det_h-route category is taken whole on every seed (see
# KNOWN_FAULT).
CALCULATOR_DRAW = {
    "direct:3:3": {
        (True, True, True): 6,
        (True, True, False): 3,
        DET_H_ROUTE: 8,
        (True, False, False): 2,
        (False, True, True): 3,
        (False, True, False): 4,
        (False, False, True): 3,
        (False, False, False): 1,
    },
    "metacyclic:7:3:2": {(True, True, True): 13, (False, False, True): 6, (False, False, False): 1},
    "dihedral:12": {(True, True, True): 8, (False, False, True): 9, (False, False, False): 3},
    "metacyclic:9:6:2": {(True, True, True): 20, (False, False, True): 18, (False, False, False): 12},
    "direct:16:4": {
        (True, True, True): 7,
        (False, True, False): 6,
        (False, False, True): 6,
        (False, False, False): 6,
    },
    "dihedral:32": {(True, True, True): 12, (False, False, True): 10, (False, False, False): 3},
}
COMMANDS = ("det", "invert", "factor")

# invert_via_det_h gets the sign of the delta' entry wrong, so on direct:3:3
# (K of exponent 3, nontrivial Hom(H, K)) every det_h-route automorphism
# comes back with a wrong inverse from `invert` and from `det`'s "inverse".
KNOWN_FAULT = ("direct:3:3", DET_H_ROUTE, ("det", "invert"))

@dataclass
class Op:
    kind: str  # "verify", "det", "invert" or "factor"
    argv: list[str]
    instances: tuple[str, ...] = ()  # verify: instances it must report; () = any
    matrix: dict | None = None  # calculator: the four image arrays
    instance: str = ""
    known_fault: bool = False


@dataclass
class Plan:
    ops: list[Op]
    picks: dict[str, list[int]] = field(default_factory=dict)  # calculator inputs


def _file_name(instance: str, index: int) -> str:
    return f"{instance.replace(':', '_')}-{index}.json"


def sorted_matrices(sdmat, instance: str) -> list:
    mats = sdmat.enumerate_matrices(sdmat.build_instance(instance))
    mats.sort(key=lambda m: m.key())
    return mats


def write_inputs(sdmat, picks: dict[str, list[int]], directory: Path) -> None:
    """Build the calculator's matrix files with the program's own calls."""
    directory.mkdir(parents=True, exist_ok=True)
    for instance, indices in picks.items():
        mats = sorted_matrices(sdmat, instance)
        for index in indices:
            sdmat.save_matrix(mats[index], directory / _file_name(instance, index))


def make_plan(sdmat, workload: str, seed: int, directory: Path) -> Plan:
    if workload == "verify-pairwise":
        ops = [Op("verify", ["verify", "--format", "json"])]
        ops += [Op("verify", ["verify", "--instance", x, "--format", "json"], (x,)) for x in VERIFY_PAIRWISE]
        return Plan(ops)
    if workload == "verify-wide":
        ops = [Op("verify", ["verify", "--instance", x, "--format", "json"], (x,)) for x in VERIFY_WIDE]
        return Plan(ops)
    if workload != "calculator":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    ops: list[Op] = []
    picks: dict[str, list[int]] = {}
    for instance, draw in CALCULATOR_DRAW.items():
        G = ref.Metacyclic(*ref.parse_instance(instance))
        arrays = [
            {"alpha": list(m.alpha.image), "beta": list(m.beta.image),
             "gamma": list(m.gamma.image), "delta": list(m.delta.image)}
            for m in sorted_matrices(sdmat, instance)
        ]
        by_category: dict[tuple, list[int]] = {}
        for i, mat in enumerate(arrays):
            category = (
                ref.is_bijective(ref.theta(G, mat)),
                ref.is_bijective(mat["alpha"]),
                ref.is_bijective(mat["delta"]),
            )
            by_category.setdefault(category, []).append(i)
        chosen: list[tuple[int, bool]] = []
        for category, count in draw.items():
            members = by_category.get(category, [])
            fault = (instance, category) == KNOWN_FAULT[:2]
            if fault and len(members) != count:
                raise ValueError(f"{instance}: expected {count} det_h-route automorphisms, found {len(members)}")
            if count > len(members):
                raise ValueError(f"{instance}: category {category} has {len(members)} matrices, draw wants {count}")
            taken = members if fault else rng.sample(members, count)
            chosen += [(i, fault) for i in taken]
        picks[instance] = [i for i, _ in chosen]
        for i, fault in chosen:
            path = str(directory / _file_name(instance, i))
            for command in COMMANDS:
                ops.append(
                    Op(
                        command,
                        [command, "--instance", instance, "--matrix", path],
                        matrix=arrays[i],
                        instance=instance,
                        known_fault=fault and command in KNOWN_FAULT[2],
                    )
                )
    # Interleave instances and commands, so that every class of command is
    # timed across the whole pass rather than in one stretch of it.
    rng.shuffle(ops)
    return Plan(ops, picks)


# ---------------------------------------------------------------------------
# Output checks against the reference


class Checker:
    """Checks one operation's exit code and output; returns (ok, verify tallies)."""

    def __init__(self) -> None:
        self._counts: dict[str, tuple[int, int]] = {}
        self._groups: dict[str, ref.Metacyclic] = {}

    def counts(self, instance: str) -> tuple[int, int]:
        if instance not in self._counts:
            self._counts[instance] = ref.end_aut_counts(*ref.parse_instance(instance))
        return self._counts[instance]

    def group(self, instance: str) -> ref.Metacyclic:
        if instance not in self._groups:
            self._groups[instance] = ref.Metacyclic(*ref.parse_instance(instance))
        return self._groups[instance]

    def check(self, op: Op, rc: int, out: str) -> tuple[bool, dict[str, int]]:
        try:
            if op.kind == "verify":
                return self._verify(op, rc, out)
            G = self.group(op.instance)
            method = {"det": self._det, "invert": self._invert, "factor": self._factor}[op.kind]
            return method(G, op.matrix, rc, out), {}
        except (KeyError, IndexError, TypeError, ValueError):
            return False, {}

    def _verify(self, op: Op, rc: int, out: str) -> tuple[bool, dict[str, int]]:
        tally = {"pass": 0, "skip": 0}
        data = json.loads(out)
        reports = data["instances"]
        names = tuple(r["instance"] for r in reports)
        if rc != 0 or data["passed"] is not True or not names or (op.instances and names != op.instances):
            return False, tally
        for report in reports:
            end, aut = self.counts(report["instance"])
            if (report["counts"]["end"], report["counts"]["aut"]) != (end, aut) or report["passed"] is not True:
                return False, tally
            if sorted(c["name"] for c in report["checks"]) != sorted(ref.CHECK_NAMES):
                return False, tally
            allowed = ref.expected_statuses(end)
            for c in report["checks"]:
                if c["status"] not in allowed.get(c["name"], ("pass",)):
                    return False, tally
                tally[c["status"]] += 1
        return True, tally

    @staticmethod
    def _inverse_ok(G: ref.Metacyclic, th, inverse, bijective: bool) -> bool:
        if not bijective:
            return inverse is None
        if inverse is None:
            return False
        ti = ref.theta(G, inverse)
        identity = tuple(range(G.order))
        return ref.compose(th, ti) == identity and ref.compose(ti, th) == identity

    def _det(self, G, mat, rc: int, out: str) -> bool:
        data = json.loads(out)
        th = ref.theta(G, mat)
        bijective = ref.is_bijective(th)
        dk, dh = ref.det_k(G, mat), ref.det_h(G, mat)
        return (
            rc == 0
            and data["invertible"] is bijective
            and data["det_K"] == dk
            and data["det_H"] == dh
            and data["is_hom_K"] == (None if dk is None else ref.is_hom_cyclic(dk, G.m))
            and data["is_hom_H"] == (None if dh is None else ref.is_hom_cyclic(dh, G.n))
            and self._inverse_ok(G, th, data["inverse"], bijective)
        )

    def _invert(self, G, mat, rc: int, out: str) -> bool:
        data = json.loads(out)
        th = ref.theta(G, mat)
        bijective = ref.is_bijective(th)
        return (
            rc == (0 if bijective else 1)
            and data["invertible"] is bijective
            and self._inverse_ok(G, th, data["inverse"], bijective)
        )

    def _factor(self, G, mat, rc: int, out: str) -> bool:
        data = json.loads(out)
        th = ref.theta(G, mat)
        # factor_abcd's domain: automorphisms with bijective alpha and delta.
        eligible = ref.is_bijective(th) and ref.is_bijective(mat["alpha"]) and ref.is_bijective(mat["delta"])
        if not eligible:
            return rc == 1 and data["factored"] is False
        if rc != 0 or data["factored"] is not True or data["verified"] is not True:
            return False
        if not ref.factor_shapes_ok(data):
            return False
        product = ref.theta(G, data["d"])
        for letter in ("c", "b", "a"):
            product = ref.compose(ref.theta(G, data[letter]), product)
        return product == th
