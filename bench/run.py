"""Benchmark of the sdmat command line: verify, det, invert and factor.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads are defined in workloads.py and described in README.md.  Each
operation is an in-process ``cli_main`` call whose output is checked
against the reference arithmetic in reference.py.  A run repeats whole
passes over the workload's operation list until ``--seconds`` have passed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json, its times scaled to a reference
host speed (hostspeed.py); with ``--trace 1`` the program's
public functions are timed from outside (tracer.py) and the object holds
the per-layer metrics, taken per pass (median over passes).  Spans go to
bench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import hostspeed
import reference
from tracer import LayerStats, Tracer
from workloads import Checker, make_plan, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9


def import_sdmat():
    if not (SRC / "sdmat" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'sdmat'} not found; run from the root of an sdmat checkout")
    sys.path.insert(0, str(SRC))
    import sdmat

    return sdmat


def probe(workload: str, picks_file: str, directory: str) -> None:
    """One set-up from a fresh interpreter: import sdmat and build the inputs."""
    sdmat = import_sdmat()
    if workload == "calculator":
        with open(picks_file, encoding="utf-8") as fh:
            write_inputs(sdmat, json.load(fh), Path(directory))
    print("ready", flush=True)


def measure_setup(workload: str, picks: dict, run_dir: Path) -> tuple[float, float]:
    """Median time, over SETUP_PROBES fresh interpreters, until ready: scaled and wall."""
    picks_file = run_dir / "picks.json"
    picks_file.write_text(json.dumps(picks), encoding="utf-8")
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
        "--picks", str(picks_file), "--dir", str(run_dir / "matrices"),
    ]
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed = [hostspeed.probe() for _ in range(3)]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(ready - started)
        speed += [hostspeed.probe() for _ in range(3)]
        scaled.append(times[-1] * hostspeed.scale(speed))
    return statistics.median(scaled), statistics.median(times)


@dataclass
class PassResult:
    kinds: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # seconds at the host's reference speed
    probe_s: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    known_fault: list[bool] = field(default_factory=list)
    tally: dict[str, int] = field(default_factory=lambda: {"pass": 0, "skip": 0})
    layers: dict = field(default_factory=dict)


def run_pass(cli_main, plan, checker, tracer, first_op_id: int) -> PassResult:
    result = PassResult()
    speed = hostspeed.SpeedLog()
    for i, op in enumerate(plan.ops):
        speed.between_ops()
        out, err = io.StringIO(), io.StringIO()
        span = tracer.op(first_op_id + i) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            started = time.perf_counter()
            try:
                rc = cli_main(op.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code
            elapsed = time.perf_counter() - started
        ok, tally = checker.check(op, rc, out.getvalue())
        result.kinds.append(op.kind)
        result.seconds.append(elapsed)
        result.ok.append(ok)
        result.known_fault.append(op.known_fault)
        for status, count in tally.items():
            result.tally[status] += count
    speed.between_ops()
    factor = speed.factor()
    result.scaled = [s * factor for s in result.seconds]
    result.probe_s = speed.samples
    if tracer:
        result.layers = tracer.take()
    return result


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def timings(runs: list[list[float]]) -> dict[str, float]:
    """pass_s, op_ms_p50 and op_ms_p99 from each pass's operation times."""
    # Every pass times the same operations, so each operation has one time
    # per pass.  Its median over the passes is left unmoved by a stall.
    per_op = [statistics.median(times) for times in zip(*runs)]
    return {
        "pass_s": statistics.median(sum(r) for r in runs),
        "op_ms_p50": statistics.median(per_op) * 1000,
        "op_ms_p99": statistics.median(nearest_rank(sorted(r), 0.99) for r in runs) * 1000,
    }


def end_to_end(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        **timings([p.scaled for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(p: PassResult) -> dict[str, float]:
    def st(layer: str) -> LayerStats:
        return p.layers.get(layer, LayerStats())

    n_ops = len(p.seconds)

    def per_op_ms(layer: str) -> float:
        return st(layer).total_s / n_ops * 1000

    def p50_ms(kind: str) -> float:
        times = [s for s, k in zip(p.seconds, p.kinds) if k == kind]
        return statistics.median(times) * 1000 if times else 0.0

    checks = {name: st(f"verify.check.{name}").total_s for name in reference.CHECK_NAMES}
    metrics = {
        "matrices.mat_mul_s": st("matrices.mat_mul").total_s,
        "matrices.mat_mul_calls": st("matrices.mat_mul").calls,
        "oracle.compose_s": st("oracle.compose").total_s,
        "oracle.compose_calls": st("oracle.compose").calls,
        "oracle.census_s": st("oracle.census").total_s,
        "oracle.endos": st("oracle.census").items,
        "matrices.enumerate_s": st("matrices.enumerate").total_s,
        "matrices.count": st("matrices.enumerate").items,
        "matrices.to_endo_s": st("matrices.to_endo").total_s,
        "determinant.det_s": st("determinant.det").total_s,
        "determinant.det_calls": st("determinant.det").calls,
        "determinant.invert_s": st("determinant.invert").total_s,
        "determinant.invert_calls": st("determinant.invert").calls,
        "factorization.classify_s": st("factorization.classify").total_s,
        "factorization.factor_s": st("factorization.factor").total_s,
        "factorization.factor_calls": st("factorization.factor").calls,
        "determinant.det_ms": per_op_ms("determinant.det"),
        "determinant.invert_ms": per_op_ms("determinant.invert"),
        "factorization.factor_ms": per_op_ms("factorization.factor"),
        "maps.is_hom_s": st("maps.is_hom").total_s,
        "maps.is_hom_calls": st("maps.is_hom").calls,
        "groups.make_group_s": st("groups.make_group").total_s,
        "groups.enumerate_homs_s": st("groups.enumerate_homs").total_s,
        "groups.homs": st("groups.enumerate_homs").items,
        "catalog.build_instance_ms": per_op_ms("catalog.build_instance"),
        "catalog.load_matrix_ms": per_op_ms("catalog.load_matrix"),
        "matrices.check_conditions_ms": per_op_ms("matrices.check_conditions"),
        "cli.overhead_ms": st("cli.op").self_s / n_ops * 1000,
        "cli.det_ms_p50": p50_ms("det"),
        "cli.invert_ms_p50": p50_ms("invert"),
        "cli.factor_ms_p50": p50_ms("factor"),
        "cli.emit_s": st("cli.emit").total_s,
        "verify.context_s": st("verify.run").total_s - sum(checks.values()),
        "verify.checks_pass": p.tally["pass"],
        "verify.checks_skip": p.tally["skip"],
        "trace.pass_s": sum(p.seconds),
        "host.probe_ms": statistics.median(p.probe_s) * 1000,
    }
    metrics.update({f"verify.check.{name}_s": value for name, value in checks.items()})
    return metrics


def write_trace(workload: str, seed: int, plan, passes: list[PassResult], tracer) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    payload = {
        "workload": workload,
        "seed": seed,
        "ops": [op.argv for op in plan.ops],
        "span_fields": ["op", "span", "parent", "layer", "start", "end"],
        "passes": [{layer: asdict(s) for layer, s in sorted(p.layers.items())} for p in passes],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(args: argparse.Namespace) -> dict:
    sdmat = import_sdmat()
    reference.self_test()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        plan = make_plan(sdmat, args.workload, args.seed, run_dir / "matrices")
        setup_s, setup_wall_s = (0.0, 0.0) if args.trace else measure_setup(args.workload, plan.picks, run_dir)
        write_inputs(sdmat, plan.picks, run_dir / "matrices")
        checker = Checker()
        if tracer:
            tracer.install()
        # Keep the benchmark's own objects out of the program's collections.
        gc.collect()
        gc.freeze()
        passes: list[PassResult] = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(run_pass(sdmat.cli_main, plan, checker, tracer, len(passes) * len(plan.ops)))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer:
        per_pass = [per_layer(p) for p in passes]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        print(f"trace written to {write_trace(args.workload, args.seed, plan, passes, tracer).relative_to(ROOT)}")
    else:
        values = end_to_end(passes, setup_s)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    oks = [ok for p in passes for ok in p.ok]
    faults = [kf for p in passes for kf in p.known_fault]
    failed = sum(not ok for ok in oks)
    unexpected = sum(not ok and not kf for ok, kf in zip(oks, faults))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of {len(plan.ops)} operations")
    print(f"attempted {len(oks)}, failed {failed} ({failed - unexpected} known direct:3:3 det_h-route faults)")
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not tracer:
        wall = {"setup_s": setup_wall_s, **timings([p.seconds for p in passes])}
        probes = [t for p in passes for t in p.probe_s]
        print("unscaled wall times: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
        print(f"host probe median {statistics.median(probes) * 1000:.4g} ms, reference {hostspeed.REFERENCE_S * 1000:.4g} ms")
    return {
        "correct": unexpected == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-pairwise", "verify-wide", "calculator"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--picks", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args.workload, args.picks, args.dir)
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
