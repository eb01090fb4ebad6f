"""The sweep of split metacyclic products Z_n x|_u Z_m, frozen as verify's outcomes.

``metacyclic:n:m:u`` is listed for every n, m >= 2 with nm <= N and every
unit u in 1..n-1 with u^m = 1 (mod n), in order of n, then m, then u: 868
products for N = 128, 193 of them with nm <= 48.  For each the full verify
run records its counts and the status of every check, and
tests/data/metacyclic_sweep.json keeps them for N = 128, one product a line.
A change that moves any count or any status, on any product, shows here.

Run as a script, it sets the products with nm <= N (default 128) against
the file and exits 1 on the first that differs; with ``--write`` it writes
the file instead:

    PYTHONPATH=src python tests/metacyclic_sweep.py [N] [--write]
"""

import json
import math
import sys
from pathlib import Path

from sdmat import run_verification

FIXTURE = Path(__file__).parent / "data" / "metacyclic_sweep.json"
LIMIT = 128


def sweep_instances(limit: int) -> list[str]:
    """Every ``metacyclic:n:m:u`` with n, m >= 2 and nm <= limit, in sweep order."""
    return [
        f"metacyclic:{n}:{m}:{u}"
        for n in range(2, limit // 2 + 1)
        for m in range(2, limit // n + 1)
        for u in range(1, n)
        if math.gcd(u, n) == 1 and pow(u, m, n) == 1
    ]


def sweep_record(instance: str) -> dict:
    """The counts of a full verify run and the status of each of its checks."""
    n, m = map(int, instance.split(":")[1:3])
    report = run_verification(instance, bound=n * m)
    return {"counts": report.counts, "checks": {c.name: c.status for c in report.checks}}


def frozen_records() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text())


def _encode(records: dict[str, dict]) -> str:
    lines = [f"{json.dumps(name)}: {json.dumps(record)}" for name, record in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--write"]
    limit = int(args[0]) if args else LIMIT
    names = sweep_instances(limit)
    if "--write" in sys.argv:
        FIXTURE.write_text(_encode({name: sweep_record(name) for name in names}))
        print(f"wrote {len(names)} products with nm <= {limit}")
        sys.exit(0)
    expected = frozen_records()
    missing = [name for name in names if name not in expected]
    if missing:
        print(f"{missing[0]} is not in {FIXTURE.name}")
        sys.exit(1)
    failing = 0
    for name in names:
        record = sweep_record(name)
        if record != expected[name]:
            print(f"{name}: {record} differs from the frozen {expected[name]}")
            sys.exit(1)
        failing += "fail" in record["checks"].values()
    print(f"{len(names)} products with nm <= {limit} match, {failing} with a failing check")
