"""The full ``verify --format json`` reports of the ten benchmarked instances.

The five instances of 78-144 matrices verified pairwise and the five of
order 57-64 with 381-1024 matrices verified per matrix, as the benchmark
runs them, frozen byte for byte in tests/data/bench_verify.json, where each
report is stored decoded.  Regenerate the file only when a change to the
reports is intended:

    PYTHONPATH=src python tests/test_bench_reports.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sdmat import cli_main

FIXTURE = Path(__file__).parent / "data" / "bench_verify.json"
PAIRWISE = ("dihedral:10", "direct:14:2", "metacyclic:7:6:3", "dihedral:11", "metacyclic:12:2:5")
WIDE = ("metacyclic:19:3:7", "dihedral:30", "metacyclic:21:3:4", "direct:16:4", "metacyclic:32:2:15")


def _encode(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def verify_report(instance: str) -> str:
    """The stdout of ``sdmat verify --instance instance --format json``; the run must pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["verify", "--instance", instance, "--format", "json"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("instance", [*PAIRWISE, *WIDE])
def test_bench_report_matches_fixture(expected, instance):
    assert verify_report(instance) == _encode(expected[instance])


if __name__ == "__main__":
    reports = {name: json.loads(verify_report(name)) for name in (*PAIRWISE, *WIDE)}
    assert all(verify_report(name) == _encode(report) for name, report in reports.items())
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
