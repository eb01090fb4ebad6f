"""Outputs of det, invert and factor on every matrix of two small instances.

The exit code, stdout and stderr of each command are frozen byte for byte
in tests/data/calculator_outputs.json, one line per matrix, with each JSON
stdout stored decoded.  Regenerate the file only when a change to the
outputs is intended:

    PYTHONPATH=src python tests/test_calculator_outputs.py
"""

import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

from sdmat import build_instance, cli_main, enumerate_matrices
from sdmat.catalog import save_matrix

FIXTURE = Path(__file__).parent / "data" / "calculator_outputs.json"
INSTANCES = ("klein", "direct:3:3")
COMMANDS = {"det": ["det"], "invert": ["invert"], "factor": ["factor", "--format", "json"]}


def _run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _stdout_bytes(payload) -> str:
    return "" if payload is None else json.dumps(payload, indent=2, sort_keys=True) + "\n"


def calculator_outputs() -> list[dict]:
    """One entry per matrix: its entries and the [code, stdout, stderr] of each command."""
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "m.json")
        for name in INSTANCES:
            for m in sorted(enumerate_matrices(build_instance(name)), key=lambda m: m.key()):
                save_matrix(m, path)
                entry = {"instance": name, "matrix": [list(x) for x in m.key()]}
                for label, argv in COMMANDS.items():
                    entry[label] = _run([*argv, "--instance", name, "--matrix", path])
                entries.append(entry)
    return entries


def _encode(entry: dict) -> str:
    """The fixture line of an entry; each stdout is stored decoded and must re-encode exactly."""
    line = dict(entry)
    for label in COMMANDS:
        code, out, err = entry[label]
        payload = json.loads(out) if out else None
        assert _stdout_bytes(payload) == out
        line[label] = [code, payload, err]
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def _decode(line: dict) -> dict:
    entry = dict(line)
    for label in COMMANDS:
        code, payload, err = line[label]
        entry[label] = [code, _stdout_bytes(payload), err]
    return entry


def test_calculator_outputs_match_fixture():
    expected = [_decode(line) for line in json.loads(FIXTURE.read_text())]
    actual = calculator_outputs()
    assert len(actual) == len(expected) == 97
    for got, want in zip(actual, expected):
        assert got == want, (got["instance"], got["matrix"])


def test_calculator_fixture_covers_every_invert_route():
    routes = Counter()
    for line in json.loads(FIXTURE.read_text()):
        payload = line["invert"][1]
        routes[line["instance"], payload["method"] or "none"] += 1
    assert routes["klein", "det_k"] == 4 and routes["klein", "det_h"] == 1
    assert routes["klein", "brute"] == 1
    assert routes["direct:3:3", "det_k"] == 36 and routes["direct:3:3", "det_h"] == 8
    assert routes["direct:3:3", "brute"] == 4


if __name__ == "__main__":
    lines = [_encode(e) for e in calculator_outputs()]
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
