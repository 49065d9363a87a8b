"""CLI reports against outputs recorded in ``tests/golden``.

Each case runs one command on one scenario in-process and compares the
exit code, the JSON report and, for ``lattice``, the CSV with the recorded
ones: keys, strings, ints and bools exactly, floats within 1e-12 and CSV
cells within 1e-11. Paths under ``--out`` that a report echoes are
recorded relative to it. Every command but ``verify`` is covered: its
stochastic ascent can flip an accept/reject decision under another BLAS
build.

After an intended change of output, re-record with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import pytest

from starangles import cli

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden"
COMMANDS = ("angle", "exterior-angle", "lattice", "index", "quasi-basis", "validate")
CASES = [(path.stem, command) for path in sorted(SCENARIOS.glob("*.json")) for command in COMMANDS]
FLOAT_TOL = 1e-12
CELL_TOL = 1e-11


def relative_to(value, out: Path):
    """``value`` with every string under ``out`` rewritten relative to it."""
    if isinstance(value, dict):
        return {key: relative_to(item, out) for key, item in value.items()}
    if isinstance(value, list):
        return [relative_to(item, out) for item in value]
    if isinstance(value, str) and value.startswith(f"{out}/"):
        return "<out>/" + value[len(str(out)) + 1 :]
    return value


def run_case(stem: str, command: str, out: Path) -> dict:
    """Exit code, report and lattice CSV rows of one CLI run writing under ``out``."""
    scenario = SCENARIOS / f"{stem}.json"
    if command == "lattice":
        target, report_path = out, out / "lattice_report.json"
    else:
        target = report_path = out / "report.json"
    code = cli.main([command, str(scenario), "--out", str(target)])
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    rows = None
    csv_path = out / f"{stem}_lattice.csv"
    if csv_path.exists():
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    return {"exit_code": code, "report": relative_to(report, out), "csv": rows}


def assert_same(expected, actual, where: str = "report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_same(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float and abs(actual - expected) <= FLOAT_TOL, (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:  # str, int, bool, None
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


def as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def assert_same_csv(expected, actual):
    assert (actual is None) == (expected is None)
    if expected is None:
        return
    assert [len(row) for row in actual] == [len(row) for row in expected]
    for i, (e_row, a_row) in enumerate(zip(expected, actual)):
        for j, (e, a) in enumerate(zip(e_row, a_row)):
            e_val, a_val = as_float(e), as_float(a)
            if e_val is None or a_val is None:
                assert a == e, f"csv[{i}][{j}]: {a!r} != {e!r}"
            else:
                assert abs(a_val - e_val) <= CELL_TOL, f"csv[{i}][{j}]: {a!r} != {e!r}"


@pytest.mark.parametrize("stem,command", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_cli_output_matches_golden(stem, command, tmp_path):
    expected = json.loads((GOLDEN / f"{stem}.{command}.json").read_text())
    actual = run_case(stem, command, tmp_path)
    assert actual["exit_code"] == expected["exit_code"]
    assert_same(expected["report"], actual["report"])
    assert_same_csv(expected["csv"], actual["csv"])


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stem, command in CASES:
        with tempfile.TemporaryDirectory() as out:
            case = run_case(stem, command, Path(out))
        path = GOLDEN / f"{stem}.{command}.json"
        path.write_text(json.dumps(case, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: exit {case['exit_code']}", file=sys.stderr)


if __name__ == "__main__":
    record()
