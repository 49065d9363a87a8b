import csv
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from starangles import cli, errors

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
INVALID = sorted((Path(__file__).resolve().parent / "invalid_scenarios").glob("*.json"))


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def d4_scenario():
    return SCENARIOS / "d4_pair.json"


class TestValidate:
    def test_well_formed_group_scenario(self, d4_scenario, capsys):
        assert run_cli(["validate", d4_scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["valid"] is True

    def test_k_not_containing_h_named(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "group",
                "group": {
                    "degree": 4,
                    "generators": ["(1 2 3 4)", "(1 3)"],
                    "subgroup_h": ["(1 3)(2 4)"],
                    "subgroup_k": ["(1 3)"],
                },
            },
        )
        assert run_cli(["validate", path]) == 2
        assert "subgroup_k" in capsys.readouterr().err

    def test_malformed_cycle_reports_position(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "group",
                "group": {"degree": 3, "generators": ["(1 2"], "subgroup_h": []},
            },
        )
        assert run_cli(["validate", path]) == 2
        assert "position" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        assert run_cli(["validate", tmp_path / "missing.json"]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["index", path]) == 2

    def test_unknown_kind(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"kind": "mystery"})
        assert run_cli(["validate", path]) == 2

    def test_matrix_shape_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad.json",
            {
                "kind": "custom_matrix",
                "algebra": {"ambient_dim": 2, "generators": [[[[1, 0]]]]},
            },
        )
        assert run_cli(["validate", path]) == 2


class TestCommands:
    def test_angle_on_d4(self, d4_scenario, capsys):
        assert run_cli(["angle", d4_scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["results"]
        assert results["interior_angle"]["cos"] == pytest.approx(1 / 3, abs=1e-9)
        assert results["oracle_match"] is True
        assert report["tolerances"]["eq_tol"] == 1e-9

    def test_index_on_s3_over_swap(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "s3_swap.json",
            {
                "kind": "group",
                "group": {
                    "degree": 3,
                    "generators": ["(1 2)", "(1 2 3)"],
                    "subgroup_h": ["(1 2)"],
                },
            },
        )
        assert run_cli(["index", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["index_scalar"] == pytest.approx(3.0, abs=1e-9)
        assert results["oracle_match"] is True

    def test_quasi_basis_command(self, d4_scenario, capsys):
        assert run_cli(["quasi-basis", d4_scenario]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["size"] == 8
        assert results["max_reconstruction_residual"] < 1e-9
        assert results["passes"] is True

    def test_verify_passes_on_valid_scenario(self, d4_scenario, capsys):
        assert run_cli(["verify", d4_scenario]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["all_passed"] is True
        report = results["expectation_report"]
        assert report["bimodule_equations_checked"] == report["bimodule_equations_total"]
        assert results["index_centrality_residual"] < 1e-9
        assert results["index_min_eigenvalue"] > 1e-10

    def test_probabilistic_estimate_within_index_norm(self, d4_scenario, capsys):
        # at seed 16 rounding drives an ascent on x itself (x -> w x w*) out of the
        # positive cone, and its estimate above the exact value 8
        assert run_cli(["verify", d4_scenario, "--seed", "16"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["checks"]["probabilistic_estimate_bounded"] is True
        assert results["probabilistic_index_estimate"] <= results["index_norm"] + 1e-12

    def test_verify_report_is_byte_identical(self, d4_scenario, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert run_cli(["verify", d4_scenario, "--out", first]) == 0
        assert run_cli(["verify", d4_scenario, "--out", second]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_exterior_angle_runs(self, capsys):
        assert run_cli(["exterior-angle", SCENARIOS / "s3_pair.json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert 0.0 <= results["exterior_angle"]["angle_radians"] <= math.pi / 2

    def test_angle_needs_intermediates(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "no_kl.json",
            {
                "kind": "group",
                "group": {"degree": 3, "generators": ["(1 2 3)"], "subgroup_h": []},
            },
        )
        assert run_cli(["angle", path]) == 2

    def test_degenerate_intermediate_is_numerical_failure(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "degenerate.json",
            {
                "kind": "group",
                "group": {
                    "degree": 3,
                    "generators": ["(1 2)", "(1 2 3)"],
                    "subgroup_h": [],
                    "subgroup_k": [],
                    "subgroup_l": ["(1 2)"],
                },
            },
        )
        assert run_cli(["angle", path]) == 3

    def test_table_format(self, d4_scenario, capsys):
        assert run_cli(["angle", d4_scenario, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "results.interior_angle.cos" in out

    def test_tolerance_flags_override(self, d4_scenario, capsys):
        assert run_cli(["angle", d4_scenario, "--angle-tol", "1e-6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["angle_tol"] == 1e-6


class TestLattice:
    def test_d4_lattice_files(self, d4_scenario, tmp_path):
        assert run_cli(["lattice", d4_scenario, "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "lattice_report.json").read_text())
        results = summary["results"]
        assert results["intermediate_count"] == 8
        assert results["pair_count"] == 28
        assert results["max_discrepancy"] < 1e-8
        csv_text = (tmp_path / "d4_pair_lattice.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 9  # header + 8 rows

    @pytest.mark.parametrize("name", ["d4_pair", "crossed_product_d4"])
    def test_lattice_diagonal_is_exactly_zero(self, name, tmp_path):
        assert run_cli(["lattice", SCENARIOS / f"{name}.json", "--out", tmp_path]) == 0
        with (tmp_path / f"{name}_lattice.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 8
        assert [row[1 + i] for i, row in enumerate(rows)] == ["0.000000000000"] * len(rows)

    def test_s3_lattice_all_right_angles(self, tmp_path):
        assert run_cli(["lattice", SCENARIOS / "s3_pair.json", "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "lattice_report.json").read_text())
        results = summary["results"]
        assert results["intermediate_count"] == 4
        assert results["pair_count"] == 6
        for pair in results["pairs"]:
            assert pair["angle_radians"] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_h_equals_g_is_clean_and_empty(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "full.json",
            {
                "kind": "group",
                "group": {
                    "degree": 3,
                    "generators": ["(1 2)", "(1 2 3)"],
                    "subgroup_h": ["(1 2)", "(1 2 3)"],
                },
            },
        )
        assert run_cli(["lattice", path, "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "lattice_report.json").read_text())
        assert summary["results"]["intermediate_count"] == 0

    def test_order_bound_exceeded(self, tmp_path, capsys):
        cycle = "(" + " ".join(str(i) for i in range(1, 50)) + ")"
        path = write_json(
            tmp_path,
            "big.json",
            {
                "kind": "group",
                "group": {"degree": 49, "generators": [cycle], "subgroup_h": []},
            },
        )
        assert run_cli(["lattice", path, "--out", tmp_path]) == 2


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, d4_scenario, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert run_cli(["angle", d4_scenario, "--seed", "7", "--out", first]) == 0
        assert run_cli(["angle", d4_scenario, "--seed", "7", "--out", second]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_script_entry_point(self, d4_scenario):
        proc = subprocess.run(
            [sys.executable, "-m", "starangles.cli", "validate", str(d4_scenario)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["valid"] is True


ERROR_CLASSES = [
    c
    for _, c in inspect.getmembers(errors, inspect.isclass)
    if issubclass(c, errors.StarAnglesError) and c is not errors.StarAnglesError
]


class TestExitCodes:
    """Bad input exits 2, a broken identity exits 3, neither with a traceback."""

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_code(self, error, d4_scenario, monkeypatch, capsys):
        validation = issubclass(error, errors.ValidationError)
        assert validation != issubclass(error, errors.NumericalError)

        def fail(scenario):
            raise error("injected")

        monkeypatch.setattr(cli, "build_bundle", fail)
        assert run_cli(["angle", d4_scenario]) == (2 if validation else 3)
        err = capsys.readouterr().err
        assert "injected" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [["validate", path] for path in INVALID]
        + [
            ["index", SCENARIOS / "d4_pair.json", "--seed", "-1"],
            ["verify", SCENARIOS / "d4_pair.json", "--seed", "-3"],
        ],
        ids=[path.stem for path in INVALID] + ["index_seed_negative", "verify_seed_negative"],
    )
    def test_malformed_input_exits_2(self, args, capsys):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("form", ["lattice_out_is_a_file", "index_out_dir_missing"])
    def test_unwritable_out_exits_2(self, form, tmp_path, capsys):
        if form == "lattice_out_is_a_file":
            taken = tmp_path / "taken"
            taken.write_text("")
            args = ["lattice", SCENARIOS / "s3_pair.json", "--out", taken]
        else:
            args = ["index", SCENARIOS / "s3_pair.json", "--out", tmp_path / "missing" / "r.json"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "Traceback" not in err


class TestScenarioKinds:
    def test_crossed_product_scenario(self, capsys):
        assert run_cli(["angle", SCENARIOS / "crossed_product_d4.json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["interior_angle"]["cos"] == pytest.approx(1 / 3, abs=1e-8)
        assert results["oracle_match"] is True

    def test_fixed_point_scenario(self, capsys):
        assert run_cli(["index", SCENARIOS / "fixed_point_m2.json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["index_scalar"] == pytest.approx(2.0, abs=1e-9)

    def test_custom_matrix_scenario(self, capsys):
        assert run_cli(["index", SCENARIOS / "trace_m2.json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["index_scalar"] == pytest.approx(4.0, abs=1e-9)

    def test_tensor_factor_option(self, tmp_path, capsys):
        payload = json.loads((SCENARIOS / "s3_pair.json").read_text())
        payload["options"]["tensor_factor"] = 2
        path = write_json(tmp_path, "s3_tensor.json", payload)
        assert run_cli(["angle", path, "--path", "quasibasis"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["interior_angle"]["cos"] == pytest.approx(0.0, abs=1e-8)
        assert results["oracle_match"] is True
