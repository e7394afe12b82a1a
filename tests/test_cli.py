"""CLI surface tests: subcommands, formats, exit codes, atomic output,
and documents equal to those of the same call made in process."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qdeform
from qdeform import serialize
from qdeform.cli import main

M, P = qdeform.DeformationKind.M, qdeform.DeformationKind.P


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateCommand:
    def test_coherent_poisson_json(self, capsys):
        code, out, _ = run_cli(capsys, "state", "coherent", "--alpha-sq", "1",
                               "--kind", "M", "--epsilon", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "photon_distribution"
        assert doc["family"] == "coherent"
        assert doc["probs"][0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert doc["mean_photon"] == pytest.approx(1.0, abs=1e-10)
        assert doc["tail_bound"] <= 1e-12

    def test_thermal_geometric_json(self, capsys):
        code, out, _ = run_cli(capsys, "state", "thermal", "--n-mean", "1",
                               "--kind", "P", "--epsilon", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["probs"][0] == pytest.approx(0.5, rel=1e-12)
        assert doc["probs"][3] == pytest.approx(0.5**4, rel=1e-12)

    def test_cat_even_support(self, capsys):
        code, out, _ = run_cli(capsys, "state", "cat", "--alpha-sq", "4",
                               "--kind", "M", "--epsilon", "1e-3")
        assert code == 0
        doc = json.loads(out)
        assert all(p == 0.0 for p in doc["probs"][1::2])
        assert doc["log_probs"][1] is None

    def test_state_csv(self, capsys):
        code, out, _ = run_cli(capsys, "state", "coherent", "--alpha-sq", "1",
                               "--kind", "M", "--epsilon", "0",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,prob,log_prob"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "state", "thermal", "--beta", "0.7",
                               "--kind", "M", "--epsilon", "1e-3")
        assert code == 0
        dist = qdeform.build_distribution(qdeform.ThermalSpec(beta=0.7),
                                          qdeform.DeformationParams(M, 1e-3))
        assert json.loads(out) == serialize.distribution_to_dict(dist)


class TestFisherCommand:
    def test_report_json(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--family", "coherent",
                               "--alpha-sq", "10", "--kind", "M",
                               "--epsilon", "1e-3")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "estimation_report"
        assert doc["fisher"] == pytest.approx(doc["qfi"], rel=1e-6)
        assert doc["qsnr"] == pytest.approx(1e-6 * doc["qfi"], rel=1e-12)
        report = qdeform.estimation_report(qdeform.CoherentSpec(10.0), M, 1e-3)
        assert doc == serialize.report_to_dict(report)

    def test_hold_intensity_flag(self, capsys):
        _, out_mean, _ = run_cli(capsys, "fisher", "--family", "coherent",
                                 "--alpha-sq", "10", "--kind", "M",
                                 "--epsilon", "1e-4")
        _, out_raw, _ = run_cli(capsys, "fisher", "--family", "coherent",
                                "--alpha-sq", "10", "--kind", "M",
                                "--epsilon", "1e-4", "--hold", "intensity")
        f_mean = json.loads(out_mean)["fisher"]
        f_raw = json.loads(out_raw)["fisher"]
        assert f_raw > 5 * f_mean  # energy signal retained


class TestQsnrCommand:
    def test_sweep_csv_columns_and_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "qsnr", "--family", "coherent",
                               "--kind", "M",
                               "--epsilons", "1e-3",
                               "--n-values", "10,20,40", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(serialize.SWEEP_COLUMNS)
        assert len(lines) == 4
        ratios = [float(line.split(",")[7]) for line in lines[1:]]
        # leading-order table reproduced within a few percent at eps N <= 0.04
        assert all(abs(r - 1.0) < 0.05 for r in ratios)

    def test_sweep_json_valid_flag(self, capsys):
        code, out, _ = run_cli(capsys, "qsnr", "--family", "thermal",
                               "--kind", "P",
                               "--epsilons", "1e-2,2e-2",
                               "--n-values", "5,10")
        assert code == 0
        doc = json.loads(out)
        assert doc["type"] == "qsnr_sweep"
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["valid_regime"] == (row["epsilon"] * row["n_target"] <= 1.0)

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "qsnr", "--family", "coherent",
                               "--kind", "M",
                               "--epsilons", ",", "--n-values", "10")
        assert code == 1
        assert "nonempty" in err

    def test_eps_range_log_spacing(self, capsys):
        code, out, _ = run_cli(capsys, "qsnr", "--family", "coherent",
                               "--kind", "M",
                               "--eps-range", "1e-4:1e-2:3",
                               "--n-values", "5")
        assert code == 0
        doc = json.loads(out)
        eps = [row["epsilon"] for row in doc["rows"]]
        assert eps == pytest.approx([1e-4, 1e-3, 1e-2], rel=1e-12)

    @pytest.mark.parametrize("eps_range", ["nan:1e-2:3", "1e-3:nan:3", "1e-3:inf:3"])
    def test_eps_range_rejects_non_finite_bounds(self, capsys, eps_range):
        code, out, err = run_cli(capsys, "qsnr", "--family", "coherent",
                                 "--kind", "M", "--eps-range", eps_range,
                                 "--n-values", "5")
        assert code == 1 and out == ""
        assert "argument --eps-range: needs 0 < LO <= HI and COUNT >= 1" in err

    def test_eps_grid_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "qsnr", "--family", "coherent",
                               "--kind", "M",
                               "--epsilons", "1e-3",
                               "--eps-range", "1e-4:1e-2:3",
                               "--n-values", "5")
        assert code == 1
        assert "argument --eps-range: not allowed with argument --epsilons" in err

    @pytest.mark.parametrize("grid, message", [
        ([], "one of the arguments --epsilons --eps-range is required"),
        (["--eps-range", "1e-3:1e-2"], "argument --eps-range: must be LO:HI:COUNT"),
    ], ids=["neither", "malformed"])
    def test_grid_usage_errors_print_the_qsnr_usage(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "qsnr", "--family", "coherent", "--kind", "M",
                                 *grid, "--n-values", "5")
        assert code == 1 and out == ""
        assert err.startswith("usage: qdeform qsnr ")
        assert f"qdeform qsnr: error: {message}" in err


class TestBenchmarkCommand:
    def test_benchmark_json_deterministic(self, capsys):
        args = ["benchmark", "--family", "thermal", "--n-mean", "4",
                "--kind", "M", "--epsilon", "5e-3", "--shots", "1000",
                "--reps", "60", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["type"] == "crb_benchmark"
        assert doc["estimable"] is True
        spec = qdeform.ThermalSpec.from_mean_photon(4.0)
        bench = qdeform.crb_benchmark(spec, M, 5e-3, 1000, 60, 7)
        assert doc == serialize.benchmark_to_dict(bench, spec, M)

    def test_warning_is_one_plain_stderr_line(self, capsys):
        # Python's warning format would print the path of cli.py and the
        # echoed source line.
        args = ["benchmark", "--family", "thermal", "--n-mean", "4", "--kind", "M",
                "--epsilon", "5e-3", "--shots", "1000", "--reps", "20", "--seed", "7"]
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        assert err == ("qdeform: warning: fewer than 50 replications: "
                       "variance estimate will be noisy\n")
        spec, kind = qdeform.ThermalSpec.from_mean_photon(4.0), M
        with pytest.warns(RuntimeWarning, match="fewer than 50"):
            bench = qdeform.crb_benchmark(spec, kind, 5e-3, 1000, 20, 7)
        doc = serialize.benchmark_to_dict(bench, spec, kind)
        assert out == serialize.to_json(doc).rstrip("\n") + "\n"

    def test_warning_precedes_the_error_line(self, capsys):
        code, out, err = run_cli(capsys, "benchmark", "--family", "coherent",
                                 "--alpha-sq", "2", "--kind", "M", "--epsilon", "0.6",
                                 "--shots", "1000", "--reps", "20", "--seed", "7")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith("qdeform: warning: fewer than 50 replications")
        assert lines[1].startswith("qdeform: domain error:") and len(lines) == 2

    def test_non_estimable_sentinel(self, capsys):
        code, out, _ = run_cli(capsys, "benchmark", "--family", "coherent",
                               "--alpha-sq", "5", "--kind", "P",
                               "--epsilon", "0", "--shots", "100",
                               "--reps", "60", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["crb"] is None
        assert doc["estimable"] is False
        spec = qdeform.CoherentSpec(5.0)
        bench = qdeform.crb_benchmark(spec, P, 0.0, 100, 60, 1)
        assert math.isinf(bench.crb)
        assert doc == serialize.benchmark_to_dict(bench, spec, P)

    def test_negative_seed_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "benchmark", "--family", "thermal",
                                 "--n-mean", "4", "--kind", "M", "--epsilon", "5e-3",
                                 "--shots", "1000", "--reps", "60", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "qdeform: domain error: seed must be >= 0, got -1\n"

    # 10^15 draws or seeds need 8 PB, beyond any 64-bit address space: the
    # allocation fails at once, without touching memory.
    @pytest.mark.parametrize("flag", ["--shots", "--reps"])
    def test_allocation_beyond_memory_is_a_domain_error(self, capsys, flag):
        counts = {"--shots": "1000", "--reps": "60", flag: "1000000000000000"}
        code, out, err = run_cli(capsys, "benchmark", "--family", "coherent",
                                 "--alpha-sq", "5", "--kind", "M", "--epsilon", "0.01",
                                 "--shots", counts["--shots"], "--reps", counts["--reps"],
                                 "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("qdeform: domain error: Unable to allocate ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_zero_shots_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "benchmark", "--family", "thermal",
                               "--n-mean", "4", "--kind", "M",
                               "--epsilon", "5e-3", "--shots", "0",
                               "--reps", "60", "--seed", "7")
        assert code == 1
        assert "shots" in err


class TestExitCodes:
    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "state", "coherent", "--alpha-sq", "1",
                               "--kind", "M", "--epsilon=-1.5")
        assert code == 2
        assert "domain error" in err

    def test_divergence_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "state", "thermal", "--n-mean", "5",
                               "--kind", "M", "--epsilon=-1e-3")
        assert code == 3
        assert "numerical error" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, eps", [("M", "0"), ("P", "0.1")])
    def test_near_vacuum_thermal_exit_0(self, capsys, kind, eps):
        code, out, err = run_cli(capsys, "state", "thermal", "--beta", "700",
                                 "--kind", kind, "--epsilon", eps)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["n_max"] == 0 and doc["probs"] == [1.0]

    @pytest.mark.filterwarnings("error")
    def test_thermal_mean_below_the_inverse_overflow_exit_0(self, capsys):
        # 1/n_mean overflows below n_mean ~ 5.6e-309; beta is then -ln n_mean.
        code, out, err = run_cli(capsys, "state", "thermal", "--n-mean", "1e-320",
                                 "--kind", "M", "--epsilon", "0")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["beta"] == -math.log(1e-320)
        assert doc["n_max"] == 0 and doc["probs"] == [1.0]

    @pytest.mark.filterwarnings("error")
    def test_thermal_target_below_the_inverse_overflow_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "qsnr", "--family", "thermal", "--kind", "M",
                                 "--epsilons", "1e-3", "--n-values", "1e-320")
        assert code == 0, err
        (row,) = json.loads(out)["rows"]
        assert row["mean_photon"] == 0.0 and row["fisher"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_far_calibration_target_exit_0(self, capsys):
        # |eps| N = 60: the calibrated beta is about 6e-47, far below the
        # undeformed starting point ln(1 + 1/200).
        code, out, err = run_cli(capsys, "qsnr", "--family", "thermal",
                                 "--kind", "P", "--epsilons", "0.3",
                                 "--n-values", "200")
        assert code == 0, err
        assert err == ""
        (row,) = json.loads(out)["rows"]
        assert row["mean_photon"] == pytest.approx(200.0, rel=1e-12)
        assert row["fisher"] > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["coherent", "cat"])
    def test_m_negative_epsilon_calibration_exit_0(self, capsys, family):
        # N |eps| = 2: the undeformed start |alpha|^2 = 200 is past the
        # divergence at 1/|eps| = 100, but |alpha|^2 = 90 already gives a
        # mean of 233.7, so the target is reachable below the bound.
        code, out, err = run_cli(capsys, "qsnr", "--family", family,
                                 "--kind", "M", "--epsilons=-0.01",
                                 "--n-values", "200")
        assert code == 0, err
        assert err == ""
        (row,) = json.loads(out)["rows"]
        assert row["mean_photon"] == pytest.approx(200.0, rel=1e-12)
        assert row["fisher"] > 0.0

    def test_calibration_failure_explains_itself_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "qsnr", "--family", "coherent", "--kind", "M",
                                 "--epsilons", "1e-3", "--n-values", "1e5")
        assert (code, out) == (3, "")
        assert err.startswith(
            "qdeform: numerical error: intensity calibration did not converge for target "
            "100000.0 after 29 builds: the bracket collapsed onto one float")
        assert "best relative residual" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family", ["coherent", "thermal", "cat"])
    @pytest.mark.parametrize("n_value", ["-5", "nan", "inf", "0"])
    def test_bad_n_values_name_the_flag_exit_2(self, capsys, family, n_value):
        code, out, err = run_cli(capsys, "qsnr", "--family", family, "--kind", "M",
                                 "--epsilons", "1e-3", f"--n-values=10,{n_value}")
        assert (code, out) == (2, "")
        assert err == ("qdeform: domain error: --n-values must be positive and finite, "
                       f"got {float(n_value)}\n")

    @pytest.mark.filterwarnings("error")
    def test_unreachable_calibration_target_exit_2(self, capsys):
        # The P thermal mean grows only like ln(1/beta); 5000 photons at
        # eps = 0.3 would need a beta below the float range.
        code, out, err = run_cli(capsys, "qsnr", "--family", "thermal",
                                 "--kind", "P", "--epsilons", "0.3",
                                 "--n-values", "5000")
        assert code == 2
        assert out == ""
        assert "out of reach" in err

    def test_missing_required_flag_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "state", "coherent",
                             "--kind", "M", "--epsilon", "0")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        # a second spec flag, even one the family does not take
        ["fisher", "--family", "thermal", "--n-mean", "3", "--alpha-sq", "9"],
        ["state", "thermal", "--beta", "1", "--n-mean", "3"],
        ["benchmark", "--family", "coherent", "--shots", "10", "--reps", "2",
         "--seed", "1"],  # no spec flag at all
        ["fisher", "--family", "thermal", "--alpha-sq", "9"],  # another family's flag
    ])
    def test_one_spec_flag_of_the_family_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--kind", "M", "--epsilon", "1e-3")
        assert (code, out) == (1, "")
        assert "error:" in err

    def test_flags_are_matched_in_full_exit_1(self, capsys):
        # A prefix match would read --epsilon as --epsilons and sweep at 3.
        code, out, err = run_cli(capsys, "qsnr", "--family", "coherent", "--kind", "M",
                                 "--epsilons", "1e-3", "--n-values", "5", "--epsilon", "3")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --epsilon 3" in err
        code, out, _ = run_cli(capsys, "state", "coherent", "--alpha", "9",
                               "--kind", "M", "--epsilon", "0")
        assert (code, out) == (1, "")

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_closed_pipe_exit_1_without_traceback(self):
        # A reader that has already gone (`| head -1`): stdout is a pipe
        # whose read end is closed, so the first write fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qdeform.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qdeform.cli", "fisher", "--family", "coherent",
                 "--alpha-sq", "10", "--kind", "M", "--epsilon", "1e-3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestOutputFiles:
    def test_out_file_written(self, tmp_path, capsys):
        out_file = tmp_path / "dist.json"
        code, out, _ = run_cli(capsys, "state", "coherent", "--alpha-sq", "2",
                               "--kind", "M", "--epsilon", "0",
                               "--out", str(out_file))
        assert code == 0
        assert out == ""
        doc = json.loads(out_file.read_text())
        assert doc["alpha_sq"] == 2.0
        # no stray temp files
        assert list(tmp_path.iterdir()) == [out_file]

    def test_failure_leaves_no_output(self, tmp_path, capsys):
        out_file = tmp_path / "dist.json"
        code, _, _ = run_cli(capsys, "state", "thermal", "--n-mean", "5",
                             "--kind", "M", "--epsilon=-1e-3",
                             "--out", str(out_file))
        assert code == 3
        assert not out_file.exists()
        assert list(tmp_path.iterdir()) == []

    def test_csv_uses_lf_and_dot_decimal(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "qsnr", "--family", "coherent",
                             "--kind", "M",
                             "--epsilons", "1e-3", "--n-values", "5",
                             "--format", "csv", "--out", str(out_file))
        assert code == 0
        raw = out_file.read_bytes()
        assert b"\r" not in raw
        assert b"." in raw


class TestNumericFormatting:
    def test_probs_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "state", "coherent", "--alpha-sq", "1.7",
                            "--kind", "P", "--epsilon", "2e-3")
        dist = qdeform.build_distribution(qdeform.CoherentSpec(1.7),
                                          qdeform.DeformationParams(P, 2e-3))
        assert np.array_equal(np.array(json.loads(out)["probs"]), dist.probs)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text):
    """Parse JSON that must hold no Infinity, -Infinity or NaN token."""
    return json.loads(text, parse_constant=_reject_constant)


def csv_table(text):
    lines = text.split("\n")
    assert lines[-1] == "" and "" not in lines[:-1]  # LF after every line
    return [line.split(",") for line in lines[:-1]]


BENCH_ARGV = ["benchmark", "--family", "thermal", "--n-mean", "4", "--kind", "M",
              "--epsilon", "5e-3", "--shots", "1000", "--reps", "60", "--seed", "7"]

# One case per subcommand: argv, the JSON keys in order, the CSV header.
# The lists are written out here on purpose, not read from serialize.
SHAPES = {
    "state": (
        ["state", "coherent", "--alpha-sq", "1", "--kind", "M", "--epsilon", "1e-3"],
        ["type", "family", "alpha_sq", "kind", "epsilon", "n_max", "tail_bound",
         "mean_photon", "probs", "log_probs"],
        ["n", "prob", "log_prob"],
    ),
    "fisher": (
        ["fisher", "--family", "coherent", "--alpha-sq", "10", "--kind", "M",
         "--epsilon", "1e-3"],
        ["type", "family", "alpha_sq", "kind", "epsilon", "fisher", "qfi", "qsnr",
         "mean_photon", "m_delta_coeff"],
        ["epsilon", "fisher", "qfi", "qsnr", "mean_photon", "m_delta_coeff"],
    ),
    "qsnr": (
        ["qsnr", "--family", "thermal", "--kind", "P", "--epsilons", "1e-2",
         "--n-values", "5,10"],
        ["type", "family", "kind", "calibrated", "rows"],
        ["epsilon", "n_target", "mean_photon", "fisher", "qfi", "qsnr",
         "qsnr_leading", "ratio", "valid_regime"],
    ),
    "benchmark": (
        BENCH_ARGV,
        ["type", "family", "beta", "kind", "epsilon_true", "shots", "replications",
         "seed", "empirical_var", "crb", "ratio", "bias", "estimable", "failed"],
        ["epsilon_true", "shots", "replications", "seed", "empirical_var", "crb",
         "ratio", "bias", "estimable", "failed"],
    ),
}
SWEEP_ROW_KEYS = ["epsilon", "n_target", "mean_photon", "fisher", "qfi", "qsnr",
                  "qsnr_leading", "ratio", "valid_regime"]


def _csv_rows_of(command, doc):
    """The rows a CSV of this command must carry, read from its JSON document."""
    if command == "state":
        levels = range(doc["n_max"] + 1)
        return [list(t) for t in zip(levels, doc["probs"], doc["log_probs"])]
    header = SHAPES[command][2]
    records = doc["rows"] if command == "qsnr" else [doc]
    return [[record[c] for c in header] for record in records]


def _same_cell(cell, value):
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    return cell == repr(value)


class TestOutputShapes:
    @pytest.mark.parametrize("command", list(SHAPES))
    def test_json_key_order(self, capsys, command):
        argv, keys, _ = SHAPES[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        doc = strict_json(out)
        assert list(doc) == keys
        if command == "qsnr":
            assert [list(row) for row in doc["rows"]] == [SWEEP_ROW_KEYS] * 2

    @pytest.mark.parametrize("command", list(SHAPES))
    def test_csv_header_and_cells_match_the_json(self, capsys, command):
        argv, _, header = SHAPES[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        doc = strict_json(out)
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        table = csv_table(out)
        assert table[0] == header
        want = _csv_rows_of(command, doc)
        assert len(table) - 1 == len(want)
        for cells, values in zip(table[1:], want):
            assert all(_same_cell(c, v) for c, v in zip(cells, values)), (cells, values)


class TestNonFiniteNumbers:
    """Every non-finite number is JSON null and an empty CSV cell."""

    QSNR_AT_ZERO = ["qsnr", "--family", "coherent", "--kind", "M",
                    "--epsilons", "0", "--n-values", "10"]
    FISHER_P_AT_ZERO = ["fisher", "--family", "coherent", "--alpha-sq", "5",
                        "--kind", "P", "--epsilon", "0"]
    NON_ESTIMABLE = ["benchmark", "--family", "coherent", "--alpha-sq", "5",
                     "--kind", "P", "--epsilon", "0", "--shots", "100",
                     "--reps", "60", "--seed", "1"]

    def test_qsnr_ratio_at_zero_epsilon_json(self, capsys):
        code, out, err = run_cli(capsys, *self.QSNR_AT_ZERO)
        assert (code, err) == (0, "")
        (row,) = strict_json(out)["rows"]
        assert row["qsnr_leading"] == 0.0
        assert row["ratio"] is None

    def test_qsnr_ratio_at_zero_epsilon_csv(self, capsys):
        code, out, err = run_cli(capsys, *self.QSNR_AT_ZERO, "--format", "csv")
        assert (code, err) == (0, "")
        header, row = csv_table(out)
        assert row[header.index("ratio")] == ""
        assert row[header.index("qsnr_leading")] == "0.0"

    def test_fisher_m_delta_at_zero_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, *self.FISHER_P_AT_ZERO)
        assert code == 0
        doc = strict_json(out)
        assert doc["qsnr"] == 0.0 and doc["m_delta_coeff"] is None
        code, out, _ = run_cli(capsys, *self.FISHER_P_AT_ZERO, "--format", "csv")
        assert code == 0
        header, row = csv_table(out)
        assert row[header.index("m_delta_coeff")] == ""

    def test_non_estimable_benchmark(self, capsys):
        code, out, _ = run_cli(capsys, *self.NON_ESTIMABLE)
        assert code == 0
        doc = strict_json(out)
        assert [doc[k] for k in ("empirical_var", "crb", "ratio", "bias")] == [None] * 4
        assert doc["estimable"] is False
        code, out, _ = run_cli(capsys, *self.NON_ESTIMABLE, "--format", "csv")
        assert code == 0
        header, row = csv_table(out)
        assert [row[header.index(k)] for k in ("empirical_var", "crb", "ratio", "bias")] \
            == [""] * 4
        assert row[header.index("estimable")] == "false"


class TestFloatRangeEdges:
    """Inputs at the edge of the float range end in a document, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["state", "thermal", "--beta", "710", "--kind", "M", "--epsilon", "0"],
        ["fisher", "--family", "thermal", "--beta", "1e308", "--kind", "P", "--epsilon", "0.3"],
        ["qsnr", "--family", "cat", "--kind", "M", "--epsilons", "1e-3", "--n-values", "1e5"],
        ["qsnr", "--family", "coherent", "--kind", "M", "--epsilons", "1e-3",
         "--n-values", "1e308", "--raw-intensity"],
    ], ids=" ".join)
    def test_exits_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = strict_json(out)
        if argv[0] == "state":
            assert doc["n_max"] == 0 and doc["probs"] == [1.0]
        if "--raw-intensity" in argv:
            (row,) = doc["rows"]
            assert row["qsnr_leading"] is None and row["ratio"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["qsnr", "--family", "thermal", "--kind", "M", "--epsilons", "0.01",
         "--n-values", "34800"],
        ["fisher", "--family", "thermal", "--beta", "1e-303", "--kind", "M",
         "--epsilon", "0.01", "--hold", "intensity"],
        ["benchmark", "--family", "thermal", "--beta", "1e-305", "--kind", "M",
         "--epsilon", "0.3", "--shots", "100", "--reps", "50", "--seed", "1"],
    ], ids=" ".join)
    def test_eps_score_overflow_exit_3(self, capsys, argv):
        # The first calibrates to beta = 9.5e-304: the thermal epsilon-score
        # overflows there although the weights do not.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("qdeform: numerical error: epsilon score overflows")
        assert err.count("\n") == 1


class TestUnwritableOut:
    ARGV = ["state", "coherent", "--alpha-sq", "1", "--kind", "M", "--epsilon", "0"]

    def test_missing_directory_exit_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"qdeform: cannot write {target}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_out_exit_1(self, tmp_path, capsys):
        target = tmp_path / "adir"
        target.mkdir()
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"qdeform: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [target]  # no .qdeform-*.tmp left
        assert list(target.iterdir()) == []


class TestBenchmarkBracket:
    @pytest.mark.parametrize("kind, eps", [("M", "0.6"), ("P", "-0.6"), ("M", "-0.47")])
    def test_epsilon_outside_the_bracket_exit_2(self, capsys, kind, eps):
        code, out, err = run_cli(capsys, "benchmark", "--family", "coherent",
                                 "--alpha-sq", "2", "--kind", kind, f"--epsilon={eps}",
                                 "--shots", "2000", "--reps", "50", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "outside the MLE bracket" in err
