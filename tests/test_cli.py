"""Command-line front end, run in-process through ``cli.main(argv)``."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import earthmover
from earthmover import cli
from earthmover.errors import IterationLimitError


def write_csv(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def square(tmp_path):
    """Two unit-spaced 2D pairs at distance one from each other."""
    u = write_csv(tmp_path / "u.csv", "0,0\n1,0\n")
    v = write_csv(tmp_path / "v.csv", "0,1\n1,1\n")
    return u, v


def run(capsys, *argv):
    code = cli.main(["compute", *argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestSuccess:
    def test_json_output(self, capsys, square):
        code, out, _ = run(capsys, "--u", square[0], "--v", square[1])
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["distance"] == pytest.approx(1.0, rel=1e-12)
        assert payload["path"] == "lp"
        assert isinstance(payload["iterations"], int)
        assert payload["wall_time_ns"] > 0
        assert "plan" not in payload

    def test_plan_file(self, capsys, tmp_path, square):
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, "--u", square[0], "--v", square[1], "--plan", str(plan_path))
        assert code == cli.EXIT_OK
        assert set(json.loads(out)) == {"distance", "path", "iterations", "wall_time_ns"}
        rows = json.loads(plan_path.read_text())
        dense = np.zeros((2, 2))
        for i, j, mass in rows:
            dense[i, j] += mass
        np.testing.assert_allclose(dense, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_plan_file_on_cdf_path(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "3\n0\n1\n")
        v = write_csv(tmp_path / "v.csv", "8\n5\n6\n")
        u_w = write_csv(tmp_path / "uw.csv", "1\n2\n1\n")
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, "--u", u, "--v", v, "--u-weights", u_w, "--plan", str(plan_path))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["path"] == "cdf1d"
        assert "plan" not in payload
        rows = json.loads(plan_path.read_text())
        assert rows and all(len(row) == 3 for row in rows)
        assert all(type(i) is int and type(j) is int and type(mass) is float for i, j, mass in rows)
        assert sum(mass for _, _, mass in rows) == pytest.approx(1.0, abs=1e-12)

    def test_plan_file_with_repeated_rows_indexes_the_input(self, capsys, tmp_path):
        # the LP solves on the 2 distinct u points and 2 distinct v points;
        # the plan file still names input rows, and row 2 has no weight
        u = write_csv(tmp_path / "u.csv", "0,0\n1,0\n0,0\n0,0\n1,0\n")
        v = write_csv(tmp_path / "v.csv", "0,1\n0,1\n1,1\n")
        u_w = write_csv(tmp_path / "uw.csv", "1\n2\n0\n3\n2\n")
        plan_path = tmp_path / "plan.json"
        code, out, _ = run(capsys, "--u", u, "--v", v, "--u-weights", u_w, "--plan", str(plan_path))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["path"] == "lp"
        assert payload["distance"] == pytest.approx((5 + math.sqrt(2)) / 6, rel=1e-12)
        assert "plan" not in payload
        rows = json.loads(plan_path.read_text())
        sent, received = np.zeros(5), np.zeros(3)
        for i, j, mass in rows:
            sent[i] += mass
            received[j] += mass
        np.testing.assert_allclose(sent, np.array([1, 2, 0, 3, 2]) / 8, rtol=0, atol=1e-12)
        np.testing.assert_allclose(received, [1 / 3] * 3, rtol=0, atol=1e-12)

    def test_one_dimensional_weighted_input(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "0\n1\n")
        v = write_csv(tmp_path / "v.csv", "0\n1\n")
        u_w = write_csv(tmp_path / "uw.csv", "3\n1\n")
        v_w = write_csv(tmp_path / "vw.csv", "2\n2\n")
        code, out, _ = run(capsys, "--u", u, "--v", v, "--u-weights", u_w, "--v-weights", v_w)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["distance"] == pytest.approx(0.25, rel=1e-12)
        assert payload["path"] == "cdf1d"

    @pytest.mark.parametrize("option", ["--u", "--u-weights"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, option):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        files = {"--u": "0\n1\n3\n", "--v": "5\n6\n8\n", "--u-weights": "3\n1\n2\n"}
        argv = [item for name, text in files.items()
                for item in (name, write_csv(tmp_path / f"{name[2:]}.csv", text))]
        _, plain, _ = run(capsys, *argv)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + files[option].encode())
        argv[argv.index(option) + 1] = str(bom)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["distance"] == json.loads(plain)["distance"]

    def test_header_row_is_skipped(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "x,y\n0,0\n1,0\n")
        v = write_csv(tmp_path / "v.csv", "x,y\n0,1\n1,1\n")
        code, out, _ = run(capsys, "--u", u, "--v", v, "--header")
        assert code == cli.EXIT_OK
        assert json.loads(out)["distance"] == pytest.approx(1.0, rel=1e-12)

    def test_header_row_without_flag_is_a_parse_error(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "x,y\n0,0\n")
        v = write_csv(tmp_path / "v.csv", "0,1\n")
        code, _, err = run(capsys, "--u", u, "--v", v)
        assert code == cli.EXIT_IO
        assert err.startswith("error:")


class TestSpecialValueEncoding:
    def test_infinite_distance_is_the_string_inf(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "0,inf\n1,2\n")
        v = write_csv(tmp_path / "v.csv", "3,2\n")
        code, out, _ = run(capsys, "--u", u, "--v", v)
        assert code == cli.EXIT_OK
        assert json.loads(out)["distance"] == "inf"

    def test_undefined_distance_is_the_string_nan(self, capsys, tmp_path):
        u = write_csv(tmp_path / "u.csv", "nan,0\n")
        v = write_csv(tmp_path / "v.csv", "1,2\n")
        code, out, _ = run(capsys, "--u", u, "--v", v)
        assert code == cli.EXIT_OK
        assert json.loads(out)["distance"] == "nan"


class TestExitCodes:
    def test_negative_weight_is_a_validation_error(self, capsys, tmp_path, square):
        weights = write_csv(tmp_path / "w.csv", "1\n-1\n")
        code, out, err = run(capsys, "--u", square[0], "--v", square[1], "--u-weights", weights)
        assert code == cli.EXIT_VALIDATION == 2
        assert out == ""
        assert "E_WEIGHT_NEG" in err

    def test_solver_failure(self, capsys, monkeypatch, square):
        def fail(*args, **kwargs):
            raise IterationLimitError("exceeded 1 pivots on a 2x2 instance")

        monkeypatch.setattr(cli, "wasserstein_distance", fail)
        code, out, err = run(capsys, "--u", square[0], "--v", square[1])
        assert code == cli.EXIT_SOLVER == 3
        assert out == ""
        assert "E_ITER_LIMIT" in err

    def test_ragged_rows(self, capsys, tmp_path, square):
        ragged = write_csv(tmp_path / "ragged.csv", "0,0\n1\n")
        code, out, err = run(capsys, "--u", ragged, "--v", square[1])
        assert code == cli.EXIT_IO == 4
        assert out == ""
        assert "inconsistent column counts" in err

    def test_missing_file(self, capsys, tmp_path, square):
        code, out, err = run(capsys, "--u", str(tmp_path / "absent.csv"), "--v", square[1])
        assert code == cli.EXIT_IO
        assert out == ""
        assert err.startswith("error:")

    def test_unwritable_plan_path(self, capsys, tmp_path, square):
        plan_path = tmp_path / "no-such-dir" / "plan.json"
        code, _, err = run(capsys, "--u", square[0], "--v", square[1], "--plan", str(plan_path))
        assert code == cli.EXIT_IO
        assert err.startswith("error:")


class TestInputRejection:
    def test_blank_line_between_rows_is_skipped(self, capsys, tmp_path, square):
        u = write_csv(tmp_path / "blank.csv", "0,0\n\n1,0\n")
        code, out, _ = run(capsys, "--u", u, "--v", square[1])
        assert code == cli.EXIT_OK
        assert json.loads(out)["distance"] == pytest.approx(1.0, rel=1e-12)

    def test_empty_file(self, capsys, tmp_path, square):
        empty = write_csv(tmp_path / "empty.csv", "")
        code, out, err = run(capsys, "--u", empty, "--v", square[1])
        assert code == cli.EXIT_IO
        assert out == ""
        assert "no data rows" in err

    def test_header_only_file(self, capsys, tmp_path, square):
        header = write_csv(tmp_path / "header.csv", "x,y\n")
        code, out, err = run(capsys, "--u", header, "--v", square[1], "--header")
        assert code == cli.EXIT_IO
        assert out == ""
        assert "no data rows" in err

    def test_field_past_the_csv_field_limit(self, capsys, tmp_path, square):
        huge = write_csv(tmp_path / "huge.csv", "1" * (csv.field_size_limit() + 1) + "\n")
        code, out, err = run(capsys, "--u", huge, "--v", square[1])
        assert code == cli.EXIT_IO
        assert out == ""
        assert "field limit" in err

    def test_bytes_that_are_not_utf8(self, capsys, tmp_path, square):
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"\xff\n")
        code, out, err = run(capsys, "--u", str(latin), "--v", square[1])
        assert code == cli.EXIT_IO
        assert out == ""
        assert err.startswith("error:")

    def test_two_column_weights_file(self, capsys, tmp_path, square):
        weights = write_csv(tmp_path / "w.csv", "1,2\n3,4\n")
        code, out, err = run(capsys, "--u", square[0], "--v", square[1], "--u-weights", weights)
        assert code == cli.EXIT_IO
        assert out == ""
        assert "one value per row" in err

    def test_unwritable_bench_output(self, capsys, tmp_path):
        out_path = tmp_path / "no-such-dir" / "bench.csv"
        code = cli.main(["bench", "--max-exp", "0", "--repeats", "1", "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_IO
        assert out == ""
        assert err.startswith("error:")

    def test_bench_with_no_coordinates_is_a_validation_error(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code = cli.main(["bench", "--max-exp", "0", "--repeats", "1", "--dim", "0",
                         "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "E_SHAPE" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("option", ["--min-exp", "--max-exp", "--repeats", "--dim"])
    def test_negative_bench_count_is_a_usage_error(self, capsys, tmp_path, option):
        out_path = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--max-exp", "0", "--repeats", "1", option, "-1",
                      "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument {option}: -1 is negative" in err
        assert not out_path.exists()

    def test_empty_bench_size_range_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--min-exp", "3", "--max-exp", "1", "--repeats", "1",
                      "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "argument --min-exp: 3 is above --max-exp 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_zero_bench_repeats_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--max-exp", "0", "--repeats", "0", "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "argument --repeats: 0 trials" in err
        assert list(tmp_path.iterdir()) == []


def test_exit_status_reaches_the_shell(tmp_path, square):
    """``python -m earthmover.cli`` hands ``main``'s return value to the process exit status."""
    src = os.path.dirname(os.path.dirname(earthmover.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    negative = write_csv(tmp_path / "w.csv", "1\n-1\n")
    cases = [
        ([], cli.EXIT_OK),
        (["--u-weights", negative], cli.EXIT_VALIDATION),
        (["--plan", str(tmp_path / "no-such-dir" / "plan.json")], cli.EXIT_IO),
    ]
    for extra, status in cases:
        argv = [sys.executable, "-m", "earthmover.cli", "compute", "--u", square[0], "--v", square[1]]
        proc = subprocess.run(argv + extra, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == status, proc.stderr


class TestBench:
    def test_small_run_writes_trials_and_summary(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--max-exp", "2", "--repeats", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        with open(out, newline="") as fh:
            trials = list(csv.reader(fh))
        assert trials[0] == ["n", "trial", "wall_time_ns", "distance"]
        assert [(int(n), int(t)) for n, t, _, _ in trials[1:]] == [
            (size, trial) for size in (1, 2, 4) for trial in (0, 1)
        ]
        with open(tmp_path / "bench_summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        assert summary[0] == ["n", "mean_wall_time_ns", "log_mean", "paper_scaled"]
        assert [int(row[0]) for row in summary[1:]] == [1, 2, 4]
        for _, mean, log_mean, _ in summary[1:]:
            assert float(log_mean) == pytest.approx(math.log(float(mean)))
