import json
import math
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "femin", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def problem_file(tmp_path):
    return write_json(
        tmp_path / "problem.json",
        {
            "losses": [0.0, math.log(3.0)],
            "temperature": 1.0,
            "penalty": {"kind": "kl", "prior": [0.5, 0.5]},
        },
    )


class TestSolve:
    def test_kl_problem_solution(self, tmp_path, problem_file):
        out = tmp_path / "solution.json"
        result = run_cli("solve", "--problem", problem_file, "--output", out, "--quiet")
        assert result.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["problem"] == problem_file
        assert np.allclose(payload["solution"]["q_opt"], [0.75, 0.25], atol=1e-12)
        assert payload["solution"]["j_opt"] == pytest.approx(-math.log(2.0 / 3.0), abs=1e-12)

    def test_constant_loss_neg_entropy_gives_uniform(self, tmp_path):
        problem = write_json(
            tmp_path / "p.json",
            {"losses": [0.7, 0.7, 0.7], "temperature": 2.0, "penalty": {"kind": "neg_entropy"}},
        )
        result = run_cli("solve", "--problem", problem)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert np.allclose(payload["solution"]["q_opt"], 1.0 / 3.0, atol=1e-12)

    def test_gap_for_supplied_q(self, tmp_path, problem_file):
        q_file = write_json(tmp_path / "q.json", {"probs": [0.75, 0.25]})
        result = run_cli("solve", "--problem", problem_file, "--q", q_file)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert abs(payload["fenchel_young_gap"]) <= 1e-9


class TestSubcommands:
    def test_posterior(self, tmp_path):
        model = write_json(tmp_path / "m.json", {"log_tilde_p": [0.0, math.log(3.0)]})
        result = run_cli("posterior", "--model", model)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert np.allclose(payload["posterior"], [0.25, 0.75], atol=1e-12)
        assert payload["log_partition"] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_elbo(self, tmp_path):
        model = write_json(tmp_path / "m.json", {"log_tilde_p": [0.0, math.log(3.0)]})
        q = write_json(tmp_path / "q.json", {"probs": [0.5, 0.5]})
        result = run_cli("elbo", "--model", model, "--q", q)
        payload = json.loads(result.stdout)
        assert payload["elbo"] == pytest.approx(0.5 * math.log(3.0) + math.log(2.0), abs=1e-12)
        assert payload["gap"] >= 0.0

    def test_maxent(self, tmp_path):
        constraints = write_json(
            tmp_path / "c.json", {"features": [[0.0, 1.0]], "targets": [0.3]}
        )
        result = run_cli("maxent", "--constraints", constraints, "--tol", "1e-10")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert np.allclose(payload["q"], [0.7, 0.3], atol=1e-9)
        assert payload["lambdas"][0] == pytest.approx(math.log(3.0 / 7.0), abs=1e-9)
        assert payload["residual"] <= 1e-10

    def test_em_fixed_point_single_iteration(self, tmp_path):
        data = np.array([0.5, 1.5, 2.5, 3.5])
        model = write_json(
            tmp_path / "init.json",
            {
                "weights": [1.0],
                "family": "gaussian1d",
                "emissions": {"means": [float(data.mean())], "vars": [float(data.var())]},
            },
        )
        csv = tmp_path / "data.csv"
        csv.write_text("".join(f"{v}\n" for v in data))
        result = run_cli("em", "--model", model, "--data", csv)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["iterations"] == 1

    def test_em_categorical(self, tmp_path):
        model = write_json(
            tmp_path / "init.json",
            {
                "weights": [0.5, 0.5],
                "family": "categorical",
                "emissions": [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]],
            },
        )
        csv = tmp_path / "data.csv"
        csv.write_text("0\n0\n2\n2\n1\n0\n2\n")
        result = run_cli("em", "--model", model, "--data", csv)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        trace = payload["trace"]
        assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))

    def test_pacbayes_echoes_seed(self, tmp_path):
        problem = write_json(
            tmp_path / "p.json",
            {
                "loss_table": [[0.0, 1.0], [1.0, 0.0]],
                "a": 0.0,
                "b": 1.0,
                "prior": [0.5, 0.5],
                "data_model": [0.5, 0.5],
            },
        )
        result = run_cli(
            "pacbayes", "--problem", problem, "--beta", 2.0, "--m", 10, "--delta", 0.05,
            "--trials", 100, "--seed", 7,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["report"]["seed"] == 7
        assert payload["config"]["seed"] == 7
        assert 0.0 <= payload["report"]["violation_rate"] <= 1.0

    def test_klest_tabular(self, tmp_path):
        rng = np.random.default_rng(0)
        p_csv = tmp_path / "p.csv"
        q_csv = tmp_path / "q.csv"
        p_csv.write_text("".join(f"{v}\n" for v in rng.choice(2, 4000, p=[0.8, 0.2])))
        q_csv.write_text("".join(f"{v}\n" for v in rng.choice(2, 4000, p=[0.5, 0.5])))
        result = run_cli(
            "klest", "--samples-p", p_csv, "--samples-q", q_csv, "--steps", 200, "--lr", 0.5
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        true_kl = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert payload["kl_estimate"] == pytest.approx(true_kl, abs=0.1)
        assert len(payload["values"]) == 2

    def test_mirror_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = run_cli(
            "mirror", "--oracle", "linear", "--l", "0,1", "--method", "neg",
            "--alpha", 1.0, "--iters", 5, "--tol", 0.0, "--output", out, "--quiet",
        )
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "iter,value,step_size,q0,q1"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 6
        q0_final = float(rows[-1][3])
        assert q0_final == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-9)

    def test_figure1_csv_round_trip(self, tmp_path):
        out = tmp_path / "figure.csv"
        result = run_cli(
            "figure1", "--n-points", 41, "--temperatures", "10,0.01", "--output", out, "--quiet"
        )
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        config = json.loads(lines[0].removeprefix("# config="))
        assert config["n_points"] == 41
        header = lines[1].split(",")
        assert header[:3] == ["x", "loss", "prior"]
        data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert data.shape == (41, len(header))
        for col in range(3, len(header)):
            assert data[:, col].sum() == pytest.approx(1.0, abs=1e-9)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--problem", "does-not-exist.json"),
            ("posterior", "--model", "missing.json"),
        ],
        ids=["missing-problem", "missing-model"],
    )
    def test_missing_files(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        error = json.loads(result.stderr)
        assert error["exit_code"] == 2

    def test_malformed_corpus(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        missing_key = write_json(tmp_path / "missing.json", {"foo": 1})
        wrong_type = write_json(tmp_path / "wrong.json", {"log_tilde_p": "abc"})
        bad_constraints = write_json(
            tmp_path / "c.json", {"features": [[0, 1]], "targets": [0.3, 0.4]}
        )
        string_losses = write_json(
            tmp_path / "s.json",
            {"losses": ["a", "b"], "temperature": 1.0, "penalty": {"kind": "neg_entropy"}},
        )
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("1\ntwo\n")
        empty_csv = tmp_path / "empty.csv"
        empty_csv.write_text("")
        float_symbols = tmp_path / "float.csv"
        float_symbols.write_text("0.25\n1\n")
        q_file = write_json(tmp_path / "q.json", {"probs": [1.0]})
        gmodel = write_json(
            tmp_path / "g.json",
            {"weights": [1.0], "family": "gaussian1d", "emissions": {"means": [0.0], "vars": [1.0]}},
        )
        cmodel = write_json(
            tmp_path / "cm.json",
            {"weights": [1.0], "family": "categorical", "emissions": [[0.5, 0.5]]},
        )
        bad_loss_table = write_json(tmp_path / "loss.json", {"not": "a list"})

        cases = [
            ("solve", "--problem", str(garbage)),
            ("solve", "--problem", missing_key),
            ("solve", "--problem", string_losses),
            ("posterior", "--model", missing_key),
            ("posterior", "--model", wrong_type),
            ("elbo", "--model", missing_key, "--q", q_file),
            ("maxent", "--constraints", bad_constraints),
            ("em", "--model", gmodel, "--data", str(bad_csv)),
            ("em", "--model", gmodel, "--data", str(empty_csv)),
            ("em", "--model", cmodel, "--data", str(float_symbols)),
            ("mirror", "--l", "a,b"),
            ("figure1", "--loss", bad_loss_table),
            # argparse errors: a value that looks like a flag, a missing
            # required flag, no subcommand
            ("mirror", "--l", "-1,2"),
            ("solve",),
            (),
        ]
        for argv in cases:
            result = run_cli(*argv)
            assert result.returncode == 2, f"{argv} -> {result.returncode}: {result.stderr}"
            assert json.loads(result.stderr)["exit_code"] == 2

    def test_unknown_flag_rejected(self, problem_file):
        result = run_cli("solve", "--problem", problem_file, "--frobnicate")
        assert result.returncode == 2
        error = json.loads(result.stderr)
        assert error["exit_code"] == 2 and error["error"] == "InputError"
        assert "--frobnicate" in error["message"]

    def test_help_exits_zero(self):
        for argv in (("--help",), ("mirror", "--help")):
            result = run_cli(*argv)
            assert result.returncode == 0
            assert result.stdout.startswith("usage: femin")

    def test_mirror_step_size_must_be_positive_and_finite(self):
        for alpha in ("-0.3", "nan"):
            result = run_cli("mirror", "--oracle", "linear", "--l=0,1,2", "--alpha", alpha, "--iters", 3)
            assert result.returncode == 3, f"--alpha {alpha} -> {result.returncode}"
            error = json.loads(result.stderr)
            assert error["exit_code"] == 3 and "step_size must be finite and > 0" in error["message"]
            assert result.stdout == ""

    def test_negative_list_with_equals_sign(self):
        result = run_cli("mirror", "--l=-1,2", "--iters", 1)
        assert result.returncode == 0, result.stderr

    def test_domain_errors(self, tmp_path):
        zero_temp = write_json(
            tmp_path / "t0.json",
            {"losses": [0.0, 1.0], "temperature": 0.0, "penalty": {"kind": "neg_entropy"}},
        )
        negative_prior = write_json(
            tmp_path / "neg.json",
            {"losses": [0.0, 1.0], "temperature": 1.0, "penalty": {"kind": "kl", "prior": [1.2, -0.2]}},
        )
        infeasible = write_json(
            tmp_path / "inf.json", {"features": [[0.0, 1.0]], "targets": [1.5]}
        )
        model = write_json(tmp_path / "m.json", {"log_tilde_p": [0.0, 0.0]})
        q3 = write_json(tmp_path / "q3.json", {"probs": [0.2, 0.3, 0.5]})
        problem = write_json(
            tmp_path / "p.json",
            {
                "loss_table": [[0.0, 1.0]],
                "a": 0.0,
                "b": 1.0,
                "prior": [1.0],
                "data_model": [0.5, 0.5],
            },
        )

        cases = [
            ("solve", "--problem", zero_temp),
            ("solve", "--problem", negative_prior),
            ("maxent", "--constraints", infeasible),
            ("elbo", "--model", model, "--q", q3),
            ("pacbayes", "--problem", problem, "--beta", 1.0, "--m", 5, "--delta", 0.05, "--trials", 50),
            ("figure1", "--n-points", 5),
        ]
        for argv in cases:
            result = run_cli(*argv)
            assert result.returncode == 3, f"{argv} -> {result.returncode}: {result.stderr}"
            assert json.loads(result.stderr)["exit_code"] == 3

    def test_negative_seed_named(self, tmp_path):
        problem = write_json(
            tmp_path / "p.json",
            {"loss_table": [[0.0, 1.0], [1.0, 0.0]], "a": 0.0, "b": 1.0, "prior": [0.5, 0.5], "data_model": [0.5, 0.5]},
        )
        result = run_cli(
            "pacbayes", "--problem", problem, "--beta", 2.0, "--m", 10, "--delta", 0.05,
            "--trials", 100, "--seed", -1,
        )
        assert result.returncode == 3
        error = json.loads(result.stderr)
        assert error["exit_code"] == 3 and error["message"] == "seed must be >= 0, got -1"


class TestDeterminism:
    def test_pacbayes_byte_identical(self, tmp_path):
        problem = write_json(
            tmp_path / "p.json",
            {
                "loss_table": [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]],
                "a": 0.0,
                "b": 1.0,
                "prior": [0.5, 0.5],
                "data_model": [0.3, 0.3, 0.4],
            },
        )
        argv = (
            "pacbayes", "--problem", problem, "--beta", 1.5, "--m", 20, "--delta", 0.1,
            "--trials", 150, "--seed", 11,
        )
        first, second = run_cli(*argv), run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_figure1_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("figure1", "--n-points", 21, "--temperatures", "10,0.1", "--quiet")
        assert run_cli(*argv, "--output", out1).returncode == 0
        assert run_cli(*argv, "--output", out2).returncode == 0
        a, b = out1.read_bytes(), out2.read_bytes()
        assert a and a.replace(str(out1).encode(), b"") == b.replace(str(out2).encode(), b"")

    def test_klest_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        p_csv, q_csv = tmp_path / "p.csv", tmp_path / "q.csv"
        p_csv.write_text("".join(f"{v}\n" for v in rng.integers(0, 3, 500)))
        q_csv.write_text("".join(f"{v}\n" for v in rng.integers(0, 3, 500)))
        argv = ("klest", "--samples-p", p_csv, "--samples-q", q_csv, "--steps", 50, "--seed", 2)
        first, second = run_cli(*argv), run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == 0
