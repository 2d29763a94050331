"""Input checks at the API and CLI boundary.

Every public entry checks its arguments once, through the helpers in
femin.simplex: counts, finite positive scalars, symbol vectors and alphabet
sizes. Three CLI sweeps run through femin.cli.main: one sets every numeric or
list flag of every subcommand to edge values, one puts edge values in place
of every field, and of every list's first entry, of each JSON input file,
and one puts them on the first and the last line of each CSV column. Each
run must end in exit 0, 2 or 3, with a JSON error on stderr when it is not
0, and raise no numpy warning. Another test sets every flag the parser
declares to two values, which must give different results.
"""

import argparse
import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import femin as fm
import femin.cli
import femin.mirror_descent
from femin.figure1 import figure1_table, grid_prior

EDGE_VALUES = ("", "0", "-1", "2.5", "nan", "inf", "-inf", "5e-324")
FEMIN_WARNINGS = (fm.FlooringWarning, fm.DegenerateComponentWarning)


def run_main(argv):
    """(exit code, stdout, stderr, warnings) of femin.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = femin.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue(), caught


def assert_clean_exit(argv, code, err, caught):
    assert code in (0, 2, 3), (argv, code, err)
    if code != 0:
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["exit_code"] == code, (argv, payload)
    foreign = [f"{w.category.__name__}: {w.message}" for w in caught if not issubclass(w.category, FEMIN_WARNINGS)]
    assert not foreign, (argv, foreign)


def assert_domain_error(argv, message):
    code, out, err, caught = run_main(argv)
    assert_clean_exit(argv, code, err, caught)
    assert code == 3 and out == "", (argv, code, err)
    assert message in json.loads(err)["message"], err


# The JSON inputs of the base commands, by the name the inputs fixture gives their files.
JSON_INPUTS = {
    "problem": {"losses": [0.0, 1.0, 0.5], "temperature": 1.0, "penalty": {"kind": "kl", "prior": [0.2, 0.3, 0.5]}},
    "q": {"probs": [0.5, 0.25, 0.25]},
    "constraints": {"features": [[0.0, 1.0, 2.0]], "targets": [1.2]},
    "model": {"log_tilde_p": [0.0, 1.0, -1.0]},
    "init": {"weights": [0.5, 0.5], "family": "gaussian1d", "emissions": {"means": [-1.0, 1.0], "vars": [1.0, 1.0]}},
    "learning": {
        "loss_table": [[0.1, 0.9], [0.6, 0.3], [0.4, 0.5]],
        "a": 0.0,
        "b": 1.0,
        "prior": [0.3, 0.3, 0.4],
        "data_model": [0.4, 0.6],
    },
    "features": {"features": [[0.0], [1.0], [2.0]]},
    "loss": [0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 16.0, 9.0, 4.0, 1.0, 0.0, 1.0],
}


@pytest.fixture
def inputs(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    rng = np.random.default_rng(5)
    y = np.concatenate([rng.normal(-2.0, 0.5, 15), rng.normal(2.0, 0.5, 15)])
    files = {name: write(f"{name}.json", json.dumps(doc)) for name, doc in JSON_INPUTS.items()}
    return {
        **files,
        "data": write("data.csv", "".join(f"{v!r}\n" for v in y.tolist())),
        "samples_p": write("samples_p.csv", "0\n1\n1\n2\n2\n2\n"),
        "samples_q": write("samples_q.csv", "0\n0\n1\n2\n1\n0\n"),
    }


def base_commands(files):
    """(argv, numeric or list flags) of each subcommand on small inputs."""
    return [
        (["solve", "--problem", files["problem"], "--q", files["q"]], []),
        (["maxent", "--constraints", files["constraints"]], ["--alphabet-size", "--max-iter", "--tol"]),
        (["posterior", "--model", files["model"]], []),
        (["elbo", "--model", files["model"], "--q", files["q"]], []),
        (["em", "--model", files["init"], "--data", files["data"], "--max-iter", "20"], ["--max-iter", "--tol"]),
        (
            ["pacbayes", "--problem", files["learning"], "--beta", "2", "--m", "5", "--delta", "0.1"]
            + ["--trials", "100"],
            ["--beta", "--m", "--delta", "--trials", "--seed"],
        ),
        (
            ["klest", "--samples-p", files["samples_p"], "--samples-q", files["samples_q"], "--steps", "20"],
            ["--alphabet-size", "--steps", "--lr"],
        ),
        (["mirror", "--l=0,1,0.5", "--iters", "20"], ["--l", "--x0", "--alpha", "--iters", "--tol"]),
        (["mirror", "--oracle", "quadratic-to-target", "--target=0.2,0.8", "--iters", "20"], ["--target", "--tol"]),
        (["mirror", "--oracle", "entropy-regularized-linear", "--l=0,1", "--iters", "20"], ["--reg", "--tol"]),
        (
            ["figure1", "--n-points", "12", "--temperatures", "1,0.1"],
            ["--x-min", "--x-max", "--n-points", "--temperatures"],
        ),
        (
            ["klest", "--class", "linear", "--features", files["features"]]
            + ["--samples-p", files["samples_p"], "--samples-q", files["samples_q"], "--steps", "20"],
            [],
        ),
        (["figure1", "--loss", files["loss"], "--n-points", "12", "--temperatures", "1,0.1"], []),
    ]


def base_argv(files, command):
    """The first base command of a subcommand."""
    return next(argv for argv, _ in base_commands(files) if argv[0] == command)


def without_flag(argv, flag):
    """argv with every setting of `flag` removed."""
    out = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == flag:
            skip = True
        elif not token.startswith(flag + "="):
            out.append(token)
    return out


def with_flag(argv, flag, value):
    """argv with `flag` set to `value` as one --flag=value token, replacing any
    earlier setting; the = form keeps "-1" and "-inf" values. A value of None
    leaves the flag out, and True passes it bare."""
    if value is None:
        return without_flag(argv, flag)
    return [*without_flag(argv, flag), flag if value is True else f"{flag}={value}"]


def test_cli_edge_value_sweep(inputs):
    for argv, flags in base_commands(inputs):
        code, _, err, caught = run_main(argv)
        assert code == 0, (argv, err)
        assert_clean_exit(argv, code, err, caught)
        for flag in flags:
            for value in EDGE_VALUES:
                case = with_flag(argv, flag, value)
                code, _, err, caught = run_main(case)
                assert_clean_exit(case, code, err, caught)


def declared_flags():
    """(subcommand, flag) of every flag build_parser declares."""
    (sub,) = [a for a in femin.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (name, flag)
        for name, parser in sub.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


# A second version of each input, for the every-flag test.
OTHER_INPUTS = {
    "problem": {**JSON_INPUTS["problem"], "temperature": 0.5},
    "q": {"probs": [0.25, 0.5, 0.25]},
    "constraints": {"features": [[0.0, 1.0, 2.0]], "targets": [0.8]},
    "model": {"log_tilde_p": [1.0, 0.0, -1.0]},
    "init": {**JSON_INPUTS["init"], "weights": [0.3, 0.7]},
    "learning": {**JSON_INPUTS["learning"], "prior": [0.6, 0.2, 0.2]},
    "features": {"features": [[1.0], [0.0], [2.0]]},
    "data": "-2.5\n-1.5\n-2.0\n2.0\n1.0\n",
    "samples_p": "0\n0\n1\n2\n",
    "samples_q": "1\n1\n2\n0\n",
}


def flag_cases(files, other, out):
    """(base argv, flag, setting, other setting) of every flag that each
    subcommand reads; a setting of None leaves the flag out, True passes it bare."""
    commands = ("solve", "maxent", "posterior", "elbo", "em", "pacbayes", "klest", "mirror", "figure1")
    solve, maxent, posterior, elbo, em, pacbayes, klest, mirror, figure1 = (base_argv(files, c) for c in commands)
    linear = [*klest, "--class", "linear", "--features", files["features"]]
    target = ["mirror", "--oracle", "quadratic-to-target", "--target=0.2,0.8", "--iters", "20"]
    regularized = ["mirror", "--oracle", "entropy-regularized-linear", "--l=0,1", "--iters", "20"]
    cases = [
        (solve, "--problem", files["problem"], other["problem"]),
        (solve, "--q", None, files["q"]),
        (maxent, "--constraints", files["constraints"], other["constraints"]),
        (maxent, "--alphabet-size", None, 4),
        (maxent, "--max-iter", 200, 1),
        (maxent, "--tol", 1e-8, 0.5),
        (posterior, "--model", files["model"], other["model"]),
        (elbo, "--model", files["model"], other["model"]),
        (elbo, "--q", files["q"], other["q"]),
        (em, "--model", files["init"], other["init"]),
        (em, "--data", files["data"], other["data"]),
        (em, "--max-iter", 20, 1),
        (em, "--tol", 1e-8, 1e3),
        (pacbayes, "--problem", files["learning"], other["learning"]),
        (pacbayes, "--beta", 2, 3),
        (pacbayes, "--m", 5, 6),
        (pacbayes, "--delta", 0.1, 0.2),
        (pacbayes, "--trials", 100, 50),
        (pacbayes, "--seed", 0, 1),
        (linear, "--class", "tabular", "linear"),
        (klest, "--samples-p", files["samples_p"], other["samples_p"]),
        (klest, "--samples-q", files["samples_q"], other["samples_q"]),
        (linear, "--features", files["features"], other["features"]),
        (klest, "--alphabet-size", None, 4),
        (klest, "--steps", 20, 5),
        (klest, "--lr", 0.1, 0.5),
        (mirror, "--oracle", "linear", "entropy-regularized-linear"),
        (mirror, "--l", "0,1,0.5", "1,0,0.5"),
        (target, "--target", "0.2,0.8", "0.8,0.2"),
        (regularized, "--reg", 0.1, 1),
        (mirror, "--x0", None, "0.2,0.3,0.5"),
        (mirror, "--method", "neg", "euclidean"),
        (mirror, "--alpha", 0.1, 0.5),
        (mirror, "--schedule", "constant", "inv_sqrt"),
        (mirror, "--iters", 20, 5),
        (mirror, "--tol", 1e-10, 1),
        (figure1, "--x-min", -4, -3),
        (figure1, "--x-max", 4, 3),
        (figure1, "--n-points", 12, 11),
        (figure1, "--temperatures", "1,0.1", "1"),
        (figure1, "--loss", "bimodal", "quadratic"),
    ]
    for argv in (solve, maxent, posterior, elbo, em, pacbayes, klest, mirror, figure1):
        cases += [(argv, "--output", None, out), ([*argv, "--output", out], "--quiet", None, True)]
    return cases


def without_config(out):
    """stdout without its config echo: a CSV's first line, a JSON object's key."""
    if not out or out.startswith("# config="):
        return out.partition("\n")[2]
    return {key: value for key, value in json.loads(out).items() if key != "config"}


def write_files(directory, contents):
    """{name: path} of files written to directory; a str is written as is, anything else as JSON."""
    paths = {}
    for name, content in contents.items():
        path = directory / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        paths[name] = str(path)
    return paths


def test_every_declared_flag_changes_the_result(inputs, tmp_path):
    (tmp_path / "other").mkdir()
    cases = flag_cases(inputs, write_files(tmp_path / "other", OTHER_INPUTS), str(tmp_path / "out"))
    assert {(argv[0], flag) for argv, flag, _, _ in cases} == declared_flags()
    for argv, flag, setting, other_setting in cases:
        results = []
        for value in (setting, other_setting):
            case = with_flag(argv, flag, value)
            code, out, err, caught = run_main(case)
            assert_clean_exit(case, code, err, caught)
            results.append((code, without_config(out), err))
        assert results[0] != results[1], (argv, flag, setting, other_setting, results[0])


# The flags that no subcommand reads and the parser no longer declares.
REMOVED_FLAGS = [
    *((command, "--seed") for command in ("solve", "maxent", "posterior", "elbo", "em", "klest", "mirror", "figure1")),
    *((command, "--tol") for command in ("solve", "posterior", "elbo", "pacbayes", "klest", "figure1")),
]


@pytest.mark.parametrize(("command", "flag"), REMOVED_FLAGS)
def test_removed_flag_is_an_input_error(inputs, command, flag):
    code, out, err, _ = run_main(with_flag(base_argv(inputs, command), flag, 1))
    assert code == 2 and out == "", err
    assert json.loads(err) == {"error": "InputError", "exit_code": 2, "message": f"unrecognized arguments: {flag}=1"}


# 10**400 is a JSON integer past the largest double.
FILE_EDGE_VALUES = ([], {}, 0, -1, 1e308, -1e308, 5e-324, 10**400, "x", None, True, [[1.0]])


def positions(node, path=()):
    """The path to every field, and to the first entry of every list, in node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node:
        items = [(0, node[0])]
    else:
        return
    for key, value in items:
        yield (*path, key)
        yield from positions(value, (*path, key))


def entry(node, path):
    """The entry of node at path."""
    for key in path:
        node = node[key]
    return node


def replaced(node, path, value):
    """A copy of node with the entry at path set to value."""
    if not path:
        return value
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


def test_cli_input_file_sweep(inputs, tmp_path):
    fuzzed = tmp_path / "fuzzed.json"
    names = {inputs[name]: name for name in JSON_INPUTS}
    commands = [argv for argv, _ in base_commands(inputs)]
    cases = [(argv, i, names[token]) for argv in commands for i, token in enumerate(argv) if token in names]
    for argv, i, name in cases:
        for path in positions(JSON_INPUTS[name]):
            for value in FILE_EDGE_VALUES:
                label = (argv[0], name, path, json.dumps(value))
                fuzzed.write_text(json.dumps(replaced(JSON_INPUTS[name], path, value)))
                try:
                    code, _, err, caught = run_main([*argv[:i], fuzzed, *argv[i + 1 :]])
                except Exception as exc:
                    pytest.fail(f"{label} raised {exc!r}")
                assert_clean_exit(label, code, err, caught)


# Values for one line of a CSV column: the edge values, the largest doubles,
# a value past 2**53, the symbol 2**53 + 1, whose tabular alphabet is too
# large to allocate, and a symbol past the int64 range.
CSV_EDGE_VALUES = (*EDGE_VALUES, "1e308", "-1e308", "1e20", "9007199254740993", "1" + "0" * 23)
CATEGORICAL_FILES = {
    "categorical.json": {"weights": [0.5, 0.5], "family": "categorical", "emissions": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]},
    "symbols.csv": "0\n1\n2\n2\n1\n0\n",
}


def test_cli_csv_line_sweep(inputs, tmp_path):
    categorical = write_files(tmp_path, CATEGORICAL_FILES)
    em = base_argv(inputs, "em")
    em_categorical = with_flag(with_flag(em, "--model", categorical["categorical.json"]), "--data", categorical["symbols.csv"])
    klest = base_argv(inputs, "klest")
    linear = [*klest, "--class", "linear", "--features", inputs["features"]]
    cases = [(em, "--data", inputs["data"]), (em_categorical, "--data", categorical["symbols.csv"])]
    cases += [(argv, "--samples-p", inputs["samples_p"]) for argv in (klest, linear)]
    cases += [(argv, "--samples-q", inputs["samples_q"]) for argv in (klest, linear)]
    edited = tmp_path / "edited.csv"
    for argv, flag, path in cases:
        code, _, err, caught = run_main(argv)
        assert code == 0, (argv, err)
        lines = Path(path).read_text().splitlines()
        for value in CSV_EDGE_VALUES:
            for at in (0, len(lines) - 1):
                edited.write_text("".join(f"{line}\n" for line in replaced(lines, (at,), value)))
                case = with_flag(argv, flag, edited)
                code, _, err, caught = run_main(case)
                assert_clean_exit((flag, at, value, case), code, err, caught)


def test_every_json_input_rejects_non_numbers(inputs, tmp_path):
    """A string, true or null at any numeric leaf of any of the eight JSON input kinds is an input error."""
    fuzzed = tmp_path / "fuzzed.json"
    commands = [argv for argv, _ in base_commands(inputs)]
    for name, document in JSON_INPUTS.items():
        argv = next(argv for argv in commands if inputs[name] in argv)
        i = argv.index(inputs[name])
        for path in (path for path in positions(document) if isinstance(entry(document, path), float)):
            for value in ("0", True, None):
                fuzzed.write_text(json.dumps(replaced(document, path, value)))
                code, out, err, _ = run_main([*argv[:i], fuzzed, *argv[i + 1 :]])
                assert code == 2 and out == "", (name, path, value, err)
                assert "expected a number" in json.loads(err)["message"], (name, path, value, err)


@pytest.mark.parametrize("line", ["1.0", "inf"])
def test_em_reads_categorical_symbols_as_klest_does(inputs, tmp_path, line):
    files = write_files(tmp_path, {**CATEGORICAL_FILES, "edited.csv": f"0\n{line}\n1\n"})
    em = ["em", "--model", files["categorical.json"], "--data", files["edited.csv"]]
    klest = ["klest", "--samples-p", files["edited.csv"], "--samples-q", inputs["samples_q"]]
    (em_code, em_out, em_err, _), (klest_code, _, klest_err, _) = run_main(em), run_main(klest)
    assert em_code == klest_code == 2 and em_out == "", em_err
    assert em_err == klest_err and f"{line!r} is not a int" in em_err


# Inputs whose arithmetic would overflow, by file name: a Gaussian init mean
# of +-1e308 or a variance of 1e308, data near 1e200, a posterior whose shift
# by the max overflows, a loss table whose span does, and 1000 observations
# at 1e306, whose M-step sum does.
OVERFLOW_FILES = {
    "constraints.json": {"features": [[0.0, 1e308, 2.0]], "targets": [1.2]},
    "model.json": {"log_tilde_p": [1e308, -1e308]},
    "loss.json": [1e308, -1e308] + [0.0] * 9,
    "init.json": JSON_INPUTS["init"],
    "mean.json": replaced(JSON_INPUTS["init"], ("emissions", "means", 0), 1e308),
    "neg_mean.json": replaced(JSON_INPUTS["init"], ("emissions", "means", 0), -1e308),
    "var.json": replaced(JSON_INPUTS["init"], ("emissions", "vars", 0), 1e308),
    "data.csv": "-2.5\n-1.5\n2.0\n1.0\n",
    "far.csv": "1e200\n1.1e200\n0.9e200\n",
    "huge.json": replaced(JSON_INPUTS["init"], ("emissions", "means"), [1e306, 1e306]),
    "huge.csv": "1e306\n" * 1000,
}
# (model, data, text of the JSON error): an overflowing square is a zero density, so the
# first three fit with a degenerate component (an error under -W error) and the last fails
EM_OVERFLOWS = [
    ("mean.json", "data.csv", "DegenerateComponentWarning: components [0] received no responsibility mass"),
    ("neg_mean.json", "data.csv", "DegenerateComponentWarning: components [0] received no responsibility mass"),
    ("var.json", "data.csv", "DegenerateComponentWarning: components [0] received no responsibility mass"),
    ("init.json", "far.csv", "ValueError: observation 0 has zero probability under every component"),
]


# (means, variances, data, marginal log-likelihood at the start, em_fit's degenerate components)
EM_SQUARES = [
    ([1e308, 1.0], [1.0, 1.0], [0.0, 1.0, 2.0], -5.836257141293855, [0]),
    ([-1.0, 1.0], [1.0, 1e308], [0.0, 1.0, 2.0], -11.836257141293853, [1]),
    ([-1.0, 1.0], [1e-6, 1.0], [0.0, 1e152], -5.0000000000000003e303, [0]),  # (y - mean)^2 is finite, over 2e-6 not
    ([0.0, 0.0], [1.0, 1.0], [-1e154, 1e154], -1e308, []),  # the fit's 2 variance overflows
]


@pytest.fixture
def overflow_files(tmp_path):
    return write_files(tmp_path, OVERFLOW_FILES)


class TestCliDefectInputs:
    def test_empty_oracle_vector(self):
        assert_domain_error(["mirror", "--l="], "l must have at least one entry")
        target = ["mirror", "--oracle", "quadratic-to-target", "--target="]
        assert_domain_error(target, "target must have at least one entry")

    def test_alphabet_too_large_to_allocate(self, tmp_path):
        # 2**53 + 2 float64 cells ask for 64 PiB, which no allocation can give at once
        samples = write_files(tmp_path, {"p.csv": "0\n9007199254740993\n", "q.csv": "0\n1\n"})
        argv = ["klest", "--samples-p", samples["p.csv"], "--samples-q", samples["q.csv"]]
        code, out, err, caught = run_main(argv)
        assert_clean_exit(argv, code, err, caught)
        assert code == 3 and out == "" and json.loads(err)["error"] == "MemoryError", err

    def test_infinite_learning_rate(self, inputs):
        argv = ["klest", "--samples-p", inputs["samples_p"], "--samples-q", inputs["samples_q"], "--lr", "inf"]
        assert_domain_error(argv, "learning_rate must be finite and > 0, got inf")

    def test_maxent_alphabet_size_is_read_with_constraints(self, inputs):
        argv = ["maxent", "--constraints", inputs["constraints"], "--alphabet-size", "5"]
        assert_domain_error(argv, "features and alphabet have lengths 3 and 5")

    def test_klest_alphabet_size_zero_is_read(self, inputs):
        argv = ["klest", "--samples-p", inputs["samples_p"], "--samples-q", inputs["samples_q"], "--alphabet-size", "0"]
        assert_domain_error(argv, "alphabet_size must be >= 1, got 0")

    def test_empty_start_is_read(self):
        assert_domain_error(["mirror", "--l=0,1", "--x0="], "probs must have at least one entry")

    def test_start_must_match_the_oracle(self):
        assert_domain_error(["mirror", "--l=0,1", "--x0=0.2,0.3,0.5"], "x0 and oracle have lengths 3 and 2")

    @pytest.mark.parametrize("flag", ["--x-max=inf", "--x-min=-inf", "--x-max=nan"])
    def test_figure1_range_must_be_finite(self, flag):
        assert_domain_error(["figure1", flag], "need finite x_min < x_max")

    @pytest.mark.parametrize(
        ("x_min", "x_max", "loss"),
        [
            ("-1e200", "1e200", "bimodal"),
            ("-1e100", "1e100", "bimodal"),
            ("1e155", "1e156", "bimodal"),
            ("-1e200", "1e200", "quadratic"),
            ("1e155", "1e156", "quadratic"),
        ],
    )
    def test_figure1_range_whose_loss_overflows(self, x_min, x_max, loss):
        argv = ["figure1", f"--x-min={x_min}", f"--x-max={x_max}", "--loss", loss]
        assert_domain_error(argv, "loss on the grid must be finite")

    @pytest.mark.parametrize(("x_min", "x_max"), [("-1e200", "1e200"), ("1e155", "1e156"), ("-1e160", "1.0")])
    def test_figure1_range_whose_prior_square_overflows(self, tmp_path, x_min, x_max):
        table = tmp_path / "loss.json"
        table.write_text(json.dumps(list(range(11))))
        argv = ["figure1", f"--x-min={x_min}", f"--x-max={x_max}", "--n-points", "11", "--loss", table]
        code, _, err, caught = run_main(argv)
        assert_clean_exit(argv, code, err, caught)
        assert code == 3  # the prior is at most one point: the kl penalty needs it positive

    @pytest.mark.parametrize("x_min, x_max", [(-9.0, 9.0), (-3.0, 9.0)])
    def test_figure1_range_whose_end_prior_weights_round_to_zero(self, x_min, x_max):
        # exp(-x**2/2) is positive on the grid, but its end weights normalize below SUPPORT_EPS
        low = float(grid_prior(np.linspace(x_min, x_max, 41)).probs.min())
        assert 0.0 < low <= 1e-15
        message = f"grid prior on [{x_min!r}, {x_max!r}]: min weight {low!r} <= SUPPORT_EPS 1e-15"
        assert_domain_error(["figure1", f"--x-min={x_min}", f"--x-max={x_max}"], message)

    def test_grid_prior_weight_of_an_overflowing_square_is_zero(self):
        prior = grid_prior(np.linspace(-1e200, 1e200, 11)).probs
        assert prior.tolist() == [0.0] * 5 + [1.0] + [0.0] * 5

    @pytest.mark.parametrize("target", ["1e200,0", "0,-1e200", "1e154,1e154"])
    def test_quadratic_target_whose_value_overflows(self, target):
        argv = ["mirror", "--oracle", "quadratic-to-target", f"--target={target}"]
        assert_domain_error(argv, "target too large: 0.5 ||x - target||^2 overflows on the simplex")

    @pytest.mark.parametrize(
        "features", [[[0.0, 1e308, 2.0]], [[0.0, -1e155, 2.0]], [[0.0, 1e154, 2.0], [1.0, 1e154, 0.0]]]
    )
    def test_maxent_features_whose_squares_overflow(self, tmp_path, features):
        constraints = tmp_path / "constraints.json"
        constraints.write_text(json.dumps({"features": features, "targets": [1.2, 0.5][: len(features)]}))
        assert_domain_error(["maxent", "--constraints", constraints], "features too large")

    @pytest.mark.parametrize(
        ("argv", "text"),
        [
            (["mirror", "--oracle", "quadratic-to-target", "--target=1e200,0"], "target too large"),
            (["figure1", "--x-min=-1e200", "--x-max=1e200"], "loss on the grid must be finite"),
            (["maxent", "--constraints", "constraints.json"], "features too large"),
            (["posterior", "--model", "model.json"], '"log_partition":1e+308,"posterior":[1.0,0.0]'),
            (["figure1", "--loss", "loss.json", "--n-points", "11"], "span 1e+308 - -1e+308 exceeds the largest double"),
            *((["em", "--model", model, "--data", data], text) for model, data, text in EM_OVERFLOWS),
            (["em", "--model", "huge.json", "--data", "huge.csv"], "the M-step's weighted sum of y overflows"),
        ],
        ids=["mirror", "figure1", "maxent", "posterior", "figure1-loss", "em-mean", "em-neg-mean", "em-var", "em-far", "em-sum"],
    )
    def test_overflowing_inputs_under_w_error(self, overflow_files, argv, text):
        """Exit 3 with the JSON error, or for the posterior exit 0, with `text`
        in `<error>: <message>` or on stdout, and no numpy warning."""
        argv = [overflow_files.get(token, token) for token in argv]
        run = subprocess.run([sys.executable, "-W", "error", "-m", "femin", *argv], capture_output=True, text=True)
        if argv[0] == "posterior":
            assert run.returncode == 0 and run.stderr == "" and text in run.stdout, run.stderr
        else:
            assert run.returncode == 3 and run.stdout == "", run.stderr
            error = json.loads(run.stderr)
            assert error["exit_code"] == 3 and text in f"{error['error']}: {error['message']}", error

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["em", "--model", "big.json", "--data", "small.csv"], "DegenerateComponentWarning"),
            (["mirror", "--l=0,2000", "--alpha", "1", "--iters", "50"], "FlooringWarning"),
        ],
        ids=["em", "mirror"],
    )
    def test_femin_warnings(self, tmp_path, argv, error):
        """A femin warning is printed and the run exits 0; under -W error it is the JSON error, exit 3."""
        init = replaced(JSON_INPUTS["init"], ("emissions", "means"), [1e100, 0.0])
        files = write_files(tmp_path, {"big.json": init, "small.csv": "-1\n0.5\n1\n"})
        argv = [files.get(token, token) for token in argv]
        run = subprocess.run([sys.executable, "-m", "femin", *argv], capture_output=True, text=True)
        assert run.returncode == 0 and f"{error}: " in run.stderr, run.stderr
        run = subprocess.run([sys.executable, "-W", "error", "-m", "femin", *argv], capture_output=True, text=True)
        assert run.returncode == 3 and run.stdout == "", run.stderr
        assert json.loads(run.stderr)["error"] == error, run.stderr

    def test_overflowing_inputs_at_the_api(self):
        with pytest.raises(ValueError, match="target too large"):
            fm.make_oracle("quadratic-to-target", [1e200, 0.0])
        with pytest.raises(ValueError, match="loss on the grid must be finite"):
            figure1_table(-1e200, 1e200, 11, [1.0])
        constraint = fm.MomentConstraint([0.0, 1e308, 2.0], 1.2)
        for call in (lambda: fm.solve_maxent([constraint], 3), lambda: fm.check_feasibility([constraint])):
            with pytest.raises(ValueError, match="features too large"):
                call()
        with pytest.raises(ValueError, match="exceeds the largest double"):
            figure1_table(-1.0, 1.0, 11, [1.0], loss=OVERFLOW_FILES["loss.json"])

    @pytest.mark.parametrize(("means", "variances", "data"), [case[:3] for case in EM_SQUARES])
    def test_em_squares_that_overflow_at_the_api(self, means, variances, data):
        """An overflowing square is a zero density at the start as in the loop: each
        entry succeeds, and e_step and marginal_log_likelihood accept em_fit's fit."""
        log_lik, degenerate = next(case[3:] for case in EM_SQUARES if case[:3] == (means, variances, data))
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), means, variances)
        assert np.allclose(fm.e_step(model, data).sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert fm.marginal_log_likelihood(model, data) == log_lik
        assert fm.m_step(model, data, np.full((len(data), 2), 0.5)).n_components == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fitted, trace = fm.em_fit(model, data)
        assert {(w.category, str(w.message)) for w in caught} == (
            {(fm.DegenerateComponentWarning, f"components {degenerate} received no responsibility mass; keeping their previous parameters")}
            if degenerate
            else set()
        )
        assert fm.e_step(fitted, data).shape == (len(data), 2)
        assert fm.marginal_log_likelihood(fitted, data) == trace[-1]

    def test_em_fit_is_accepted_by_its_own_checks(self):
        # the floored variances make (1e152)^2 / 2e-6 overflow at the other mean: a zero density, as in the loop
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), [0.0, 1e152], [1.0, 1.0])
        data = [0.0, 0.0, 0.0, 1e152]
        fitted, trace = fm.em_fit(model, data)
        assert fm.e_step(fitted, data).tolist() == [[1.0, 0.0]] * 3 + [[0.0, 1.0]]
        assert fm.marginal_log_likelihood(fitted, data) == trace[-1]

    def test_em_variance_whose_double_overflows(self):
        # 2 variance and (y - mean)^2 both overflow: a zero density, not inf/inf
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), [-1.0, 1.0], [1e308, 1.0])
        data = [-1e160, 1e160]
        for call in (fm.em_fit, fm.e_step):
            with pytest.raises(ValueError, match="observation 0 has zero probability under every component"):
                call(model, data)
        assert fm.marginal_log_likelihood(model, data) == -np.inf
        with pytest.raises(ValueError, match=r"the M-step's weighted sum of \(y - mean\)\^2 overflows"):
            fm.m_step(model, data, np.full((2, 2), 0.5))

    @pytest.mark.parametrize(
        ("means", "data", "degenerate"),
        [([-1e155, 1e155], [-1e155, 1e155], False), ([1e155, 9e154], [1e155] * 3, True)],
        ids=["both-apart", "one-degenerate"],
    )
    def test_em_zero_responsibility_times_an_overflowing_square(self, means, data, degenerate):
        # the M-step's (y - mean)^2 overflows where the responsibility is 0: it adds nothing
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), means, [1.0, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fitted, _ = fm.em_fit(model, data)
        assert {w.category for w in caught} == ({fm.DegenerateComponentWarning} if degenerate else set())
        assert fitted.means.tolist() == means and fitted.variances[0] == 1e-6

    @pytest.mark.parametrize(
        ("means", "data", "what"),
        [([1e306, 1e306], [1e306] * 1000, "y"), ([5e153, 5e153], [0.0, 1e154] * 500, r"\(y - mean\)\^2")],
        ids=["mean", "variance"],
    )
    def test_em_sums_that_overflow_after_the_start(self, means, data, what):
        # each component's mean and squared spread is finite, but a weighted sum over the observations is not
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), means, [1.0, 1.0])
        resp = np.full((len(data), 2), 0.5)
        for call in (fm.em_fit, lambda m, y: fm.m_step(m, y, resp)):
            with pytest.raises(ValueError, match=f"observations too large: the M-step's weighted sum of {what} overflows"):
                call(model, data)

    def test_em_square_that_overflows_after_the_start_is_a_zero_density(self):
        # the first M-step floors both variances at 1e-6, so (1e152)^2 / 2e-6 overflows at the other mean
        model = fm.MixtureModel.gaussian1d(fm.FiniteDistribution.uniform(2), [0.0, 1e152], [1.0, 1.0])
        fitted, trace = fm.em_fit(model, [0.0, 0.0, 0.0, 1e152])
        assert fitted.weights.probs.tolist() == [0.75, 0.25] and fitted.variances.tolist() == [1e-6, 1e-6]
        assert fitted.means.tolist() == [0.0, 1e152] and np.isfinite(trace).all()

    @pytest.mark.parametrize(
        ("argv", "code", "message"),
        [
            (["em", "--model", "init", "--data", "missing.csv"], 2, "cannot read missing.csv: "),
            (["maxent", "--constraints", "empty"], 2, "--alphabet-size is required when the constraint list is empty"),
            (["klest", "--class", "linear"], 2, "--features is required for --class linear"),
            (
                ["klest", "--class", "linear", "--features", "features", "--alphabet-size", "4"],
                3,
                "features and --alphabet-size have lengths 3 and 4",
            ),
            (["mirror", "--oracle", "quadratic-to-target"], 2, "--target is required for the quadratic-to-target oracle"),
        ],
        ids=["em-missing-data", "maxent-empty", "klest-no-features", "klest-alphabet-size", "mirror-no-target"],
    )
    def test_missing_or_mismatched_inputs(self, inputs, tmp_path, argv, code, message):
        files = {**inputs, "empty": write_files(tmp_path, {"empty.json": '{"features": [], "targets": []}'})["empty.json"]}
        if argv[0] == "klest":
            argv = [*argv, "--samples-p", "samples_p", "--samples-q", "samples_q"]
        argv = [files.get(token, token) for token in argv]
        got, out, err, caught = run_main(argv)
        assert_clean_exit(argv, got, err, caught)
        assert got == code and out == "" and json.loads(err)["message"].startswith(message), err

    @pytest.mark.parametrize(("a", "b"), [(-1e308, 1.0), (0.0, 1e308), (-1e308, 1e308)])
    def test_loss_range_whose_square_overflows(self, tmp_path, a, b):
        problem = tmp_path / "learning.json"
        problem.write_text(json.dumps({**JSON_INPUTS["learning"], "a": a, "b": b}))
        argv = ["pacbayes", "--problem", problem, "--beta", "2", "--m", "5", "--delta", "0.1", "--trials", "100"]
        assert_domain_error(argv, "need finite a < b with a finite (b - a)^2")
        with pytest.raises(ValueError, match=r"finite \(b - a\)\^2"):
            fm.pac_bayes_bound(0.5, 10, 0.05, a, b)

    def test_loss_range_whose_square_times_kl_overflows(self, tmp_path):
        """(b - a)^2 kl is past the largest double, (b - a) sqrt(kl) is not."""
        assert fm.pac_bayes_bound(1e308, 1, 0.5, 0.0, 1e154) == 1e154 * np.sqrt((1e308 - np.log(0.5)) / 2.0)
        problem = {"loss_table": [[0.0, 1.3e154], [1.3e154, 0.0]], "a": 0.0, "b": 1.3e154}
        files = write_files(tmp_path, {"problem.json": {**problem, "prior": [0.5, 0.5], "data_model": [0.5, 0.5]}})
        argv = ["pacbayes", "--problem", files["problem.json"], "--beta", "1", "--m", "1", "--delta", "0.05", "--trials", "100"]
        code, out, err, caught = run_main(argv)
        assert_clean_exit(argv, code, err, caught)
        assert code == 0 and np.isfinite(json.loads(out)["report"]["mean_bound"]), err

    @pytest.mark.parametrize("depth", [990, 5000])
    def test_json_nested_too_deeply(self, tmp_path, depth):
        problem = tmp_path / "problem.json"
        problem.write_text('{"losses": ' + "[" * depth + "0" + "]" * depth + ', "temperature": 1, "penalty": {"kind": "kl"}}')
        code, out, err, caught = run_main(["solve", "--problem", problem])
        assert_clean_exit(depth, code, err, caught)
        assert code == 2 and out == "" and json.loads(err)["message"] == f"{problem} is nested too deeply", err

    def test_numeric_tree_nested_too_deeply(self):
        losses = 0.0
        for _ in range(sys.getrecursionlimit()):
            losses = [losses]
        document = {"losses": losses, "temperature": 1.0, "penalty": {"kind": "kl"}}
        with pytest.raises(femin.cli.InputError, match="^problem file is nested too deeply$"):
            femin.cli._from_dict(femin.cli._read_problem, document, "problem file")

    def test_subnormal_delta(self, inputs):
        argv = ["pacbayes", "--problem", inputs["learning"], "--beta", "2", "--m", "5", "--delta", "5e-324"]
        code, out, err, caught = run_main([*argv, "--trials", "100"])
        assert code == 0 and err == "" and not caught, err
        assert fm.pac_bayes_bound(0.0, 1, 5e-324, 0.0, 1.0) == np.sqrt(0.5 * -np.log(5e-324))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-5e-324"])
    def test_tol_must_be_finite_and_nonnegative(self, inputs, value):
        for command in ("maxent", "em", "mirror"):
            code, out, err, _ = run_main(with_flag(base_argv(inputs, command), "--tol", value))
            assert code == 2 and out == "", err
            assert json.loads(err)["message"] == f"argument --tol: expected a finite number >= 0, got {value!r}"

    def test_unwritable_output_is_an_input_error(self, inputs, tmp_path):
        argv = ["posterior", "--model", inputs["model"], "--output", str(tmp_path / "missing" / "out.json")]
        code, _, err, _ = run_main(argv)
        assert code == 2 and json.loads(err)["message"].startswith("cannot write")


class TestCounts:
    @pytest.mark.parametrize("n", [0, 2.5, -1])
    def test_uniform(self, n):
        with pytest.raises(ValueError, match="n must be"):
            fm.FiniteDistribution.uniform(n)

    def test_uniform_accepts_integral_floats(self):
        assert fm.FiniteDistribution.uniform(2.0).probs.tolist() == [0.5, 0.5]

    def test_solve_maxent_alphabet_size(self):
        with pytest.raises(ValueError, match="alphabet_size must be an integer, got 2.9"):
            fm.solve_maxent([], 2.9)

    def test_default_init_components(self):
        with pytest.raises(ValueError, match="n_components must be an integer, got 2.7"):
            fm.default_init([0, 1, 1], 2.7, fm.CATEGORICAL)

    def test_default_init_symbols(self):
        with pytest.raises(ValueError, match="n_symbols must be an integer, got 3.5"):
            fm.default_init([0, 1, 1], 2, fm.CATEGORICAL, n_symbols=3.5)

    def test_figure1_points(self):
        with pytest.raises(ValueError, match="n_points must be an integer, got 10.9"):
            figure1_table(-1.0, 1.0, 10.9, [1.0])

    def test_mean_field_sweeps(self):
        with pytest.raises(ValueError, match="sweeps must be an integer, got 2.5"):
            fm.mean_field_coordinate_ascent(np.zeros((2, 2)), sweeps=2.5)

    def test_tabular_zeros(self):
        with pytest.raises(ValueError, match="alphabet_size must be an integer, got 3.5"):
            fm.TabularFunction.zeros(3.5)



class TestFigure1Range:
    @pytest.mark.parametrize(("x_min", "x_max"), [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_figure1_range(self, x_min, x_max):
        with pytest.raises(ValueError, match="need finite x_min < x_max"):
            figure1_table(x_min, x_max, 11, [1.0])


class TestSymbolVectors:
    def test_default_init_negative_symbol(self):
        with pytest.raises(ValueError, match=r"observations must lie in \[0, inf\)"):
            fm.default_init([-1, 0, 1], 2, fm.CATEGORICAL)

    def test_default_init_symbol_beyond_n_symbols(self):
        with pytest.raises(ValueError, match=r"observations must lie in \[0, 2\)"):
            fm.default_init([0, 1, 2], 2, fm.CATEGORICAL, n_symbols=2)

    def test_sample_pair_negative_symbol(self):
        with pytest.raises(ValueError, match=r"samples_q must lie in \[0, inf\)"):
            fm.SamplePair([0, 1], [0, -1])


class TestOracleInputs:
    def test_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="l must be one-dimensional"):
            fm.make_oracle("linear", [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("name", ["linear", "quadratic-to-target", "entropy-regularized-linear"])
    def test_empty_and_non_finite_vectors(self, name):
        with pytest.raises(ValueError, match="at least one entry"):
            fm.make_oracle(name, [])
        with pytest.raises(ValueError, match="must be finite"):
            fm.make_oracle(name, [0.0, np.nan])

    def test_make_oracle_does_not_run_the_gradient_check(self, monkeypatch):
        def fail(oracle):
            raise AssertionError("validate_gradient was called")

        monkeypatch.setattr(femin.mirror_descent, "validate_gradient", fail)
        oracle = fm.make_oracle("quadratic-to-target", [0.3, 0.7])
        assert oracle.dimension == 2


class TestAlphabetSizes:
    """Every alphabet mismatch raises DimensionMismatch, as kl_divergence does."""

    def test_problem_prior(self):
        penalty = fm.ComplexityPenalty.kl_to_prior(fm.FiniteDistribution.uniform(3))
        with pytest.raises(fm.DimensionMismatch):
            fm.FreeEnergyProblem(fm.LossVector([0.0, 1.0]), 1.0, penalty)

    def test_free_energy_q(self):
        problem = fm.FreeEnergyProblem(fm.LossVector([0.0, 1.0]), 1.0, fm.ComplexityPenalty.neg_entropy())
        with pytest.raises(fm.DimensionMismatch):
            fm.free_energy(problem, fm.FiniteDistribution.uniform(3))

    def test_elbo(self):
        with pytest.raises(fm.DimensionMismatch):
            fm.elbo(fm.UnnormalizedModel([0.0, 1.0]), fm.FiniteDistribution.uniform(3))

    def test_dv_population_and_optimum(self):
        p, q = fm.FiniteDistribution.uniform(2), fm.FiniteDistribution.uniform(3)
        with pytest.raises(fm.DimensionMismatch):
            fm.dv_objective_population(fm.TabularFunction.zeros(2), p, q)
        with pytest.raises(fm.DimensionMismatch):
            fm.exact_dv_optimum(p, q)

    def test_learning_problem(self):
        table = np.full((2, 3), 0.5)
        two, three = fm.FiniteDistribution.uniform(2), fm.FiniteDistribution.uniform(3)
        with pytest.raises(fm.DimensionMismatch):
            fm.LearningProblem(table, 0.0, 1.0, three, three)
        with pytest.raises(fm.DimensionMismatch):
            fm.LearningProblem(table, 0.0, 1.0, two, two)

    def test_maxent_features(self):
        with pytest.raises(fm.DimensionMismatch):
            fm.solve_maxent([fm.MomentConstraint([0.0, 1.0, 2.0], 1.0)], 4)

    def test_descent_start(self):
        with pytest.raises(fm.DimensionMismatch):
            fm.run_descent(fm.make_oracle("linear", [0.0, 1.0]), fm.FiniteDistribution.uniform(3))

    def test_figure1_loss_table(self):
        with pytest.raises(fm.DimensionMismatch):
            figure1_table(-1.0, 1.0, 11, [1.0], loss=np.zeros(12))
