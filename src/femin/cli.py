"""Command-line interface: one subcommand per capability; the file schemas are read and written here only.

Exit codes: 0 success, 2 malformed input (bad flags, unreadable files,
broken JSON/CSV, missing schema keys), 3 domain errors (invalid values,
infeasible targets, support violations, ...). Failures emit a
machine-readable JSON object on standard error. Outputs are byte-identical
for identical configuration. Each subcommand declares only the flags it reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import figure1 as fig
from .errors import DegenerateComponentWarning, FeminError, FlooringWarning
from .free_energy import ComplexityPenalty, FreeEnergyProblem, fenchel_young_gap, minimize_closed_form
from .gen_bayes import UnnormalizedModel, elbo, log_partition, posterior
from .kl_estimate import LinearFeaturesFunction, SamplePair, TabularFunction, fit_dv
from .latent_em import CATEGORICAL, GAUSSIAN1D, MixtureModel, em_fit
from .maxent import MomentConstraint, solve_maxent
from .mirror_descent import make_oracle, run_descent
from .pac_bayes import LearningProblem, coverage_experiment
from .simplex import FiniteDistribution, LossVector, _require_same_size

SCHEMA_VERSION = 1


class InputError(Exception):
    """Structurally malformed input (exit code 2)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports bad flags as InputError, so they get the JSON error object."""

    def error(self, message):
        raise InputError(message)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply") from exc


_STRING_FIELDS = ("kind", "family")


def _ensure_numeric_tree(node, where):
    """Reject non-numeric leaves (strings, nulls, bools) in schema positions
    that must hold numbers; named enum fields may hold strings."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _STRING_FIELDS:
                if not isinstance(value, str):
                    raise InputError(f"{where}.{key} must be a string, got {value!r}")
            else:
                _ensure_numeric_tree(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _ensure_numeric_tree(value, f"{where}[{i}]")
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        raise InputError(f"{where}: expected a number, got {node!r}")


def _is_number_list(node) -> bool:
    return isinstance(node, list) and all(isinstance(v, (int, float)) for v in node)


def _from_dict(factory, data, what):
    try:
        _ensure_numeric_tree(data, what)
    except RecursionError as exc:
        raise InputError(f"{what} is nested too deeply") from exc
    try:
        return factory(data)
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed {what}: {exc!r}") from exc


# Readers of the JSON input schemas for _from_dict: the first bad field, in schema order, decides the error.
def _read_problem(data) -> FreeEnergyProblem:
    loss = LossVector(np.asarray(data["losses"], dtype=float))
    temperature = float(data["temperature"])
    penalty = data["penalty"]
    if not isinstance(penalty, dict):
        raise InputError("malformed problem file: penalty must be a JSON object")
    prior = penalty.get("prior")
    if prior is not None:
        prior = FiniteDistribution(np.asarray(prior, dtype=float))
    return FreeEnergyProblem(loss, temperature, ComplexityPenalty(penalty["kind"], prior))


def _read_distribution(data) -> FiniteDistribution:
    return FiniteDistribution(np.asarray(data["probs"], dtype=float))


def _read_model(data) -> UnnormalizedModel:
    return UnnormalizedModel(np.asarray(data["log_tilde_p"], dtype=float))


def _read_mixture(data) -> MixtureModel:
    weights = FiniteDistribution(np.asarray(data["weights"], dtype=float))
    family = data["family"]
    if family == CATEGORICAL:
        return MixtureModel.categorical(weights, data["emissions"])
    if family == GAUSSIAN1D:
        emissions = data["emissions"]
        return MixtureModel.gaussian1d(weights, emissions["means"], emissions["vars"])
    raise ValueError(f"unknown mixture family {family!r}")


def _read_learning_problem(data) -> LearningProblem:
    return LearningProblem(
        np.asarray(data["loss_table"], dtype=float),
        float(data["a"]),
        float(data["b"]),
        FiniteDistribution(np.asarray(data["prior"], dtype=float)),
        FiniteDistribution(np.asarray(data["data_model"], dtype=float)),
    )


def _read_constraints(data) -> list:
    features, targets = data["features"], data["targets"]
    if not (isinstance(features, list) and _is_number_list(targets) and len(features) == len(targets)):
        raise InputError("malformed constraints file: features and targets must be lists of one length")
    return [MomentConstraint(f, t) for f, t in zip(features, targets)]


def _read_features(data) -> LinearFeaturesFunction:
    rows = data["features"]
    if not all(_is_number_list(row) and len(row) == len(rows[0]) for row in rows):
        raise InputError("malformed features file: expected a table, one list of numbers per symbol")
    return LinearFeaturesFunction.zeros(rows)


def _read_loss_table(data) -> list:
    if not _is_number_list(data):
        raise InputError("malformed loss table file: expected a flat JSON list")
    return data


def _write_mixture(model: MixtureModel) -> dict:
    """The mixture schema that _read_mixture reads."""
    if model.kind == CATEGORICAL:
        emissions = model.emissions.tolist()
    else:
        emissions = {"means": model.means.tolist(), "vars": model.variances.tolist()}
    return {"weights": model.weights.probs.tolist(), "family": model.kind, "emissions": emissions}


def _load_csv_column(path, dtype):
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(dtype(text))
                except ValueError as exc:
                    raise InputError(f"{path}:{line_no}: {text!r} is not a {dtype.__name__}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise InputError(f"{path} contains no observations")
    return np.asarray(values)


def _parse_number_list(text, flag):
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise InputError(f"{flag} must be a comma-separated number list, got {text!r}") from exc


def _tolerance(text: str) -> float:
    """The --tol type: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _config_echo(args) -> dict:
    return dict(sorted(vars(args).items()))


def _write_text(text: str, args) -> None:
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
        if not args.quiet:
            print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    document = {"schema_version": SCHEMA_VERSION, "config": _config_echo(args)}
    document.update(payload)
    _write_text(json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n", args)


def _emit_csv(header, rows, args) -> None:
    lines = ["# config=" + json.dumps(_config_echo(args), sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row))
    _write_text("\n".join(lines) + "\n", args)


def cmd_solve(args) -> None:
    problem = _from_dict(_read_problem, _load_json(args.problem), "problem file")
    solution = minimize_closed_form(problem)
    payload = {"solution": {"q_opt": solution.q_opt.probs.tolist(), "j_opt": solution.j_opt}}
    if solution.tau is not None:
        payload["solution"]["tau"] = solution.tau
    if args.q is not None:
        q = _from_dict(_read_distribution, _load_json(args.q), "q file")
        payload["fenchel_young_gap"] = fenchel_young_gap(problem, q)
    _emit_json(payload, args)


def cmd_maxent(args) -> None:
    constraints = _from_dict(_read_constraints, _load_json(args.constraints), "constraints file")
    alphabet_size = args.alphabet_size
    if alphabet_size is None:
        if not constraints:
            raise InputError("--alphabet-size is required when the constraint list is empty")
        alphabet_size = constraints[0].feature.size
    result = solve_maxent(constraints, alphabet_size, tol=args.tol, max_iter=args.max_iter)
    _emit_json(
        {
            "lambdas": result.lambdas.tolist(),
            "q": result.q.probs.tolist(),
            "iterations": result.iterations,
            "residual": result.residual,
        },
        args,
    )


def cmd_posterior(args) -> None:
    model = _from_dict(_read_model, _load_json(args.model), "model file")
    _emit_json(
        {"posterior": posterior(model).probs.tolist(), "log_partition": log_partition(model)},
        args,
    )


def cmd_elbo(args) -> None:
    model = _from_dict(_read_model, _load_json(args.model), "model file")
    q = _from_dict(_read_distribution, _load_json(args.q), "q file")
    bound = elbo(model, q)
    log_z = log_partition(model)
    _emit_json({"elbo": bound, "log_partition": log_z, "gap": log_z - bound}, args)


def cmd_em(args) -> None:
    init = _from_dict(_read_mixture, _load_json(args.model), "model file")
    data = _load_csv_column(args.data, int if init.kind == CATEGORICAL else float)
    model, trace = em_fit(init, data, tol=args.tol, max_iter=args.max_iter)
    _emit_json(
        {"model": _write_mixture(model), "trace": trace.tolist(), "iterations": len(trace)}, args
    )


def cmd_pacbayes(args) -> None:
    problem = _from_dict(_read_learning_problem, _load_json(args.problem), "problem file")
    report = coverage_experiment(
        problem, beta=args.beta, m=args.m, delta=args.delta, trials=args.trials, seed=args.seed
    )
    _emit_json({"report": asdict(report)}, args)


def cmd_klest(args) -> None:
    samples = SamplePair(_load_csv_column(args.samples_p, int), _load_csv_column(args.samples_q, int))
    if args.klass == "tabular":
        size = samples.max_symbol() + 1 if args.alphabet_size is None else args.alphabet_size
        init = TabularFunction.zeros(size)
    else:
        if args.features is None:
            raise InputError("--features is required for --class linear")
        init = _from_dict(_read_features, _load_json(args.features), "features file")
        if args.alphabet_size is not None:
            _require_same_size(init.alphabet_size, args.alphabet_size, "features and --alphabet-size")
    result = fit_dv(init, samples, steps=args.steps, learning_rate=args.lr)
    payload = {"kl_estimate": result.kl_estimate, "trace": result.trace.tolist()}
    if isinstance(result.function, TabularFunction):
        payload["values"] = result.function.values.tolist()
    else:
        payload["weights"] = result.function.weights.tolist()
    _emit_json(payload, args)


def cmd_mirror(args) -> None:
    flag = "target" if args.oracle == "quadratic-to-target" else "l"
    if getattr(args, flag) is None:
        raise InputError(f"--{flag} is required for the {args.oracle} oracle")
    extra = (args.reg,) if args.oracle == "entropy-regularized-linear" else ()
    oracle = make_oracle(args.oracle, _parse_number_list(getattr(args, flag), f"--{flag}"), *extra)
    if args.x0 is not None:
        x0 = FiniteDistribution(np.asarray(_parse_number_list(args.x0, "--x0")))
    else:
        x0 = FiniteDistribution.uniform(oracle.dimension)
    trace = run_descent(
        oracle,
        x0,
        method=args.method,
        step_size=args.alpha,
        schedule=args.schedule,
        max_iter=args.iters,
        tol=args.tol,
    )
    header = ["iter", "value", "step_size"] + [f"q{i}" for i in range(oracle.dimension)]
    steps = [0.0, *trace.step_sizes.tolist()]
    rows = [[i, v, s, *q] for i, (v, s, q) in enumerate(zip(trace.values.tolist(), steps, trace.iterates.tolist()))]
    _emit_csv(header, rows, args)


def cmd_figure1(args) -> None:
    if args.loss in fig.BUILTIN_LOSSES:
        loss = args.loss
    else:
        loss = _from_dict(_read_loss_table, _load_json(args.loss), "loss table file")
    temperatures = _parse_number_list(args.temperatures, "--temperatures")
    if not temperatures:
        raise InputError("--temperatures must name at least one temperature")
    table = fig.figure1_table(args.x_min, args.x_max, args.n_points, temperatures, loss=loss)
    columns = table.columns()
    header = [name for name, _ in columns]
    rows = [[float(col[i]) for _, col in columns] for i in range(len(table.x))]
    _emit_csv(header, rows, args)


def _add_common(parser) -> None:
    parser.add_argument("--output", default=None, help="write the artifact here (default: stdout)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parse_args does not mutate it."""
    parser = _ArgumentParser(prog="femin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-form free-energy minimization")
    p.add_argument("--problem", required=True)
    p.add_argument("--q", default=None, help="optional distribution to score with the optimality gap")

    p = sub.add_parser("maxent", help="maximum-entropy fit under moment constraints")
    p.add_argument("--constraints", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = sub.add_parser("posterior", help="normalize an unnormalized model")
    p.add_argument("--model", required=True)

    p = sub.add_parser("elbo", help="evidence lower bound of q against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--q", required=True)

    p = sub.add_parser("em", help="fit a mixture model by expectation-maximization")
    p.add_argument("--model", required=True, help="JSON initial model")
    p.add_argument("--data", required=True, help="CSV with one observation per line")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=_tolerance, default=1e-8)

    p = sub.add_parser("pacbayes", help="bound-coverage experiment for Gibbs learners")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("klest", help="variational KL estimate from two sample files")
    p.add_argument("--class", dest="klass", choices=("tabular", "linear"), default="tabular")
    p.add_argument("--samples-p", required=True)
    p.add_argument("--samples-q", required=True)
    p.add_argument("--features", default=None, help="JSON feature table for --class linear")
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)

    p = sub.add_parser("mirror", help="simplex descent with a built-in oracle")
    p.add_argument(
        "--oracle",
        default="linear",
        choices=("linear", "quadratic-to-target", "entropy-regularized-linear"),
    )
    p.add_argument("--l", default=None, help="comma-separated loss vector (--l=-1,2 if it starts with a minus)")
    p.add_argument("--target", default=None, help="comma-separated target point (--target=-1,2 likewise)")
    p.add_argument("--reg", type=float, default=0.1)
    p.add_argument("--x0", default=None, help="comma-separated starting distribution")
    p.add_argument("--method", choices=("neg", "euclidean"), default="neg")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--schedule", choices=("constant", "inv_sqrt", "backtracking"), default="constant")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=_tolerance, default=1e-10)

    p = sub.add_parser("figure1", help="temperature-sweep table for the three penalties")
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--n-points", type=int, default=41)
    p.add_argument("--temperatures", default="10,1,0.1,0.01")
    p.add_argument("--loss", default="bimodal", help="built-in loss name or JSON table path")

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # By name, so that a patched or wrapped cmd_* function takes effect.
        globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        _report_error(exc, 2)
        return 2
    # MemoryError, OverflowError: too large to allocate or convert; a femin warning under -W error
    except (FeminError, ValueError, MemoryError, OverflowError, DegenerateComponentWarning, FlooringWarning) as exc:
        _report_error(exc, 3)
        return 3
    return 0


def _report_error(exc: Exception, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
