"""Command-line interface: one subcommand per capability.

Exit codes: 0 success, 2 malformed input (bad flags, unreadable files,
broken JSON/CSV, missing schema keys), 3 domain errors (invalid values,
infeasible targets, support violations, ...). Failures emit a
machine-readable JSON object on standard error. Outputs are byte-identical
for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import figure1 as fig
from .errors import FeminError
from .free_energy import FreeEnergyProblem, fenchel_young_gap, minimize_closed_form
from .gen_bayes import UnnormalizedModel, elbo, log_partition, posterior
from .kl_estimate import LinearFeaturesFunction, SamplePair, TabularFunction, fit_dv
from .latent_em import CATEGORICAL, MixtureModel, em_fit
from .maxent import MomentConstraint, solve_maxent
from .mirror_descent import make_oracle, run_descent
from .pac_bayes import LearningProblem, coverage_experiment
from .simplex import FiniteDistribution

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


def _from_dict(factory, data, what):
    if not isinstance(data, dict):
        raise InputError(f"malformed {what}: expected a JSON object")
    _ensure_numeric_tree(data, what)
    try:
        return factory(data)
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed {what}: {exc!r}") from exc


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


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _config_echo(args) -> dict:
    return dict(sorted(vars(args).items()))


def _write_text(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    document = {"schema_version": SCHEMA_VERSION, "config": _config_echo(args)}
    document.update(payload)
    _write_text(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n", args)


def _emit_csv(header, rows, args) -> None:
    lines = ["# config=" + json.dumps(_config_echo(args), sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text("\n".join(lines) + "\n", args)


def cmd_solve(args) -> None:
    problem = _from_dict(FreeEnergyProblem.from_dict, _load_json(args.problem), "problem file")
    solution = minimize_closed_form(problem)
    payload = {"solution": solution.to_dict()}
    if args.q:
        q = _from_dict(FiniteDistribution.from_dict, _load_json(args.q), "q file")
        payload["fenchel_young_gap"] = fenchel_young_gap(problem, q)
    _emit_json(payload, args)


def cmd_maxent(args) -> None:
    data = _load_json(args.constraints)
    try:
        pairs = [
            (np.asarray(f, dtype=float), float(t))
            for f, t in zip(data["features"], data["targets"], strict=True)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed constraints file: {exc!r}") from exc
    constraints = [MomentConstraint(f, t) for f, t in pairs]
    if constraints:
        alphabet_size = constraints[0].feature.size
    elif args.alphabet_size:
        alphabet_size = args.alphabet_size
    else:
        raise InputError("--alphabet-size is required when the constraint list is empty")
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
    model = _from_dict(UnnormalizedModel.from_dict, _load_json(args.model), "model file")
    _emit_json(
        {"posterior": posterior(model).probs.tolist(), "log_partition": log_partition(model)},
        args,
    )


def cmd_elbo(args) -> None:
    model = _from_dict(UnnormalizedModel.from_dict, _load_json(args.model), "model file")
    q = _from_dict(FiniteDistribution.from_dict, _load_json(args.q), "q file")
    bound = elbo(model, q)
    log_z = log_partition(model)
    _emit_json({"elbo": bound, "log_partition": log_z, "gap": log_z - bound}, args)


def cmd_em(args) -> None:
    init = _from_dict(MixtureModel.from_dict, _load_json(args.model), "model file")
    raw = _load_csv_column(args.data, float)
    if init.kind == CATEGORICAL:
        if not np.all(raw == np.round(raw)):
            raise InputError(f"{args.data}: categorical observations must be integers")
        data = raw.astype(np.int64)
    else:
        data = raw
    model, trace = em_fit(init, data, tol=args.tol, max_iter=args.max_iter)
    _emit_json(
        {"model": model.to_dict(), "trace": trace.tolist(), "iterations": len(trace)}, args
    )


def cmd_pacbayes(args) -> None:
    problem = _from_dict(LearningProblem.from_dict, _load_json(args.problem), "problem file")
    report = coverage_experiment(
        problem, beta=args.beta, m=args.m, delta=args.delta, trials=args.trials, seed=args.seed
    )
    _emit_json({"report": report.to_dict()}, args)


def cmd_klest(args) -> None:
    samples = SamplePair(_load_csv_column(args.samples_p, int), _load_csv_column(args.samples_q, int))
    alphabet_size = args.alphabet_size or samples.max_symbol() + 1
    if args.klass == "tabular":
        init = TabularFunction.zeros(alphabet_size)
    else:
        if not args.features:
            raise InputError("--features is required for --class linear")
        table = _load_json(args.features)
        try:
            features = np.asarray(table["features"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed features file: {exc!r}") from exc
        init = LinearFeaturesFunction.zeros(features)
    result = fit_dv(init, samples, steps=args.steps, learning_rate=args.lr, seed=args.seed)
    payload = {
        "kl_estimate": result.kl_estimate,
        "trace": result.trace.tolist(),
        "seed": result.seed,
    }
    if isinstance(result.function, TabularFunction):
        payload["values"] = result.function.values.tolist()
    else:
        payload["weights"] = result.function.weights.tolist()
    _emit_json(payload, args)


def cmd_mirror(args) -> None:
    if args.oracle == "linear":
        if args.l is None:
            raise InputError("--l is required for the linear oracle")
        oracle = make_oracle("linear", _parse_number_list(args.l, "--l"))
    elif args.oracle == "quadratic-to-target":
        if args.target is None:
            raise InputError("--target is required for the quadratic-to-target oracle")
        oracle = make_oracle("quadratic-to-target", _parse_number_list(args.target, "--target"))
    elif args.oracle == "entropy-regularized-linear":
        if args.l is None:
            raise InputError("--l is required for the entropy-regularized-linear oracle")
        oracle = make_oracle("entropy-regularized-linear", _parse_number_list(args.l, "--l"), args.reg)
    else:
        raise InputError(f"unknown oracle {args.oracle!r}")
    if args.x0:
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
    rows = []
    for i, (point, value) in enumerate(zip(trace.iterates, trace.values)):
        step = float(trace.step_sizes[i - 1]) if i > 0 else 0.0
        rows.append([i, float(value), step] + [float(v) for v in point.probs])
    _emit_csv(header, rows, args)


def cmd_figure1(args) -> None:
    if args.loss in fig.BUILTIN_LOSSES:
        loss = args.loss
    else:
        table = _load_json(args.loss)
        try:
            loss = np.asarray(table, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"loss table file {args.loss} must hold a JSON number list") from exc
        if loss.ndim != 1:
            raise InputError(f"loss table file {args.loss} must hold a flat JSON list")
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
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: parse_args does not mutate it."""
    parser = _ArgumentParser(prog="femin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-form free-energy minimization")
    p.add_argument("--problem", required=True)
    p.add_argument("--q", default=None, help="optional distribution to score with the optimality gap")
    p.set_defaults(default_tol=None)

    p = sub.add_parser("maxent", help="maximum-entropy fit under moment constraints")
    p.add_argument("--constraints", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(default_tol=1e-8)

    p = sub.add_parser("posterior", help="normalize an unnormalized model")
    p.add_argument("--model", required=True)
    p.set_defaults(default_tol=None)

    p = sub.add_parser("elbo", help="evidence lower bound of q against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(default_tol=None)

    p = sub.add_parser("em", help="fit a mixture model by expectation-maximization")
    p.add_argument("--model", required=True, help="JSON initial model")
    p.add_argument("--data", required=True, help="CSV with one observation per line")
    p.add_argument("--max-iter", type=int, default=500)
    p.set_defaults(default_tol=1e-8)

    p = sub.add_parser("pacbayes", help="bound-coverage experiment for Gibbs learners")
    p.add_argument("--problem", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.set_defaults(default_tol=None)

    p = sub.add_parser("klest", help="variational KL estimate from two sample files")
    p.add_argument("--class", dest="klass", choices=("tabular", "linear"), default="tabular")
    p.add_argument("--samples-p", required=True)
    p.add_argument("--samples-q", required=True)
    p.add_argument("--features", default=None, help="JSON feature table for --class linear")
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.set_defaults(default_tol=None)

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
    p.set_defaults(default_tol=1e-10)

    p = sub.add_parser("figure1", help="temperature-sweep table for the three penalties")
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--n-points", type=int, default=41)
    p.add_argument("--temperatures", default="10,1,0.1,0.01")
    p.add_argument("--loss", default="bimodal", help="built-in loss name or JSON table path")
    p.set_defaults(default_tol=None)

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.tol is None:
            args.tol = args.default_tol
        del args.default_tol
        # By name, so that a patched or wrapped cmd_* function takes effect.
        globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        _report_error(exc, 2)
        return 2
    except (FeminError, ValueError) as exc:
        _report_error(exc, 3)
        return 3
    return 0


def _report_error(exc: Exception, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
