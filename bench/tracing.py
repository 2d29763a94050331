"""Per-layer spans for the traced run, recorded from outside femin.

The layers are femin's modules. `Tracer.install` wraps every public
module-level function of each module, plus `FiniteDistribution.__post_init__`,
in a span that records its calls, its total time and its self time (the span
minus its direct child spans). A from-import copies the function reference,
so each wrapper replaces the name in every femin module that binds it,
including the package itself, where `femin.free_energy` is the function and
the module is only reachable through `sys.modules`.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "simplex",
    "free_energy",
    "maxent",
    "gen_bayes",
    "latent_em",
    "pac_bayes",
    "kl_estimate",
    "mirror_descent",
    "figure1",
    "cli",
)

CLI_SUBCOMMANDS = ("solve", "maxent", "posterior", "elbo", "em", "pacbayes", "klest", "mirror", "figure1")

# (layer.function, what to report per job); counts are calls, times self time.
FUNCTION_METRICS = (
    ("simplex.FiniteDistribution", ("calls", "self_ms")),
    ("simplex.log_sum_exp", ("calls", "self_ms")),
    ("simplex.kl_divergence", ("calls", "self_ms")),
    ("free_energy.minimize_closed_form", ("calls", "self_ms")),
    ("free_energy.solve_tau", ("self_ms",)),
    ("free_energy.free_energy", ("self_ms",)),
    ("free_energy.brute_force_minimize", ("calls", "self_ms")),
    ("maxent.solve_maxent", ("self_ms",)),
    ("maxent.check_feasibility", ("self_ms",)),
    ("gen_bayes.posterior", ("self_ms",)),
    ("gen_bayes.elbo", ("self_ms",)),
    ("gen_bayes.log_partition", ("calls",)),
    ("latent_em.e_step", ("self_ms",)),
    ("latent_em.m_step", ("self_ms",)),
    ("latent_em.marginal_log_likelihood", ("self_ms",)),
    ("pac_bayes.coverage_experiment", ("self_ms",)),
    ("pac_bayes.gibbs_posterior", ("calls", "self_ms")),
    ("pac_bayes.training_losses", ("calls",)),
    ("kl_estimate.fit_dv", ("self_ms",)),
    ("kl_estimate.dv_objective", ("calls",)),
    ("mirror_descent.make_oracle", ("self_ms",)),
    ("mirror_descent.run_descent", ("self_ms",)),
    ("figure1.figure1_table", ("self_ms",)),
)

# Work counts read from solver results rather than from call counts.
COUNTERS = ("maxent.iterations", "latent_em.iterations", "kl_estimate.steps", "mirror_descent.oracle_evaluations")

IMPORT_METRICS = (("import.femin_s", "femin"), ("import.scipy_optimize_s", "scipy.optimize"))


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name, _ in IMPORT_METRICS}
    units["cli.build_parser.ms"] = "ms"
    units["cli.self_ms"] = "ms"
    units.update({f"cli.{sub}.ms": "ms" for sub in CLI_SUBCOMMANDS})
    for name, kinds in FUNCTION_METRICS:
        units.update({f"{name}.{kind}": "count" if kind == "calls" else "ms" for kind in kinds})
    units.update({name: "count" for name in COUNTERS})
    return units


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counters = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._undo = []  # (owner, attribute, original)

    def _wrap(self, name, fn, after=None, before=None):
        stats, stack = self.stats[name], self._stack

        def span(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(result)
            return result

        return span

    def _count(self, name, amount):
        self.counters[name] += amount

    def _counting_oracle(self, args, kwargs):
        """run_descent's oracle, with each evaluation counted."""
        if args:
            oracle, args = args[0], args[1:]
        else:
            oracle = kwargs.pop("oracle")
        evaluate = oracle.evaluate

        def counted(x):
            self.counters["mirror_descent.oracle_evaluations"] += 1
            return evaluate(x)

        return (dataclasses.replace(oracle, evaluate=counted), *args), kwargs

    def install(self):
        import femin
        import femin.cli  # noqa: F401  (the cli module is not imported by the package)

        modules = [m for key, m in sys.modules.items() if key == "femin" or key.startswith("femin.")]
        hooks = {
            "maxent.solve_maxent": {"after": lambda r: self._count("maxent.iterations", r.iterations)},
            "latent_em.em_fit": {"after": lambda r: self._count("latent_em.iterations", len(r[1]))},
            "kl_estimate.fit_dv": {"after": lambda r: self._count("kl_estimate.steps", len(r.trace) - 1)},
            "mirror_descent.run_descent": {"before": self._counting_oracle},
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"femin.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, **hooks.get(name, {}))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        cls = femin.FiniteDistribution
        self._undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap("simplex.FiniteDistribution", cls.__post_init__)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def per_job(self, jobs):
        """Per-layer metrics (without the import ones) averaged over jobs."""
        calls = {name: s[0] for name, s in self.stats.items()}
        total_ms = {name: s[1] * 1e3 for name, s in self.stats.items()}
        self_ms = {name: s[2] * 1e3 for name, s in self.stats.items()}
        out = {
            "cli.build_parser.ms": total_ms.get("cli.build_parser", 0.0),
            "cli.self_ms": sum(v for name, v in self_ms.items() if name.startswith("cli.")),
        }
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.ms"] = total_ms.get(f"cli.cmd_{sub}", 0.0)
        for name, kinds in FUNCTION_METRICS:
            for kind in kinds:
                source = calls if kind == "calls" else self_ms
                out[f"{name}.{kind}"] = source.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        return {name: value / jobs for name, value in out.items()}


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(importtime_log):
    """Cumulative import seconds of femin and scipy.optimize from the
    interpreter's -X importtime report (0 for a module never imported)."""
    cumulative = {}
    for line in importtime_log.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative.setdefault(match.group(3), int(match.group(2)) * 1e-6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_METRICS}
