"""Independent checks of femin's outputs.

Nothing here imports femin. Every reference value is recomputed from the
generated inputs with plain numpy, or is a property the method must have
(a monotone trace, a certificate such as KKT, an inequality). Each check
raises CheckError on the first violation it finds.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class CheckError(AssertionError):
    """An output of femin disagrees with its independent reference."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def close(name, got, want, rtol, atol):
    """Entry-wise |got - want| <= atol + rtol * |want|."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(excess <= 0.0):
        i = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
        raise CheckError(f"{name}: entry {i} is {got.flat[i]!r}, expected {want.flat[i]!r}")


def scalar_close(name, got, want, tol=1e-9):
    """|got - want| <= tol * (1 + |want|)."""
    require(
        abs(float(got) - float(want)) <= tol * (1.0 + abs(float(want))),
        f"{name}: got {float(got)!r}, expected {float(want)!r}",
    )


def nondecreasing(name, values, rtol):
    """Each entry is at least its predecessor, up to rtol * (1 + |value|)."""
    v = np.asarray(values, dtype=float)
    drops = v[:-1] - v[1:] - rtol * (1.0 + np.abs(v[:-1]))
    if np.any(drops > 0.0):
        i = int(np.argmax(drops))
        raise CheckError(f"{name}: entry {i + 1} ({v[i + 1]!r}) is below entry {i} ({v[i]!r})")


def on_simplex(name, q, tol=1e-9):
    q = np.asarray(q, dtype=float)
    require(np.all(np.isfinite(q)) and np.all(q >= 0.0), f"{name}: negative or non-finite entry")
    total = float(q.sum())
    require(abs(total - 1.0) <= tol, f"{name}: sums to {total!r}")


# --- reference computations -------------------------------------------------


def gibbs(logits):
    """(softmax(logits), log sum exp(logits)), by a max-shifted sum."""
    logits = np.asarray(logits, dtype=float)
    m = float(logits.max())
    z = np.exp(logits - m)
    total = float(z.sum())
    return z / total, m + math.log(total)


def lse(v):
    return gibbs(v)[1]


def bisection_pivot(v):
    """tau with sum (v - tau)^+ = 1, by bisection down to adjacent floats.

    Entries at or below the bracket's lower end are never active and entries
    at or above its upper end always are, so each step moves them out of the
    candidate set, the active ones into a fixed sum.
    """
    v = np.asarray(v, dtype=float)
    hi = float(v.max())
    # sum (v - tau)^+ >= sum (v - tau) = 1 at tau = (sum v - 1) / n
    lo = max(hi - 1.0, (float(v.sum()) - 1.0) / v.size)
    candidates = v[v > lo]
    fixed_sum, fixed_count = 0.0, 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        above = candidates > mid
        upper = candidates[above]
        if fixed_sum - fixed_count * mid + float(upper.sum()) - upper.size * mid >= 1.0:
            lo, candidates = mid, upper
        else:
            hi = mid
            fixed_sum += float(upper.sum())
            fixed_count += upper.size
            candidates = candidates[~above]


def penalty_value(kind, q, prior):
    q = np.asarray(q, dtype=float)
    if kind == "half_sq_l2":
        d = q - prior
        return 0.5 * float(d @ d)
    s = q > 0.0
    if kind == "neg_entropy":
        return float((q[s] * np.log(q[s])).sum())
    return float((q[s] * np.log(q[s] / prior[s])).sum())


def objective(kind, losses, t, prior, q):
    """J(q) = E_q[L] + T * D(q)."""
    return float(np.asarray(q) @ losses) + t * penalty_value(kind, q, prior)


def closed_form_reference(kind, losses, t, prior):
    """(q_opt, j_opt, tau) from a plain softmax, tilted softmax or bisection pivot."""
    losses = np.asarray(losses, dtype=float)
    if kind != "half_sq_l2":
        logits = -losses / t if kind == "neg_entropy" else np.log(prior) - losses / t
        q, log_z = gibbs(logits)
        return q, -t * log_z, None
    tau = bisection_pivot(prior - losses / t)
    clipped = np.maximum(prior - losses / t - tau, 0.0)
    q = clipped / clipped.sum()
    return q, objective(kind, losses, t, prior, q), tau


# --- checks -----------------------------------------------------------------


def check_closed_form(name, kind, losses, t, prior, q, j, tau=None):
    """A closed-form solution against the independent reference; for the L2
    penalty also its KKT conditions at the reported pivot."""
    q = np.asarray(q, dtype=float)
    on_simplex(f"{name} q", q)
    q_ref, j_ref, tau_ref = closed_form_reference(kind, losses, t, prior)
    close(f"{name} q", q, q_ref, rtol=1e-9, atol=1e-14)
    scalar_close(f"{name} j", j, j_ref)
    if kind == "half_sq_l2":
        require(tau is not None, f"{name}: no pivot reported")
        scalar_close(f"{name} tau", tau, tau_ref, tol=1e-12)
        v = prior - np.asarray(losses, dtype=float) / t
        active = q > 0.0
        # stationarity on the support, (v - tau) <= 0 off it
        close(f"{name} KKT active", q[active], v[active] - tau, rtol=0.0, atol=1e-12)
        require(np.all(v[~active] - tau <= 1e-12), f"{name}: KKT violated off the support")
    return q_ref, j_ref


def check_gap(name, gap, kind, losses, t, prior, q, j_ref):
    """Fenchel-Young gap: nonnegative and equal to J(q) - j_opt."""
    want = objective(kind, losses, t, prior, q) - j_ref
    require(gap >= -1e-12, f"{name}: negative gap {gap!r}")
    scalar_close(name, gap, want)


def check_maxent(features, targets, tol, lambdas, q):
    """Moments within tol, and log q affine in the features with the reported
    multipliers."""
    features = np.asarray(features, dtype=float)
    q = np.asarray(q, dtype=float)
    on_simplex("maxent q", q)
    require(np.all(q > 0.0), "maxent q has a zero entry")
    close("maxent moments", features @ q, targets, rtol=0.0, atol=tol + 1e-12)
    offset = np.log(q) - np.asarray(lambdas, dtype=float) @ features
    require(
        float(offset.max() - offset.min()) <= 1e-9 * (1.0 + float(np.abs(offset).max())),
        "maxent log q is not affine in the features",
    )


def check_posterior(log_tilde_p, post, log_z):
    q_ref, log_z_ref = gibbs(log_tilde_p)
    close("posterior", post, q_ref, rtol=1e-9, atol=1e-14)
    scalar_close("posterior log_partition", log_z, log_z_ref)


def check_elbo(log_tilde_p, q, bound, log_z, gap):
    """ELBO and log Z from independent sums; the gap is KL(q || posterior)."""
    q = np.asarray(q, dtype=float)
    log_z_ref = lse(log_tilde_p)
    s = q > 0.0
    scalar_close("elbo", bound, float(q @ log_tilde_p) - float((q[s] * np.log(q[s])).sum()))
    scalar_close("elbo log_partition", log_z, log_z_ref)
    log_post = np.asarray(log_tilde_p, dtype=float) - log_z_ref
    scalar_close("elbo gap", gap, float((q[s] * (np.log(q[s]) - log_post[s])).sum()))


def gmm_loglik(y, weights, means, variances):
    """sum_i log sum_k w_k N(y_i; mu_k, var_k)."""
    weights, means, variances = (np.asarray(a, dtype=float) for a in (weights, means, variances))
    y = np.asarray(y, dtype=float)[:, None]
    lj = np.log(weights) - 0.5 * (LOG_2PI + np.log(variances)) - (y - means) ** 2 / (2.0 * variances)
    m = lj.max(axis=1)
    return float((m + np.log(np.exp(lj - m[:, None]).sum(axis=1))).sum())


def check_em(y, truth, weights, means, variances, trace):
    """Monotone trace ending at the returned model's log-likelihood, which is
    at least the log-likelihood at the generating parameters."""
    trace = np.asarray(trace, dtype=float)
    require(trace.size >= 1, "em trace is empty")
    nondecreasing("em trace", trace, rtol=1e-10)
    on_simplex("em weights", weights)
    fitted = gmm_loglik(y, weights, means, variances)
    scalar_close("em final log-likelihood", trace[-1], fitted, tol=1e-10)
    at_truth = gmm_loglik(y, *truth)
    require(
        fitted >= at_truth - 1e-10 * (1.0 + abs(at_truth)),
        f"em log-likelihood {fitted!r} is below {at_truth!r} at the generating parameters",
    )


def coverage_reference(loss_table, a, b, prior, data_model, beta, m, delta, trials, seed):
    """Reimplementation of the coverage experiment on the same per-trial draws.

    Returns (n_violations, n_near_ties, mean_gap, mean_bound); a near tie is a
    trial whose gap is within 1e-9 of its bound, where rounding may decide.
    """
    test = loss_table @ data_model
    log_prior = np.log(prior)
    violations = ties = 0
    gaps, bounds = [], []
    for trial in range(trials):
        rng = np.random.default_rng((int(seed), trial))
        s = rng.choice(loss_table.shape[1], size=m, p=data_model)
        train = loss_table[:, s].mean(axis=1)
        q = gibbs(log_prior - beta * train)[0]
        gap = float(q @ (test - train))
        kl = float((q * (np.log(q) - log_prior)).sum())
        bound = math.sqrt((b - a) ** 2 / (2.0 * m) * (kl + math.log(1.0 / delta)))
        if abs(gap - bound) <= 1e-9:
            ties += 1
        elif gap > bound:
            violations += 1
        gaps.append(gap)
        bounds.append(bound)
    return violations, ties, math.fsum(gaps) / trials, math.fsum(bounds) / trials


def check_pacbayes(problem, beta, m, delta, trials, seed, report):
    violations, ties, mean_gap, mean_bound = coverage_reference(
        np.asarray(problem["loss_table"]),
        problem["a"],
        problem["b"],
        np.asarray(problem["prior"]),
        np.asarray(problem["data_model"]),
        beta,
        m,
        delta,
        trials,
        seed,
    )
    n = report["n_violations"]
    require(
        violations <= n <= violations + ties,
        f"pacbayes n_violations {n}, independent count {violations} (+{ties} near ties)",
    )
    require(report["trials"] == trials, f"pacbayes trials {report['trials']} != {trials}")
    scalar_close("pacbayes violation_rate", report["violation_rate"], n / trials, tol=1e-15)
    scalar_close("pacbayes mean_gap", report["mean_gap"], mean_gap)
    scalar_close("pacbayes mean_bound", report["mean_bound"], mean_bound)


def check_klest(samples_p, samples_q, values, estimate, trace):
    """Monotone trace (up to the method's own 1e-12 acceptance slack), ending
    at the objective of the returned table, which is at most KL(p_hat || q_hat)."""
    trace = np.asarray(trace, dtype=float)
    nondecreasing("klest trace", trace, rtol=1e-12)
    scalar_close("klest estimate", estimate, trace[-1], tol=0.0)
    neg = -np.asarray(values, dtype=float)
    dv = float(neg[samples_p].mean()) - (lse(neg[samples_q]) - math.log(len(samples_q)))
    scalar_close("klest objective of the returned table", estimate, dv)
    n = len(values)
    p_hat = np.bincount(samples_p, minlength=n) / len(samples_p)
    q_hat = np.bincount(samples_q, minlength=n) / len(samples_q)
    s = p_hat > 0.0
    if np.all(q_hat[s] > 0.0):
        kl = float((p_hat[s] * np.log(p_hat[s] / q_hat[s])).sum())
        require(estimate <= kl + 1e-9, f"klest estimate {estimate!r} exceeds KL(p_hat||q_hat) {kl!r}")


def parse_csv(text):
    """(header, rows) of a femin CSV artifact, skipping its # config line."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def check_mirror(losses, csv_text):
    """Iterates on the simplex; values equal l . q and never increase."""
    header, rows = parse_csv(csv_text)
    n = len(losses)
    require(header[:3] == ["iter", "value", "step_size"] and len(header) == 3 + n, "mirror header")
    points = rows[:, 3:]
    for i, point in enumerate(points):
        on_simplex(f"mirror iterate {i}", point)
    close("mirror values", rows[:, 1], points @ np.asarray(losses), rtol=1e-12, atol=1e-12)
    nondecreasing("mirror values (negated)", -rows[:, 1], rtol=1e-12)


def figure1_reference(n_points):
    """x grid, loss column and prior column of the default bimodal sweep."""
    x = np.linspace(-4.0, 4.0, n_points)
    raw = 0.5 * (x - 1.0) ** 2 * (x + 1.5) ** 2
    loss = (raw - raw.min()) * (5.0 / (raw.max() - raw.min()))
    w = np.exp(-0.5 * x**2)
    return x, loss, w / w.sum()


def check_figure1(csv_text, n_points, temperatures):
    header, rows = parse_csv(csv_text)
    x, loss, prior = figure1_reference(n_points)
    require(rows.shape == (n_points, 3 + 3 * len(temperatures)), f"figure1 shape {rows.shape}")
    close("figure1 x", rows[:, 0], x, rtol=1e-15, atol=1e-15)
    close("figure1 loss", rows[:, 1], loss, rtol=1e-12, atol=1e-12)
    close("figure1 prior", rows[:, 2], prior, rtol=1e-12, atol=1e-15)
    column = 3
    for kind in ("neg_entropy", "kl", "half_sq_l2"):
        for t in temperatures:
            require(header[column] == f"q_{kind}_T{t:g}", f"figure1 column {header[column]}")
            q = rows[:, column]
            q_ref, _, _ = closed_form_reference(kind, loss, t, prior)
            close(header[column], q, q_ref, rtol=1e-9, atol=1e-14)
            column += 1


def check_grid(name, kind, losses, t, prior, step, j_closed, grid_q, grid_j):
    """j_opt <= grid value <= J at the grid point nearest q_opt, with the grid
    value itself J at a point of the grid."""
    total = round(1.0 / step)
    grid_q = np.asarray(grid_q, dtype=float)
    counts = grid_q * total
    require(np.all(np.abs(counts - np.round(counts)) <= 1e-9), f"{name}: point off the grid")
    scalar_close(f"{name} value", grid_j, objective(kind, losses, t, prior, grid_q), tol=1e-12)
    require(j_closed <= grid_j + 1e-12, f"{name}: closed form {j_closed!r} above grid {grid_j!r}")
    q_opt, _, _ = closed_form_reference(kind, losses, t, prior)
    scaled = q_opt * total
    nearest = np.floor(scaled)
    short = int(total - nearest.sum())
    nearest[np.argsort(nearest - scaled)[:short]] += 1.0  # largest remainders first
    at_nearest = objective(kind, losses, t, prior, nearest / total)
    require(grid_j <= at_nearest + 1e-12, f"{name}: grid {grid_j!r} above J at nearest point {at_nearest!r}")
