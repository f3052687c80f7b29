"""Outer stochastic loops and rate experiments.

Implements the sampled model-based iteration

    sample xi_t,   x_{t+1} = argmin_x { f_{x_t}(x, xi_t) + r(x)
                                         + (1/eta_t) D(x, x_t) },

returning a randomly selected iterate x_{t*} with P(t* = t) proportional to
eta_t / (1 - eta_t rho), together with its smooth-gradient specialization
(linear models with a step cap below lam/(1 + lam M)) and the convex-regime
variant that additionally reports averaged iterates.  The sweep harness runs
a horizon grid across seeds, evaluates the regime's convergence metric, and
fits a log-log rate slope.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .subproblem import prox_step
from . import envelope as envelope_mod


class SolverConfig:
    """Configuration of one algorithm run.

    schedule is one of
      ("constant", alpha)     eta_t = the regime's 1/sqrt(T+1) formula
      ("strongly_convex",)    eta_t = 1/(mu (t+1))
      ("explicit", sequence)  eta_t supplied directly (nonincreasing)
    lam defaults to half the admissible bound 1/(tau+rho) (1.0 when
    tau + rho = 0); in the convex regime it only needs to dominate eta_0.
    """

    def __init__(self, horizon_T, seed, lam=None, schedule=("constant", 1.0),
                 inner_tol=1e-10):
        if horizon_T < 0:
            raise ValueError("horizon must be nonnegative")
        self.horizon_T = int(horizon_T)
        self.seed = seed
        self.lam = lam
        self.schedule = schedule
        self.inner_tol = float(inner_tol)


class RunTrace:
    """Per-iteration record of one run."""

    def __init__(self, problem_id, algorithm, iterates, etas, sampled_xi_ids,
                 t_star, lam, model_values, r_values, step_divergences,
                 step_residuals, weighted_average=None, plain_average=None,
                 seed=None):
        self.problem_id = problem_id
        self.algorithm = algorithm
        self.iterates = iterates
        self.etas = etas
        self.sampled_xi_ids = sampled_xi_ids
        self.t_star = t_star
        self.returned_point = iterates[t_star]
        self.lam = lam
        self.model_values = model_values
        self.r_values = r_values
        self.step_divergences = step_divergences
        self.step_residuals = step_residuals
        self.weighted_average = weighted_average
        self.plain_average = plain_average
        self.seed = seed


def default_lambda(problem):
    """lam = 1/(2 (tau + rho)), the midpoint of the admissible interval."""
    c = problem.oracle.constants
    wm = c.tau + c.rho
    return 1.0 if wm == 0.0 else 1.0 / (2.0 * wm)


def stepsize_constant(lam, alpha, T, regime, M=0.0):
    """The constant step size of the regime's rate corollary."""
    if alpha <= 0 or lam <= 0 or T < 0:
        raise ValueError("need alpha > 0, lam > 0, T >= 0")
    root = np.sqrt(T + 1.0)
    if regime == "A":
        return 1.0 / (1.0 / lam + root / alpha)
    if regime == "B":
        return 1.0 / (M + 1.0 / lam + root / alpha)
    if regime == "C":
        return alpha / root
    raise ValueError("unknown regime %r" % (regime,))


def _resolve_etas(problem, config, regime):
    c = problem.oracle.constants
    T = config.horizon_T
    kind = config.schedule[0]
    if kind == "constant":
        alpha = float(config.schedule[1])
        lam = config.lam
        if lam is None:
            lam = default_lambda(problem)
        eta = stepsize_constant(lam, alpha, T, regime, M=c.smooth_M)
        if regime == "C" and config.lam is None:
            # lam is free in the convex regime; keep it clear of the steps
            lam = max(lam, 2.0 * eta)
        etas = np.full(T + 1, eta)
    elif kind == "strongly_convex":
        if regime != "C":
            raise ValueError("the 1/(mu (t+1)) schedule is a convex-regime rule")
        if c.mu <= 0:
            raise ValueError("strongly convex schedule requires mu > 0")
        etas = 1.0 / (c.mu * (np.arange(T + 1) + 1.0))
        lam = config.lam if config.lam is not None else 2.0 * etas[0]
    elif kind == "explicit":
        etas = np.asarray(config.schedule[1], dtype=float)
        if etas.size != T + 1:
            raise ValueError("explicit schedule must have T+1 entries")
        lam = config.lam if config.lam is not None else 2.0 * float(etas[0])
    else:
        raise ValueError("unknown schedule %r" % (kind,))

    wm = c.tau + c.rho
    if wm > 0 and lam * wm >= 1.0:
        raise ValueError("lam violates lam * (tau + rho) < 1")
    if np.any(etas <= 0) or np.any(etas >= lam):
        raise ValueError("step sizes must lie in (0, lam)")
    if np.any(np.diff(etas) > 0):
        raise ValueError("step sizes must be nonincreasing")
    if regime == "B":
        cap = lam / (1.0 + lam * c.smooth_M)
        if np.any(etas >= cap):
            raise ValueError("smooth regime requires eta < lam/(1 + lam M)")
    return lam, etas


def sample_tstar(etas, rho, rng, size=None):
    """Draw the returned index with weights eta_t / (1 - eta_t rho)."""
    etas = np.asarray(etas, dtype=float)
    denom = 1.0 - etas * rho
    if np.any(denom <= 0):
        raise ValueError("weights overflow: eta_t * rho must stay below 1")
    w = etas / denom
    p = w / w.sum()
    return rng.choice(etas.size, p=p, size=size)


def _run_loop(problem, config, regime, algorithm):
    lam, etas = _resolve_etas(problem, config, regime)
    oracle = problem.oracle
    reg = problem.regularizer
    phi = problem.phi
    rho = oracle.constants.rho
    rng = np.random.default_rng(config.seed)

    x = np.asarray(problem.x0, dtype=float)
    iterates = [x.copy()]
    xi_ids = []
    model_values = []
    r_values = [reg.value(x)]
    divergences = []
    residuals = []
    for t in range(config.horizon_T + 1):
        xi = oracle.sample(rng)
        model = oracle.model_at(x, xi)
        res = prox_step(model, reg, phi, x, float(etas[t]), rho=rho,
                        inner_tol=config.inner_tol)
        x_next = res.minimizer
        xi_ids.append(xi)
        model_values.append(model.value(x_next))
        r_values.append(reg.value(x_next))
        divergences.append(phi.bregman(x_next, x))
        residuals.append(res.three_point_residual)
        iterates.append(x_next.copy())
        x = x_next
    t_star = int(sample_tstar(etas, rho, rng))
    return RunTrace(problem.id, algorithm, np.array(iterates), etas, xi_ids,
                    t_star, lam, np.array(model_values), np.array(r_values),
                    np.array(divergences), np.array(residuals),
                    seed=config.seed)


def run_model_based(problem, config):
    """The weakly convex loop (regime A)."""
    if problem.regime != "A":
        raise ValueError("run_model_based expects a regime-A problem")
    return _run_loop(problem, config, "A", "model_based")


def run_mirror_descent_smooth(problem, config):
    """The smooth stochastic-gradient loop (regime B)."""
    if problem.regime != "B":
        raise ValueError("run_mirror_descent_smooth expects a regime-B problem")
    return _run_loop(problem, config, "B", "mirror_descent_smooth")


def run_convex(problem, config, average=True):
    """The convex-regime loop, reporting averaged iterates.

    The eta-weighted average is the point the plain-convexity rate bound
    controls; under the 1/(mu (t+1)) schedule the guarantee is for the plain
    average, so both are recorded.
    """
    if problem.regime != "C":
        raise ValueError("run_convex expects a regime-C problem")
    trace = _run_loop(problem, config, "C", "convex")
    if average:
        xs = trace.iterates[:-1]                      # x_0 .. x_T
        w = trace.etas / trace.etas.sum()
        trace.weighted_average = np.tensordot(w, xs, axes=1)
        trace.plain_average = xs.mean(axis=0)
    return trace


def run_for_regime(problem, config):
    if problem.regime == "A":
        return run_model_based(problem, config)
    if problem.regime == "B":
        return run_mirror_descent_smooth(problem, config)
    return run_convex(problem, config)


def convex_gap(problem, trace):
    """F(x_bar) - F*, at the average the regime's rate bound controls."""
    if problem.optimum is None:
        raise ValueError("problem has no recorded optimum")
    if trace.weighted_average is None:
        raise ValueError("trace carries no averaged point")
    point = trace.weighted_average
    if problem.oracle.constants.mu > 0:
        point = trace.plain_average
    return problem.exact_F(point) - problem.optimum["F_star"]


CSV_COLUMNS = "regime,problem_id,T,seed,eta0,lambda,metric_name,metric_value,wall_ms"


def format_csv_rows(rows):
    """Render sweep rows in the fixed column order, repr-exact floats."""
    lines = [CSV_COLUMNS]
    for r in rows:
        lines.append(",".join([
            r["regime"], r["problem_id"], repr(r["T"]), repr(r["seed"]),
            repr(r["eta0"]), repr(r["lambda"]), r["metric_name"],
            repr(r["metric_value"]), repr(r["wall_ms"]),
        ]))
    return "\n".join(lines) + "\n"


def parse_csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != CSV_COLUMNS:
        raise ValueError("unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        rows.append({"regime": f[0], "problem_id": f[1], "T": int(f[2]),
                     "seed": int(f[3]), "eta0": float(f[4]),
                     "lambda": float(f[5]), "metric_name": f[6],
                     "metric_value": float(f[7]), "wall_ms": float(f[8])})
    return rows


def fit_loglog(horizons, means):
    """Least-squares slope of log(mean) against log(T+1)."""
    horizons = np.asarray(horizons, dtype=float)
    means = np.asarray(means, dtype=float)
    if np.any(means <= 0):
        return {"slope": None, "intercept": None, "r2": None, "converged": True}
    lx = np.log(horizons + 1.0)
    ly = np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "converged": False}


class SweepResult:
    def __init__(self, rows, horizons, means, std_errs, fit, metric_name, n_seeds):
        self.rows = rows
        self.horizons = list(horizons)
        self.means = means
        self.std_errs = std_errs
        self.fit = fit
        self.metric_name = metric_name
        self.n_seeds = n_seeds

    def slope_json(self):
        return {"slope": self.fit["slope"], "intercept": self.fit["intercept"],
                "r2": self.fit["r2"], "horizons": self.horizons,
                "n_seeds": self.n_seeds}


def _sweep_cell(problem, T, seed_index, alpha, lam, schedule_kind, inner_tol,
                metric_mode):
    t0 = time.perf_counter()
    if schedule_kind == "strongly_convex":
        schedule = ("strongly_convex",)
    else:
        schedule = ("constant", alpha)
    # each cell derives an independent generator state from (T, seed index)
    config = SolverConfig(T, seed=[seed_index, T], lam=lam, schedule=schedule,
                          inner_tol=inner_tol)
    trace = run_for_regime(problem, config)
    rows = []
    base = {"regime": problem.regime, "problem_id": problem.id, "T": T,
            "seed": seed_index, "eta0": float(trace.etas[0]),
            "lambda": float(trace.lam)}
    if problem.regime in ("A", "B"):
        report = envelope_mod.stationarity(problem, problem.phi,
                                           trace.returned_point, trace.lam,
                                           tol=inner_tol)
        if metric_mode == "tstar_full":
            metric = stationarity_over_tstar_law(problem, trace, tol=inner_tol)
        else:
            metric = float(report.divergence)
        wall = (time.perf_counter() - t0) * 1000.0
        rows.append(dict(base, metric_name="breg_div_to_prox",
                         metric_value=metric, wall_ms=wall))
        rows.append(dict(base, metric_name="env_grad_local_norm",
                         metric_value=float(report.local_dual_norm_of_gradient),
                         wall_ms=wall))
    else:
        metric = float(convex_gap(problem, trace))
        wall = (time.perf_counter() - t0) * 1000.0
        rows.append(dict(base, metric_name="fgap_avg", metric_value=metric,
                         wall_ms=wall))
    return rows, metric


def sweep(problem, horizons, n_seeds, alpha=1.0, lam=None,
          schedule_kind="constant", inner_tol=1e-10, threads=1,
          metric_mode="tstar_draw"):
    """Run the horizon grid across seeds and fit the empirical rate.

    Returns a SweepResult with one CSV row per (T, seed, metric) and the
    log-log slope of the seed-averaged target metric.  metric_mode selects
    the single drawn t* ("tstar_draw") or the variance-reduced average over
    the full t* distribution ("tstar_full"); both estimate the same
    expectation.  Cells may execute concurrently; rows are assembled in
    sorted (T, seed) order either way.
    """
    if metric_mode not in ("tstar_draw", "tstar_full"):
        raise ValueError("unknown metric mode %r" % (metric_mode,))
    horizons = list(horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    cells = [(T, s) for T in horizons for s in range(n_seeds)]

    def work(cell):
        T, s = cell
        return cell, _sweep_cell(problem, T, s, alpha, lam, schedule_kind,
                                 inner_tol, metric_mode)

    results = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for cell, out in pool.map(work, cells):
                results[cell] = out
    else:
        for cell in cells:
            results[cell] = work(cell)[1]

    rows = []
    means = []
    std_errs = []
    for T in horizons:
        vals = []
        for s in range(n_seeds):
            cell_rows, metric = results[(T, s)]
            rows.extend(cell_rows)
            vals.append(metric)
        vals = np.asarray(vals)
        means.append(float(vals.mean()))
        std_errs.append(float(vals.std(ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0)

    metric_name = "breg_div_to_prox" if problem.regime in ("A", "B") else "fgap_avg"
    fit = fit_loglog(horizons, means)
    return SweepResult(rows, horizons, means, std_errs, fit, metric_name, n_seeds)


def stationarity_over_tstar_law(problem, trace, tol=1e-10):
    """Variance-reduced metric: average D(prox(x_t), x_t) over the full
    t*-distribution instead of the single drawn index (same expectation)."""
    etas = np.asarray(trace.etas, dtype=float)
    rho = problem.oracle.constants.rho
    w = etas / (1.0 - etas * rho)
    w = w / w.sum()
    X = trace.iterates[:etas.size]
    X_hat = envelope_mod.bregman_prox_points(problem, problem.phi, X,
                                             trace.lam, tol=tol)
    return float(w @ problem.phi.bregman_rows(X_hat, X))
