"""Outer stochastic loops and rate experiments.

Implements the sampled model-based iteration

    sample xi_t,   x_{t+1} = argmin_x { f_{x_t}(x, xi_t) + r(x)
                                         + (1/eta_t) D(x, x_t) },

returning a randomly selected iterate x_{t*} with P(t* = t) proportional to
eta_t / (1 - eta_t rho).  The regime is the problem's (problem.regime, its
oracle's): it picks the step-size rule, the smooth regime's step cap below
lam/(1 + lam M), and, in the convex regime, the averaged iterates the trace
also reports.  run_for_regime is the one single-run entry; it and the sweep
harness both run the one lockstep loop (_run_loop).  The sweep harness runs
a horizon grid across seeds, evaluates the regime's convergence metric, and
fits a log-log rate slope.
"""

import time

import numpy as np

from .legendre import dot_rows, take_rows
from .models import choice_cdf
# prox_step stays bound here: perfbench/tracing.py wraps driver.prox_step
from .subproblem import InnerSolveError, prox_step, record_rows, step_plan  # noqa: F401
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

    def __init__(self, horizon_T, seed, lam=None, schedule=("constant", 1.0)):
        if horizon_T < 0:
            raise ValueError("horizon must be nonnegative")
        self.horizon_T = int(horizon_T)
        self.seed = seed
        self.lam = lam
        self.schedule = schedule


class RunTrace:
    """Per-iteration record of one run; sampled_xi_ids holds its T+1
    samples as one array (one per step)."""

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


def _resolve_etas(problem, config):
    """lam and the T+1 step sizes of config under the problem's regime."""
    regime = problem.regime
    c = problem.oracle.constants
    T = config.horizon_T
    kind = config.schedule[0]
    if kind == "constant":
        alpha = float(config.schedule[1])
        if not np.isfinite(alpha):
            raise ValueError("alpha must be finite, got %r" % (alpha,))
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

    # every comparison below is False at NaN, which would let it through
    if not np.isfinite(lam) or not np.isfinite(etas).all():
        raise ValueError("lam and the step sizes must be finite")
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


def tstar_weights(etas, rho):
    """The t* law: P(t) proportional to eta_t / (1 - eta_t rho)."""
    etas = np.asarray(etas, dtype=float)
    denom = 1.0 - etas * rho
    if np.any(denom <= 0):
        raise ValueError("weights overflow: eta_t * rho must stay below 1")
    w = etas / denom
    return w / w.sum()


def sample_tstar(etas, rho, rng, size=None):
    """Draw the returned index from the t* law (tstar_weights)."""
    return rng.choice(len(etas), p=tstar_weights(etas, rho), size=size)


_ALGORITHMS = {"A": "model_based", "B": "mirror_descent_smooth", "C": "convex"}


BLOCK_ROWS = 128  # the most rows (steps x runs) one record pass covers


def _run_loop(problem, config, seeds):
    """Advance S runs of one config in lockstep, one (S, d) state.

    The S runs share the config's horizon, lam and step sizes, resolved
    once; run s draws from np.random.default_rng(seeds[s]), not from
    config.seed.  Each run draws its T+1 samples up front, the stream of one
    draw per step, into the one (T + 1, S, ...) array the loop reads and the
    traces view.  One loop runs over record blocks of at most BLOCK_ROWS
    rows: a block gathers what its steps read of their samples
    (oracle.atom_rows) and takes its steps in one plan.block call, which
    writes their points and mirror coordinates into (n + 1, S, d) views of
    the loop's arrays and, on the paths of linear models that move with
    their centres (plan.slopes), their slopes into an (n, S, d) buffer; the
    plan is built once per horizon from step 0's gathered models
    (subproblem.step_plan).  A scanned plan gets blocks of whole chunks
    (plan.chunk steps), so its chunks start at fixed step indices whatever S.

    Each block is then recorded in one pass (oracle.block_models from its
    gathered atoms and its steps' slopes; phi.state_at; record_rows), bit
    for bit the record of step-by-step prox_step_rows calls.  A step that
    fails its certificate raises InnerSolveError naming the step and the
    row; when a later step of the block raises first, the block's completed
    steps (the exception's block_steps) are recorded before that error
    propagates.  The plan bisects a 1-d form with no closed form, and a
    d > 1 form with no path raises InnerSolveError.  Returns S RunTraces,
    each with its t* drawn from the horizon's one CDF of the t* law
    (rng.choice's draw); in the convex regime each carries its averaged
    iterates.
    """
    regime = problem.regime
    lam, etas = _resolve_etas(problem, config)
    T = config.horizon_T
    oracle = problem.oracle
    reg = problem.regularizer
    phi = problem.phi
    rho = oracle.constants.rho
    S = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # step t -> one sample per run: the one copy of the draws, which the
    # traces view
    draws = oracle.sample_rows(rngs[0], T + 1)
    xi_steps = np.empty((T + 1, S) + draws.shape[1:], draws.dtype)
    xi_steps[:, 0] = draws
    for s in range(1, S):
        xi_steps[:, s] = oracle.sample_rows(rngs[s], T + 1)
    xi_shape = (-1,) + xi_steps.shape[2:]

    state = phi.state_rows(np.tile(np.asarray(problem.x0, dtype=float), (S, 1)), reg)
    d = state.points.shape[1]
    models = oracle.atom_rows(xi_steps[0])
    plan = step_plan(models, d, reg, phi)
    block = plan.chunk * max(1, BLOCK_ROWS // (plan.chunk * S))
    # time-major, so a block's centres and minimizers are views
    iterates = np.empty((T + 2, S, d))
    iterates[0] = state.points
    # the mirror coordinates of the block's first centre and its minimizers
    mirror = np.empty((block + 1, S, d))
    mirror[0] = state.mirror
    model_values = np.empty((T + 1, S))
    r_values = np.empty((T + 2, S))
    r_values[0] = state.r
    divergences = np.empty((T + 1, S))
    residuals = np.empty((T + 1, S))
    # the slopes a block's steps took, on the paths that keep them
    slopes = np.empty((block, S, d)) if plan.slopes else None

    def record(t0, t1, models):
        # steps t0 .. t1 - 1 from the states of x_t0 .. x_t1
        n = (t1 - t0) * S
        if not n:
            return
        states = phi.state_at(iterates[t0:t1 + 1].reshape(-1, d),
                              mirror[:t1 - t0 + 1].reshape(-1, d), reg)
        Z, Y = states.take(slice(None, n)), states.take(slice(S, None))
        rows = oracle.block_models(Z.points, take_rows(models, slice(n)),
                                   None if slopes is None else slopes[:t1 - t0].reshape(n, d))
        try:
            model_y, _, d_yz, res = record_rows(rows.values, phi, Z, Y,
                                                etas[t0:t1].repeat(S), rho)
        except InnerSolveError as err:
            # name the loop's step and row instead of the block's row
            step, row = divmod(err.row, S)
            err.args = ("lockstep step %d, row %d missed tolerance:%s"
                        % (t0 + step, row, str(err).partition(":")[2]),)
            raise
        model_values[t0:t1] = model_y.reshape(-1, S)
        r_values[t0 + 1:t1 + 1] = Y.r.reshape(-1, S)
        divergences[t0:t1] = d_yz.reshape(-1, S)
        residuals[t0:t1] = res.reshape(-1, S)

    for t0 in range(0, T + 1, block):
        t1 = min(t0 + block, T + 1)
        models = oracle.atom_rows(xi_steps[t0:t1].reshape(xi_shape))
        try:
            plan.block(models, iterates[t0:t1 + 1], mirror[:t1 - t0 + 1], etas[t0:t1], slopes)
        except Exception as err:
            record(t0, t0 + getattr(err, "block_steps", 0), models)
            raise
        record(t0, t1, models)
        mirror[0] = mirror[t1 - t0]

    traces, cdf = [], choice_cdf(tstar_weights(etas, rho))
    w = (etas / etas.sum()).reshape(1, -1)
    for s, (seed, rng) in enumerate(zip(seeds, rngs)):
        # rng.choice(T + 1, p=the t* law) from the horizon's one CDF
        t_star = int(cdf.searchsorted(rng.random(), side="right"))
        trace = RunTrace(problem.id, _ALGORITHMS[regime], iterates[:, s], etas.copy(),
                         xi_steps[:, s], t_star, lam, model_values[:, s], r_values[:, s],
                         divergences[:, s], residuals[:, s], seed=seed)
        if regime == "C":
            # the eta-weighted average is the point the plain-convexity rate
            # bound controls; under the 1/(mu (t+1)) schedule the guarantee is
            # for the plain average, so both are recorded
            xs = trace.iterates[:-1]                      # x_0 .. x_T
            trace.weighted_average = np.dot(w, xs)[0]
            trace.plain_average = xs.mean(axis=0)
        traces.append(trace)
    return traces


def run_for_regime(problem, config):
    """One run of the problem's regime (RunTrace.algorithm names the
    paper's algorithm): the one-config case of the lockstep loop.  In the
    convex regime the trace carries the eta-weighted average, the point the
    plain-convexity rate bound controls, and the plain average, which the
    1/(mu (t+1)) schedule's guarantee is for."""
    return _run_loop(problem, config, [config.seed])[0]


def convex_gaps(problem, traces):
    """F(x_bar) - F* of each trace, at the average the regime's rate bound
    controls, in one row pass (problem.exact_F_rows)."""
    if problem.optimum is None:
        raise ValueError("problem has no recorded optimum")
    if any(tr.weighted_average is None for tr in traces):
        raise ValueError("trace carries no averaged point")
    field = "plain_average" if problem.oracle.constants.mu > 0 else "weighted_average"
    points = np.array([getattr(tr, field) for tr in traces])
    return problem.exact_F_rows(points) - problem.optimum["F_star"]


def convex_gap(problem, trace):
    """F(x_bar) - F*, at the average the regime's rate bound controls: the
    one-trace case of convex_gaps."""
    return float(convex_gaps(problem, [trace])[0])


CSV_COLUMNS = "regime,problem_id,T,seed,eta0,lambda,metric_name,metric_value,wall_ms"
_CSV_FIELDS = tuple(CSV_COLUMNS.split(","))


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
    """Least-squares slope of log(mean) against log(T+1).

    slope, intercept and r2 are None when a mean is 0 (converged) and when
    fewer than two horizons leave no line to fit.
    """
    horizons = np.asarray(horizons, dtype=float)
    means = np.asarray(means, dtype=float)
    if np.any(means <= 0):
        return {"slope": None, "intercept": None, "r2": None, "converged": True}
    if horizons.size < 2:
        return {"slope": None, "intercept": None, "r2": None, "converged": False}
    lx = np.log(horizons + 1.0)
    ly = np.log(means)
    # in closed form: np.polyfit's LAPACK least squares pages in about 0.9 MB
    # of the BLAS library to fit a line through a few points
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = (dx * dy).sum() / (dx * dx).sum()
    intercept = ly.mean() - slope * lx.mean()
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "converged": False}


def _metric_names(problem):
    """The metrics of a sweep cell; the first is the rate fit's target."""
    if problem.regime in ("A", "B"):
        return ("breg_div_to_prox", "env_grad_local_norm")
    return ("fgap_avg",)


class SweepResult(np.ndarray):
    """A sweep's outputs, one array whose row h is [T, eta0, lambda, the
    (S, k) metric values of its S seeds and k metrics, the wall time in ms
    of each cell] for horizon h (one time: every cell's is its share of the
    horizon's), of the class (of) that holds its regime, problem id and
    metric names.  A kept result is this one small array (304 B for one
    horizon of 8 seeds and 2 metrics, which the benchmark keeps per call,
    where S wall times took 360 B); cells is it as a plain
    array, and horizons, eta0, lam, values (H, S, k), walls (H, S), rows,
    means, std_errs and fit are derived on access."""

    __slots__ = ()
    regime = problem_id = metric_names = None
    _kinds = {}  # (regime, problem id, metric names) -> its subclass

    @classmethod
    def of(cls, regime, problem_id, metric_names, cells):
        """The cells, copied, as the result of (regime, problem_id, metric_names)."""
        key = (regime, problem_id, metric_names)
        kind = cls._kinds.get(key) or cls._kinds.setdefault(key, type(cls.__name__, (cls,), dict(
            __slots__=(), regime=regime, problem_id=problem_id, metric_names=metric_names)))
        out = np.ndarray.__new__(kind, cells.shape)
        out[...] = cells
        return out

    @property
    def cells(self):
        return self.view(np.ndarray)

    @property
    def n_seeds(self):
        return (self.cells.shape[1] - 4) // len(self.metric_names)

    @property
    def horizons(self):
        return [int(T) for T in self.cells[:, 0]]

    @property
    def eta0(self):
        return tuple(self.cells[:, 1].tolist())

    @property
    def lam(self):
        return tuple(self.cells[:, 2].tolist())

    @property
    def values(self):
        n = self.n_seeds * len(self.metric_names)
        return self.cells[:, 3:3 + n].reshape(len(self.cells), self.n_seeds, -1)

    @property
    def walls(self):
        return np.repeat(self.cells[:, -1:], self.n_seeds, axis=1)

    @property
    def metric_name(self):
        return self.metric_names[0]

    @property
    def rows(self):
        """One dict per (T, seed, metric), keyed by the CSV columns."""
        head = (self.regime, self.problem_id)
        eta0, lam, values, walls = self.eta0, self.lam, self.values, self.walls
        return [dict(zip(_CSV_FIELDS, head + (T, s, eta0[h], lam[h], name,
                                              float(values[h, s, j]),
                                              float(walls[h, s]))))
                for h, T in enumerate(self.horizons) for s in range(self.n_seeds)
                for j, name in enumerate(self.metric_names)]

    def _targets(self):
        # contiguous copies, so the reductions are those of the seeds' list
        return [v.copy() for v in self.values[:, :, 0]]

    @property
    def means(self):
        """The seed-averaged target metric of each horizon."""
        return [float(v.mean()) for v in self._targets()]

    @property
    def std_errs(self):
        n = self.n_seeds
        return [float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
                for v in self._targets()]

    @property
    def fit(self):
        return fit_loglog(self.horizons, self.means)

    def slope_json(self):
        fit = self.fit
        return {"slope": fit["slope"], "intercept": fit["intercept"],
                "r2": fit["r2"], "horizons": self.horizons,
                "n_seeds": self.n_seeds}


def _sweep_horizon(problem, T, n_seeds, alpha, lam, schedule_kind, metric_mode):
    """eta0, lambda, the (n_seeds, k) metric values (_metric_names) and the
    wall time in ms of each cell of one horizon.

    The cells run in lockstep, and their metrics are one row pass over the
    S cells: envelope.stationarity_rows at the returned points, whose prox
    points it solves in one batch ("tstar_draw") or takes from the t*-law
    batch of x_0..x_T of every cell, whose certified record also holds
    D(prox(x_t), x_t) ("tstar_full"); in the convex regime one convex_gaps
    pass.  Each cell's wall_ms is its share (1/S) of the loop and of the
    metric batch.
    """
    schedule = ("strongly_convex",) if schedule_kind == "strongly_convex" else ("constant", alpha)
    # one config for the horizon; each cell derives an independent generator
    # state from (seed index, T)
    config = SolverConfig(T, seed=None, lam=lam, schedule=schedule)
    t0 = time.perf_counter()
    traces = _run_loop(problem, config, [[s, T] for s in range(n_seeds)])
    # cells in lockstep share their step sizes and lam
    eta0, cell_lam = float(traces[0].etas[0]), float(traces[0].lam)
    if problem.regime in ("A", "B"):
        X, X_hat = np.array([tr.returned_point for tr in traces]), None
        if metric_mode == "tstar_full":
            w, X_law, divs = _tstar_law(problem, traces)
            X_hat = X_law[np.arange(n_seeds), [tr.t_star for tr in traces]]
        report = envelope_mod.stationarity_rows(problem, problem.phi, X, traces[0].lam,
                                                X_hat=X_hat)
        metric = dot_rows(divs, w) if metric_mode == "tstar_full" else report.divergence
        values = np.stack((metric, report.local_dual_norm_of_gradient), axis=1)
    else:
        values = convex_gaps(problem, traces)[:, None]
    return eta0, cell_lam, values, (time.perf_counter() - t0) * 1000.0 / n_seeds


def sweep(problem, horizons, n_seeds, alpha=1.0, lam=None,
          schedule_kind="constant", threads=1, metric_mode="tstar_draw"):
    """Run the horizon grid across seeds and fit the empirical rate.

    Returns a SweepResult with one CSV row per (T, seed, metric) and the
    log-log slope of the seed-averaged target metric.  metric_mode selects
    the single drawn t* ("tstar_draw") or the variance-reduced average over
    the full t* distribution ("tstar_full"); both estimate the same
    expectation.  The seeds of a horizon run in lockstep, and the horizons
    one after another; threads must be 1.
    """
    if threads != 1:
        raise ValueError("threads must be 1, got %r" % (threads,))
    if metric_mode not in ("tstar_draw", "tstar_full"):
        raise ValueError("unknown metric mode %r" % (metric_mode,))
    horizons = list(horizons)
    if not horizons:
        raise ValueError("horizons must name at least one horizon")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1, got %r" % (n_seeds,))
    results = [_sweep_horizon(problem, T, n_seeds, alpha, lam, schedule_kind, metric_mode)
               for T in horizons]
    cells = np.array([np.concatenate(([T, eta0, cell_lam], vals.ravel(), [ms]))
                      for T, (eta0, cell_lam, vals, ms) in zip(horizons, results)])
    return SweepResult.of(problem.regime, problem.id, _metric_names(problem), cells)


def _tstar_law(problem, traces):
    """Weights of the t* law and, over S lockstep traces (same steps and lam)
    in one envelope batch (envelope.prox_records), the prox points of
    x_0..x_T, (S, T + 1, d), and D(prox(x_t), x_t), (S, T + 1), which the
    batch's certified record holds."""
    w = tstar_weights(traces[0].etas, problem.oracle.constants.rho)
    X = np.concatenate([tr.iterates[:w.size] for tr in traces])
    res = envelope_mod.prox_records(problem, problem.phi, X, traces[0].lam)
    return (w, res.minimizer.reshape(len(traces), w.size, -1),
            res.divergence.reshape(len(traces), -1))


def stationarity_over_tstar_law(problem, trace):
    """Variance-reduced metric: average D(prox(x_t), x_t) over the full
    t*-distribution instead of the single drawn index (same expectation)."""
    w, _, divs = _tstar_law(problem, [trace])
    return float(w @ divs[0])
