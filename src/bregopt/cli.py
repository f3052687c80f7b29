"""Command-line harness: validate, run, sweep, and oracle subcommands.

Exit codes: 0 when every executed check passes, 1 on a failed check, 2 on
usage errors.  BREGOPT_SEED overrides any configured seed.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import envelope as envelope_mod
from .driver import (SolverConfig, default_lambda, format_csv_rows,
                     run_for_regime, sweep)
from .legendre import gradient_by_differences
from .problems import default_configs, dump_config, get_problem
from .subproblem import check_three_point
from .validation import (brute_force_min, verify_lipschitz, verify_one_sided,
                         verify_relative_smoothness, verify_variance)


def _seed_override(seed):
    env = os.environ.get("BREGOPT_SEED")
    if env is not None:
        return int(env)
    return seed


def _print_check(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name,
                       "  (%s)" % detail if detail else ""))
    return ok


def _validate(problem, args):
    rng = np.random.default_rng(_seed_override(args.seed))
    phi = problem.phi
    ok = True

    # geometry: divergence nonnegativity and gradient consistency (the
    # difference check needs points safely away from the domain boundary)
    worst_div = np.inf
    worst_grad = 0.0
    for _ in range(args.n_pairs):
        x = problem.sample_domain_point(rng)
        y = problem.sample_domain_point(rng)
        worst_div = min(worst_div, phi.bregman(y, x))
        x_in = x if phi.domain == "all_space" else np.maximum(x, 0.05)
        fd = gradient_by_differences(phi.value, x_in)
        err = np.linalg.norm(fd - phi.gradient(x_in)) / (1.0 + np.linalg.norm(fd))
        worst_grad = max(worst_grad, err)
    ok &= _print_check("divergence nonnegative", worst_div >= -1e-12,
                       "min D = %.3e" % worst_div)
    ok &= _print_check("gradient consistency", worst_grad <= 1e-6,
                       "max rel err = %.3e" % worst_grad)

    # the regime's statistical verification suite
    one_ok = True
    for _ in range(args.n_pairs):
        x = problem.sample_domain_point(rng)
        y = problem.sample_domain_point(rng)
        one_ok &= verify_one_sided(problem.oracle, phi, x, y, rng=rng,
                                   n_samples=2000).passed
    ok &= _print_check("one-sided accuracy", one_ok)

    if problem.regime == "B":
        ok &= _print_check("relative smoothness", verify_relative_smoothness(
            problem.oracle, phi, args.n_pairs, rng).passed)
        ok &= _print_check("gradient variance", verify_variance(
            problem.oracle, 20000, problem.x0, rng).passed)
    else:
        rep = verify_lipschitz(problem.oracle, phi, args.n_pairs, rng)
        ok &= _print_check("model Lipschitz bound", rep.passed,
                           "max ratio %.4g vs L %.4g" % (rep.max_ratio,
                                                         rep.claimed_L))

    # a short run obeying the three-point contract at every step
    config = SolverConfig(20, seed=_seed_override(args.seed))
    trace = run_for_regime(problem, config)
    res_ok = True
    probes = [problem.sample_domain_point(rng) for _ in range(50)]
    for t in range(len(trace.etas)):
        model = problem.oracle.model_at(trace.iterates[t],
                                        trace.sampled_xi_ids[t])
        eta = float(trace.etas[t])

        def g_val(p):
            return eta * (model.value(p) + problem.regularizer.value(p))

        rep = check_three_point(g_val, phi, trace.iterates[t],
                                trace.iterates[t + 1], probes)
        res_ok &= rep.min_residual >= -1e-8
    ok &= _print_check("three-point contract on a short run", res_ok)
    return 0 if ok else 1


def _trace_csv(problem, trace):
    lines = ["problem_id,t,eta,model_value,r_value,step_divergence"]
    for t in range(len(trace.etas)):
        lines.append(",".join([
            problem.id, repr(t), repr(float(trace.etas[t])),
            repr(float(trace.model_values[t])),
            repr(float(trace.r_values[t + 1])),
            repr(float(trace.step_divergences[t])),
        ]))
    return "\n".join(lines) + "\n"


def _run(problem, args):
    config = SolverConfig(args.T, seed=_seed_override(args.seed), lam=args.lam,
                          schedule=("constant", args.alpha))
    trace = run_for_regime(problem, config)
    text = _trace_csv(problem, trace)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    report = envelope_mod.stationarity(problem, problem.phi,
                                       trace.returned_point, trace.lam)
    summary = {
        "problem_id": problem.id,
        "t_star": trace.t_star,
        "returned_point": [repr(float(v)) for v in trace.returned_point],
        "breg_div_to_prox": repr(float(report.divergence)),
        "env_value_direct": repr(float(report.envelope_value_direct)),
        "env_value_conjugate": repr(float(report.envelope_value_conjugate)),
        "env_grad_local_norm": repr(float(report.local_dual_norm_of_gradient)),
    }
    out = json.dumps(summary, indent=2)
    if args.envelope_json:
        with open(args.envelope_json, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    agree = abs(report.envelope_value_direct - report.envelope_value_conjugate) \
        <= 1e-6 * (1.0 + abs(report.envelope_value_direct))
    return 0 if agree else 1


def _sweep(problem, args):
    schedule = "strongly_convex" if args.strongly_convex else "constant"
    mode = "tstar_full" if args.tstar_full else "tstar_draw"
    result = sweep(problem, args.horizons, args.seeds, alpha=args.alpha,
                   lam=args.lam, schedule_kind=schedule, metric_mode=mode)
    text = format_csv_rows(result.rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    slope = json.dumps(result.slope_json(), indent=2)
    if args.slope_json:
        with open(args.slope_json, "w") as fh:
            fh.write(slope + "\n")
    else:
        print(slope)
    return 0


def _oracle(problem, args):
    box = (args.box_lo, args.box_hi)
    result = brute_force_min(problem, domain_box=box,
                             resolution=args.resolution,
                             descent_iterations=args.descent_iterations)
    print(json.dumps({
        "problem_id": problem.id,
        "value": repr(result.value),
        "argmin": [repr(float(v)) for v in result.argmin],
        "method": result.method,
        "resolution": repr(result.resolution),
    }, indent=2))
    return 0


def _show_config(args):
    for cfg in default_configs():
        if cfg["id"] == args.problem_id:
            print(dump_config(cfg))
            return 0
    print("unknown problem id %r" % args.problem_id, file=sys.stderr)
    return 2


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return value


def _horizons(text):
    try:
        horizons = [int(t) for t in text.split(",")]
    except ValueError:
        horizons = []
    if not horizons or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise argparse.ArgumentTypeError(
            "expected strictly increasing comma-separated integers, got %r" % text)
    return horizons


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bregopt",
        description="Bregman model-based stochastic minimization harness")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run the verify suite for a problem")
    v.add_argument("problem_id")
    v.add_argument("--n-pairs", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="one algorithm run plus envelope report")
    r.add_argument("problem_id")
    r.add_argument("--T", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--lambda", dest="lam", type=float, default=None)
    r.add_argument("--alpha", type=float, default=1.0)
    r.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    r.add_argument("--envelope-json", default=None)

    s = sub.add_parser("sweep", help="horizon/seed sweep with rate fit")
    s.add_argument("problem_id")
    s.add_argument("--horizons", type=_horizons, default="64,256,1024,4096")
    s.add_argument("--seeds", type=_positive_int, default=20)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--lambda", dest="lam", type=float, default=None)
    s.add_argument("--strongly-convex", action="store_true",
                   help="use the 1/(mu (t+1)) schedule")
    s.add_argument("--tstar-full", action="store_true",
                   help="average the stationarity metric over the full "
                        "t* distribution (variance reduction)")
    s.add_argument("--out", default=None, help="CSV path (default stdout)")
    s.add_argument("--slope-json", default=None)

    o = sub.add_parser("oracle", help="brute-force ground truth")
    o.add_argument("problem_id")
    o.add_argument("--resolution", type=float, default=1e-3)
    o.add_argument("--box-lo", type=float, default=-2.5)
    o.add_argument("--box-hi", type=float, default=2.5)
    o.add_argument("--descent-iterations", type=int, default=1_000_000)

    c = sub.add_parser("config", help="print a problem's frozen JSON config")
    c.add_argument("problem_id")
    return parser


def cli_main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "config":
        return _show_config(args)
    handlers = {"validate": _validate, "run": _run, "sweep": _sweep,
                "oracle": _oracle}
    try:
        problem = get_problem(args.problem_id)
    except KeyError as exc:
        # unknown problem id is a usage error
        print("error: %s" % (exc.args[0],), file=sys.stderr)
        return 2
    return handlers[args.command](problem, args)


def main(argv=None):
    sys.exit(cli_main(argv))


if __name__ == "__main__":
    main()
