"""Seeded inputs of the benchmark: problem configs and workload operations.

generate_configs(seed) emits the P1-P6 configs in the registry's JSON format
(the dicts that bregopt.problems.instance_from_config accepts).  The data
arrays are drawn from numpy generators seeded with base + SEED_STRIDE * seed,
where the bases are the registry's own seeds, so seed 0 reproduces
bregopt.problems.default_configs() bit for bit; every other seed gives a
fresh instance of the same problem family with the same dimensions, start
points, samplers and kernels.  This module imports numpy only, so the
program under test receives nothing but the generated configs.

A workload run at seed s draws its problem instances from the data seeds
instance_seeds(s) (instance 0 of seed 0 is the registry).  The cost of a prox
step depends on the data (Newton iterations, bracket expansions), so a run
averages over several instances and its figures do not hinge on one draw.

WORKLOADS maps each workload name to its operations.  One operation is one
driver.sweep(problem, [T], N_SEEDS, **options) call on one instance, so every
sweep call advances N_SEEDS cells of one horizon, as the acceptance gate's
sweeps do (they use 20 seeds).  The horizons are the two smallest of the
gate's grid (64, 256, 1024, 4096); on one gate-sized call (T = 1024) the
work per step and the layer shares were measured to match those of T = 64
and 256, and the time per step was 1-14% lower, as the once-per-cell costs
weigh less (perfbench/layer_map.json, "gate_traffic").  A round runs every
operation of the workload once, in the listed order.
"""

import numpy as np

DEFAULT_SEED = 0
HELD_OUT_SEED = 4242
SEED_STRIDE = 1000
N_ATOMS = 20
MAX_INSTANCES = 16   # stride of the data seeds of one workload seed
N_SEEDS = 8          # sweep seeds (cells) per operation

# the registry's kernels, as Legendre configs
_P1_PHI = {"kind": "weighted_sum", "weights": [1.0, 1.0],
           "children": [{"kind": "poly_growth", "coeffs": [1.0]},
                        {"kind": "norm_power_sum", "coeffs": [0.0, 0.0, 4.0]}]}
_P2_PHI = {"kind": "norm_power_sum", "coeffs": [1.0, 0.0, 1.0]}
_P6_PHI = {"kind": "poly_growth", "coeffs": [0.25, 0.0, 0.25]}


def _rng(base, seed):
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    return np.random.default_rng(base + SEED_STRIDE * seed)


def instance_seeds(seed):
    """Data seeds of the problem instances of a workload run at seed."""
    return [seed * MAX_INSTANCES + j for j in range(MAX_INSTANCES)]


def _uniform_weights(m):
    return list(np.full(m, 1.0 / m))


def generate_configs(seed):
    """The P1-P6 configs for one workload seed, in registry order."""
    m = N_ATOMS

    rng = _rng(101, seed)
    p1 = {
        "id": "P1", "family": "prox_linear", "regime": "A", "dimension": 1,
        "weights": _uniform_weights(m),
        "a": list(rng.uniform(0.5, 1.5, m)),
        "b": list(rng.uniform(0.3, 1.2, m)),
        "p": [1.0], "q": [0.0, 0.0, 4.0],
        "phi": _P1_PHI,
        "regularizer": {"kind": "zero"},
        "x0": [1.7],
        "sampler": {"kind": "box", "lo": -2.5, "hi": 2.5},
    }

    rng = _rng(202, seed)
    feats = rng.uniform(-1.0, 1.0, (m, 2))
    plant = np.array([0.9, -0.6])
    p2 = {
        "id": "P2", "family": "noisy_gradient", "regime": "B", "dimension": 2,
        "weights": _uniform_weights(m),
        "a": [list(row) for row in feats],
        "b": list((feats @ plant) ** 2),
        "sigma": 0.3,
        "phi": _P2_PHI,
        "regularizer": {"kind": "zero"},
        "x0": [1.8, 0.9],
        "sampler": {"kind": "box", "lo": -1.5, "hi": 1.5},
    }

    rng = _rng(303, seed)
    atoms = rng.uniform(0.0, 1.0, (m, 10)) + np.linspace(0.0, 1.8, 10)
    p3 = {
        "id": "P3", "family": "linear_mirror", "regime": "C", "dimension": 10,
        "weights": _uniform_weights(m),
        "atoms": [list(row) for row in atoms],
        "mu": 0.0,
        "phi": {"kind": "shannon_entropy", "on_simplex": True},
        "regularizer": {"kind": "indicator_simplex"},
        "x0": list(np.full(10, 0.1)),
        "sampler": {"kind": "dirichlet", "alpha": 1.5},
    }
    p4 = dict(p3, id="P4", mu=1.0,
              regularizer={"kind": "entropy_like", "weight": 1.0})

    rng = _rng(505, seed)
    p5 = {
        "id": "P5", "family": "saddle", "regime": "A", "dimension": 2,
        "weights": _uniform_weights(m),
        "atoms": [list(row) for row in rng.normal(0.0, 1.0, (m, 2))],
        "w_radius": 0.1,
        "phi": {"kind": "euclidean"},
        "regularizer": {"kind": "indicator_ball", "radius": 2.0},
        "x0": [1.0, 1.0],
        "sampler": {"kind": "ball", "radius": 2.0},
    }

    rng = _rng(606, seed)
    B = rng.normal(0.0, 0.5, (m, 2, 2))
    Q = np.einsum("mij,mik->mjk", B, B) + 0.1 * np.eye(2)
    p6 = {
        "id": "P6", "family": "proximal_point", "regime": "A", "dimension": 2,
        "weights": _uniform_weights(m),
        "Q": [[list(r) for r in Qi] for Qi in Q],
        "m": [list(row) for row in rng.uniform(-0.8, 0.8, (m, 2))],
        "phi": _P6_PHI,
        "regularizer": {"kind": "zero"},
        "x0": [1.2, 1.0],
        "sampler": {"kind": "box", "lo": -2.0, "hi": 2.0},
    }
    return [p1, p2, p3, p4, p5, p6]


class Operation:
    """One driver.sweep call on a single horizon of one problem instance."""

    def __init__(self, problem_id, T, n_seeds, instance=0, **options):
        self.problem_id = problem_id
        self.instance = int(instance)
        self.T = int(T)
        self.n_seeds = int(n_seeds)
        self.options = options

    @property
    def steps(self):
        """Outer prox steps of the call: T + 1 per cell."""
        return self.n_seeds * (self.T + 1)

    @property
    def key(self):
        return "%s/i%d/T%d" % (self.problem_id, self.instance, self.T)


def _grid(problem_id, instances, **options):
    return [Operation(problem_id, T, N_SEEDS, instance=j, **options)
            for j in range(instances) for T in HORIZONS]


HORIZONS = (64, 256)

# problem, schedule and metric mode as in acceptance criteria 4-7; the
# instance counts make one round take roughly 6-14 s
WORKLOADS = {
    "p1_weakly_convex": _grid("P1", 2, alpha=1.0, metric_mode="tstar_full"),
    "closed_form_steps": (_grid("P2", 4, alpha=0.5)
                          + _grid("P3", 4, alpha=1.0)
                          + _grid("P4", 4, schedule_kind="strongly_convex")
                          + _grid("P5", 4)),
    "newton_inner": _grid("P6", 4),
}
