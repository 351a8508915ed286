"""Output checks computed apart from the program, or from properties the
method must have.  Each returns ``(name, ok, detail)``."""

from __future__ import annotations

import numpy as np

from convcnp import autodiff as ad

GRAD_STEP = 1e-6  # central-difference step along a unit direction in parameter space
GRAD_TOL = 1e-4  # relative error, the package's own gradcheck threshold
LL_TOL = 1e-12  # relative to the mean |log density| of the points summed
EQUIVARIANCE_TOL = 1e-10


def gaussian_log_density(y, mean, std):
    """log N(y; mean, std^2), written out here rather than taken from convcnp."""
    z = (y - mean) / std
    return -0.5 * np.log(2.0 * np.pi) - np.log(std) - 0.5 * z * z


def directional_gradient(store, loss_of_leaves, seed):
    """Backward's gradient along one random direction against a central difference.

    The direction leaves out parameters that are exactly zero.  After
    training, such a parameter is a bias that never received a gradient: its
    unit is off on every input, and wherever the unit's input is exactly zero
    (grid regions far from any context point) its pre-activation is exactly
    zero too, so moving the bias puts the loss on a ReLU kink, where a central
    difference does not estimate the derivative.
    """
    leaves = store.leaves()
    ad.backward(loss_of_leaves(leaves))
    rng = np.random.default_rng(seed)
    direction = {
        name: np.where(p.value == 0.0, 0.0, rng.standard_normal(p.value.shape))
        for name, p in store.items()
    }
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(
        float(np.vdot(leaves[name].grad, d)) for name, d in direction.items()
    ) / norm
    saved = store.state_dict()

    def loss_at(sign):
        store.load_state_dict(
            {name: saved[name] + sign * GRAD_STEP / norm * d for name, d in direction.items()}
        )
        return float(loss_of_leaves(store.leaves()).value)

    try:
        fd = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * GRAD_STEP)
    finally:
        store.load_state_dict(saved)
    err = abs(analytic - fd) / max(abs(fd), abs(analytic), 1e-12)
    return ("gradient_vs_central_difference", err <= GRAD_TOL,
            f"analytic {analytic:.9g}, fd {fd:.9g}, rel err {err:.2e} (tol {GRAD_TOL:g})")


def log_density_matches(name, program_lls, own_lls, scales):
    """The program's per-task mean log likelihoods against the benchmark's own.

    ``scales`` is each task's mean |log density| per point: the two sums add
    the same terms in different orders, so they may differ by rounding in
    proportion to it.
    """
    dev = np.abs(np.asarray(program_lls) - np.asarray(own_lls)) / (1.0 + np.asarray(scales))
    worst = float(np.max(dev))
    return (name, worst <= LL_TOL, f"max relative diff {worst:.2e} (tol {LL_TOL:g})")


def bit_identical(name, pairs):
    """Every (a, b) pair of arrays is equal bit for bit."""
    bad = sum(not np.array_equal(a, b) for a, b in pairs)
    return (name, bad == 0, f"{bad} of {len(pairs)} arrays differ")


def equivariant(name, pairs):
    """Every (a, b) pair agrees to within EQUIVARIANCE_TOL."""
    dev = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    return (name, dev < EQUIVARIANCE_TOL, f"max deviation {dev:.2e} (tol {EQUIVARIANCE_TOL:g})")


def nll_decreased(nll_before, nll_after):
    return ("validation_nll_decreased", nll_after < nll_before,
            f"held-out NLL {nll_before:.6f} -> {nll_after:.6f}")


def checkpoint_roundtrip(model, fresh_model, predict, path):
    """Save, load into a differently initialised model, compare bit for bit."""
    ad.save_checkpoint(model.params, path)
    try:
        ad.load_checkpoint(fresh_model.params, path)
    finally:
        path.unlink(missing_ok=True)
    a, b = model.params.state_dict(), fresh_model.params.state_dict()
    pairs = [(a[name], b.get(name)) for name in a] + list(zip(predict(model), predict(fresh_model)))
    same_names = sorted(a) == sorted(b)
    name, ok, detail = bit_identical("checkpoint_roundtrip", pairs)
    return name, ok and same_names, detail


def gp_oracle_vs_dense(tasks, predict, length_scale, jitter):
    """The oracle's predictive against a dense solve of the joint EQ covariance."""
    worst_mean = worst_var = 0.0
    for task in tasks:
        x = np.concatenate([task.context_x, task.target_x])
        n = len(task.context_x)
        joint = np.exp(-0.5 * ((x[:, None] - x[None, :]) / length_scale) ** 2)
        k_cc = joint[:n, :n] + jitter * np.eye(n)
        k_tc = joint[n:, :n]
        mean = k_tc @ np.linalg.solve(k_cc, task.context_y[:, 0])
        var = np.diag(joint[n:, n:]) - np.sum(k_tc * np.linalg.solve(k_cc, k_tc.T).T, axis=1)
        o_mean, o_std = predict(task)
        worst_mean = max(worst_mean, float(np.max(np.abs(o_mean - mean))))
        worst_var = max(worst_var, float(np.max(np.abs(o_std**2 - np.maximum(var, 1e-12)))))
    ok = worst_mean < 1e-6 and worst_var < 1e-6
    return ("gp_oracle_vs_dense_solve", ok,
            f"max |mean diff| {worst_mean:.2e}, max |var diff| {worst_var:.2e} (tol 1e-6)")


LV_POINTS = 150
LV_CONTEXT = (3, 80)
LV_MAX_TIME = 100.0
LV_MAX_EVENTS = 10000
LV_SCALE = 2.0 / 7.0


def lv_tasks_well_formed(tasks):
    """150 points, 3-80 of them context, disjoint; x in [0, 100]; y in (2/7) N."""
    problems = []
    for i, t in enumerate(tasks):
        n_ctx = len(t.context_x)
        xs = np.concatenate([t.context_x, t.target_x])
        ys = np.concatenate([t.context_y, t.target_y]) / LV_SCALE
        if n_ctx + len(t.target_x) != LV_POINTS or not LV_CONTEXT[0] <= n_ctx <= LV_CONTEXT[1]:
            problems.append(f"task {i}: {n_ctx} context of {len(xs)} points")
        if np.intersect1d(t.context_x, t.target_x).size:
            problems.append(f"task {i}: context and target share inputs")
        if xs.min() < 0.0 or xs.max() > LV_MAX_TIME:
            problems.append(f"task {i}: inputs outside [0, 100]")
        if ys.shape[1] != 2 or ys.min() < 0 or np.max(np.abs(ys - np.round(ys))) > 1e-9:
            problems.append(f"task {i}: outputs not non-negative multiples of 2/7")
    return ("lv_tasks_well_formed", not problems,
            "; ".join(problems[:3]) or f"{len(tasks)} tasks")


def lv_trajectories_valid(seeds, tasks, make_rng, simulate, to_task, rejected_error):
    """Re-run the sampler's attempts for each seed and check every trajectory.

    Each event moves exactly one population by one and times strictly
    increase; a trajectory is rejected exactly when the filters, recomputed
    here, say so; the first accepted attempt reproduces the sampled task.
    """
    problems, n_traj = [], 0
    for seed, task in zip(seeds, tasks):
        for attempt in range(1000):
            rng = make_rng(seed, attempt)
            traj = simulate(rng=rng)
            n_traj += 1
            # |d predators| + |d prey| == 1: exactly one population moves, by one
            steps = np.abs(np.diff(traj.predators)) + np.abs(np.diff(traj.prey))
            if not (np.all(steps == 1) and np.all(np.diff(traj.times) > 0)):
                problems.append(f"seed {seed} attempt {attempt}: invalid event sequence")
            n_events = len(traj.times) - 1
            should_reject = (
                traj.times[-1] - traj.times[0] > LV_MAX_TIME
                or n_events > LV_MAX_EVENTS
                or not np.any(traj.predators) or not np.any(traj.prey)
                or len(traj.times) < LV_POINTS
            )
            try:
                accepted = to_task(traj, rng=rng)
            except rejected_error:
                accepted = None
            if should_reject != (accepted is None):
                problems.append(f"seed {seed} attempt {attempt}: filter disagrees")
            if accepted is not None:
                same = all(np.array_equal(getattr(accepted, f), getattr(task, f)) for f in
                           ("context_x", "context_y", "target_x", "target_y"))
                if not same:
                    problems.append(f"seed {seed}: accepted attempt differs from the task")
                break
    return ("lv_trajectories_valid", not problems,
            "; ".join(problems[:3]) or f"{n_traj} trajectories over {len(seeds)} tasks")
