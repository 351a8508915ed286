"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL-style summary line with the measured
quantity, so the numbers survive in the captured pytest output.  The two
trained models (criterion 5) are shared with the extrapolation and sigma
criteria through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from conftest import PRIMITIVE_OPS, primitive_grad_error
from convcnp import autodiff as ad
from convcnp import models
from convcnp.cli import main as cli_main
from convcnp.embedding import embed, make_grid
from convcnp.kernels import DATA_KERNELS, EQ, gram
from convcnp.models import CNPBaseline, CnnSpec, ConvCNP, ConvCNPOnGrid, nll_loss
from convcnp.oracle import GPOracle
from convcnp.synthdata import (
    LV_RATES,
    ProcessSpec,
    Task,
    gillespie_lv,
    gp_sample,
    lv_to_task,
    make_rng,
    RejectedTrajectory,
    LVTrajectory,
    sample_task,
)
from convcnp.training import TrainConfig, derive_seed, evaluate, train

EQ_PROCESS = ProcessSpec("eq")
DESK = TrainConfig.desk_scale(seed=0)


def report(name, detail):
    print(f"[acceptance] {name}: {detail}")


@pytest.fixture(scope="module")
def eval_tasks():
    return [sample_task(EQ_PROCESS, derive_seed(0, 3, i)) for i in range(500)]


@pytest.fixture(scope="module")
def trained_convcnp():
    model = ConvCNP(gamma=32.0, init_seed=0)
    t0 = time.perf_counter()
    log, _, _ = train(model, DESK, EQ_PROCESS)
    return model, log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_cnp():
    """CNP trained with the budget identical to the ConvCNP's (criterion 5)."""
    model = CNPBaseline(init_seed=0)
    log, _, _ = train(model, DESK, EQ_PROCESS)
    return model, log


@pytest.fixture(scope="module")
def converged_cnp():
    """CNP trained long enough to actually learn in-range structure.

    The out-of-range collapse (criterion 6) only shows once the baseline
    has something to lose: at the desk-scale budget it still predicts
    nearly the prior everywhere, so shifting the inputs costs it little.
    """
    model = CNPBaseline(init_seed=0)
    cfg = TrainConfig(
        epochs=60, batches_per_epoch=64, batch_size=8, lr=1e-3, seed=0,
        early_stop_patience=60, n_val_tasks=32,
    )
    train(model, cfg, EQ_PROCESS)
    return model


class TestCriterion1Gradients:
    def test_primitives_and_full_model(self):
        t0 = time.perf_counter()
        worst_op, worst = None, 0.0
        for op in PRIMITIVE_OPS:
            err = primitive_grad_error(op, seed=0, step=1e-5)
            if err > worst:
                worst_op, worst = op, err
            assert err < 1e-4, f"primitive {op}: {err:.3e}"

        model = ConvCNP(gamma=8.0, cnn=CnnSpec(channels=(4, 4, 2)), init_seed=0)
        rng = np.random.default_rng(1)
        for name, p in model.params.items():
            # biases off the ReLU kink: far from context the conv inputs
            # vanish, so a zero bias sits exactly at the kink under FD
            if name.endswith(".bias"):
                p.value += 0.1 * rng.standard_normal(p.value.shape) + 0.05
        task = sample_task(ProcessSpec("eq", n_context=(3, 3), n_target=(2, 2)), 0)

        def builder(leaves):
            return nll_loss(model.forward(task, leaves=leaves), task.target_y)

        full = ad.grad_check(builder, model.params, step=1e-5)
        elapsed = time.perf_counter() - t0
        report(
            "criterion 1",
            f"worst primitive {worst_op}={worst:.2e}, full model {full:.2e}, "
            f"{elapsed:.1f}s",
        )
        assert full < 1e-4
        assert elapsed < 30.0


class TestCriterion2PermutationInvariance:
    def test_200_tasks_exact(self):
        model = ConvCNP(gamma=32.0, init_seed=0)
        rng = np.random.default_rng(0)
        for i in range(200):
            task = sample_task(EQ_PROCESS, derive_seed(1, 0, i))
            base = model.forward(task)
            perm = rng.permutation(len(task.context_x))
            shuffled = Task(
                task.context_x[perm], task.context_y[perm],
                task.target_x, task.target_y,
            )
            pred = model.forward(shuffled)
            assert np.array_equal(pred.mean, base.mean)
            assert np.array_equal(pred.std, base.std)
        report("criterion 2", "200/200 tasks bit-identical under context shuffles")


class TestCriterion3TranslationEquivariance:
    def test_grid_multiples_and_monotone_offgrid(self):
        gamma = 32.0
        model = ConvCNP(gamma=gamma, init_seed=0)
        worst = 0.0
        for i in range(5):
            task = sample_task(EQ_PROCESS, derive_seed(2, 0, i))
            base = model.forward(task)
            for steps in (1, 2, 4):
                moved = model.forward(task.translated(steps / gamma))
                worst = max(
                    worst,
                    np.abs(moved.mean - base.mean).max(),
                    np.abs(moved.std - base.std).max(),
                )
        assert worst < 1e-10

        task = sample_task(EQ_PROCESS, derive_seed(2, 1, 0))
        tau = 0.4 + 1.0 / 7.0  # off-grid for every tested density
        devs = []
        for g in (16.0, 32.0, 64.0):
            m = ConvCNP(gamma=g, init_seed=0)
            base = m.forward(task)
            moved = m.forward(task.translated(tau))
            devs.append(
                max(
                    np.abs(moved.mean - base.mean).max(),
                    np.abs(moved.std - base.std).max(),
                )
            )
        report(
            "criterion 3",
            f"grid-multiple deviation {worst:.2e}; off-grid deviations "
            f"{devs[0]:.2e} > {devs[1]:.2e} > {devs[2]:.2e}",
        )
        assert devs[0] > devs[1] > devs[2]


class TestCriterion4OnGridEquivariance:
    def test_circular_shift_2d(self):
        model = ConvCNPOnGrid(channels=1, ndim=2, init_seed=0)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(5):
            image = rng.normal(size=(1, 12, 12))
            mask = (rng.random((12, 12)) < 0.3).astype(float)
            target = 1.0 - mask
            base = model.forward(image, mask, target)
            s1, s2 = rng.integers(1, 12, size=2)
            shifted = model.forward(
                np.roll(image, (s1, s2), axis=(1, 2)),
                np.roll(mask, (s1, s2), axis=(0, 1)),
                np.roll(target, (s1, s2), axis=(0, 1)),
            )
            worst = max(
                worst,
                np.abs(
                    shifted.mean - np.roll(base.mean, (s1, s2), axis=(1, 2))
                ).max(),
                np.abs(
                    shifted.std - np.roll(base.std, (s1, s2), axis=(1, 2))
                ).max(),
            )
        report("criterion 4", f"max circular-shift deviation {worst:.2e}")
        assert worst < 1e-10


class TestCriterion5DeskScaleTraining:
    def test_trend(self, trained_convcnp, trained_cnp, eval_tasks):
        model, log, elapsed = trained_convcnp
        cnp, _ = trained_cnp

        untrained_ll = evaluate(ConvCNP(gamma=32.0, init_seed=0), eval_tasks).mean_ll
        trained_ll = evaluate(model, eval_tasks).mean_ll
        cnp_ll = evaluate(cnp, eval_tasks).mean_ll
        oracle_ll = evaluate(GPOracle(EQ()), eval_tasks).mean_ll

        report(
            "criterion 5",
            f"untrained {untrained_ll:.3f} -> trained {trained_ll:.3f} "
            f"(oracle {oracle_ll:.3f}, cnp {cnp_ll:.3f}) in {elapsed:.0f}s",
        )
        assert trained_ll - untrained_ll >= 0.5
        assert trained_ll <= oracle_ll + 0.1
        assert trained_ll > cnp_ll
        assert elapsed < 15 * 60


class TestCriterion6Extrapolation:
    def test_shifted_range(self, trained_convcnp, converged_cnp, eval_tasks):
        model, _, _ = trained_convcnp
        cnp = converged_cnp
        tasks = eval_tasks[:200]
        shifted = [t.translated(4.0) for t in tasks]

        conv_delta = (
            evaluate(model, shifted).mean_ll - evaluate(model, tasks).mean_ll
        )
        cnp_delta = evaluate(cnp, shifted).mean_ll - evaluate(cnp, tasks).mean_ll
        report(
            "criterion 6",
            f"convcnp delta {conv_delta:+.4f}, cnp delta {cnp_delta:+.2f}",
        )
        assert abs(conv_delta) <= 0.1
        assert cnp_delta < -0.5


class TestCriterion7GPSamplerFidelity:
    @pytest.mark.parametrize("kind", sorted(DATA_KERNELS))
    def test_covariance(self, kind):
        kernel = DATA_KERNELS[kind]
        probes = np.array([-1.5, -0.4, 0.0, 0.7, 1.8])
        draws = np.stack(
            [gp_sample(kernel, probes, rng=make_rng(s)) for s in range(10000)]
        )
        emp = draws.T @ draws / len(draws)
        expected = gram(kernel, probes)
        stderr = np.sqrt(
            (np.outer(np.diag(expected), np.diag(expected)) + expected**2)
            / len(draws)
        )
        sigmas = np.abs(emp - expected) / stderr
        report("criterion 7", f"{kind}: max |z| {sigmas.max():.2f} (limit 3)")
        assert np.all(sigmas <= 3)


class TestCriterion8Gillespie:
    def test_rate_arithmetic(self):
        # R(50,100) read off the simulator: its first holding time is -log(u) / R.
        tr = gillespie_lv(x0=50, y0=100, max_events=1, max_time=np.inf, rng=make_rng(0))
        total = -np.log(make_rng(0).random()) / tr.times[1]
        report("criterion 8a", f"R(50,100) = {total}")
        assert total == pytest.approx(225.0)

    def test_first_event_time_uses_total_rate(self):
        # The simulator's first holding time is -log(u) / R(x0, y0) to the
        # bit, with R summed as the reference loop sums it.
        def lv_total_rate(theta, x, y):
            t1, t2, t3, t4 = theta
            xy = x * y
            return t1 * xy + t2 * x + t3 * y + t4 * xy

        for k, (x0, y0) in enumerate([(50, 100), (1, 0), (0, 7), (7, 17), (9, 9), (250, 13)]):
            tr = gillespie_lv(x0=x0, y0=y0, max_events=1, max_time=np.inf, rng=make_rng(k))
            u = make_rng(k).random()
            assert tr.times[1] == -np.log(u) / lv_total_rate(LV_RATES, x0, y0)
        report("criterion 8a", "first event times equal -log(u)/R(x0,y0) exactly")

    def test_pure_death_mean(self):
        theta2, t_probe = 0.5, 2.0
        finals = []
        for seed in range(1000):
            tr = gillespie_lv(
                theta=(0.0, theta2, 1.0, 0.0), x0=100, y0=0,
                rng=make_rng(seed), max_time=10.0,
            )
            i = np.searchsorted(tr.times, t_probe, side="right") - 1
            finals.append(tr.predators[i])
        expected = 100 * np.exp(-theta2 * t_probe)
        observed = float(np.mean(finals))
        report(
            "criterion 8b",
            f"pure-death mean {observed:.2f} vs analytic {expected:.2f}",
        )
        assert observed == pytest.approx(expected, rel=0.10)

    def test_rejection_filters(self):
        times = np.linspace(0, 50, 300)
        rng = np.random.default_rng(0)
        ok = LVTrajectory(
            times=times,
            predators=rng.integers(1, 100, size=300),
            prey=rng.integers(1, 100, size=300),
        )
        with pytest.raises(RejectedTrajectory):
            lv_to_task(
                LVTrajectory(times * 2.5, ok.predators, ok.prey), rng=make_rng(0)
            )  # > 100 time units
        long = LVTrajectory(
            np.linspace(0, 50, 10002),
            np.ones(10002, int),
            np.ones(10002, int),
        )
        with pytest.raises(RejectedTrajectory):
            lv_to_task(long, rng=make_rng(0))  # > 10000 events
        dead = LVTrajectory(times, ok.predators, np.zeros(300, int))
        with pytest.raises(RejectedTrajectory):
            lv_to_task(dead, rng=make_rng(0))  # zero-population channel
        report("criterion 8c", "all three rejection filters enforced")


class TestCriterion9Injectivity:
    def test_1000_distinct_pairs(self):
        rng = np.random.default_rng(4)
        grid = make_grid([-2.0], [2.0], gamma=64.0)
        log_l = np.asarray(np.log(2.0 / 64.0))
        smallest = np.inf
        for _ in range(1000):
            xa, ya = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            xb, yb = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            ea, _ = embed(xa, ya, grid, log_l)
            eb, _ = embed(xb, yb, grid, log_l)
            smallest = min(smallest, np.abs(ea - eb).max())
        report("criterion 9", f"smallest sup-norm gap over 1000 pairs {smallest:.2e}")
        assert smallest > 1e-6


class TestCriterion10SigmaPositivity:
    def test_sigma_floor_and_positivity(self, trained_convcnp, eval_tasks, monkeypatch):
        model, _, _ = trained_convcnp
        floored_min = min(
            model.forward(t).std.min() for t in eval_tasks[:100]
        )
        monkeypatch.setattr(models, "_floor", lambda raw: raw)
        unfloored = ConvCNP(gamma=32.0, init_seed=0)
        rng = np.random.default_rng(5)
        unfloored_min = np.inf
        for i in range(20):
            for name, p in unfloored.params.items():
                p.value += 0.2 * rng.standard_normal(p.value.shape)
            task = sample_task(EQ_PROCESS, derive_seed(5, 0, i))
            unfloored_min = min(unfloored_min, unfloored.forward(task).std.min())
        report(
            "criterion 10",
            f"min sigma floored {floored_min:.4f} (>= 0.01), "
            f"unfloored {unfloored_min:.2e} (> 0)",
        )
        assert floored_min >= 0.01
        assert unfloored_min > 0


class TestCriterion11Reproducibility:
    def test_cli_rerun_bit_identical(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "process": {"kind": "eq", "n_context": [3, 6], "n_target": [3, 6]},
            "model": {"variant": "convcnp-small", "gamma": 8.0},
            "train": {
                "epochs": 1, "batches_per_epoch": 2, "batch_size": 2,
                "n_val_tasks": 4,
            },
            "eval": {"n_tasks": 4},
        }))
        blobs = {}
        for rep in ("r1", "r2"):
            out = tmp_path / rep
            assert cli_main([
                "generate-data", "--config", str(config),
                "--out", str(out / "data"), "--tasks", "5", "--seed", "11",
            ]) == 0
            assert cli_main([
                "train", "--config", str(config),
                "--out", str(out / "run"), "--seed", "11",
            ]) == 0
            assert cli_main([
                "evaluate", "--config", str(config), "--out", str(out / "eval"),
                "--checkpoint", str(out / "run" / "best.json"),
                "--tasks", "4", "--seed", "11",
            ]) == 0
            blobs[rep] = {
                "tasks": (out / "data" / "tasks.jsonl").read_bytes(),
                "manifest": (out / "data" / "manifest.json").read_bytes(),
                "best": (out / "run" / "best.json").read_bytes(),
                "eval": (out / "eval" / "eval.csv").read_bytes(),
            }
        for key in blobs["r1"]:
            assert blobs["r1"][key] == blobs["r2"][key], key
        report("criterion 11", "data, checkpoint, and metrics bit-identical on rerun")
