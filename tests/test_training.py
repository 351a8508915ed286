from dataclasses import replace

import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp import training
from convcnp.models import CNPBaseline, CnnSpec, ConvCNP
from convcnp.synthdata import ProcessSpec, sample_task
from convcnp.training import (
    EvalSummary,
    TrainConfig,
    derive_seed,
    evaluate,
    train,
)


def tiny_model(seed=0):
    return ConvCNP(gamma=8.0, cnn=CnnSpec(channels=(4, 4, 2)), init_seed=seed)


def tiny_config(**kwargs):
    defaults = dict(
        epochs=2, batches_per_epoch=2, batch_size=2, n_val_tasks=4, seed=0
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


PROCESS = ProcessSpec("eq", n_context=(3, 8), n_target=(3, 8))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_for_distinct_parts(self):
        seeds = {derive_seed(0, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_fits_in_signed_64_bits(self):
        for k in range(100):
            assert 0 <= derive_seed(7, k) < 2**63


class TestTrainConfig:
    def test_full_scale_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batches_per_epoch, cfg.batch_size) == (200, 256, 16)
        assert cfg.lr == pytest.approx(3e-4)
        assert cfg.weight_decay == pytest.approx(1e-5)

    def test_desk_scale_preset(self):
        cfg = TrainConfig.desk_scale(seed=3)
        assert (cfg.epochs, cfg.batches_per_epoch, cfg.batch_size) == (20, 64, 4)
        assert cfg.seed == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"batch_size": -1},
            {"lr": 0.0},
            {"weight_decay": -1e-6},
            {"n_val_tasks": 0},
            {"epochs": 1.5},
            {"batch_size": True},
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


class TestEvaluate:
    def _tasks(self, n=8):
        return [sample_task(PROCESS, s) for s in range(n)]

    def test_summary_shape(self):
        summary = evaluate(tiny_model(), self._tasks())
        assert isinstance(summary, EvalSummary)
        assert summary.n_tasks == 8
        assert len(summary.per_task_ll) == 8
        assert np.isfinite(summary.mean_ll)
        assert summary.mse >= 0 and summary.stderr_mse >= 0

    def test_mean_matches_per_task_arrays(self):
        summary = evaluate(tiny_model(), self._tasks())
        assert summary.mean_ll == pytest.approx(summary.per_task_ll.mean())
        assert summary.mse == pytest.approx(summary.per_task_mse.mean())

    def test_stderr_formula(self):
        summary = evaluate(tiny_model(), self._tasks())
        expected = summary.per_task_ll.std(ddof=1) / np.sqrt(summary.n_tasks)
        assert summary.stderr_ll == pytest.approx(expected)

    def test_deterministic(self):
        tasks = self._tasks()
        a, b = evaluate(tiny_model(), tasks), evaluate(tiny_model(), tasks)
        assert a.mean_ll == b.mean_ll and a.mse == b.mse

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate(tiny_model(), [])

    def test_a_task_it_cannot_score_is_named(self):
        # in the second chunk of eight: the index counts across chunks
        tasks = [sample_task(PROCESS, s) for s in range(100, 112)]
        tasks[10] = replace(tasks[10], target_y=np.full_like(tasks[10].target_y, 1e200))
        with np.errstate(over="ignore"), pytest.raises(
            ad.DiffError, match=r"evaluate: task 10 \(seed 110\): non-finite log density"
        ):
            evaluate(tiny_model(), tasks)


class TestTrain:
    def test_run_produces_log_and_states(self):
        model = tiny_model()
        log, best, last = train(model, tiny_config(), PROCESS)
        assert len(log.records) == 2
        for r in log.records:
            assert np.isfinite(r.train_nll) and np.isfinite(r.val_ll)
            assert r.seconds > 0 and r.param_norm > 0
        assert set(best) == set(last) == set(model.params.state_dict())

    def test_deterministic_given_seed(self):
        logs = []
        finals = []
        for _ in range(2):
            model = tiny_model()
            log, best, _ = train(model, tiny_config(seed=5), PROCESS)
            logs.append(log.to_rows())
            finals.append(best)
        for (e1, t1, v1, _, p1), (e2, t2, v2, _, p2) in zip(*logs):
            assert (e1, t1, v1, p1) == (e2, t2, v2, p2)
        for name in finals[0]:
            np.testing.assert_array_equal(finals[0][name], finals[1][name])

    def test_seed_changes_trajectory(self):
        a = train(tiny_model(), tiny_config(seed=0), PROCESS)[0]
        b = train(tiny_model(), tiny_config(seed=1), PROCESS)[0]
        assert a.to_rows() != b.to_rows()

    def test_parameters_change(self):
        model = tiny_model()
        before = {n: p.value.copy() for n, p in model.params.items()}
        train(model, tiny_config(), PROCESS)
        changed = any(
            not np.array_equal(before[n], p.value) for n, p in model.params.items()
        )
        assert changed

    def test_model_holds_best_validation_parameters(self):
        model = tiny_model()
        _, best, _ = train(model, tiny_config(epochs=3), PROCESS)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, best[name])

    def test_early_stopping_truncates(self):
        # patience one: the run stops at the first non-improving epoch, well
        # before the configured horizon
        model = tiny_model()
        cfg = tiny_config(epochs=50, early_stop_patience=1, lr=0.5)
        log, _, _ = train(model, cfg, PROCESS)
        assert len(log.records) < 50

    def test_training_improves_validation_ll(self):
        # a short but real run on EQ data must beat the untrained model
        model = tiny_model()
        cfg = TrainConfig(
            epochs=4, batches_per_epoch=16, batch_size=4, lr=3e-3, seed=0,
            n_val_tasks=32,
        )
        val_tasks = [
            sample_task(PROCESS, derive_seed(cfg.seed, 2, i))
            for i in range(cfg.n_val_tasks)
        ]
        before = evaluate(model, val_tasks).mean_ll
        log, _, _ = train(model, cfg, PROCESS)
        assert log.best_val_ll > before

    def test_works_for_cnp_baseline(self):
        class TinyCNP(CNPBaseline):
            HIDDEN = 8

        log, _, _ = train(TinyCNP(), tiny_config(), PROCESS)
        assert len(log.records) == 2

    def test_non_finite_loss_names_the_failing_task_of_a_batch(self, monkeypatch):
        config = tiny_config(batch_size=3)
        bad_seed = derive_seed(config.seed, 1, 4)  # the second task of batch 2

        def sample(process, seed):
            task = sample_task(process, seed)
            if seed == bad_seed:
                task.target_y = np.full_like(task.target_y, 1e300)
            return task

        monkeypatch.setattr(training, "sample_task", sample)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as err:
            train(tiny_model(), config, PROCESS)
        message = str(err.value)
        assert f"task seed {bad_seed}:" in message and "epoch 0" in message
