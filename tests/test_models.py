import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp.embedding import make_grid
from convcnp.models import (
    KERNEL_SIZE,
    CNPBaseline,
    CnnSpec,
    ConvCNP,
    ConvCNPOnGrid,
    GridPredictive,
    Predictive,
    batch_nll,
    grid_nll_loss,
    nll_loss,
    task_log_densities,
)
from convcnp.synthdata import ProcessSpec, Task, sample_task


def tiny_task(seed=0, n_ctx=3, n_tgt=2):
    return sample_task(ProcessSpec("eq", n_context=(n_ctx, n_ctx), n_target=(n_tgt, n_tgt)), seed)


def small_model(**kwargs):
    defaults = dict(gamma=16.0, cnn=CnnSpec(channels=(4, 4, 2)), init_seed=0)
    defaults.update(kwargs)
    return ConvCNP(**defaults)


class TestCnnSpec:
    def test_small_shape(self):
        spec = CnnSpec.small(dim_y=1)
        assert spec.channels == (16, 32, 16, 2)
        assert KERNEL_SIZE == 5 and not spec.skips

    def test_xl_shape(self):
        spec = CnnSpec.xl(dim_y=1)
        assert spec.n_layers == 12
        assert spec.channels[:6] == (8, 16, 32, 64, 128, 256)
        assert spec.channels[6:] == (128, 64, 32, 16, 8, 2)
        assert spec.skips == {8: (5, 7), 9: (4, 8), 10: (3, 9), 11: (2, 10), 12: (1, 11)}

    def test_receptive_field(self):
        assert CnnSpec.small().receptive_field_steps() == 8


class TestConvCNPForward:
    def test_sigma_positive_for_random_parameter_settings(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = small_model(init_seed=seed)
            for name, p in model.params.items():
                p.value += 0.3 * rng.normal(size=p.value.shape)
            task = tiny_task(seed, n_ctx=5, n_tgt=7)
            assert np.all(model.forward(task).std > 0)

    def test_sigma_floor(self):
        model = small_model()
        for seed in range(5):
            pred = model.forward(tiny_task(seed, n_ctx=4, n_tgt=6))
            assert np.all(pred.std >= 0.01)

    def test_forward_deterministic(self):
        model = small_model()
        task = tiny_task(1, n_ctx=6, n_tgt=4)
        a, b = model.forward(task), model.forward(task)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)

    def test_permutation_invariance_exact(self):
        model = small_model()
        rng = np.random.default_rng(2)
        task = tiny_task(3, n_ctx=10, n_tgt=5)
        base = model.forward(task)
        for _ in range(5):
            perm = rng.permutation(len(task.context_x))
            shuffled = Task(
                context_x=task.context_x[perm],
                context_y=task.context_y[perm],
                target_x=task.target_x,
                target_y=task.target_y,
            )
            pred = model.forward(shuffled)
            assert np.array_equal(pred.mean, base.mean)
            assert np.array_equal(pred.std, base.std)

    def test_translation_by_grid_multiples(self):
        gamma = 32.0
        model = small_model(gamma=gamma)
        task = tiny_task(4, n_ctx=8, n_tgt=6)
        base = model.forward(task)
        for steps in (1, 2, 4):
            moved = model.forward(task.translated(steps / gamma))
            np.testing.assert_allclose(moved.mean, base.mean, atol=1e-10)
            np.testing.assert_allclose(moved.std, base.std, atol=1e-10)

    def test_arbitrary_translation_deviation_shrinks_with_density(self):
        task = tiny_task(5, n_ctx=8, n_tgt=6)
        tau = 0.4 + 1 / 7  # deliberately off-grid for every gamma
        devs = []
        for gamma in (16.0, 32.0, 64.0):
            model = ConvCNP(gamma=gamma, init_seed=0)
            base = model.forward(task)
            moved = model.forward(task.translated(tau))
            devs.append(
                max(
                    np.abs(moved.mean - base.mean).max(),
                    np.abs(moved.std - base.std).max(),
                )
            )
        assert devs[0] > devs[1] > devs[2]

    def test_empty_target_gives_empty_distribution(self):
        model = small_model()
        task = tiny_task(6, n_ctx=4, n_tgt=2)
        empty = Task(task.context_x, task.context_y, np.zeros(0), np.zeros((0, 1)))
        pred = model.forward(empty)
        assert pred.mean.shape == (0, 1)

    def test_empty_context_flows_through(self):
        model = small_model()
        task = tiny_task(7, n_ctx=3, n_tgt=5)
        no_ctx = Task(np.zeros(0), np.zeros((0, 1)), task.target_x, task.target_y)
        pred = model.forward(no_ctx)
        assert np.all(np.isfinite(pred.mean)) and np.all(pred.std > 0)

    def test_small_parameter_count_regression(self):
        # conv stack 5,506 + two log length scales, per our documented accounting
        assert ConvCNP(dim_y=1).params.n_parameters() == 5508

    def test_xl_forward_runs(self):
        model = ConvCNP(gamma=8.0, cnn=CnnSpec.xl(dim_y=1))
        pred = model.forward(tiny_task(8, n_ctx=4, n_tgt=3))
        assert pred.mean.shape == (3, 1)
        assert np.all(pred.std > 0)

    def test_multioutput_forward(self):
        model = ConvCNP(dim_y=2, gamma=4.0, cnn=CnnSpec(channels=(4, 4)))
        task = sample_task(ProcessSpec("lotka-volterra"), 0)
        pred = model.forward(task)
        assert pred.mean.shape == (len(task.target_x), 2)
        assert np.all(pred.std > 0)


class TestGradients:
    def test_full_convcnp_nll_gradient(self):
        model = small_model(gamma=8.0)
        # move zero-initialized biases off the ReLU kink: in grid regions far
        # from context the pre-activations equal the bias, and a bias of
        # exactly zero makes the finite-difference step straddle the kink
        rng = np.random.default_rng(99)
        for name, p in model.params.items():
            if name.endswith(".bias"):
                p.value += 0.1 * rng.standard_normal(p.value.shape) + 0.05
        task = tiny_task(9)

        def builder(leaves):
            return nll_loss(model.forward(task, leaves=leaves), task.target_y)

        assert ad.grad_check(builder, model.params, step=1e-5) < 1e-4

    def test_cnp_nll_gradient(self):
        # shrink the hidden width so the finite-difference sweep stays fast
        class TinyCNP(CNPBaseline):
            HIDDEN = 4

        model = TinyCNP(init_seed=0)
        task = tiny_task(10)

        def builder(leaves):
            return nll_loss(model.forward(task, leaves=leaves), task.target_y)

        assert ad.grad_check(builder, model.params, step=1e-5) < 1e-4


def one_task(mu, sigma):
    """A one-task prediction over (dim_y, M) arrays."""
    return Predictive(ad.constant(np.concatenate([mu, sigma])), (0, np.shape(mu)[1]))


def test_predictions_are_views_of_one_node():
    """A batch's ``mu`` and ``sigma`` are the halves of its node's rows, and ``mean``
    and ``std`` their transposes; on a grid, ``mean`` and ``std`` are the halves."""
    out = ad.constant(np.arange(12.0).reshape(4, 3))
    pred = Predictive(out, (0, 1, 3))
    half = out.value[:2], out.value[2:]
    grid_out = ad.constant(np.arange(24.0).reshape(4, 2, 3))
    grid = GridPredictive(grid_out, np.ones((2, 3)))
    for view, base, want in [
        (pred.mu, out, half[0]), (pred.sigma, out, half[1]),
        (pred.mean, out, half[0].T), (pred.std, out, half[1].T),
        (grid.mean, grid_out, grid_out.value[:2]), (grid.std, grid_out, grid_out.value[2:]),
    ]:
        assert np.shares_memory(view, base.value) and np.array_equal(view, want)


class TestNLL:
    def test_perfect_prediction_unit_sigma(self):
        pred = one_task(np.array([[1.0, -2.0]]), np.ones((1, 2)))
        loss = nll_loss(pred, np.array([[1.0], [-2.0]]))
        assert float(loss.value) == pytest.approx(0.9189385332046727)

    def test_doubling_sigma_adds_log_two(self):
        y = np.array([[0.5], [1.5], [-0.3]])
        one = nll_loss(one_task(y.T, np.ones((1, 3))), y)
        two = nll_loss(one_task(y.T, 2 * np.ones((1, 3))), y)
        assert float(two.value) - float(one.value) == pytest.approx(np.log(2.0))

    def test_empty_targets_rejected(self):
        pred = one_task(np.zeros((1, 0)), np.zeros((1, 0)))
        with pytest.raises(ad.DiffError):
            nll_loss(pred, np.zeros((0, 1)))

    def test_task_log_densities_match_nll(self):
        model = small_model()
        task = tiny_task(11, n_ctx=4, n_tgt=5)
        pred = model.forward(task)
        [(rows, lp)] = task_log_densities(pred, [task.target_y])
        np.testing.assert_array_equal(rows, task.target_y.T)
        assert lp.shape == pred.mu.shape
        assert float(lp.mean()) == -float(nll_loss(pred, task.target_y).value)

    def test_task_log_densities_reject_what_nll_rejects(self):
        ones = np.ones((1, 3))
        cases = [
            (one_task(0 * ones, 0 * ones), np.ones(3), "sigma must be positive"),
            (one_task(0 * ones, ones), np.ones((3, 2)), "do not fit"),
            (one_task(np.zeros((1, 0)), np.zeros((1, 0))), np.zeros(0), "empty"),
        ]
        for p, y, message in cases:
            for score in (lambda p, y: task_log_densities(p, [y]), nll_loss):
                with pytest.raises(ad.DiffError, match=message):
                    score(p, y)
        with pytest.raises(ad.DiffError, match="empty batch"):
            task_log_densities(Predictive(ad.constant(np.zeros((2, 0))), (0,)), [])

    def test_an_overflowing_density_is_left_to_its_caller(self):
        # the loss node names itself; evaluate checks the log likelihood it reads
        ones = np.ones((1, 3))
        pred = one_task(0 * ones, 1e-200 * ones)
        with np.errstate(over="ignore"):
            [(_, lp)] = task_log_densities(pred, [np.ones(3)])
            assert np.isneginf(lp).all()
            with pytest.raises(ad.DiffError, match="op 'batch_nll' produced non-finite"):
                nll_loss(pred, np.ones(3))

    def test_task_log_densities_read_each_tasks_columns(self):
        rng = np.random.default_rng(12)
        mu, sigma = rng.normal(size=(2, 7)), rng.uniform(0.5, 2.0, size=(2, 7))
        pred = Predictive(ad.constant(np.concatenate([mu, sigma])), (0, 3, 7))
        ys = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
        scored = task_log_densities(pred, ys)
        for k, (y, cols) in enumerate(zip(ys, (slice(0, 3), slice(3, 7)))):
            alone = one_task(mu[:, cols].copy(), sigma[:, cols].copy())
            [(rows, lp)] = task_log_densities(alone, [y])
            np.testing.assert_array_equal(rows, y.T)
            np.testing.assert_array_equal(scored[k][0], rows)
            np.testing.assert_array_equal(scored[k][1], lp)
            np.testing.assert_array_equal(pred.mean[pred.task(k)], alone.mean)
        assert len(pred) == 2
        with pytest.raises(ad.DiffError, match="do not fit"):
            task_log_densities(pred, ys[::-1])


class TestCNPBaseline:
    def test_sigma_floor_always(self):
        model = CNPBaseline(init_seed=1)
        for seed in range(5):
            pred = model.forward(tiny_task(seed, n_ctx=5, n_tgt=7))
            assert np.all(pred.std >= 0.01)

    def test_pooling_permutation_invariant(self):
        model = CNPBaseline(init_seed=2)
        task = tiny_task(12, n_ctx=9, n_tgt=4)
        base = model.forward(task)
        perm = np.random.default_rng(0).permutation(9)
        shuffled = Task(
            task.context_x[perm], task.context_y[perm], task.target_x, task.target_y
        )
        pred = model.forward(shuffled)
        assert np.array_equal(pred.mean, base.mean)

    def test_mean_pool_of_identical_embeddings(self):
        model = CNPBaseline(init_seed=3)
        single = Task(
            np.array([0.5]), np.array([[1.2]]), np.array([0.0, 1.0]),
            np.zeros((2, 1)),
        )
        repeated = Task(
            np.array([0.5, 0.5, 0.5]), np.array([[1.2]] * 3), single.target_x,
            single.target_y,
        )
        np.testing.assert_allclose(
            model.forward(repeated).mean, model.forward(single).mean, atol=1e-12
        )


def _summed_gradients(model, tasks, batched):
    """The mean loss's leaf gradients, from one batch or from the tasks' own losses
    summed task by task."""
    leaves = model.params.leaves()
    ys = [t.target_y for t in tasks]
    if batched:
        ad.backward(batch_nll(model.forward_many(tasks, leaves=leaves), ys))
    else:
        nodes = [nll_loss(model.forward(t, leaves=leaves), y) for t, y in zip(tasks, ys)]
        total = nodes[0]
        for extra in nodes[1:]:
            total = ad.add(total, extra)
        ad.backward(ad.mul(total, ad.constant(np.asarray(1.0 / len(tasks)))))
    return {name: leaf.grad for name, leaf in leaves.items()}


def _grid_lengths(model, tasks):
    return {make_grid(t.context_x, t.target_x, model.gamma, model.margin).n_points
            for t in tasks}


_KINDS = ("eq", "matern", "weakly-periodic", "sawtooth")


def _sixteen_tasks(kinds, seed):
    """16 tasks of ``kinds`` in turn; the second has an empty context."""
    tasks = [sample_task(ProcessSpec.default_for(kinds[k % len(kinds)]), seed + k)
             for k in range(16)]
    tasks[1] = Task(tasks[1].context_x[:0], tasks[1].context_y[:0], tasks[1].target_x,
                    tasks[1].target_y)
    return tasks


# Batch invariance is not bit-exact: a GEMM rounds a column by how many columns
# share the call, so a task's dense (and, rarely, conv) outputs move in the last
# bits with its batch-mates.  Worst relative differences measured on these cases
# with OpenBLAS at one and two threads: 4.0e-16 for the ConvCNP, 7.0e-15 for the
# CNP, and 1.4e-15 for the gradients; each bound is under 10 times its worst.
_BATCH_BOUND = {ConvCNP: 2e-15, CNPBaseline: 3e-14}
_GRAD_BOUND = 1e-14


def _assert_batch_matches(model, tasks):
    """Each task alone against the same task in batches of 4 and of 16: its ``out``
    columns and its log densities, within the model's bound times max(1, max |alone|).
    The mean loss's gradients, batched against summed task by task, agree within
    ``_GRAD_BOUND`` of each parameter's max |grad|."""
    bound = _BATCH_BOUND[type(model)]
    ys = [t.target_y for t in tasks]
    alone = []
    for task, y in zip(tasks, ys):
        pred = model.forward(task)
        alone.append((pred.out.value, task_log_densities(pred, [y])[0][1]))
    for size in (4, 16):
        for start in range(0, len(tasks), size):
            pred = model.forward_many(tasks[start : start + size])
            scored = task_log_densities(pred, ys[start : start + size])
            for k, (_, lp) in enumerate(scored):
                for a, b in zip(alone[start + k], (pred.out.value[:, pred.task(k)], lp)):
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= bound * max(1.0, np.max(np.abs(a)))
    alone_grad, batch_grad = (_summed_gradients(model, tasks, b) for b in (False, True))
    for name, g in alone_grad.items():
        assert np.max(np.abs(batch_grad[name] - g)) <= _GRAD_BOUND * np.max(np.abs(g)), name


class TestForwardMany:
    def test_convcnp_small_matches_per_task(self):
        tasks = _sixteen_tasks(_KINDS, seed=0)
        tasks[3] = tasks[0].translated(7.3)  # far away: its own grid origin
        model = ConvCNP(gamma=32.0, init_seed=1)
        assert len(_grid_lengths(model, tasks)) > 1
        _assert_batch_matches(model, tasks)

    def test_convcnp_xl_sawtooth_matches_per_task(self):
        tasks = _sixteen_tasks(("sawtooth",), seed=0)
        tasks[2] = Task(
            tasks[2].context_x * 0.5, tasks[2].context_y,
            tasks[2].target_x * 0.5, tasks[2].target_y,
        )  # a shorter grid
        model = ConvCNP(gamma=32.0, cnn=CnnSpec.xl(), init_seed=2)
        assert len(_grid_lengths(model, tasks)) > 1
        _assert_batch_matches(model, tasks)

    def test_lotka_volterra_two_outputs_with_an_empty_context(self):
        tasks = _sixteen_tasks(("lotka-volterra",), seed=0)
        model = ConvCNP(dim_y=2, gamma=32.0, cnn=CnnSpec.small(2), init_seed=3)
        pred = model.forward(tasks[1])
        assert pred.mean.shape == (len(tasks[1].target_x), 2)
        assert np.all(np.isfinite(pred.mean)) and np.all(pred.std > 0)
        _assert_batch_matches(model, tasks)

    def test_cnp_matches_per_task(self):
        _assert_batch_matches(CNPBaseline(init_seed=4), _sixteen_tasks(_KINDS, seed=0))

    def test_cnp_lotka_volterra_two_outputs_with_an_empty_context(self):
        tasks = _sixteen_tasks(("lotka-volterra",), seed=0)
        _assert_batch_matches(CNPBaseline(dim_y=2, init_seed=4), tasks)

    def test_cnp_empty_context_decodes_a_zero_representation(self):
        model = CNPBaseline(init_seed=5)
        task = tiny_task(13, n_ctx=4, n_tgt=6)
        no_ctx = Task(np.zeros(0), np.zeros((0, 1)), task.target_x, task.target_y)
        leaves = model.params.leaves()
        dec_in = np.vstack([task.target_x[None], np.zeros((model.HIDDEN, 6))])
        out = model._mlp("dec", ad.constant(dec_in), leaves).value
        for batch in ([no_ctx], [task, no_ctx]):
            pred = model.forward_many(batch, leaves=leaves)
            mean = pred.mean[pred.task(len(batch) - 1)]
            np.testing.assert_allclose(mean[:, 0], out[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "model", [small_model(), ConvCNP(gamma=32.0, init_seed=6), CNPBaseline(init_seed=6)],
        ids=["tiny", "small", "cnp"],
    )
    def test_forward_is_a_batch_of_one(self, model):
        task = tiny_task(14, n_ctx=7, n_tgt=5)
        a, b = model.forward(task), model.forward_many([task])
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)
        # without parameter leaves nothing takes a gradient, so no tape is kept
        assert a.out._parents == () and b.out._parents == ()

    @pytest.mark.parametrize(
        "model", [ConvCNP(gamma=32.0, init_seed=7), CNPBaseline(init_seed=7)],
        ids=["convcnp", "cnp"],
    )
    def test_context_permutation_inside_a_batch_is_bit_exact(self, model):
        tasks = [tiny_task(seed, n_ctx=9, n_tgt=4) for seed in (15, 16, 17)]
        base = model.forward_many(tasks)
        assert base.out._parents == ()
        rng = np.random.default_rng(8)
        for _ in range(3):
            shuffled = []
            for t in tasks:
                perm = rng.permutation(len(t.context_x))
                shuffled.append(Task(t.context_x[perm], t.context_y[perm],
                                     t.target_x, t.target_y))
            pred = model.forward_many(shuffled)
            assert np.array_equal(pred.mean, base.mean) and np.array_equal(pred.std, base.std)

    @pytest.mark.parametrize(
        "model", [ConvCNP(gamma=32.0, init_seed=7), CNPBaseline(init_seed=7)],
        ids=["convcnp", "cnp"],
    )
    def test_tied_context_inputs_permute_bit_exactly(self, model):
        # 12 context points on a 0.5 lattice over [-2, 2], so several share an x
        rng = np.random.default_rng(9)
        x = rng.integers(-4, 5, size=12) * 0.5
        task = Task(x, rng.standard_normal((12, 1)), np.linspace(-2, 2, 6), np.zeros((6, 1)))
        assert len(np.unique(x)) < 12
        base = model.forward(task)
        for _ in range(200):
            perm = rng.permutation(12)
            pred = model.forward(
                Task(x[perm], task.context_y[perm], task.target_x, task.target_y)
            )
            assert np.array_equal(pred.mean, base.mean) and np.array_equal(pred.std, base.std)


class TestOnGrid:
    def make(self, **kwargs):
        defaults = dict(
            channels=1, ndim=2, cnn=CnnSpec(channels=(4, 4)), init_seed=0,
        )
        defaults.update(kwargs)
        return ConvCNPOnGrid(**defaults)

    def test_constant_image_full_mask_normalizes_to_constant(self):
        model = self.make()
        c = 1.7
        image = np.full((1, 8, 8), c)
        mask = np.ones((8, 8))
        h = model.encode(image, mask)
        assert h._parents == ()
        np.testing.assert_allclose(h.value[1], c, rtol=1e-6)

    def test_empty_mask_gives_zero_channels(self):
        model = self.make()
        image = np.random.default_rng(1).normal(size=(1, 6, 6))
        h = model.encode(image, np.zeros((6, 6))).value
        np.testing.assert_array_equal(h, 0.0)

    def test_circular_shift_equivariance(self):
        model = self.make()
        rng = np.random.default_rng(2)
        image = rng.normal(size=(1, 8, 10))
        mask = (rng.random((8, 10)) < 0.4).astype(float)
        target = 1.0 - mask
        base = model.forward(image, mask, target)
        assert base.out._parents == ()
        s1, s2 = 3, 5
        shifted = model.forward(
            np.roll(image, (s1, s2), axis=(1, 2)),
            np.roll(mask, (s1, s2), axis=(0, 1)),
            np.roll(target, (s1, s2), axis=(0, 1)),
        )
        np.testing.assert_allclose(
            shifted.mean, np.roll(base.mean, (s1, s2), axis=(1, 2)), atol=1e-10
        )
        np.testing.assert_allclose(
            shifted.std, np.roll(base.std, (s1, s2), axis=(1, 2)), atol=1e-10
        )

    def test_one_dimensional_grid(self):
        model = self.make(ndim=1)
        rng = np.random.default_rng(3)
        image = rng.normal(size=(1, 16))
        mask = (rng.random(16) < 0.5).astype(float)
        pred = model.forward(image, mask, 1.0 - mask)
        assert pred.mean.shape == (1, 16)
        assert np.all(pred.std > 0)

    def test_non_binary_mask_rejected(self):
        model = self.make()
        image = np.zeros((1, 4, 4))
        bad = np.full((4, 4), 0.5)
        with pytest.raises(ValueError, match="binary"):
            model.forward(image, bad, np.ones((4, 4)))

    @pytest.mark.parametrize("name", ["context_mask", "target_mask"])
    def test_mask_of_wrong_shape_rejected(self, name):
        model = self.make()
        masks = {"context_mask": np.ones((4, 4)), "target_mask": np.ones((4, 4))}
        masks[name] = np.ones((4, 5))
        with pytest.raises(ValueError, match=f"{name} \\(4, 5\\) must match"):
            model.forward(np.zeros((1, 4, 4)), **masks)

    def test_grid_nll_and_gradient(self):
        # the model as it runs: 5-tap smoothing, depthwise plus pointwise
        # convs and circular padding everywhere, here on a tiny CNN
        rng = np.random.default_rng(5)
        for ndim, shape in ((1, (9,)), (2, (6, 7))):
            model = self.make(ndim=ndim, cnn=CnnSpec(channels=(2,)), init_seed=4)
            params = dict(model.params.items())
            assert params["encoder.weight"].value.shape == (1, 1) + (5,) * ndim
            assert params["cnn.l1.dw"].value.shape == (2, 1) + (5,) * ndim
            assert params["cnn.l1.pw"].value.shape == (2, 2) + (1,) * ndim
            image = rng.normal(size=(1,) + shape)
            mask = (rng.random(shape) < 0.4).astype(float)
            mask.flat[:2] = (1.0, 0.0)

            def builder(leaves):
                pred = model.forward(image, mask, 1.0 - mask, leaves=leaves)
                return grid_nll_loss(pred, image)

            assert ad.grad_check(builder, model.params, step=1e-5) < 1e-4, ndim

    def test_positive_smoothing_filter(self):
        model = self.make()
        # the encoder uses |w|, so flipping signs must not change the output
        image = np.random.default_rng(6).normal(size=(1, 6, 6))
        mask = np.ones((6, 6))
        base = model.encode(image, mask).value
        dict(model.params.items())["encoder.weight"].value *= -1.0
        np.testing.assert_array_equal(model.encode(image, mask).value, base)
