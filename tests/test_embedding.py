import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp.embedding import (
    DENSITY_EPS,
    divide_by_density,
    embed,
    make_grid,
)
from reference_tape import reduce_sum


def log_l(value=0.03125):
    return ad.constant(np.asarray(np.log(value)))


class TestMakeGrid:
    def test_unit_span_density_four(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_standard_range_at_density_64(self):
        grid = make_grid([-2.0], [2.0], gamma=64.0)
        assert grid.n_points == 257
        assert grid.spacing == 1.0 / 64.0

    def test_margin_extends_cover(self):
        grid = make_grid([0.0], [1.0], gamma=4.0, margin=0.5)
        assert grid.lower <= -0.5 and grid.points[-1] >= 1.5

    def test_grid_covers_all_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ctx = rng.uniform(-3, 3, size=5)
            tgt = rng.uniform(-3, 3, size=4)
            grid = make_grid(ctx, tgt, gamma=16.0)
            assert grid.lower <= min(ctx.min(), tgt.min())
            assert grid.points[-1] >= max(ctx.max(), tgt.max())

    def test_translation_by_spacing_multiple_shifts_points_exactly(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-2, 2, size=6)
        grid = make_grid(xs[:3], xs[3:], gamma=32.0)
        tau = 5.0 / 32.0
        shifted = make_grid(xs[:3] + tau, xs[3:] + tau, gamma=32.0)
        assert shifted.n_points == grid.n_points
        np.testing.assert_array_equal(shifted.points, grid.points + tau)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            make_grid([], [], gamma=4.0)


class TestEmbed:
    def test_single_point_at_grid_node(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embed([0.0], [2.0], grid, log_l())
        np.testing.assert_allclose(emb.value[:, 0], [1.0, 2.0])

    def test_two_outputs_give_density_then_each_output(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embed([0.0], [[2.0, -3.0]], grid, log_l())
        np.testing.assert_allclose(emb.value[:, 0], [1.0, 2.0, -3.0])

    def test_empty_context_gives_zero_embedding(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embed([], np.zeros((0, 1)), grid, log_l())
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_empty_two_output_context_keeps_every_channel(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embed([], np.zeros((0, 2)), grid, log_l())
        assert emb.value.shape == (3, grid.n_points)
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_density_channel_nonnegative(self):
        rng = np.random.default_rng(2)
        grid = make_grid([-2.0], [2.0], gamma=16.0)
        for _ in range(20):
            n = rng.integers(1, 10)
            emb = embed(rng.uniform(-2, 2, n), rng.normal(size=(n, 1)), grid, log_l())
            assert np.all(emb.value[0] >= 0)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(3)
        grid = make_grid([-2.0], [2.0], gamma=32.0)
        xs = rng.uniform(-2, 2, size=12)
        ys = rng.normal(size=(12, 1))
        base = embed(xs, ys, grid, log_l()).value
        for _ in range(10):
            perm = rng.permutation(12)
            shuffled = embed(xs[perm], ys[perm], grid, log_l()).value
            assert np.array_equal(shuffled, base)

    def test_discrete_translation_equivariance(self):
        rng = np.random.default_rng(4)
        gamma = 32.0
        xs = rng.uniform(-2, 2, size=8)
        ys = rng.normal(size=(8, 1))
        grid = make_grid(xs, xs, gamma=gamma)
        base = embed(xs, ys, grid, log_l()).value
        for steps in (1, 2, 4, 17):
            tau = steps / gamma
            shifted_grid = make_grid(xs + tau, xs + tau, gamma=gamma)
            shifted = embed(xs + tau, ys, shifted_grid, log_l()).value
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_distinct_pairs_have_distinct_embeddings(self):
        # small-sample version of the injectivity smoke test
        rng = np.random.default_rng(5)
        grid = make_grid([-2.0], [2.0], gamma=64.0)
        for _ in range(100):
            xa, ya = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            xb, yb = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            ea = embed(xa, ya, grid, log_l()).value
            eb = embed(xb, yb, grid, log_l()).value
            assert np.abs(ea - eb).max() > 1e-6

    def test_gradient_flows_to_length_scale(self):
        store = ad.ParameterStore({"log_l": np.log(0.1)})
        grid = make_grid([-1.0], [1.0], gamma=8.0)
        xs = np.array([-0.5, 0.2, 0.9])
        ys = np.array([[1.0], [-2.0], [0.5]])

        def builder(leaves):
            emb = divide_by_density(embed(xs, ys, grid, leaves["log_l"]))
            return reduce_sum(ad.mul(emb, emb))

        assert ad.grad_check(builder, store, step=1e-6) < 1e-6


class TestNormalizeDensity:
    def test_single_point_normalization(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = divide_by_density(embed([0.0], [2.0], grid, log_l()))
        assert emb.value[1, 0] == pytest.approx(2.0 / (1.0 + DENSITY_EPS))

    def test_zero_density_keeps_signal_zero(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = divide_by_density(embed([], np.zeros((0, 1)), grid, log_l()))
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_duplicated_context_doubles_density_only(self):
        rng = np.random.default_rng(6)
        grid = make_grid([-1.0], [1.0], gamma=16.0)
        xs = rng.uniform(-1, 1, size=5)
        ys = rng.normal(size=(5, 1))
        single = divide_by_density(embed(xs, ys, grid, log_l())).value
        doubled = divide_by_density(
            embed(np.tile(xs, 2), np.tile(ys, (2, 1)), grid, log_l())
        ).value
        np.testing.assert_allclose(doubled[0], 2 * single[0], rtol=1e-9)
        # away from covered grid points the eps guard dominates, so compare
        # the signal channel only where the density is non-negligible
        covered = single[0] > 1e-2
        assert covered.any()
        np.testing.assert_allclose(doubled[1][covered], single[1][covered], rtol=1e-5)

    def test_density_channel_preserved(self):
        grid = make_grid([0.0], [1.0], gamma=8.0)
        raw = embed([0.3, 0.6], [[1.0], [2.0]], grid, log_l())
        norm = divide_by_density(raw)
        np.testing.assert_array_equal(norm.value[0], raw.value[0])
