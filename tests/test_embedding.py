import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp.embedding import (
    DENSITY_EPS,
    UniformGrid,
    divide_by_density,
    embed,
    encode,
    make_grid,
)
from reference_tape import reduce_sum


def log_l(value=0.03125):
    return ad.constant(np.asarray(np.log(value)))


def embedded(context_x, context_y, grid, log_length_scale=None):
    """One context set through ``encode``: its (1 + dim_y, T) channels, as a node."""
    return encode([(context_x, context_y)], [grid], [slice(0, grid.n_points)],
                  log_length_scale or log_l())


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
        emb = embedded([0.0], [2.0], grid)
        np.testing.assert_allclose(emb.value[:, 0], [1.0, 2.0])

    def test_two_outputs_give_density_then_each_output(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embedded([0.0], [[2.0, -3.0]], grid)
        np.testing.assert_allclose(emb.value[:, 0], [1.0, 2.0, -3.0])

    def test_empty_context_gives_zero_embedding(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embedded([], np.zeros((0, 1)), grid)
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_empty_two_output_context_keeps_every_channel(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = embedded([], np.zeros((0, 2)), grid)
        assert emb.value.shape == (3, grid.n_points)
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_density_channel_nonnegative(self):
        rng = np.random.default_rng(2)
        grid = make_grid([-2.0], [2.0], gamma=16.0)
        for _ in range(20):
            n = rng.integers(1, 10)
            emb = embedded(rng.uniform(-2, 2, n), rng.normal(size=(n, 1)), grid)
            assert np.all(emb.value[0] >= 0)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(3)
        grid = make_grid([-2.0], [2.0], gamma=32.0)
        xs = rng.uniform(-2, 2, size=12)
        ys = rng.normal(size=(12, 1))
        base = embedded(xs, ys, grid).value
        for _ in range(10):
            perm = rng.permutation(12)
            shuffled = embedded(xs[perm], ys[perm], grid).value
            assert np.array_equal(shuffled, base)

    def test_discrete_translation_equivariance(self):
        rng = np.random.default_rng(4)
        gamma = 32.0
        xs = rng.uniform(-2, 2, size=8)
        ys = rng.normal(size=(8, 1))
        grid = make_grid(xs, xs, gamma=gamma)
        base = embedded(xs, ys, grid).value
        for steps in (1, 2, 4, 17):
            tau = steps / gamma
            shifted_grid = make_grid(xs + tau, xs + tau, gamma=gamma)
            shifted = embedded(xs + tau, ys, shifted_grid).value
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_distinct_pairs_have_distinct_embeddings(self):
        # small-sample version of the injectivity smoke test
        rng = np.random.default_rng(5)
        grid = make_grid([-2.0], [2.0], gamma=64.0)
        for _ in range(100):
            xa, ya = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            xb, yb = rng.uniform(-2, 2, 2), rng.normal(size=(2, 1))
            ea = embedded(xa, ya, grid).value
            eb = embedded(xb, yb, grid).value
            assert np.abs(ea - eb).max() > 1e-6

    def test_gradient_flows_to_length_scale(self):
        store = ad.ParameterStore({"log_l": np.log(0.1)})
        grid = make_grid([-1.0], [1.0], gamma=8.0)
        xs = np.array([-0.5, 0.2, 0.9])
        ys = np.array([[1.0], [-2.0], [0.5]])

        def builder(leaves):
            emb = divide_by_density(embedded(xs, ys, grid, leaves["log_l"]))
            return reduce_sum(ad.mul(emb, emb))

        assert ad.grad_check(builder, store, step=1e-6) < 1e-6


class TestNormalizeDensity:
    def test_single_point_normalization(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = divide_by_density(embedded([0.0], [2.0], grid))
        assert emb.value[1, 0] == pytest.approx(2.0 / (1.0 + DENSITY_EPS))

    def test_zero_density_keeps_signal_zero(self):
        grid = make_grid([0.0], [1.0], gamma=4.0)
        emb = divide_by_density(embedded([], np.zeros((0, 1)), grid))
        np.testing.assert_array_equal(emb.value, 0.0)

    def test_duplicated_context_doubles_density_only(self):
        rng = np.random.default_rng(6)
        grid = make_grid([-1.0], [1.0], gamma=16.0)
        xs = rng.uniform(-1, 1, size=5)
        ys = rng.normal(size=(5, 1))
        single = divide_by_density(embedded(xs, ys, grid)).value
        doubled = divide_by_density(
            embedded(np.tile(xs, 2), np.tile(ys, (2, 1)), grid)
        ).value
        np.testing.assert_allclose(doubled[0], 2 * single[0], rtol=1e-9)
        # away from covered grid points the eps guard dominates, so compare
        # the signal channel only where the density is non-negligible
        covered = single[0] > 1e-2
        assert covered.any()
        np.testing.assert_allclose(doubled[1][covered], single[1][covered], rtol=1e-5)

    def test_density_channel_preserved(self):
        grid = make_grid([0.0], [1.0], gamma=8.0)
        raw = embedded([0.3, 0.6], [[1.0], [2.0]], grid)
        norm = divide_by_density(raw)
        np.testing.assert_array_equal(norm.value[0], raw.value[0])


class TestEncode:
    def test_lays_each_task_out_from_its_start_with_zero_gaps(self):
        rng = np.random.default_rng(7)
        contexts = [
            (rng.uniform(-1, 1, 4), rng.normal(size=(4, 2))),
            (np.zeros(0), np.zeros((0, 2))),
            (rng.uniform(0, 3, 3), rng.normal(size=(3, 2))),
        ]
        grids = [make_grid([-1.0], [1.0], gamma=8.0)] * 2 + [make_grid([0.0], [3.0], gamma=8.0)]
        starts = [0, grids[0].n_points + 2, 2 * grids[0].n_points + 4]
        cols = [slice(start, start + grid.n_points) for start, grid in zip(starts, grids)]
        want = np.zeros((3, cols[-1].stop))
        for (x, y), grid, c in zip(contexts, grids, cols):
            want[:, c], _ = embed(x, y, grid, log_l().value)
        assert np.abs(want).max() > 0
        np.testing.assert_array_equal(encode(contexts, grids, cols, log_l()).value, want)

    def test_takes_no_gradient_without_context(self):
        leaf = ad.Node(np.log(0.1), needs_grad=True)
        grid = UniformGrid(lower=0.0, spacing=0.25, n_points=5)
        cols = [slice(0, grid.n_points)]
        assert encode([([], np.zeros((0, 1)))], [grid], cols, leaf)._parents == ()
        assert encode([([0.3], [[1.0]])], [grid], cols, leaf)._parents == (leaf,)
