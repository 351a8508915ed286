import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convcnp import autodiff as ad
from convcnp.embedding import UniformGrid, encode
from convcnp.models import decode
from convcnp.kernels import (
    DATA_KERNELS,
    EQ,
    JITTER_SCALE,
    Matern52,
    WeaklyPeriodic,
    cholesky_with_jitter,
    gram,
    init_log_length_scale,
    learnable_psi_eval,
)
from reference_tape import psi, reduce_sum

ALL_KERNELS = list(DATA_KERNELS.values())


def value_at(kernel, x, x2) -> float:
    return float(kernel(np.atleast_1d(x), np.atleast_1d(x2))[0, 0])


def test_eq_at_zero_distance():
    assert value_at(EQ(), 0.7, 0.7) == 1.0


def test_eq_one_length_scale_away():
    assert value_at(EQ(), 0.0, 0.25) == pytest.approx(
        np.exp(-0.5)
    )


def test_matern_at_zero_distance():
    assert value_at(Matern52(), -1.3, -1.3) == 1.0


def test_matern_frozen_value():
    # sympy evaluation of (1 + sqrt(5)*d + (5/3)*d^2) exp(-sqrt(5)*d), d = 4*0.3
    assert value_at(Matern52(), 0.0, 0.3) == pytest.approx(
        0.41572250764655624487, abs=1e-14
    )


def test_weakly_periodic_frozen_values():
    # sympy evaluation of the closed-form expression at two probe pairs
    wp = WeaklyPeriodic()
    assert value_at(wp, 0.0, 0.25) == pytest.approx(0.99221793826024351211, abs=1e-14)
    assert value_at(wp, 0.0, 0.1) == pytest.approx(0.16361044790134585642, abs=1e-14)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(DATA_KERNELS))
def test_decay_at_long_range(kernel):
    if isinstance(kernel, WeaklyPeriodic):
        pytest.skip("weakly periodic decays through its envelope only")
    # ten length scales away the kernel is numerically negligible
    assert value_at(kernel, 0.0, 10 * 0.25) < 1e-6


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(DATA_KERNELS))
@given(x=st.floats(-2, 2), x2=st.floats(-2, 2), tau=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_stationarity(kernel, x, x2, tau):
    base = value_at(kernel, x, x2)
    shifted = value_at(kernel, x + tau, x2 + tau)
    assert shifted == pytest.approx(base, abs=1e-9)


@given(x=st.floats(-3, 3), x2=st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_eq_values_nonnegative(x, x2):
    assert value_at(EQ(), x, x2) >= 0.0


class TestGram:
    def test_single_point(self):
        g = gram(EQ(), [0.4])
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(DATA_KERNELS))
    def test_exact_symmetry(self, kernel, rng):
        xs = rng.uniform(-2, 2, size=12)
        g = gram(kernel, xs)
        np.testing.assert_array_equal(g, g.T)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=list(DATA_KERNELS))
    def test_cholesky_with_jitter_many_random_sets(self, kernel):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            xs = rng.uniform(-2, 2, size=20)
            chol = cholesky_with_jitter(gram(kernel, xs))
            assert np.all(np.isfinite(chol))

    def test_jitter_escalation_failure_is_reported(self):
        bad = -np.eye(3)
        with pytest.raises(np.linalg.LinAlgError, match="jitter"):
            cholesky_with_jitter(bad)


def psi_on(log_l, grid, xs, grid_axis=1):
    return learnable_psi_eval(np.asarray(log_l), grid, xs, grid_axis)[0]


class TestLearnablePsi:
    def test_unit_at_zero_distance(self):
        grid = UniformGrid(lower=0.7, spacing=0.1, n_points=1)
        for log_l in (-2.0, 0.0, 1.5):
            out = psi_on(log_l, grid, np.full(4, 0.7))
            np.testing.assert_array_equal(out, np.ones((4, 1)))

    def test_init_is_twice_grid_spacing(self):
        assert np.exp(init_log_length_scale(64.0)) == pytest.approx(2.0 / 64.0)
        assert np.exp(init_log_length_scale(64.0)) == pytest.approx(0.03125)

    def test_matches_closed_form(self):
        # distances 0.0, 0.1, ..., 0.5 from the grid points to the input
        grid = UniformGrid(lower=0.0, spacing=0.1, n_points=6)
        out = psi_on(np.log(0.2), grid, [0.0], grid_axis=0)
        d = grid.points[:, None]
        np.testing.assert_allclose(out, np.exp(-0.5 * (d / 0.2) ** 2), rtol=1e-14)

    def test_gradient_wrt_log_length_scale(self):
        store = ad.ParameterStore({"log_l": np.log(0.3)})
        # distances 0.15, 0.3, ..., 0.9
        grid = UniformGrid(lower=0.15, spacing=0.15, n_points=6)

        def builder(leaves):
            return reduce_sum(psi(leaves["log_l"], grid, [0.0], 1))

        assert ad.grad_check(builder, store, step=1e-6) < 1e-6

    def test_overflowing_inverse_length_scale_names_the_op(self):
        # 1 / l^2 overflows to inf, and exp(-inf) = 0 would hide it; the error
        # names the stage that evaluates the basis, and the stage's parameter
        grid = UniformGrid(lower=0.5, spacing=0.5, n_points=2)
        log_l = ad.constant(np.asarray(-400.0))
        stages = {
            "op 'encode': encoder.log_length_scale -400 overflows": lambda: encode(
                [(np.array([0.0]), np.array([[1.0]]))], [grid], [slice(0, 2)], log_l
            ),
            "op 'decode': readout.log_length_scale -400 overflows": lambda: decode(
                ad.constant(np.ones((2, 2))), [grid], [slice(0, 2)], [np.array([0.0])], log_l, 1
            ),
        }
        for message, stage in stages.items():
            with np.errstate(over="ignore"), pytest.raises(ad.DiffError, match=message):
                stage()

    def test_one_tape_node(self):
        # the basis makes no node of its own: the stage that uses it is one node
        log_l = ad.Node(np.log(0.2), needs_grad=True)
        grid = UniformGrid(lower=0.1, spacing=0.2, n_points=2)
        out = encode([(np.array([0.0]), np.array([[1.0]]))], [grid], [slice(0, 2)], log_l)
        assert out.op == "encode" and out._parents == (log_l,)


class TestPsiBand:
    """On a long grid only each input's window of grid points is evaluated."""

    GAMMA = 32.0
    GRID = UniformGrid(lower=-31.25, spacing=1.0 / GAMMA, n_points=2001)
    LOG_L = init_log_length_scale(GAMMA)

    def dense(self, xs):
        """exp(-0.5 (d / l)^2) on every entry, in the kernel's order of operations."""
        d = self.GRID.points[:, None] - xs[None, :]
        return np.exp(d**2 * (np.exp(self.LOG_L * -2.0) * -0.5))

    def inputs(self):
        rng = np.random.default_rng(3)
        inside = rng.uniform(self.GRID.points[0], self.GRID.points[-1], size=40)
        ends = [self.GRID.points[0], self.GRID.points[-1]]
        beyond = [ends[0] - 0.01, ends[0] - 3.0, ends[1] + 0.01, ends[1] + 3.0, 1e6, -1e6]
        # grid point 900 lies sqrt(2 * 745.5) and sqrt(2 * 745.05) length scales
        # from these two: exp gives 0.0 at the first and 5e-324 at the second
        edge = self.GRID.points[900] + np.exp(self.LOG_L) * np.sqrt([1491.0, 1490.1])
        return np.concatenate([inside, ends, beyond, edge])

    def evaluated_sizes(self, monkeypatch, *args):
        sizes = []
        exp = np.exp

        def spy(a, *rest, **kwargs):
            sizes.append(np.size(a))
            return exp(a, *rest, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        out, _ = learnable_psi_eval(*args)
        monkeypatch.undo()
        return out, sizes

    @pytest.mark.parametrize("grid_axis", [0, 1])
    def test_equals_the_dense_evaluation_bit_for_bit(self, grid_axis, monkeypatch):
        xs = self.inputs()
        out, sizes = self.evaluated_sizes(
            monkeypatch, np.asarray(self.LOG_L), self.GRID, xs, grid_axis
        )
        expected = self.dense(xs)
        assert max(sizes) < expected.size / 4  # the band, not the whole matrix
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, expected if grid_axis == 0 else expected.T)
        assert np.count_nonzero(expected) < expected.size / 4

    def test_entries_at_the_underflow_edge(self):
        xs = self.inputs()[-2:]
        exponent = (self.GRID.points[:, None] - xs) ** 2 * (np.exp(self.LOG_L * -2.0) * -0.5)
        edge = (exponent > -746.0) & (exponent < -745.0)
        out = psi_on(self.LOG_L, self.GRID, xs, grid_axis=0)
        np.testing.assert_array_equal(out[edge], self.dense(xs)[edge])
        assert np.all(out[edge] < np.finfo(float).tiny)  # subnormal or zero
        assert 0 < np.count_nonzero(out[edge]) < np.count_nonzero(edge)

    def test_gradient_sums_over_the_band(self):
        xs = self.inputs()
        weights = np.random.default_rng(4).standard_normal((len(xs), self.GRID.n_points))
        log_l = ad.Node(np.asarray(self.LOG_L), needs_grad=True)
        basis = psi(log_l, self.GRID, xs, 1)
        ad.backward(reduce_sum(ad.mul(basis, ad.constant(weights))))
        d2 = (self.GRID.points[None, :] - xs[:, None]) ** 2
        expected = np.sum(weights * self.dense(xs).T * d2) * np.exp(self.LOG_L * -2.0)
        assert float(log_l.grad) == pytest.approx(expected, rel=1e-13)


class TestJitterEscalation:
    def tried_jitters(self, matrix, monkeypatch):
        tried = []
        cholesky = np.linalg.cholesky

        def spy(a):
            tried.append(float(a[0, 0] - matrix[0, 0]))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        with pytest.raises(np.linalg.LinAlgError) as err:
            cholesky_with_jitter(matrix)
        return tried, str(err.value)

    def test_indefinite_matrix_reports_the_largest_jitter_tried(self, monkeypatch):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
        tried, message = self.tried_jitters(matrix, monkeypatch)
        assert tried == pytest.approx([1e-6, 1e-5, 1e-4, 1e-3], rel=1e-9)
        assert "tried 1.0e-03)" in message

    def test_nonpositive_mean_diagonal_starts_from_the_jitter_scale(self, monkeypatch):
        tried, message = self.tried_jitters(-np.eye(3), monkeypatch)
        assert tried[0] == pytest.approx(JITTER_SCALE, rel=1e-9)
        assert tried == pytest.approx([1e-6, 1e-5, 1e-4, 1e-3], rel=1e-9)
        assert "tried 1.0e-03)" in message
