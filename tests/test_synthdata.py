import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_gillespie import reference_gillespie_lv

from convcnp import synthdata
from convcnp.kernels import DATA_KERNELS, EQ, gram
from convcnp.synthdata import (
    _MAX_BLOCK,
    LV_RATES,
    LVTrajectory,
    ProcessSpec,
    RejectedTrajectory,
    gillespie_lv,
    gp_sample,
    lv_to_task,
    make_rng,
    sample_task,
    sawtooth_sample,
)


class TestGPSample:
    def test_empty_input(self):
        assert gp_sample(EQ(), [], rng=make_rng(0)).shape == (0,)

    def test_deterministic_per_seed(self):
        xs = np.linspace(-2, 2, 30)
        a = gp_sample(EQ(), xs, rng=make_rng(123))
        b = gp_sample(EQ(), xs, rng=make_rng(123))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gp_sample(EQ(), xs, rng=make_rng(124)))

    def test_marginal_variance(self):
        draws = np.array([gp_sample(EQ(), [0.3], rng=make_rng(s))[0] for s in range(10000)])
        assert draws.var() == pytest.approx(1.0, abs=0.05)

    def test_two_point_correlation(self):
        draws = np.array([gp_sample(EQ(), [0.0, 0.25], rng=make_rng(s)) for s in range(10000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert corr == pytest.approx(np.exp(-0.5), abs=0.03)

    @pytest.mark.parametrize("kind", list(DATA_KERNELS))
    def test_empirical_covariance_matches_gram(self, kind):
        kernel = DATA_KERNELS[kind]
        probes = np.array([-1.5, -0.4, 0.0, 0.7, 1.8])
        draws = np.stack([gp_sample(kernel, probes, rng=make_rng(s)) for s in range(10000)])
        emp = draws.T @ draws / len(draws)
        expected = gram(kernel, probes)
        n = len(draws)
        # MC stderr of a covariance estimate: sqrt((kii*kjj + kij^2)/n)
        stderr = np.sqrt(
            (np.outer(np.diag(expected), np.diag(expected)) + expected**2) / n
        )
        assert np.all(np.abs(emp - expected) <= 3 * stderr)


class TestSawtooth:
    def _params(self, seed):
        rng = make_rng(seed)
        freq = rng.uniform(3.0, 5.0)
        trunc = int(rng.integers(10, 21))
        shift = rng.uniform(-5.0, 5.0)
        return freq, trunc, shift

    def test_value_at_shift_is_half_amplitude(self):
        for seed in range(5):
            _, _, shift = self._params(seed)
            assert sawtooth_sample([shift], rng=make_rng(seed))[0] == pytest.approx(0.5)

    def test_amplitude_bound_on_dense_grids(self):
        xs = np.linspace(-2, 2, 10000)
        for seed in range(100):
            ys = sawtooth_sample(xs, rng=make_rng(seed))
            assert ys.min() > -0.1 and ys.max() < 1.1

    def test_deterministic(self):
        xs = np.linspace(-2, 2, 64)
        np.testing.assert_array_equal(
            sawtooth_sample(xs, rng=make_rng(9)), sawtooth_sample(xs, rng=make_rng(9))
        )

    def test_parameter_ranges(self):
        freqs, truncs, shifts = zip(*(self._params(s) for s in range(200)))
        assert 3 <= min(freqs) and max(freqs) <= 5
        assert 10 <= min(truncs) and max(truncs) <= 20
        assert -5 <= min(shifts) and max(shifts) <= 5


class TestGillespie:
    def test_first_holding_time_uses_the_total_rate(self):
        # From (50, 100) the rates sum to 0.01*50*100 + 0.5*50 + 1.0*100 + 0.01*50*100
        # = 225, and the first holding time takes the generator's first uniform.
        tr = gillespie_lv(make_rng(0), x0=50, y0=100, max_events=1, max_time=np.inf)
        assert tr.times[1] == -np.log(make_rng(0).random()) / 225.0

    def test_extinct_state_terminates_immediately(self):
        tr = gillespie_lv(x0=0, y0=0, rng=make_rng(0))
        assert tr.n_events == 0

    def test_population_changes_by_one_per_event(self):
        tr = gillespie_lv(rng=make_rng(3), max_events=500)
        steps = np.abs(np.diff(tr.predators)) + np.abs(np.diff(tr.prey))
        np.testing.assert_array_equal(steps, np.ones(tr.n_events))

    def test_interevent_times_positive(self):
        tr = gillespie_lv(rng=make_rng(4), max_events=500)
        assert np.all(np.diff(tr.times) > 0)

    def test_pure_death_mean(self):
        # X' = -theta2 X gives E[X(t)] = 100 exp(-theta2 t)
        theta2, t_probe = 0.5, 2.0
        finals = []
        for seed in range(1000):
            tr = gillespie_lv(
                make_rng(seed), theta=(0.0, theta2, 1.0, 0.0), x0=100, y0=0, max_time=10.0
            )
            i = np.searchsorted(tr.times, t_probe, side="right") - 1
            finals.append(tr.predators[i])
        expected = 100 * np.exp(-theta2 * t_probe)
        assert np.mean(finals) == pytest.approx(expected, rel=0.10)

    def test_event_proportions_chi_squared(self):
        from scipy.stats import chisquare

        counts = np.zeros(4, dtype=int)
        for seed in range(30000):
            tr = gillespie_lv(rng=make_rng(seed), max_events=1, max_time=np.inf)
            dx = tr.predators[1] - tr.predators[0]
            dy = tr.prey[1] - tr.prey[0]
            counts[{(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}[(dx, dy)]] += 1
        rates = np.array([0.01 * 50 * 100, 0.5 * 50, 1.0 * 100, 0.01 * 50 * 100])
        _, p = chisquare(counts, counts.sum() * rates / rates.sum())
        assert p > 1e-4

    def test_rejects_invalid_rates(self):
        with pytest.raises(ValueError):
            gillespie_lv(make_rng(0), theta=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            gillespie_lv(make_rng(0), x0=-1)


def _run_both(make_generator, **kwargs):
    """Run the simulator and the scalar reference on identically seeded generators."""
    ref_rng, new_rng = make_generator(), make_generator()
    ref = reference_gillespie_lv(rng=ref_rng, **kwargs)
    new = gillespie_lv(rng=new_rng, **kwargs)
    for name in ("times", "predators", "prey"):
        a, b = getattr(ref, name), getattr(new, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    # The generator must be left where the scalar loop leaves it.
    np.testing.assert_array_equal(ref_rng.random(3), new_rng.random(3))
    assert ref_rng.integers(0, 2**62) == new_rng.integers(0, 2**62)
    return new


class TestGillespieMatchesReference:
    @pytest.mark.parametrize(
        "make_generator", [make_rng, np.random.default_rng], ids=["philox", "pcg64"]
    )
    def test_default_paths(self, make_generator):
        for k in range(32):
            _run_both(lambda: make_generator(k))

    @pytest.mark.parametrize(
        "kwargs, n_events",
        [
            (dict(x0=0, y0=0), 0),
            (dict(theta=(0.0, 0.5, 0.0, 0.0), x0=5, y0=0, max_time=np.inf), 5),
            (dict(max_events=0), 0),
            (dict(max_events=1), 1),
            (dict(max_time=0.05), None),
            # The first block holds 16 events and the second 32 more.
            (dict(max_events=16), 16),
            (dict(max_events=48), 48),
            (dict(theta=(0.0, 0.5, 0.0, 0.0), x0=16, y0=0, max_time=np.inf), 16),
            (dict(x0=2**32, y0=2**32, max_events=40), 40),
        ],
        ids=[
            "extinct-start", "extinct-mid-run", "no-events", "one-event", "time-cutoff",
            "first-block-full", "second-block-full", "extinct-at-block-end",
            "product-past-int64",
        ],
    )
    def test_exits(self, kwargs, n_events):
        for k in range(5):
            tr = _run_both(lambda: make_rng(7, k), **kwargs)
            if n_events is not None:
                assert tr.n_events == n_events
            else:
                assert 0 < tr.n_events and tr.times[-1] <= 0.05

    def test_time_cutoff_on_the_first_event_of_a_block(self):
        for k in range(5):
            times = gillespie_lv(make_rng(7, k), max_events=17, max_time=np.inf).times
            cutoff = (times[16] + times[17]) / 2
            assert _run_both(lambda: make_rng(7, k), max_time=cutoff).n_events == 16

    @given(
        theta=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4).filter(any),
        x0=st.integers(0, 60),
        y0=st.integers(0, 60),
        max_events=st.integers(0, 300),
        max_time=st.one_of(st.floats(0.0, 3.0, exclude_min=True), st.just(np.inf)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # tiny rates: infinite times
    def test_any_path_matches(self, theta, x0, y0, max_events, max_time, seed):
        _run_both(
            lambda: make_rng(seed), theta=theta, x0=x0, y0=y0,
            max_events=max_events, max_time=max_time,
        )

    def test_path_longer_than_largest_block(self):
        tr = _run_both(lambda: make_rng(8), max_time=np.inf, max_events=3 * _MAX_BLOCK)
        # The doubling blocks hold 2 * _MAX_BLOCK - 32 uniforms, so this path
        # also draws at least one refill of the largest size.
        assert 2 * tr.n_events > 3 * _MAX_BLOCK

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=(0, 0, 0, 0)),
            dict(theta=(0.01, -0.5, 1.0, 0.01)),
            dict(theta=(0.01, 0.5, 1.0)),
            dict(x0=-1),
            dict(y0=-3),
        ],
        ids=["all-zero", "negative", "three-rates", "x0", "y0"],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(Exception) as ref_error:
            reference_gillespie_lv(rng=make_rng(0), **kwargs)
        with pytest.raises(ref_error.type):
            gillespie_lv(rng=make_rng(0), **kwargs)


# SHA-256 over the shapes and bytes of the four arrays of the Lotka-Volterra
# tasks for seeds 0-19, and the rejection counts over the same seeds.
LV_TASKS_SHA256 = "58eb5ce1874ba4ab8dd4ad09ce87eead90a257807d4b9600628db1ed0ac7973f"
LV_TASKS_STATS = {"lv_accepted": 20, "lv_rejected": 15}


def test_lv_tasks_golden_digest():
    spec = ProcessSpec.default_for("lotka-volterra")
    digest, stats = hashlib.sha256(), {}
    for seed in range(20):
        task = sample_task(spec, seed, stats)
        for a in (task.context_x, task.context_y, task.target_x, task.target_y):
            digest.update(str(a.shape).encode())
            digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert stats == LV_TASKS_STATS
    assert digest.hexdigest() == LV_TASKS_SHA256


def _ok_trajectory(n=200, duration=50.0):
    times = np.linspace(0, duration, n)
    rng = np.random.default_rng(0)
    return LVTrajectory(
        times=times,
        predators=rng.integers(1, 100, size=n),
        prey=rng.integers(1, 100, size=n),
    )


class TestLVTask:
    def test_rejects_long_duration(self):
        with pytest.raises(RejectedTrajectory, match="100"):
            lv_to_task(_ok_trajectory(duration=100.5), rng=make_rng(0))

    def test_rejects_too_many_events(self):
        with pytest.raises(RejectedTrajectory, match="10000"):
            lv_to_task(_ok_trajectory(n=10002), rng=make_rng(0))

    def test_rejects_zero_population_channel(self):
        tr = _ok_trajectory()
        tr.prey[...] = 0
        with pytest.raises(RejectedTrajectory, match="zero"):
            lv_to_task(tr, rng=make_rng(0))

    def test_accepted_task_scaled_and_sized(self):
        tr = _ok_trajectory()
        task = lv_to_task(tr, rng=make_rng(1))
        assert len(task.context_x) + len(task.target_x) == 150
        assert 3 <= len(task.context_x) <= 80
        raw = np.stack([tr.predators, tr.prey], axis=1)
        lookup = {t: row for t, row in zip(tr.times, raw)}
        for x, y in zip(task.context_x, task.context_y):
            np.testing.assert_allclose(y, 2.0 / 7.0 * lookup[x])

    def test_context_target_disjoint(self):
        task = lv_to_task(_ok_trajectory(), rng=make_rng(2))
        assert not set(task.context_x) & set(task.target_x)


class TestSampleTask:
    def test_inputs_within_range(self):
        for seed in range(20):
            task = sample_task(ProcessSpec("eq"), seed)
            xs = np.concatenate([task.context_x, task.target_x])
            assert xs.min() >= -2 and xs.max() <= 2

    def test_counts_within_bounds(self):
        for seed in range(50):
            task = sample_task(ProcessSpec("eq"), seed)
            assert 3 <= len(task.context_x) <= 50
            assert 3 <= len(task.target_x) <= 50

    def test_sawtooth_default_counts(self):
        spec = ProcessSpec.default_for("sawtooth")
        sizes = [len(sample_task(spec, s).target_x) for s in range(100)]
        assert max(sizes) > 50  # wider target range than the GP processes

    def test_disjoint_by_construction(self):
        task = sample_task(ProcessSpec("eq"), 5)
        assert not set(task.context_x) & set(task.target_x)

    def test_deterministic(self):
        a = sample_task(ProcessSpec("eq"), 11)
        b = sample_task(ProcessSpec("eq"), 11)
        np.testing.assert_array_equal(a.context_y, b.context_y)

    def test_shifted_range_translates_tasks(self):
        base = sample_task(ProcessSpec("eq", x_range=(-2.0, 2.0)), 7)
        shifted = sample_task(ProcessSpec("eq", x_range=(2.0, 6.0)), 7)
        np.testing.assert_allclose(shifted.context_x, base.context_x + 4, atol=1e-12)
        np.testing.assert_allclose(shifted.context_y, base.context_y, atol=1e-6)
        np.testing.assert_allclose(shifted.target_y, base.target_y, atol=1e-6)

    def test_lv_task_shape(self):
        task = sample_task(ProcessSpec("lotka-volterra"), 1)
        assert task.dim_y == 2
        assert len(task.context_x) + len(task.target_x) == 150

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec("plasticc")

    def test_lv_rejection_error_names_the_seed(self, monkeypatch):
        # Every path starts extinct, so all 1000 attempts are rejected.
        simulate = synthdata.gillespie_lv
        monkeypatch.setattr(synthdata, "gillespie_lv", lambda rng: simulate(rng, x0=0, y0=0))
        with pytest.raises(RuntimeError, match="1000 consecutive rejections, seed 1234$"):
            sample_task(ProcessSpec("lotka-volterra"), 1234)


class TestTaskSerialization:
    def test_json_roundtrip(self):
        task = sample_task(ProcessSpec("eq"), 3)
        doc = json.loads(json.dumps(task.to_json()))
        for name in ("context_x", "context_y", "target_x", "target_y"):
            np.testing.assert_array_equal(np.asarray(doc[name]), getattr(task, name))
        assert doc["process"] == "eq" and doc["seed"] == 3

    def test_translated(self):
        task = sample_task(ProcessSpec("eq"), 4)
        moved = task.translated(4.0)
        np.testing.assert_allclose(moved.context_x, task.context_x + 4.0)
        np.testing.assert_array_equal(moved.context_y, task.context_y)
