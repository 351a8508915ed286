"""Synthetic processes and the context/target task-sampling protocol.

Every generator is a pure function of (config, seed).  Randomness comes
from numpy's Philox counter-based bit generator, so datasets reproduce
bit-for-bit across platforms and runs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .kernels import DATA_KERNELS, cholesky_with_jitter, gram


def make_rng(*key) -> np.random.Generator:
    """Deterministic Philox generator keyed by a tuple of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


@dataclass
class Task:
    """One regression episode: a context set to condition on, targets to predict.

    ``context_x``/``target_x`` have shape (n,); the y arrays have shape
    (n, dim_y).  Context and target points come from one realization of the
    underlying process and are disjoint by construction.
    """

    context_x: np.ndarray
    context_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray
    process: str = ""
    seed: int = 0

    @property
    def dim_y(self) -> int:
        return self.context_y.shape[1]

    def translated(self, tau: float) -> "Task":
        """The same task with all inputs shifted by ``tau``."""
        return replace(self, context_x=self.context_x + tau, target_x=self.target_x + tau)

    def to_json(self) -> dict:
        return {
            "process": self.process,
            "seed": int(self.seed),
            "context_x": self.context_x.tolist(),
            "context_y": self.context_y.tolist(),
            "target_x": self.target_x.tolist(),
            "target_y": self.target_y.tolist(),
        }


def gp_sample(spec, xs, rng) -> np.ndarray:
    """Draw one zero-mean GP realization at locations ``xs``."""
    xs = np.asarray(xs, float)
    if xs.size == 0:
        return np.zeros(0)
    chol = cholesky_with_jitter(gram(spec, xs))
    return chol @ rng.standard_normal(len(xs))


def sawtooth_sample(xs, rng) -> np.ndarray:
    """Random truncated sawtooth wave evaluated at ``xs``.

    y(t) = A/2 - (A/pi) sum_{k=1}^{K} (-1)^k sin(2 pi k f (t - s)) / k
    with amplitude A = 1, frequency f ~ U[3, 5], truncation K ~ U{10..20},
    and shift s ~ U[-5, 5], all drawn once per realization.
    """
    xs = np.asarray(xs, float)
    freq = rng.uniform(3.0, 5.0)
    trunc = int(rng.integers(10, 21))
    shift = rng.uniform(-5.0, 5.0)
    amp = 1.0
    ks = np.arange(1, trunc + 1)
    terms = (-1.0) ** ks / ks * np.sin(
        2.0 * np.pi * np.outer(xs - shift, ks) * freq
    )
    return amp / 2.0 - amp / np.pi * terms.sum(axis=1)


@dataclass
class LVTrajectory:
    """Gillespie predator-prey sample path, including the initial state."""

    times: np.ndarray
    predators: np.ndarray
    prey: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.times) - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


LV_RATES = (0.01, 0.5, 1.0, 0.01)
_FIRST_BLOCK, _MAX_BLOCK = 32, 4096  # uniforms per rng.random() call
_LV_STEPS = np.array([[1, -1, 0, 0], [0, 0, 1, -1]])  # (dX, dY) of each event code


def gillespie_lv(
    rng,
    theta=LV_RATES,
    x0: int = 50,
    y0: int = 100,
    max_time: float = 100.0,
    max_events: int = 10050,
) -> LVTrajectory:
    """Exact stochastic simulation of the predator-prey birth-death process.

    Events: predator birth (rate theta1*X*Y, X+1), predator death
    (theta2*X, X-1), prey birth (theta3*Y, Y+1), prey death (theta4*X*Y,
    Y-1).  Stops at max_time, max_events, or total rate zero.

    Event i takes the uniform pair (u, v) at 2i, 2i+1 of blocks that double
    in size.  Per block, a Python loop runs only the jump chain: it picks
    each event from v * total and records a one-byte code.  numpy then
    rebuilds the states from the codes, recomputes their total rates and
    takes the holding times -log(u) / total and their running sum, which
    cuts the path at the first time past max_time.  ``rng`` is left where one
    scalar ``rng.random()`` per uniform used would have left it.
    """
    theta = np.asarray(theta, float)
    if np.any(theta < 0) or np.all(theta == 0):
        raise ValueError(f"invalid rates {theta}")
    if x0 < 0 or y0 < 0:
        raise ValueError("initial populations must be non-negative")
    state = rng.bit_generator.state
    t1, t2, t3, t4 = theta.tolist()
    t, x, y = 0.0, int(x0), int(y0)
    times, paths = [np.zeros(1)], [np.array([[x], [y]])]
    n, size, timed_out, extinct = 0, _FIRST_BLOCK, 0, False
    while n < max_events and not (extinct or timed_out):
        block = rng.random(size)
        size = min(2 * size, _MAX_BLOCK)
        codes, start = bytearray(1), (x, y)  # byte 0's column becomes the start state
        push = codes.append
        for v in block[1::2].tolist()[: max_events - n]:
            xy = x * y
            a = t1 * xy
            b = a + t2 * x
            c = b + t3 * y
            total = c + t4 * xy
            if total <= 0.0:
                extinct = True
                break
            u = v * total
            if u < a:
                x += 1
                push(0)
            elif u < b:
                x -= 1
                push(1)
            elif u < c:
                y += 1
                push(2)
            else:
                y -= 1
                push(3)
        k = len(codes) - 1
        steps = _LV_STEPS[:, np.frombuffer(codes, np.uint8)]
        steps[:, 0] = start
        path = steps.cumsum(axis=1)
        xs, ys = path[:, :-1].astype(float)  # an int64 x * y would wrap at 2**63
        xy = xs * ys
        total = t1 * xy + t2 * xs + t3 * ys + t4 * xy  # the loop's order of sums
        # cumsum adds in sequence, as t += dt would; the log is taken over the
        # whole half-block, so that every value takes the same SIMD path.
        block_times = np.concatenate(([t], (-np.log(block[0::2]))[:k] / total)).cumsum()
        late = block_times[1:] > max_time
        if late.any():
            k, timed_out = int(late.argmax()), 1
        times.append(block_times[1 : k + 1])
        paths.append(path[:, 1 : k + 1])
        t, n = block_times[k], n + k
    # Two uniforms per event and one for an exit at max_time.
    rng.bit_generator.state = state
    rng.random(2 * n + timed_out)
    predators, prey = np.concatenate(paths, axis=1)
    return LVTrajectory(times=np.concatenate(times), predators=predators, prey=prey)


LV_POPULATION_SCALE = 2.0 / 7.0
LV_MAX_DURATION = 100.0
LV_MAX_EVENTS = 10000
LV_TASK_POINTS = 150


class RejectedTrajectory(Exception):
    """The trajectory fails a data-quality filter; retry with a new seed."""


def lv_to_task(trajectory: LVTrajectory, rng) -> Task:
    """Subsample a predator-prey trajectory into a two-channel task.

    Filters: duration > 100 time units, > 10000 events, either population
    identically zero, or fewer points than one task needs.  ``sample_task``'s
    paths stop before time 100, so in practice only the event cap rejects
    them; the duration filter guards trajectories built elsewhere.
    Populations are scaled by 2/7.  Context size n ~ U{3..80}; target size
    is 150 - n.
    Observation points are drawn uniformly without replacement from the
    event grid.
    """
    if trajectory.duration > LV_MAX_DURATION:
        raise RejectedTrajectory("duration > 100 time units")
    if trajectory.n_events > LV_MAX_EVENTS:
        raise RejectedTrajectory("> 10000 events")
    if not trajectory.predators.any() or not trajectory.prey.any():
        raise RejectedTrajectory("a population channel is entirely zero")
    n_points = len(trajectory.times)
    if n_points < LV_TASK_POINTS:
        raise RejectedTrajectory(f"fewer than {LV_TASK_POINTS} observation points")
    n_context = int(rng.integers(3, 81))
    n_target = LV_TASK_POINTS - n_context
    idx = rng.choice(n_points, size=LV_TASK_POINTS, replace=False)
    ys = LV_POPULATION_SCALE * np.stack(
        [trajectory.predators, trajectory.prey], axis=1
    ).astype(float)
    ctx, tgt = idx[:n_context], idx[n_context:]
    return Task(
        context_x=trajectory.times[ctx],
        context_y=ys[ctx],
        target_x=trajectory.times[tgt],
        target_y=ys[tgt],
        process="lotka-volterra",
    )


GP_KINDS = tuple(DATA_KERNELS)
PROCESS_KINDS = GP_KINDS + ("sawtooth", "lotka-volterra")


def fits(value, kind: type, bound="at least", limit=-math.inf) -> bool:
    """The value rule of every config setting: a bool ``kind`` takes true or false;
    an int takes an integer and a float a finite number, neither a bool, ``bound``
    ("at least", "above" or "of magnitude at most") ``limit``."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        return False
    if bound == "of magnitude at most":
        return abs(value) <= limit
    finite = abs(value) <= sys.float_info.max  # not NaN or infinite, and fits a float
    return finite and (value > limit if bound == "above" else value >= limit)


def check_settings(spec, section: str, rules) -> None:
    """Raise ValueError naming ``<section>.<name>`` at the first field of ``spec``
    that breaks its ``(name, kind[, bound, limit])`` rule; store reals as floats."""
    for name, kind, *bound in rules:
        value = getattr(spec, name)
        if not fits(value, kind, *bound):
            rule = {bool: "true or false", int: "an integer", float: "a finite number"}[kind]
            limit = ", {} {}".format(*bound) if bound else ""
            raise ValueError(f"{section}.{name} must be {rule}{limit}, got {value!r}")
        if kind is float:
            object.__setattr__(spec, name, float(value))  # the specs are frozen


@dataclass(frozen=True)
class ProcessSpec:
    """Which stochastic process to sample tasks from, and how.

    Each range is a pair [low, high] with low <= high: ``x_range`` of finite
    numbers, the inclusive count bounds of integers, at least 0 for the
    context and at least 1 for the targets.
    """

    kind: str = "eq"
    x_range: tuple = (-2.0, 2.0)
    n_context: tuple = (3, 50)
    n_target: tuple = (3, 50)

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"process.kind must be one of {PROCESS_KINDS}, got {self.kind!r}")
        for name, kind, low, rule in (
            ("x_range", float, -math.inf, "finite numbers [low, high] with low"),
            ("n_context", int, 0, "integers [low, high] with 0 <= low"),
            ("n_target", int, 1, "integers [low, high] with 1 <= low"),
        ):
            pair = getattr(self, name)
            if not (
                isinstance(pair, (tuple, list))
                and len(pair) == 2
                and all(fits(v, kind, "at least", low) for v in pair)
                and pair[0] <= pair[1]
            ):
                raise ValueError(f"process.{name} must be two {rule} <= high, got {pair!r}")
            object.__setattr__(self, name, tuple(pair))  # a config gives lists

    @classmethod
    def default_for(cls, kind: str) -> "ProcessSpec":
        if kind == "sawtooth":
            return cls(kind, n_context=(3, 100), n_target=(3, 100))
        return cls(kind)


def sample_task(process: ProcessSpec, seed: int, stats: dict | None = None) -> Task:
    """Draw one task: locations, a shared realization, and a disjoint split.

    ``stats``, if given, accumulates counters ("lv_accepted",
    "lv_rejected") so callers can report rejection rates.  LV paths stop
    before time 100, so the duration filter never rejects them.
    """
    if process.kind == "lotka-volterra":
        # LV has its own protocol with rejection; retry with derived seeds.
        for attempt in range(1000):
            rng = make_rng(seed, attempt)
            trajectory = gillespie_lv(rng=rng)
            try:
                task = lv_to_task(trajectory, rng=rng)
            except RejectedTrajectory:
                if stats is not None:
                    stats["lv_rejected"] = stats.get("lv_rejected", 0) + 1
                continue
            if stats is not None:
                stats["lv_accepted"] = stats.get("lv_accepted", 0) + 1
            task.seed = seed
            return task
        raise RuntimeError(f"Lotka-Volterra sampler: 1000 consecutive rejections, seed {seed}")

    rng = make_rng(seed)
    n_ctx = int(rng.integers(process.n_context[0], process.n_context[1] + 1))
    n_tgt = int(rng.integers(process.n_target[0], process.n_target[1] + 1))
    lo, hi = process.x_range
    xs = rng.uniform(lo, hi, size=n_ctx + n_tgt)
    if process.kind == "sawtooth":
        ys = sawtooth_sample(xs, rng=rng)
    else:
        ys = gp_sample(DATA_KERNELS[process.kind], xs, rng=rng)
    ys = ys[:, None]
    return Task(
        context_x=xs[:n_ctx],
        context_y=ys[:n_ctx],
        target_x=xs[n_ctx:],
        target_y=ys[n_ctx:],
        process=process.kind,
        seed=seed,
    )
