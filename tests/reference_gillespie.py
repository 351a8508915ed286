"""Reference Gillespie simulator: the scalar event loop, one draw at a time.

This is the direct form of ``convcnp.synthdata.gillespie_lv``: each event
takes one ``rng.random()`` for the holding time and one for the event choice,
with numpy scalar arithmetic throughout.  The package's simulator draws its
uniforms in blocks and must match this loop bit for bit, including where it
leaves the generator.
"""

import numpy as np

from convcnp.synthdata import LV_RATES, LVTrajectory


def reference_gillespie_lv(
    rng,
    theta=LV_RATES,
    x0: int = 50,
    y0: int = 100,
    max_time: float = 100.0,
    max_events: int = 10050,
) -> LVTrajectory:
    theta = np.asarray(theta, float)
    if np.any(theta < 0) or np.all(theta == 0):
        raise ValueError(f"invalid rates {theta}")
    if x0 < 0 or y0 < 0:
        raise ValueError("initial populations must be non-negative")
    t, x, y = 0.0, int(x0), int(y0)
    times, xs, ys = [t], [x], [y]
    t1, t2, t3, t4 = theta
    while len(times) - 1 < max_events:
        xy = x * y
        r1, r2, r3 = t1 * xy, t2 * x, t3 * y
        total = r1 + r2 + r3 + t4 * xy
        if total <= 0.0:
            break
        dt = -np.log(rng.random()) / total
        if t + dt > max_time:
            break
        t += dt
        u = rng.random() * total
        if u < r1:
            x += 1
        elif u < r1 + r2:
            x -= 1
        elif u < r1 + r2 + r3:
            y += 1
        else:
            y -= 1
        times.append(t)
        xs.append(x)
        ys.append(y)
    return LVTrajectory(
        times=np.asarray(times), predators=np.asarray(xs), prey=np.asarray(ys)
    )
