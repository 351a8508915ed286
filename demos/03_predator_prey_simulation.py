"""Simulate predator-prey population dynamics with the Gillespie algorithm.

Each trajectory is an exact sample of the continuous-time Markov jump
process; trajectories that die out too fast (or blow up) are rejected
before being turned into regression tasks, and the acceptance rate is
reported alongside a few example tasks.
"""

import numpy as np

from convcnp.synthdata import ProcessSpec, gillespie_lv, make_rng, sample_task

trajectory = gillespie_lv(make_rng(0))
print(
    f"one trajectory: {trajectory.n_events} events over "
    f"{trajectory.times[-1]:.1f} time units"
)
print(f"  predators: {trajectory.predators.min()}..{trajectory.predators.max()}")
print(f"  prey:      {trajectory.prey.min()}..{trajectory.prey.max()}")

stats: dict = {}
process = ProcessSpec("lotka-volterra")
tasks = [sample_task(process, seed, stats=stats) for seed in range(10)]
total = stats["lv_accepted"] + stats["lv_rejected"]
print(f"\n10 tasks drawn; rejection rate {stats['lv_rejected'] / total:.0%}")
for task in tasks[:3]:
    span = task.context_x.max() - task.context_x.min()
    print(
        f"  task: {len(task.context_x)} context / {len(task.target_x)} target "
        f"points over {span:.1f} time units, 2 population channels"
    )
print("\npopulation counts are scaled by 2/7 before becoming regression targets")
print(f"  example context values: {np.round(tasks[0].context_y[0], 2)}")
