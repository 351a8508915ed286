"""Train a small ConvCNP on EQ-kernel tasks and compare it to the exact GP.

A desk-scale run (a minute or two on one core): the model starts out far
below the prior and climbs to within striking distance of the exact
posterior, while a CNP baseline with the same budget lags well behind.
"""

from convcnp.kernels import EQ
from convcnp.models import CNPBaseline, ConvCNP
from convcnp.oracle import GPOracle
from convcnp.synthdata import ProcessSpec, sample_task
from convcnp.training import TrainConfig, derive_seed, evaluate, train

process = ProcessSpec("eq")
config = TrainConfig.desk_scale(seed=0)
held_out = [sample_task(process, derive_seed(0, 3, i)) for i in range(200)]

model = ConvCNP(gamma=32.0, init_seed=0)
print(f"ConvCNP (small): {model.params.n_parameters()} parameters")
print(f"untrained held-out LL: {evaluate(model, held_out).mean_ll:+.3f}")

log, _, _ = train(model, config, process)
print(f"trained held-out LL:   {evaluate(model, held_out).mean_ll:+.3f}")

baseline = CNPBaseline(init_seed=0)
train(baseline, config, process)
print(f"CNP same budget:       {evaluate(baseline, held_out).mean_ll:+.3f}")

oracle_ll = evaluate(GPOracle(EQ()), held_out).mean_ll
print(f"exact GP posterior:    {oracle_ll:+.3f}  (upper bound)")
