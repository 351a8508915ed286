"""Translation-equivariant conditional neural processes on synthetic data.

The package is organized around a small reverse-mode autodiff engine
(:mod:`convcnp.autodiff`), stationary kernels (:mod:`convcnp.kernels`),
synthetic task generators (:mod:`convcnp.synthdata`), the grid embedding
(:mod:`convcnp.embedding`), the predictive models (:mod:`convcnp.models`),
a training loop (:mod:`convcnp.training`), an exact GP posterior oracle
(:mod:`convcnp.oracle`), and a command-line front end (:mod:`convcnp.cli`).
"""

__version__ = "0.1.0"

from .embedding import UniformGrid, divide_by_density, embed, make_grid
from .kernels import EQ, Matern52, WeaklyPeriodic, gram
from .models import (
    CNPBaseline,
    CnnSpec,
    ConvCNP,
    ConvCNPOnGrid,
    Predictive,
    nll_loss,
)
from .oracle import GPOracle, gp_posterior_predict
from .synthdata import ProcessSpec, Task, gillespie_lv, gp_sample, sample_task, sawtooth_sample
from .training import TrainConfig, evaluate, train
