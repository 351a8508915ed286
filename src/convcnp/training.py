"""Maximum-likelihood meta-training on a stream of fresh synthetic tasks."""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import autodiff as ad
from .models import batch_nll, task_log_densities
from .synthdata import ProcessSpec, check_settings, sample_task


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from a tuple of integers."""
    state = np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    Full-scale defaults are 200 epochs x 256 batches x batch 16 with lr
    3e-4 and weight decay 1e-5; desk-scale presets scale the schedule down.
    """

    epochs: int = 200
    batches_per_epoch: int = 256
    batch_size: int = 16
    lr: float = 3e-4
    weight_decay: float = 1e-5
    seed: int = 0
    early_stop_patience: int = 15
    n_val_tasks: int = 128

    def __post_init__(self):
        check_settings(self, "train", (
            ("epochs", int, "at least", 1), ("batches_per_epoch", int, "at least", 1),
            ("batch_size", int, "at least", 1), ("lr", float, "above", 0),
            ("weight_decay", float, "at least", 0), ("seed", int, "at least", 0),
            ("early_stop_patience", int, "at least", 1), ("n_val_tasks", int, "at least", 1),
        ))

    @classmethod
    def desk_scale(cls, seed: int = 0) -> "TrainConfig":
        return cls(epochs=20, batches_per_epoch=64, batch_size=4, seed=seed)


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    val_ll: float
    seconds: float
    param_norm: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def to_rows(self):
        return [astuple(r) for r in self.records]

    @property
    def best_val_ll(self) -> float:
        return max(r.val_ll for r in self.records)


@dataclass
class EvalSummary:
    n_tasks: int
    mean_ll: float
    stderr_ll: float
    mse: float
    stderr_mse: float
    per_task_ll: np.ndarray
    per_task_mse: np.ndarray


def standard_error(a) -> float:
    """Standard error of the mean of array ``a`` (0 for fewer than two values)."""
    return float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0


_EVAL_CHUNK = 8  # tasks per batched forward in evaluate


def _scores(pred, targets):
    """Each task's (mean target log likelihood, MSE); a non-finite log likelihood is a DiffError."""
    scores = [(lp.mean(), np.mean((pred.mean[pred.task(k)] - y.T) ** 2))  # as pred.mean: (M, dim_y)
              for k, (y, lp) in enumerate(task_log_densities(pred, targets))]
    if not np.isfinite([ll for ll, _ in scores]).all():
        raise ad.DiffError("non-finite log density")
    return scores


def evaluate(model, tasks) -> EvalSummary:
    """Per-task mean target log likelihood and mean prediction error.

    Tasks go through ``forward_many`` in chunks, without parameter leaves,
    so no tape is kept.  A task that cannot be predicted or scored raises a
    DiffError naming its index and seed.
    """
    if not tasks:
        raise ValueError("evaluate: no tasks")
    scores = []
    for i in range(0, len(tasks), _EVAL_CHUNK):
        chunk = tasks[i : i + _EVAL_CHUNK]
        scores += _score_or_name_task(model, chunk, _scores, lambda k, cause: ad.DiffError(
            f"evaluate: task {i + k} (seed {chunk[k].seed}): {cause}" if k is not None
            else f"evaluate: tasks {i} to {i + len(chunk) - 1}: {cause}"))
    lls, mses = map(np.array, zip(*scores))
    return EvalSummary(
        n_tasks=len(tasks),
        mean_ll=float(lls.mean()),
        stderr_ll=standard_error(lls),
        mse=float(mses.mean()),
        stderr_mse=standard_error(mses),
        per_task_ll=lls,
        per_task_mse=mses,
    )


def train(model, config: TrainConfig, process: ProcessSpec):
    """Meta-train ``model`` in place; returns (log, best_state, last_state).

    Each batch draws fresh tasks from the generator stream; the loss is the
    mean over tasks of the per-task mean target NLL.  A fixed validation
    set (seeds disjoint from the training stream) drives early stopping;
    the model is left holding the best-validation parameters.
    """
    store = model.params
    val_seeds = [derive_seed(config.seed, 2, i) for i in range(config.n_val_tasks)]
    val_tasks = [sample_task(process, seed) for seed in val_seeds]

    log = TrainLog()
    best_state = store.state_dict()
    best_val = -np.inf
    stale_epochs = 0
    counter = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_nll = 0.0
        for _ in range(config.batches_per_epoch):
            seeds = [derive_seed(config.seed, 1, counter + i) for i in range(config.batch_size)]
            tasks = [sample_task(process, seed) for seed in seeds]
            counter += config.batch_size
            leaves = store.leaves()
            batch_loss = _score_or_name_task(model, tasks, batch_nll, lambda k, cause: RuntimeError(
                f"non-finite loss at epoch {epoch}, "
                + (f"task seed {seeds[k]}" if k is not None else f"task seeds {seeds}")
                + f": {cause}"), leaves=leaves)
            ad.backward(batch_loss)
            store.accumulate(leaves)
            ad.adam_step(store, config.lr, config.weight_decay)
            epoch_nll += float(batch_loss.value)

        val = evaluate(model, val_tasks)
        param_norm = float(np.sqrt(sum(np.sum(p.value**2) for _, p in store.items())))
        log.records.append(EpochRecord(
            epoch=epoch, train_nll=epoch_nll / config.batches_per_epoch, val_ll=val.mean_ll,
            seconds=time.perf_counter() - t0, param_norm=param_norm,
        ))
        if val.mean_ll > best_val:
            best_val = val.mean_ll
            best_state = store.state_dict()
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.early_stop_patience:
                break

    last_state = store.state_dict()
    store.load_state_dict(best_state)
    return log, best_state, last_state


def _score_or_name_task(model, tasks, score, error, **forward):
    """Return ``score(model.forward_many(tasks, **forward), targets)``.  If that raises a
    DiffError, re-run the tasks one by one through ``forward_many([task])`` and raise
    ``error(k, cause)`` for the first task k that fails alone, or ``error(None, cause)``."""
    try:
        return score(model.forward_many(tasks, **forward), [t.target_y for t in tasks])
    except ad.DiffError as err:
        for k, task in enumerate(tasks):
            try:
                score(model.forward_many([task]), [task.target_y])
            except ad.DiffError as task_err:
                raise error(k, task_err) from task_err
        raise error(None, err) from err
