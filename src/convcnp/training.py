"""Maximum-likelihood meta-training on a stream of fresh synthetic tasks."""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import autodiff as ad
from .models import batch_nll, nll_loss, task_log_likelihood
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


def evaluate(model, tasks) -> EvalSummary:
    """Per-task mean target log likelihood and mean prediction error.

    Tasks go through ``forward_many`` in chunks, without parameter leaves,
    so no tape is kept.  A task that cannot be scored raises a DiffError
    naming its index and seed.
    """
    if not tasks:
        raise ValueError("evaluate: no tasks")
    lls, mses = [], []
    for i in range(0, len(tasks), _EVAL_CHUNK):
        chunk = tasks[i : i + _EVAL_CHUNK]
        pred = model.forward_many(chunk)
        mean = pred.mean
        for k, task in enumerate(chunk):
            try:
                lls.append(task_log_likelihood(pred, k, task.target_y))
            except ad.DiffError as err:
                raise ad.DiffError(f"evaluate: task {i + k} (seed {task.seed}): {err}") from err
            mses.append(float(np.mean((mean[pred.task(k)] - task.target_y) ** 2)))
    lls = np.asarray(lls)
    mses = np.asarray(mses)
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
            try:
                pred = model.forward_many(tasks, leaves=leaves)
                batch_loss = batch_nll(pred, [t.target_y for t in tasks])
            except ad.DiffError as err:
                _raise_naming_task(model, tasks, epoch, err)
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


def _raise_naming_task(model, tasks, epoch, err):
    """A batch failed as a whole: name the first of its tasks that fails alone."""
    for task in tasks:
        try:
            nll_loss(model.forward(task), task.target_y)
        except ad.DiffError as task_err:
            raise RuntimeError(
                f"non-finite loss at epoch {epoch}, task seed {task.seed}: {task_err}"
            ) from task_err
    raise RuntimeError(
        f"non-finite loss at epoch {epoch}, task seeds {[t.seed for t in tasks]}: {err}"
    ) from err
