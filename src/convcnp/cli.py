"""Command-line front end: data generation, training, evaluation, audits.

Every output file embeds the config hash, package version, and seed, so
rerunning a command with the same triplet reproduces it bit-for-bit
(wall-time columns excepted).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .kernels import DATA_KERNELS
from .models import CNPBaseline, CnnSpec, ConvCNP, nll_loss
from .oracle import GPOracle
from .synthdata import ProcessSpec, check_settings, fits, sample_task
from .training import TrainConfig, derive_seed, evaluate, train

MODEL_VARIANTS = ("convcnp-small", "convcnp-xl", "cnp")
_TOP_KEYS = {"process", "model", "train", "eval", "out_dir"}


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set, where: str = ""):
    """Name every key outside ``allowed``, as ``<where>.<key>`` inside a section."""
    unknown = [f"{where}.{key}" if where else key for key in sorted(set(section) - allowed)]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _section(raw: dict, name: str, base):
    """``base`` with the settings of the config's ``name`` section replaced."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    _check_keys(section, {f.name for f in fields(base)}, name)
    return replace(base, **section)


@dataclass(frozen=True)
class ModelSpec:
    """The ``model`` section; a ConvCNP's grid margin follows its receptive field."""

    variant: str = "convcnp-small"
    gamma: float = 32.0
    init_seed: int = 0

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise ConfigError(
                f"model.variant must be one of {MODEL_VARIANTS}, got {self.variant!r}"
            )
        check_settings(self, "model", (
            ("gamma", float, "above", 0), ("init_seed", int, "at least", 0),
        ))


# Within this range a grid-multiple shift moves a ConvCNP's prediction by under 1e-10:
# at most 8.2e-11 at +-100 on Lotka-Volterra tasks, and 3.8e-10 at 1,000.
MAX_SHIFT = 100.0


@dataclass(frozen=True)
class EvalSpec:
    """Held-out tasks and input shift: the defaults of ``--tasks`` and ``--shift``."""

    n_tasks: int = 500
    shift: float = 4.0

    def __post_init__(self):
        check_settings(self, "eval", (
            ("n_tasks", int, "at least", 1), ("shift", float, "of magnitude at most", MAX_SHIFT),
        ))


@dataclass(frozen=True)
class ExperimentConfig:
    process: ProcessSpec
    model: ModelSpec
    train: TrainConfig
    eval: EvalSpec
    out_dir: str
    config_hash: str

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        _check_keys(raw, _TOP_KEYS)
        proc = raw.get("process")
        kind = proc.get("kind", "eq") if isinstance(proc, dict) else "eq"
        train = _section(raw, "train", TrainConfig())
        if "seed" in raw.get("train", {}):
            raise ConfigError("train.seed is not accepted; pass --seed instead")
        out_dir = raw.get("out_dir", "runs/default")
        if not isinstance(out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        return cls(
            process=_section(raw, "process", ProcessSpec.default_for(kind)),
            model=_section(raw, "model", ModelSpec()),
            train=train,
            eval=_section(raw, "eval", EvalSpec()),
            out_dir=out_dir,
            config_hash=hashlib.sha256(canonical.encode()).hexdigest()[:16],
        )

    def build_model(self):
        dim_y = 2 if self.process.kind == "lotka-volterra" else 1
        spec = self.model
        if spec.variant == "cnp":
            return CNPBaseline(dim_y=dim_y, init_seed=spec.init_seed)
        cnn = CnnSpec.xl if spec.variant == "convcnp-xl" else CnnSpec.small
        return ConvCNP(dim_y=dim_y, gamma=spec.gamma, cnn=cnn(dim_y), init_seed=spec.init_seed)


def _provenance(config: ExperimentConfig, seed: int) -> list[str]:
    return [
        f"# config_hash={config.config_hash}",
        f"# version={__version__}",
        f"# seed={seed}",
    ]


def _write_csv(path, header_lines, columns, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(line + "\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def _eval_tasks(config: ExperimentConfig, seed: int, n: int):
    return [
        sample_task(config.process, derive_seed(seed, 3, i)) for i in range(n)
    ]


EVAL_COLUMNS = (
    "model", "process", "n_tasks", "mean_ll", "stderr_ll", "mse", "stderr_mse",
    "range_tag",
)


def cmd_generate(config: ExperimentConfig, args):
    seed, out, n_tasks = args.seed, args.out, args.tasks
    out.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    tasks = []
    for i in range(n_tasks):
        tasks.append(sample_task(config.process, derive_seed(seed, 0, i), stats=stats))
    with open(out / "tasks.jsonl", "w") as f:
        for task in tasks:
            f.write(json.dumps(task.to_json()) + "\n")
    manifest = {
        "config_hash": config.config_hash,
        "version": __version__,
        "seed": seed,
        "n_tasks": n_tasks,
        "process": config.process.kind,
    }
    if stats:
        total = stats.get("lv_accepted", 0) + stats.get("lv_rejected", 0)
        manifest["lv_rejection_rate"] = stats.get("lv_rejected", 0) / max(total, 1)
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"wrote {n_tasks} tasks to {out}")


def cmd_train(config: ExperimentConfig, args):
    seed, out = args.seed, args.out
    out.mkdir(parents=True, exist_ok=True)
    model = config.build_model()
    log, best_state, last_state = train(
        model, replace(config.train, seed=seed), config.process
    )
    _write_csv(
        out / "train_log.csv",
        _provenance(config, seed),
        ("epoch", "train_nll", "val_ll", "seconds", "param_norm"),
        log.to_rows(),
    )
    model.params.load_state_dict(last_state)
    ad.save_checkpoint(model.params, out / "last.json")
    model.params.load_state_dict(best_state)
    ad.save_checkpoint(model.params, out / "best.json")
    print(f"trained {config.model.variant}: best val LL {log.best_val_ll:.4f}")


def _load_model(config: ExperimentConfig, checkpoint):
    model = config.build_model()
    if checkpoint is not None:
        try:
            ad.load_checkpoint(model.params, checkpoint)
        except ad.DiffError as err:
            raise ad.DiffError(f"{err} (model.variant {config.model.variant!r})") from None
    return model


def cmd_evaluate(config: ExperimentConfig, args):
    """Score the model and, on a GP process, the exact posterior on the same tasks."""
    scored = [("eval", config.model.variant, _load_model(config, args.checkpoint))]
    if config.process.kind in DATA_KERNELS:
        scored.append(("oracle", "gp-oracle", GPOracle(DATA_KERNELS[config.process.kind])))
    tasks = _eval_tasks(config, args.seed, args.tasks)
    summaries = [(label, name, evaluate(model, tasks)) for label, name, model in scored]
    _write_csv(
        args.out / "eval.csv",
        _provenance(config, args.seed),
        EVAL_COLUMNS,
        [(
            name, config.process.kind, s.n_tasks, s.mean_ll, s.stderr_ll, s.mse, s.stderr_mse,
            "in-range",
        ) for _, name, s in summaries],
    )
    for label, _, s in summaries:
        print(f"{label}: mean LL {s.mean_ll:.4f} +- {s.stderr_ll:.4f}")


def cmd_extrapolate(config: ExperimentConfig, args):
    seed, out, shift = args.seed, args.out, args.shift
    model = _load_model(config, args.checkpoint)
    tasks = _eval_tasks(config, seed, config.eval.n_tasks)
    in_range = evaluate(model, tasks)
    shifted = evaluate(model, [t.translated(shift) for t in tasks])
    delta = shifted.mean_ll - in_range.mean_ll
    _write_csv(
        out / "extrapolate.csv",
        _provenance(config, seed) + [f"# shift={shift}"],
        ("model", "process", "n_tasks", "ll_in_range", "ll_shifted", "delta_ll"),
        [(
            config.model.variant, config.process.kind, in_range.n_tasks,
            in_range.mean_ll, shifted.mean_ll, delta,
        )],
    )
    print(f"extrapolate: delta LL {delta:+.4f} nats/point at shift {shift}")


def cmd_dump(config: ExperimentConfig, args):
    seed, out = args.seed, args.out
    model = _load_model(config, args.checkpoint)
    task = sample_task(config.process, derive_seed(seed, 4, 0))
    inputs = np.concatenate([task.context_x, task.target_x])
    xs = np.linspace(inputs.min(), inputs.max(), 200)
    probe = replace(task, target_x=xs, target_y=np.zeros((len(xs), task.dim_y)))
    pred = model.forward(probe)
    rows = []
    for c in range(task.dim_y):
        rows += [
            ("prediction", c, float(x), float(mu[c]), float(sd[c]))
            for x, mu, sd in zip(xs, pred.mean, pred.std)
        ]
        rows += [
            ("context", c, float(x), float(y[c]), "")
            for x, y in zip(task.context_x, task.context_y)
        ]
    _write_csv(
        out / "predictive_dump.csv",
        _provenance(config, seed),
        ("kind", "channel", "x", "mu_or_y", "sigma"),
        rows,
    )
    print(f"dumped predictive curve to {out / 'predictive_dump.csv'}")


def cmd_gradcheck(config: ExperimentConfig, args):
    seed = args.seed
    model = ConvCNP(gamma=8.0, cnn=CnnSpec(channels=(4, 2)), init_seed=seed)
    # keep pre-activations off the ReLU kink: in grid regions far from the
    # context the conv inputs vanish, so a zero bias would put the finite
    # difference step exactly astride the non-differentiable point
    rng = np.random.default_rng(derive_seed(seed, 6))
    for name, p in model.params.items():
        if name.endswith(".bias"):
            p.value += 0.1 * rng.standard_normal(p.value.shape) + 0.05
    task = sample_task(ProcessSpec("eq", n_context=(3, 3), n_target=(2, 2)), seed)

    def builder(leaves):
        return nll_loss(model.forward(task, leaves=leaves), task.target_y)

    err = ad.grad_check(builder, model.params, step=1e-5)
    print(f"gradcheck: max relative error {err:.3e}")
    if err > 1e-4:
        raise RuntimeError(f"gradient check failed: {err:.3e} > 1e-4")


def cmd_equivariance_audit(config: ExperimentConfig, args):
    if config.model.variant == "cnp":
        raise ConfigError(
            "equivariance-audit needs a ConvCNP variant; 'cnp' has no grid to shift"
        )
    seed, out, shift = args.seed, args.out, args.shift
    rows = []
    task = sample_task(config.process, derive_seed(seed, 5, 0))
    for gamma in (16.0, 32.0, 64.0):
        model = replace(config, model=replace(config.model, gamma=gamma)).build_model()
        base = model.forward(task)
        exact_shift = round(shift * gamma) / gamma
        moved = [model.forward(task.translated(t)) for t in (exact_shift, shift + 0.3 / 7.0)]
        rows.append((gamma, exact_shift, *(
            max(np.abs(m.mean - base.mean).max(), np.abs(m.std - base.std).max()) for m in moved
        )))
    _write_csv(
        out / "equivariance.csv",
        _provenance(config, seed),
        ("gamma", "grid_shift", "deviation_grid_shift", "deviation_offgrid_shift"),
        rows,
    )
    print(f"equivariance audit written to {out / 'equivariance.csv'}")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _shift(text: str) -> float:
    if not fits(float(text), float, "of magnitude at most", MAX_SHIFT):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of magnitude at most {MAX_SHIFT:g}, got {text}"
        )
    return float(text)


# command -> (handler, the flags it reads besides --config and --seed)
COMMANDS = {
    "generate-data": (cmd_generate, ("out", "tasks")),
    "train": (cmd_train, ("out",)),
    "evaluate": (cmd_evaluate, ("out", "checkpoint", "tasks")),
    "extrapolate": (cmd_extrapolate, ("out", "checkpoint", "shift")),
    "dump": (cmd_dump, ("out", "checkpoint")),
    "gradcheck": (cmd_gradcheck, ()),
    "equivariance-audit": (cmd_equivariance_audit, ("out", "shift")),
}

FLAGS = {
    "out": dict(help="output directory (default: the config's out_dir)"),
    "checkpoint": dict(help="parameter checkpoint to load (default: the initialisation)"),
    "tasks": dict(
        type=_positive_int, help="number of tasks (default: the config's eval.n_tasks)"
    ),
    "shift": dict(type=_shift, help="input translation (default: the config's eval.shift)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convcnp",
        description="Train and evaluate grid-embedded conditional neural processes "
        "against exact GP oracles on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON file")
        p.add_argument("--seed", type=int, default=0)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        if "out" in args:
            args.out = Path(args.out or config.out_dir)
        if "tasks" in args and args.tasks is None:
            args.tasks = config.eval.n_tasks
        if "shift" in args and args.shift is None:
            args.shift = config.eval.shift
        COMMANDS[args.command][0](config, args)
    except (ConfigError, OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
