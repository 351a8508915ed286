import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convcnp import autodiff as ad
from convcnp.cli import (
    EVAL_COLUMNS,
    MAX_SHIFT,
    ConfigError,
    ExperimentConfig,
    main,
)
from convcnp.kernels import DATA_KERNELS
from convcnp.models import CNPBaseline, ConvCNP
from convcnp.oracle import gp_task_ll
from convcnp.synthdata import sample_task
from convcnp.training import derive_seed, standard_error


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "process": {"kind": "eq", "n_context": [3, 6], "n_target": [3, 6]},
        "model": {"variant": "convcnp-small", "gamma": 8.0},
        "train": {
            "epochs": 1, "batches_per_epoch": 2, "batch_size": 2, "n_val_tasks": 4,
        },
        "eval": {"n_tasks": 4},
        "out_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_csv(path):
    header_lines = []
    with open(path) as f:
        lines = f.read().splitlines()
    i = 0
    while lines[i].startswith("#"):
        header_lines.append(lines[i])
        i += 1
    rows = list(csv.reader(lines[i:]))
    return header_lines, rows[0], rows[1:]


class TestConfig:
    def test_defaults(self, tmp_path):
        path = write_config(tmp_path)
        cfg = ExperimentConfig.from_file(path)
        assert cfg.model.variant == "convcnp-small"
        assert cfg.process.kind == "eq"
        assert cfg.model.gamma == 8.0
        assert len(cfg.config_hash) == 16

    def test_hash_changes_with_content(self, tmp_path):
        a = ExperimentConfig.from_file(write_config(tmp_path, "a.json"))
        b = ExperimentConfig.from_file(
            write_config(tmp_path, "b.json", model={"gamma": 16.0})
        )
        assert a.config_hash != b.config_hash

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra_section={"x": 1})
        with pytest.raises(ConfigError, match="extra_section"):
            ExperimentConfig.from_file(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = write_config(tmp_path, model={"variant": "convcnp-small", "depth": 9})
        with pytest.raises(ConfigError, match="depth"):
            ExperimentConfig.from_file(path)

    def test_train_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, train={"seed": 7})
        with pytest.raises(ConfigError, match="--seed"):
            ExperimentConfig.from_file(path)

    def test_unknown_variant_rejected(self, tmp_path):
        path = write_config(tmp_path, model={"variant": "transformer"})
        with pytest.raises(ConfigError, match="transformer"):
            ExperimentConfig.from_file(path)

    def test_build_model_variants(self, tmp_path):
        small = ExperimentConfig.from_file(write_config(tmp_path, "s.json"))
        assert isinstance(small.build_model(), ConvCNP)
        cnp = ExperimentConfig.from_file(
            write_config(tmp_path, "c.json", model={"variant": "cnp"})
        )
        assert isinstance(cnp.build_model(), CNPBaseline)

    def test_readme_minimal_config_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"A minimal config:\s*```json\n(.*?)```", readme, re.S)
        cfg = ExperimentConfig.from_dict(json.loads(block.group(1)))
        assert cfg.model.variant == "convcnp-small"

    def test_lv_process_gets_two_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, process={"kind": "lotka-volterra"})
        )
        assert cfg.build_model().dim_y == 2


class TestGenerateData:
    def test_writes_tasks_and_manifest(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "data"
        assert main([
            "generate-data", "--config", str(config), "--out", str(out),
            "--tasks", "5", "--seed", "3",
        ]) == 0
        lines = (out / "tasks.jsonl").read_text().splitlines()
        assert len(lines) == 5
        task = json.loads(lines[0])
        assert {"context_x", "context_y", "target_x", "target_y"} <= set(task)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_tasks"] == 5 and manifest["seed"] == 3
        assert manifest["process"] == "eq"

    def test_rerun_bit_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            main([
                "generate-data", "--config", str(config), "--out", str(out),
                "--tasks", "4",
            ])
            outs.append((out / "tasks.jsonl").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flags, config_n_tasks, code",
        [
            (["--tasks", "0"], 4, 2),  # argparse rejects it
            (["--tasks", "-2"], 4, 2),
            ([], 0, 1),  # the config's default is rejected as a ConfigError
        ],
    )
    def test_task_counts_below_one_rejected(
        self, tmp_path, capsys, flags, config_n_tasks, code
    ):
        config = write_config(tmp_path, eval={"n_tasks": config_n_tasks})
        out = tmp_path / "data"
        argv = ["generate-data", "--config", str(config), "--out", str(out), *flags]
        try:
            got = main(argv)
        except SystemExit as exit_:
            got = exit_.code
        assert got == code
        assert "at least 1" in capsys.readouterr().err
        assert not (out / "tasks.jsonl").exists()

    def test_lv_manifest_reports_rejection_rate(self, tmp_path):
        config = write_config(tmp_path, process={
            "kind": "lotka-volterra", "n_context": [3, 6], "n_target": [3, 6],
        })
        out = tmp_path / "lv"
        assert main([
            "generate-data", "--config", str(config), "--out", str(out),
            "--tasks", "3",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 <= manifest["lv_rejection_rate"] < 1.0

    # (section, key, value): None as the key replaces the whole section, and
    # None as the section sets a top-level key
    MALFORMED = {
        "one-bound": ("process", "n_context", [5]),
        "scalar-range": ("process", "x_range", 5),
        "low-above-high": ("process", "n_context", [50, 3]),
        "no-targets": ("process", "n_target", [0, 0]),
        "bool-in-count-pair": ("process", "n_context", [True, 5]),
        "section-not-object": ("process", None, [1, 2]),
        "string-flag": ("model", "sigma_floor", "false"),
        "fractional-init-seed": ("model", "init_seed", 1.9),
        "bool-gamma": ("model", "gamma", True),
        "zero-gamma": ("model", "gamma", 0),
        "negative-gamma": ("model", "gamma", -4),
        "gamma-beyond-float": ("model", "gamma", 10**400),
        "nan-lr": ("train", "lr", float("nan")),
        "fractional-epochs": ("train", "epochs", 1.5),
        "fractional-n-tasks": ("eval", "n_tasks", 2.7),
        "bool-n-tasks": ("eval", "n_tasks", True),
        "infinite-shift": ("eval", "shift", float("inf")),
        "shift-beyond-range": ("eval", "shift", 1e308),
        "shift-just-beyond-range": ("eval", "shift", -100.5),
        "null-shift": ("eval", "shift", None),
        "scalar-section": ("eval", None, 3),
        "numeric-out-dir": (None, "out_dir", 5),
    }

    @pytest.mark.parametrize("section, key, value", MALFORMED.values(), ids=MALFORMED)
    def test_bad_range_is_a_config_error(self, tmp_path, capsys, section, key, value):
        config = write_config(tmp_path)
        raw = json.loads(config.read_text())
        if section is None:
            raw[key] = value
        elif key is None:
            raw[section] = value
        else:
            raw[section][key] = value
        config.write_text(json.dumps(raw))  # NaN and Infinity as json.load reads them
        assert main(["generate-data", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        name = ".".join(part for part in (section, key) if part)
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestTrainEvaluate:
    def test_train_writes_log_and_checkpoints(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        header, columns, rows = read_csv(out / "train_log.csv")
        assert columns == ["epoch", "train_nll", "val_ll", "seconds", "param_norm"]
        assert len(rows) == 1
        assert any(line.startswith("# config_hash=") for line in header)
        assert any(line.startswith("# seed=") for line in header)
        for name in ("best.json", "last.json"):
            doc = json.loads((out / name).read_text())
            assert doc["format_version"] == 1 and doc["params"]

    def test_evaluate_from_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        main(["train", "--config", str(config), "--out", str(run)])
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config), "--out", str(out),
            "--checkpoint", str(run / "best.json"), "--tasks", "4",
        ]) == 0
        _, columns, rows = read_csv(out / "eval.csv")
        assert columns == list(EVAL_COLUMNS)
        assert rows[0][0] == "convcnp-small" and rows[0][2] == "4"
        assert np.isfinite(float(rows[0][3]))

    def test_evaluate_rerun_bit_identical(self, tmp_path):
        config = write_config(tmp_path)
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main([
                "evaluate", "--config", str(config), "--out", str(out),
                "--tasks", "4", "--seed", "7",
            ])
            blobs.append((out / "eval.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("doc", [
        [],
        {"format_version": 1},
        {"format_version": 1, "params": [{"name": "encoder.log_length_scale", "shape": []}]},
    ], ids=["list", "no-params", "entry-without-data"])
    def test_malformed_checkpoint_fails_cleanly(self, tmp_path, capsys, doc):
        config = write_config(tmp_path)
        checkpoint = tmp_path / "malformed.json"
        checkpoint.write_text(json.dumps(doc))
        code = main([
            "evaluate", "--config", str(config), "--out", str(tmp_path / "x"),
            "--checkpoint", str(checkpoint), "--tasks", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(checkpoint) in err
        assert not (tmp_path / "x").exists()

    def test_checkpoint_of_another_variant_fails_briefly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cnp = ExperimentConfig.from_file(write_config(tmp_path, model={"variant": "cnp"}))
        checkpoint = "cnp.json"
        ad.save_checkpoint(cnp.build_model().params, checkpoint)
        config = write_config(tmp_path)
        code = main([
            "evaluate", "--config", str(config), "--out", "x", "--checkpoint", checkpoint,
            "--tasks", "2",
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and len(lines[0]) < 200
        assert checkpoint in lines[0] and "'convcnp-small'" in lines[0]
        assert re.search(r"\d+ missing \(([^,()]+, ){2}[^,()]+, \.\.\.\)", lines[0])
        assert not (tmp_path / "x").exists()

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main([
            "evaluate", "--config", str(config), "--out", str(tmp_path / "x"),
            "--checkpoint", str(tmp_path / "nope.json"), "--tasks", "2",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_oracle_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config), "--out", str(out), "--tasks", "6",
        ]) == 0
        _, columns, rows = read_csv(out / "eval.csv")
        assert columns == list(EVAL_COLUMNS)
        assert [row[0] for row in rows] == ["convcnp-small", "gp-oracle"]
        assert [row[2] for row in rows] == ["6", "6"]
        # conditioning on noiseless context must beat the N(0, 1) prior
        assert float(rows[1][3]) > -1.42
        assert float(rows[1][5]) > 0.0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("eval: mean LL ")
        assert printed[1].startswith("oracle: mean LL ")

    def test_oracle_row_is_mean_and_stderr_of_gp_task_ll(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config), "--out", str(out), "--tasks", "5",
            "--seed", "4",
        ]) == 0
        _, _, rows = read_csv(out / "eval.csv")
        process = ExperimentConfig.from_file(config).process
        tasks = [sample_task(process, derive_seed(4, 3, i)) for i in range(5)]
        lls = np.array([gp_task_ll(DATA_KERNELS["eq"], t) for t in tasks])
        assert rows[1][0] == "gp-oracle"
        assert (float(rows[1][3]), float(rows[1][4])) == (lls.mean(), standard_error(lls))

    def test_non_gp_process_has_no_oracle_row(self, tmp_path, capsys):
        config = write_config(tmp_path, process={"kind": "sawtooth"})
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config), "--out", str(out), "--tasks", "2",
        ]) == 0
        _, _, rows = read_csv(out / "eval.csv")
        assert [row[0] for row in rows] == ["convcnp-small"]
        assert "oracle" not in capsys.readouterr().out

    def test_oracle_command_is_gone(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--config", str(config), "--out", str(tmp_path / "x")])
        assert exit_info.value.code == 2


class TestOtherCommands:
    def test_extrapolate_csv(self, tmp_path):
        config = write_config(tmp_path, eval={"n_tasks": 3})
        out = tmp_path / "ex"
        assert main([
            "extrapolate", "--config", str(config), "--out", str(out),
            "--shift", "2.0",
        ]) == 0
        header, columns, rows = read_csv(out / "extrapolate.csv")
        assert columns[-1] == "delta_ll"
        assert any(line == "# shift=2.0" for line in header)
        in_range, shifted, delta = map(float, rows[0][3:])
        assert delta == pytest.approx(shifted - in_range, abs=1e-12)
        # an untrained but translation-equivariant model shifts losslessly
        assert abs(delta) < 1e-6

    def test_dump_csv(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "dump"
        assert main(["dump", "--config", str(config), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out / "predictive_dump.csv")
        assert columns == ["kind", "channel", "x", "mu_or_y", "sigma"]
        kinds = {row[0] for row in rows}
        assert kinds == {"prediction", "context"}
        assert sum(r[0] == "prediction" for r in rows) == 200

    def test_dump_csv_lotka_volterra_writes_both_channels(self, tmp_path):
        config = write_config(
            tmp_path,
            process={"kind": "lotka-volterra", "n_context": [3, 6], "n_target": [3, 6]},
        )
        out = tmp_path / "dump"
        assert main(["dump", "--config", str(config), "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "predictive_dump.csv")
        preds = [r for r in rows if r[0] == "prediction"]
        contexts = [r for r in rows if r[0] == "context"]
        assert len(preds) == 2 * 200
        assert {r[1] for r in preds} == {"0", "1"}
        n_context = sum(r[1] == "0" for r in contexts)
        assert n_context >= 3 and sum(r[1] == "1" for r in contexts) == n_context
        xs = [float(r[2]) for r in preds]
        assert 0.0 <= min(xs) < max(xs) <= 100.0
        assert max(xs) > 2.0  # probes the task's own span, not (-2, 2)

    def test_gradcheck_passes(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(config)]) == 0
        assert "max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(1, 20))  # seed 6 needs the roundoff allowance
    def test_gradcheck_passes_at_other_seeds(self, tmp_path, seed):
        config = write_config(tmp_path)
        assert main(["gradcheck", "--config", str(config), "--seed", str(seed)]) == 0

    def test_equivariance_audit(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "eq"
        assert main([
            "equivariance-audit", "--config", str(config), "--out", str(out),
            "--shift", "1.0",
        ]) == 0
        _, columns, rows = read_csv(out / "equivariance.csv")
        assert [float(r[0]) for r in rows] == [16.0, 32.0, 64.0]
        for row in rows:
            assert float(row[2]) < 1e-10  # grid-aligned shift is exact
        offgrid = [float(r[3]) for r in rows]
        assert offgrid[0] > offgrid[-1]  # denser grids track better

    def test_equivariance_audit_lotka_volterra(self, tmp_path):
        config = write_config(tmp_path, process={"kind": "lotka-volterra"})
        out = tmp_path / "eq"
        assert main([
            "equivariance-audit", "--config", str(config), "--out", str(out),
        ]) == 0
        _, _, rows = read_csv(out / "equivariance.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row[2]) < 1e-10

    def test_equivariance_audit_uses_configured_variant(self, tmp_path):
        offgrid = {}
        for variant in ("convcnp-small", "convcnp-xl"):
            config = write_config(tmp_path, name=f"{variant}.json", model={"variant": variant})
            out = tmp_path / variant
            assert main([
                "equivariance-audit", "--config", str(config), "--out", str(out),
            ]) == 0
            _, _, rows = read_csv(out / "equivariance.csv")
            assert len(rows) == 3
            for row in rows:
                assert float(row[2]) < 1e-10
            offgrid[variant] = [r[3] for r in rows]
        assert offgrid["convcnp-xl"] != offgrid["convcnp-small"]  # a different model ran

    def test_equivariance_audit_rejects_cnp(self, tmp_path, capsys):
        config = write_config(tmp_path, model={"variant": "cnp"})
        assert main([
            "equivariance-audit", "--config", str(config), "--out", str(tmp_path / "eq"),
        ]) == 1
        assert "'cnp'" in capsys.readouterr().err

    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--config", str(config), "--checkpoint", "x"])
        assert exit_info.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["extrapolate", "equivariance-audit"])
    @pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
    def test_shift_that_is_not_finite_is_rejected(self, tmp_path, capsys, command, shift):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(config), f"--shift={shift}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--shift" in err and "finite" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["extrapolate", "equivariance-audit"])
    @pytest.mark.parametrize("shift", ["1e308", "-100.5"])
    def test_shift_beyond_range_is_rejected(self, tmp_path, capsys, command, shift):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(config), f"--shift={shift}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--shift" in err and f"at most {MAX_SHIFT:g}" in err
        assert not (tmp_path / "run").exists()

    def test_equivariance_audit_at_the_edge_of_the_shift_range(self, tmp_path):
        # Lotka-Volterra outputs are the largest, so their deviation is too.
        config = write_config(tmp_path, process={"kind": "lotka-volterra"})
        out = tmp_path / "eq"
        assert main([
            "equivariance-audit", "--config", str(config), "--out", str(out),
            f"--shift={MAX_SHIFT}",
        ]) == 0
        _, _, rows = read_csv(out / "equivariance.csv")
        assert [float(r[1]) for r in rows] == [MAX_SHIFT] * 3
        for row in rows:
            assert float(row[2]) < 1e-10

    @pytest.mark.parametrize("case", ["checkpoint-dir", "config-dir", "train-out", "generate-out"])
    def test_os_errors_fail_cleanly(self, tmp_path, capsys, case):
        config = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {
            "checkpoint-dir": [
                "evaluate", "--config", str(config), "--checkpoint", str(tmp_path),
                "--out", str(tmp_path / "x"),
            ],
            "config-dir": ["train", "--config", str(tmp_path), "--out", str(tmp_path / "x")],
            "train-out": ["train", "--config", str(config), "--out", str(taken)],
            "generate-out": ["generate-data", "--config", str(config), "--out", str(taken)],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_bad_config_path(self, tmp_path, capsys):
        code = main([
            "dump", "--config", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


def test_importing_the_package_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = (
        "import sys, convcnp, convcnp.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
