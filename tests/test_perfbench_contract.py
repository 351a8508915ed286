"""The benchmark's workloads, run in-process for one round each.

``perfbench`` imports and wraps the package's functions by name, so a renamed
or reshaped API breaks the benchmark without failing any other test.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from convcnp import autodiff as ad  # noqa: E402
from convcnp import models  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_its_checks(name, tmp_path):
    w = workloads.WORKLOADS[name]()
    w.setup(0)
    _, ll_before = w.eval_block()
    assert w.train_block(0) > 0
    _, ll_after = w.eval_block()
    results = w.checks(-ll_before, -ll_after, tmp_path)
    assert results
    failed = [(check, detail) for check, ok, detail in results if not ok]
    assert not failed


def test_tracer_finds_every_target():
    assert tracing.Tracer().missing == []


def test_tape_count_is_read_before_backward_frees_the_tape():
    """``autodiff.tape_nodes_per_task`` counts the tape before the walk that frees it."""
    w = workloads.WORKLOADS["eq-small"]()
    w.setup(0)
    tasks = w.heldout[:workloads.BATCH]
    leaves = w.model.params.leaves()
    loss = models.batch_nll(w.model.forward_many(tasks, leaves=leaves), [t.target_y for t in tasks])
    assert tracing._count_tape(loss) == 18
    ad.backward(loss)
    assert tracing._count_tape(loss) == 1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        w.train_block(0)
    finally:
        tracer.uninstall()
    counts = [c for name, *_, c in tracer.spans if name == "autodiff.backward"]
    assert counts == [{"tape_nodes": 18}] * w.batches
