"""Guard for the benchmark tracer's patch table.

``perfbench/tracer.py`` records host-clock spans by patching the
program's public calls *by name*: module attributes such as
``repro.parallel.moda.allreduce_gradients`` and methods such as
``MoDaTrainer.train_step``. A refactor that drops or renames one of them
breaks the benchmark's traced pass; this test makes it break here first.
"""

import sys
from pathlib import Path

import pytest

import repro.parallel.moda as moda
import repro.parallel.strategy as strategy
from repro.models import tiny_config
from repro.parallel.moda import MoDaTrainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Names the traced training pass reads its per-layer metrics through.
PATCHED = [
    (moda, "allreduce_gradients"),
    (moda, "clip_grad_norm"),
    (moda, "global_grad_norm"),
    (moda, "grads_have_overflow"),
    (MoDaTrainer, "train_step"),
    (strategy, "cast_model"),
]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "stats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracer

    return tracer


def test_install_records_training_spans_and_uninstall_restores(tracer):
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    rec = tracer.install(tracer.SpanRecorder())
    try:
        for (owner, attr), orig in zip(PATCHED, originals):
            assert getattr(owner, attr) is not orig, f"{attr} was not patched"
        import repro.api as api

        api.run_distributed_training(api.TrainingRunConfig(
            model=tiny_config(num_experts=2), world_size=2, ep_size=2,
            num_steps=1, batch_size=2, seq_len=8, mixed_precision=True,
        ))
        names = {span["name"] for span in rec.spans}
    finally:
        rec.uninstall()
    assert {
        "parallel.run", "parallel.step", "parallel.grad_sync",
        "amp.cast", "amp.overflow_check", "train.clip", "train.optim",
    } <= names
    for (owner, attr), orig in zip(PATCHED, originals):
        assert getattr(owner, attr) is orig, f"{attr} was not restored"
