"""Elastic training segments: run a logical world on fewer ranks, exactly.

The supervisor's central trick is *shrink-and-reshard*: when a node is
gone for good, finish the job on half the ranks. The catch is
reproducibility — this repo's training is deterministic, and the
resilience tests (like BaGuaLu-class production debugging) demand that a
recovered run reproduce the healthy trajectory bit for bit. Naively
re-sharding data across a smaller world changes both the batch→rank
assignment and the floating-point reduction order, which changes every
loss after the restore point.

:class:`ElasticStepDriver` avoids both: a world of ``W`` ranks executes a
*logical* world of ``W0 = k*W`` ranks by feeding the one in-plane step,
:meth:`~repro.parallel.moda.MoDaTrainer.train_step`, ``k`` accumulation
microbatches per optimizer step. At microstep ``m``, physical rank ``r``
plays logical rank ``m*W + r``:

* **data**: the microstep loader reads logical rank ``m*W + r``'s stream
  (``dp_size = W0``), so every batch lands exactly where the full world
  would have put it;
* **experts**: the EP width is preserved, and because EP groups are
  consecutive ranks, microstep ``m``'s EP groups are exactly logical EP
  groups ``m*W/ep .. (m+1)*W/ep - 1`` — all MoE alltoalls and expert
  matmuls replay bitwise;
* **reductions**: the simulated allreduce left-folds contributions in
  group-rank order, so the healthy fold ``((g0+g1)+g2)+g3`` is reproduced
  by *fold-carry* accumulation — at microstep ``m``, group rank 0
  contributes ``acc + g`` (the carried partial sum plus its fresh
  gradient), making the chained fold associate exactly like one wide
  fold. The final accumulator divides by the **logical** group size.

The same fold-carry chain reproduces the world-averaged loss. When the
EP width itself must shrink, expert-gradient matmuls regroup their row
reductions, so equality is only guaranteed up to float reassociation —
in practice the test configurations reproduce bitwise there too (each
row's forward is independent, and the split accumulations agree), and
the supervisor preserves ``ep`` whenever it divides the shrunken world.

Exactness assumes deterministic routing (the default ``topk`` gate);
stochastic gates draw per-rank RNG whose streams do not survive the
rank remapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.parallel.dist_checkpoint import load_distributed, save_distributed
from repro.parallel.runner import TrainingRunConfig
from repro.parallel.strategy import _PlaneTrainer

__all__ = ["ElasticStepDriver", "SegmentProgress", "SegmentSpec"]


@dataclass
class SegmentProgress:
    """Mutable side-channel between a running segment and the supervisor.

    ``run_spmd`` passes args by reference, so rank 0's updates stay
    visible to the supervisor even when the launch later dies — this is
    how lost step-work (completed but not yet durable) is measured.
    """

    completed_step: int = 0
    durable_step: int = 0


@dataclass(frozen=True)
class SegmentSpec:
    """Everything one elastic training segment needs, shipped to ranks."""

    run_cfg: TrainingRunConfig
    #: The original (full) world size whose trajectory we reproduce.
    logical_world: int
    #: The original EP width (sets the expert-gradient divisor).
    logical_ep: int
    total_steps: int
    checkpoint_every: int
    checkpoint_dir: str
    resume_dir: str | None
    progress: SegmentProgress
    machine: Any = None


class ElasticStepDriver(_PlaneTrainer):
    """The in-plane step, replayed for a logical world ``k`` times as wide.

    Wraps a built in-plane rank trainer (the strategy registry's
    ``_PlaneTrainer`` around a :class:`~repro.parallel.strategy.HybridTrainer`)
    and keeps only what is elastic: ``k = logical_world / world`` loaders,
    one per logical rank this rank plays, and the logical group sizes as
    gradient divisors. The step itself is the trainer's own fold-carry
    :meth:`~repro.parallel.moda.MoDaTrainer.train_step`; with
    ``logical_world == world`` it is the plain step (``k=1``).
    """

    def __init__(self, plane, logical_world: int, logical_ep: int, cfg: TrainingRunConfig):
        if not isinstance(plane, _PlaneTrainer):
            raise ConfigError(
                "elastic training needs an in-plane strategy trainer "
                "(dp/ep/moda); got an incompatible rank trainer"
            )
        world = plane.comm.size
        if logical_world % world != 0:
            raise ConfigError(
                f"logical world {logical_world} must be a multiple of "
                f"the physical world {world}"
            )
        if logical_world % logical_ep != 0:
            raise ConfigError(
                f"logical ep {logical_ep} must divide logical world {logical_world}"
            )
        divisors = {
            "dense": float(logical_world),
            "expert": float(logical_world // logical_ep),
        }
        for label, _, _ in plane.trainer.sync_groups:
            if label not in divisors:
                raise ConfigError(
                    f"elastic accumulation cannot average sync group "
                    f"{label!r} (only dense/expert axes are supported)"
                )
        corpus = SyntheticCorpus(
            vocab_size=cfg.model.vocab_size,
            predictability=cfg.corpus_predictability,
            seed=cfg.seed,
        )
        # Microstep m reads logical rank (m*W + r)'s data stream.
        loaders = [
            ShardedLoader(
                corpus,
                cfg.batch_size,
                cfg.seq_len,
                dp_rank=m * world + plane.comm.rank,
                dp_size=logical_world,
            )
            for m in range(logical_world // world)
        ]
        super().__init__(
            plane.trainer, plane.model, loaders, plane.comm,
            strategy_name="elastic", divisors=divisors,
        )


def run_elastic_segment(comm, spec: SegmentSpec) -> dict[str, Any]:
    """SPMD rank program: train from the latest snapshot to completion.

    Builds the rank trainer through the strategy registry, restores the
    resume snapshot (parameters *and* optimizer state, under any layout),
    then steps the :class:`ElasticStepDriver`, checkpointing every
    ``checkpoint_every`` steps. Dies wherever the fault plan/model says.
    """
    cfg = spec.run_cfg
    strategy = cfg.resolve_strategy()
    plane = strategy.build(comm, cfg, spec.machine)
    trainer = plane.trainer
    model = plane.model
    start = 0
    if spec.resume_dir is not None:
        meta = load_distributed(
            Path(spec.resume_dir), model, optimizer=trainer.optimizer
        )
        start = int(meta["step"])
    trainer.step_count = start
    driver = ElasticStepDriver(plane, spec.logical_world, spec.logical_ep, cfg)

    losses: list[float] = []
    ckpts: list[int] = []
    for step in range(start, spec.total_steps):
        out = driver.train_step(step)
        losses.append(out.global_loss)
        done = step + 1
        if comm.rank == 0:
            spec.progress.completed_step = done
        if done % spec.checkpoint_every == 0 or done == spec.total_steps:
            save_distributed(
                Path(spec.checkpoint_dir) / f"step-{done:06d}",
                model,
                trainer.groups,
                step=done,
                optimizer=trainer.optimizer,
            )
            ckpts.append(done)
            if comm.rank == 0:
                spec.progress.durable_step = done
    return {"losses": losses, "start": start, "ckpts": ckpts}
