"""MoDa: the hybrid data x expert parallel training strategy.

This module wires everything together for one rank of an SPMD program:

* :func:`build_moda_model` — an :class:`~repro.models.MoELanguageModel`
  whose MoE FFNs are :class:`~repro.parallel.ep.DistributedMoELayer`
  sharded over the rank's EP group; replicated parameters are
  bit-identical across ranks by construction (shared RNG streams).
* :class:`MoDaTrainer` — the distributed step: local forward/backward,
  dense-gradient allreduce over the world, expert-gradient allreduce over
  the expert-data-parallel group, globally-agreed loss-scale handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch
from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.module import Module, Parameter
from repro.models.transformer import MoELanguageModel
from repro.parallel.dp import (
    allreduce_gradients,
    broadcast_parameters,
    flatten_grads,
    iallreduce_gradients,
    unflatten_grads,
)
from repro.parallel.ep import DistributedMoELayer
from repro.parallel.groups import MoDaGroups
from repro.simmpi import MAX
from repro.train.clip import clip_grad_norm, global_grad_norm
from repro.train.optim import Optimizer
from repro.train.schedules import ConstantLR, LRSchedule

__all__ = ["build_moda_model", "split_params", "MoDaTrainer", "MoDaStepResult"]


def build_moda_model(
    config: ModelConfig,
    groups: MoDaGroups,
    seed: int = 0,
    alltoall_algorithm: str | None = None,
    compute_hook: Callable[[int], None] | None = None,
    overlap_chunks: int = 1,
) -> MoELanguageModel:
    """Construct the per-rank model for MoDa training.

    Dense/router parameters come from RNG streams consumed identically on
    every rank; expert parameters are seeded per global expert id, so the
    *model* (the union of all shards) is independent of the layout.
    """
    if config.num_experts % groups.grid.ep_size != 0:
        raise ConfigError(
            f"ep_size={groups.grid.ep_size} must divide "
            f"num_experts={config.num_experts}"
        )

    def moe_factory(layer_idx: int, rng: np.random.Generator) -> Module:
        return DistributedMoELayer(
            config.d_model,
            config.d_ff,
            config.num_experts,
            groups.ep,
            shared_rng=rng,
            seed=seed,
            layer_id=layer_idx,
            gate=config.gate,
            top_k=config.top_k,
            capacity_factor=config.capacity_factor,
            aux_weight=config.aux_weight,
            z_weight=config.z_weight,
            alltoall_algorithm=alltoall_algorithm,
            dtype=config.dtype,
            compute_hook=compute_hook,
            overlap_chunks=overlap_chunks,
        )

    return MoELanguageModel(config, seed=seed, moe_factory=moe_factory)


def split_params(model: Module) -> tuple[list[Parameter], list[Parameter]]:
    """(dense_params, expert_params) partition of a model's parameters."""
    dense, expert = [], []
    for p in model.parameters():
        (expert if getattr(p, "is_expert", False) else dense).append(p)
    return dense, expert


@dataclass
class MoDaStepResult:
    """Per-rank metrics from one distributed step."""

    step: int
    loss: float
    global_loss: float
    lr: float
    grad_norm: float
    skipped: bool
    loss_scale: float
    dense_sync_bytes: int
    expert_sync_bytes: int
    extras: dict[str, float] = field(default_factory=dict)


class MoDaTrainer:
    """One rank's view of synchronous MoDa training.

    The step anatomy (matching the single-process
    :class:`~repro.train.Trainer` plus communication):

    1. local forward + scaled backward;
    2. allreduce dense gradients over ``groups.world`` (average);
    3. allreduce expert gradients over ``groups.edp`` (average);
    4. *global* overflow agreement (max-allreduce of the local flag) so
       every rank skips or steps together;
    5. optimizer step with the scaler's inverse scale;
    6. world allreduce of the loss.

    This is the only in-plane step: the strategy registry's dp/ep/moda/
    tp/zero trainers and the elastic driver all run it (steps 1-3 repeat
    per microbatch when one optimizer step accumulates several).
    """

    def __init__(
        self,
        model: MoELanguageModel,
        optimizer: Optimizer,
        groups: MoDaGroups,
        schedule: LRSchedule | None = None,
        scaler: DynamicLossScaler | None = None,
        grad_clip: float | None = None,
        allreduce_algorithm: str | None = None,
        sync_initial_params: bool = True,
        overlap_grad_sync: bool = False,
        grad_sync_buckets: int = 1,
        backward_compute_hook: Callable[[], None] | None = None,
        forward_compute_hook: Callable[[], None] | None = None,
    ):
        if grad_sync_buckets < 1:
            raise ConfigError(
                f"grad_sync_buckets must be >= 1, got {grad_sync_buckets}"
            )
        self.model = model
        self.optimizer = optimizer
        self.groups = groups
        self.schedule = schedule or ConstantLR(optimizer.lr)
        self.scaler = scaler
        self.grad_clip = grad_clip
        self.allreduce_algorithm = allreduce_algorithm
        #: When set, gradient sync issues nonblocking bucketed allreduces
        #: for every sync group, runs ``backward_compute_hook`` (which the
        #: strategy layer uses to advance the modelled backward compute on
        #: the virtual clock), then waits — hiding sync behind backward.
        #: Gradient values are numerically identical to the blocking path.
        self.overlap_grad_sync = overlap_grad_sync
        self.grad_sync_buckets = grad_sync_buckets
        self.backward_compute_hook = backward_compute_hook
        #: Called before each microbatch's forward; the strategy layer uses
        #: it to advance the modelled dense compute on the virtual clock.
        self.forward_compute_hook = forward_compute_hook
        self.step_count = 0
        self.history: list[MoDaStepResult] = []
        self.dense_params, self.expert_params = split_params(model)
        #: ``(label, params, comm)`` triples describing how gradients are
        #: averaged; subclasses override :meth:`_build_sync_groups` to add
        #: axes (e.g. TP-sharded params over the same-shard group).
        self.sync_groups = self._build_sync_groups()
        if sync_initial_params:
            # Belt and braces: construction already makes replicas equal,
            # but an explicit broadcast pins the invariant.
            for _, params, comm in self.sync_groups:
                broadcast_parameters(comm, params, root=0)

    def _build_sync_groups(self):
        """Gradient-sync plan: dense over the world, experts over EDP."""
        return [
            ("dense", self.dense_params, self.groups.world),
            ("expert", self.expert_params, self.groups.edp),
        ]

    def _sync_gradients(self) -> dict[str, int]:
        """Average each sync group's gradients; bytes moved per label."""
        return {
            label: allreduce_gradients(
                comm, params, average=True, algorithm=self.allreduce_algorithm
            )
            for label, params, comm in self.sync_groups
        }

    def _sync_gradients_overlapped(self) -> dict[str, int]:
        """Overlapped variant: issue every group's bucketed nonblocking
        allreduce, advance the modelled backward compute, then wait.

        Each bucket is a contiguous slice of the flat fp32 gradient, so
        the element-wise sums are bit-identical to the single-bucket
        blocking allreduce.
        """
        pending = [
            (label, iallreduce_gradients(
                comm, params, average=True,
                algorithm=self.allreduce_algorithm,
                num_buckets=self.grad_sync_buckets,
            ))
            for label, params, comm in self.sync_groups
        ]
        if self.backward_compute_hook is not None:
            self.backward_compute_hook()
        return {label: handle.wait() for label, handle in pending}

    def evaluate(self, loader, num_steps: int, start_step: int = 0) -> dict[str, float]:
        """Distributed held-out evaluation: every rank scores its own data
        shard and the mean loss/perplexity is allreduced over the world.

        Collective call — all ranks must participate with the same
        arguments. Gradients and step counters are untouched.
        """
        if num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
        from repro.tensor import no_grad

        was_training = self.model.training
        self.model.eval()
        total, count = 0.0, 0
        try:
            with no_grad():
                for batch in loader.iter_batches(num_steps, start_step=start_step):
                    loss = self.model.loss(batch.tokens, batch.targets)
                    total += float(loss.item())
                    count += 1
        finally:
            if was_training:
                self.model.train()
        local_mean = total / count
        global_mean = (
            float(self.groups.world.allreduce(local_mean)) / self.groups.world.size
        )
        return {
            "loss": global_mean,
            "perplexity": float(np.exp(min(global_mean, 50.0))),
        }

    def _fold_carry_gradients(self, carry: dict[str, np.ndarray]) -> dict[str, int]:
        """One accumulation microstep of :meth:`train_step` (``k > 1``).

        Every sync group allreduces its flat gradient; group rank 0 adds
        the partial sum ``carry`` holds from earlier microsteps, so the
        chained folds associate like one ``k``-times-wider fold.
        """
        moved = {}
        for label, params, comm in self.sync_groups:
            flat = flatten_grads(params)
            if label in carry and comm.rank == 0:
                flat = carry[label] + flat
            moved[label] = 0
            if comm.size > 1:  # like allreduce_gradients: no size-1 collective
                moved[label] = int(flat.nbytes)
                flat = comm.allreduce(flat, algorithm=self.allreduce_algorithm)
            carry[label] = flat
        return moved

    def train_step(
        self, *microbatches: Batch, divisors: Mapping[str, float] | None = None
    ) -> MoDaStepResult:
        """Run one synchronous optimizer step over this rank's microbatches.

        One batch is the plain MoDa step. ``k > 1`` microbatches accumulate
        by *fold-carry*: the simulated allreduce left-folds contributions
        in group-rank order, so carrying the partial sum through group rank
        0 reproduces the fold of a world ``k`` times as wide, bit for bit
        (this is how :mod:`repro.resilience.elastic` replays the full world
        on a shrunken one). Each group's sum is then divided by
        ``divisors[label]``, the *logical* group size (default ``k`` times
        the communicator size), and the summed loss by ``divisors["dense"]``.
        One microbatch always averages over the communicator sizes.
        """
        if not microbatches:
            raise ConfigError("train_step needs at least one microbatch")
        k = len(microbatches)
        if divisors is None:
            divisors = {label: k * comm.size for label, _, comm in self.sync_groups}
        world = self.groups.world
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        scale = self.scaler.scale if self.scaler is not None else 1.0

        # Virtual-clock phase breakdown (seconds of simulated time).
        t_forward = t_backward = t_grad_sync = 0.0
        local_losses: list[float] = []
        carry: dict[str, np.ndarray] = {}
        for batch in microbatches:
            self.model.zero_grad()
            if self.forward_compute_hook is not None:
                self.forward_compute_hook()
            t0 = world.clock
            loss = self.model.loss(batch.tokens, batch.targets)
            local_losses.append(float(loss.item()))
            t_forward += world.clock - t0

            t1 = world.clock
            loss.backward(np.asarray(scale, dtype=loss.data.dtype))
            t_backward += world.clock - t1

            t2 = world.clock
            if k > 1:
                sync_bytes = self._fold_carry_gradients(carry)
            elif self.overlap_grad_sync:
                sync_bytes = self._sync_gradients_overlapped()
            else:
                sync_bytes = self._sync_gradients()
            t_grad_sync += world.clock - t2
        if k > 1:
            for label, params, _ in self.sync_groups:
                unflatten_grads(params, carry[label] / divisors[label])
            sync_bytes = {label: k * n for label, n in sync_bytes.items()}

        local_overflow = (
            1.0
            if self.scaler is not None and grads_have_overflow(self.optimizer.params)
            else 0.0
        )
        # All ranks must agree on the skip decision (expert shards differ).
        overflow = bool(world.allreduce(local_overflow, op=MAX) > 0)

        inv = 1.0 / scale
        skipped = False
        if self.scaler is not None and overflow:
            skipped = True
            grad_norm = float("inf")
            self.scaler.update(found_overflow=True)
        else:
            if self.grad_clip is not None:
                grad_norm = clip_grad_norm(self.optimizer.params, self.grad_clip, grad_scale=inv)
            else:
                grad_norm = global_grad_norm(self.optimizer.params, grad_scale=inv)
            self.optimizer.step(grad_scale=inv)
            if self.scaler is not None:
                self.scaler.update(found_overflow=False)

        # The loss folds like the gradients: one world allreduce per
        # microstep, rank 0 carrying the running sum.
        loss_sum = 0.0
        for m, value in enumerate(local_losses):
            mine = loss_sum + value if m > 0 and world.rank == 0 else value
            loss_sum = float(world.allreduce(mine))
        global_loss = loss_sum / divisors["dense"]

        # Report the phase breakdown into the run's instrumentation spine
        # (only rank 0 of the world group, so totals aren't multiplied by
        # the world size).
        context = world.context
        if world.rank == 0:
            context.add_phase("forward", t_forward)
            context.add_phase("backward", t_backward)
            context.add_phase("grad_sync", t_grad_sync)

        extras: dict[str, float] = {
            "t_forward": t_forward,
            "t_backward": t_backward,
            "t_grad_sync": t_grad_sync,
        }
        for label, nbytes in sync_bytes.items():
            if label not in ("dense", "expert"):
                extras[f"{label}_sync_bytes"] = float(nbytes)
        result = MoDaStepResult(
            step=self.step_count,
            loss=local_losses[-1],
            global_loss=global_loss,
            lr=lr,
            grad_norm=grad_norm,
            skipped=skipped,
            loss_scale=scale,
            dense_sync_bytes=sync_bytes.get("dense", 0),
            expert_sync_bytes=sync_bytes.get("expert", 0),
            extras=extras,
        )
        self.step_count += 1
        self.history.append(result)
        return result
