"""Composable parallel strategies behind one registry.

Every way this repo knows how to distribute training — data parallelism,
expert parallelism, the MoDa hybrid, tensor parallelism, GPipe pipelines,
ZeRO optimizer sharding, and their composites — is expressed as a
:class:`ParallelStrategy`: an object that validates a
:class:`~repro.layout.ParallelLayout`, builds the process groups and the
wrapped per-rank model, and exposes one distributed :meth:`train_step`.
The runner (:func:`~repro.parallel.runner.run_distributed_training`)
dispatches through :func:`get_strategy` / :func:`strategy_for_layout`, so
layouts that previously had no launch path (TP x EP, PP x MoDa) run
through the same entry point as plain MoDa.

Registered names: ``dp``, ``ep``, ``moda``, ``tp``, ``zero``,
``pipeline``, and the composites ``tp_ep``, ``pp_dp``, ``pp_moda``.

Rank geometry for the in-plane (non-pipeline) strategies follows
:class:`~repro.layout.ParallelLayout`: EP innermost (consecutive ranks,
alltoalls on the tightest links), TP in the middle, replicas outermost.
Ranks of one TP group consume the *same* data shard, so replicated
gradients averaged over the world and TP-sharded gradients averaged over
the same-shard group are both exact. Pipeline strategies reuse the
:mod:`~repro.parallel.grid3d` machinery (pipe x data x expert).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.amp import DynamicLossScaler, cast_model
from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.layout import ParallelLayout, validate_layout_for_model
from repro.models.configs import ModelConfig
from repro.models.transformer import MoELanguageModel
from repro.parallel.ep import DistributedMoELayer
from repro.parallel.grid3d import Trainer3D, build_groups3d
from repro.parallel.groups import MoDaGroups, build_groups
from repro.parallel.moda import MoDaTrainer, split_params
from repro.parallel.tp import TensorParallelMLP
from repro.parallel.zero import ZeroAdamW
from repro.perf.stepmodel import ComputeTimer
from repro.simmpi import Comm
from repro.train.optim import Adam
from repro.train.schedules import ConstantLR

if TYPE_CHECKING:  # pragma: no cover - circular at runtime, typing only
    from repro.hardware.specs import MachineSpec
    from repro.parallel.runner import TrainingRunConfig

__all__ = [
    "StepOutcome",
    "RankTrainer",
    "ParallelStrategy",
    "HybridGroups",
    "build_hybrid_groups",
    "build_hybrid_model",
    "HybridTrainer",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "strategy_for_layout",
]


# ---------------------------------------------------------------------- #
# Step protocol
# ---------------------------------------------------------------------- #


@dataclass
class StepOutcome:
    """What one distributed step reports back to the runner."""

    #: This rank's local loss.
    loss: float
    #: World-agreed (averaged) loss — identical on every rank.
    global_loss: float
    #: Expert-load imbalance (max/mean) observed this step; 1.0 if n/a.
    imbalance: float
    extras: dict[str, Any] = field(default_factory=dict)


class RankTrainer(ABC):
    """One rank's handle on a running strategy: call train_step per step."""

    @abstractmethod
    def train_step(self, step: int) -> StepOutcome:
        """Run distributed step ``step`` on this rank (collective call)."""


def _imbalance_of(modules) -> float:
    """Max/mean expert load over every MoE layer in ``modules``."""
    loads = [
        m.last_global_load
        for m in modules
        if getattr(m, "last_global_load", None) is not None
    ]
    if not loads:
        return 1.0
    total = np.sum(loads, axis=0).astype(np.float64)
    mean = total.mean()
    return float(total.max() / mean) if mean > 0 else 1.0


def _emit_step_observations(comm, step: int, outcome: StepOutcome,
                            modules, strategy_name: str) -> None:
    """Emit one step's metrics + router telemetry into the run's spine.

    Called by every rank after each step; only world rank 0 of an
    observing run records (loads are already group-allreduced, so one
    writer keeps the numbers global and counted once). On an unobserved
    run this is two attribute reads and a return.
    """
    context = comm.context
    if not context.observing or comm.rank != 0:
        return
    registry = context.metrics
    registry.counter("train_steps", strategy=strategy_name).inc()
    registry.gauge("train_loss", strategy=strategy_name).set(outcome.global_loss)
    registry.histogram("train_imbalance", strategy=strategy_name).observe(
        outcome.imbalance
    )
    if context.router is None:
        return
    layer = 0
    for m in modules:
        load = getattr(m, "last_global_load", None)
        if load is None:
            continue
        context.router.record(
            step, layer, load,
            drop_fraction=float(getattr(m, "last_drop_fraction", 0.0) or 0.0),
        )
        layer += 1


# ---------------------------------------------------------------------- #
# Hybrid (in-plane) process groups and model
# ---------------------------------------------------------------------- #


@dataclass
class HybridGroups:
    """Live communicators for one rank of an in-plane hybrid strategy.

    ``moda`` carries the classic world/EP/EDP triple; ``tp`` and ``tpdp``
    (the same-TP-shard replica group) are present only when
    ``layout.tp_size > 1``.
    """

    layout: ParallelLayout
    moda: MoDaGroups
    tp: Comm | None = None
    tpdp: Comm | None = None

    @property
    def world(self) -> Comm:
        return self.moda.world


def build_hybrid_groups(world: Comm, layout: ParallelLayout) -> HybridGroups:
    """Split ``world`` into EP/EDP (+ TP/TPDP) communicators.

    Collective call: every rank passes the same layout. ``layout.pp_size``
    must be 1 — pipeline stages are handled by
    :func:`~repro.parallel.grid3d.build_groups3d`.
    """
    if layout.pp_size != 1:
        raise ConfigError("build_hybrid_groups handles pp_size=1 layouts only")
    if layout.world_size != world.size:
        raise ConfigError(
            f"layout world_size={layout.world_size} != comm size {world.size}"
        )
    moda = build_groups(world, layout.ep_size)
    tp_comm = tpdp = None
    if layout.tp_size > 1:
        r = world.rank
        ep_rank = layout.ep_rank_of(r)
        tp_comm = world.Split(
            color=layout.dp_index_of(r) * layout.ep_size + ep_rank,
            key=layout.tp_rank_of(r),
        )
        tpdp = world.Split(color=layout.tp_rank_of(r), key=r)
        assert tp_comm is not None and tpdp is not None
    return HybridGroups(layout=layout, moda=moda, tp=tp_comm, tpdp=tpdp)


def build_hybrid_model(
    config: ModelConfig,
    groups: HybridGroups,
    seed: int = 0,
    alltoall_algorithm: str | None = None,
    compute_hook: Callable[[int], None] | None = None,
    overlap_chunks: int = 1,
) -> MoELanguageModel:
    """Per-rank model with EP-sharded MoE FFNs and (optionally) TP MLPs.

    Generalizes :func:`~repro.parallel.moda.build_moda_model`: MoE blocks
    become :class:`~repro.parallel.ep.DistributedMoELayer` over the EP
    group, and — when the layout has ``tp_size > 1`` — dense FFN blocks
    become :class:`~repro.parallel.tp.TensorParallelMLP` over the TP
    group. Both factories draw full weights from the shared per-block rng
    before sharding, so replicated weights stay bit-identical everywhere.
    """
    ep_size = groups.moda.grid.ep_size
    if config.num_experts % ep_size != 0:
        raise ConfigError(
            f"ep_size={ep_size} must divide num_experts={config.num_experts}"
        )

    def moe_factory(layer_idx: int, rng: np.random.Generator):
        return DistributedMoELayer(
            config.d_model,
            config.d_ff,
            config.num_experts,
            groups.moda.ep,
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

    mlp_factory = None
    if groups.tp is not None:
        if config.d_ff % groups.tp.size != 0:
            raise ConfigError(
                f"tp_size={groups.tp.size} must divide d_ff={config.d_ff}"
            )

        def mlp_factory(layer_idx: int, rng: np.random.Generator):
            return TensorParallelMLP(
                config.d_model, config.d_ff, groups.tp, rng, dtype=config.dtype
            )

    return MoELanguageModel(
        config, seed=seed, moe_factory=moe_factory, mlp_factory=mlp_factory
    )


class HybridTrainer(MoDaTrainer):
    """MoDaTrainer extended with a tensor-parallel gradient-sync axis.

    Parameters partition three ways: replicated dense params average over
    the world, TP-sharded params over the same-shard (``tpdp``) group, and
    expert shards over EDP. With ``tp_size == 1`` this degenerates to the
    base MoDa plan exactly.
    """

    def __init__(self, model, optimizer, hybrid: HybridGroups, **kwargs):
        self.hybrid = hybrid
        super().__init__(model, optimizer, hybrid.moda, **kwargs)

    def _build_sync_groups(self):
        if self.hybrid.tpdp is None:
            return super()._build_sync_groups()
        replicated = [p for p in self.dense_params if not getattr(p, "is_tp", False)]
        tp_params = [p for p in self.dense_params if getattr(p, "is_tp", False)]
        plan = [("dense", replicated, self.groups.world)]
        if tp_params:
            plan.append(("tp", tp_params, self.hybrid.tpdp))
        plan.append(("expert", self.expert_params, self.groups.edp))
        return plan


class _ZeroHybridOptimizer:
    """ZeRO-sharded AdamW for replicated params + local Adam for experts.

    Replicated (dense) parameters have world-synchronized gradients, so
    :class:`~repro.parallel.zero.ZeroAdamW` over any subgroup computes the
    same update everywhere; expert shards get a plain local Adam (their
    gradients are EDP-synchronized, so local updates agree across
    replicas). API-compatible with :class:`repro.train.optim.Optimizer`.
    """

    def __init__(self, dense_params, expert_params, zero_comm: Comm, lr: float):
        self._zero = ZeroAdamW(dense_params, zero_comm, lr=lr)
        self._local = Adam(expert_params, lr=lr) if expert_params else None
        self.params = list(dense_params) + list(expert_params)

    @property
    def lr(self) -> float:
        return self._zero.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self._zero.lr = value
        if self._local is not None:
            self._local.lr = value

    def optimizer_state_bytes(self) -> int:
        """Locally-held fp32 optimizer state (the ZeRO shard)."""
        return self._zero.optimizer_state_bytes()

    def step(self, grad_scale: float = 1.0) -> None:
        self._zero.step(grad_scale)
        if self._local is not None:
            self._local.step(grad_scale)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------- #
# Strategy protocol + registry
# ---------------------------------------------------------------------- #


class ParallelStrategy(ABC):
    """How to launch one parallel composition: validate, build, step.

    Subclasses set ``name`` (the registry key) and ``composite`` (True
    when more than one parallel axis is active), implement
    :meth:`check_layout` for the axis constraints, and :meth:`build` to
    produce a :class:`RankTrainer` inside an SPMD rank.
    """

    name: str = ""
    composite: bool = False

    @abstractmethod
    def check_layout(self, layout: ParallelLayout) -> None:
        """Raise ConfigError unless ``layout`` fits this strategy."""

    def validate(self, cfg: "TrainingRunConfig") -> None:
        """Fail fast (driver-side) on an incompatible config.

        Axis constraints come from :meth:`check_layout`; the layout-vs-model
        constraints (EP/TP/PP divisibility against the model's shape) come
        from the shared :func:`~repro.layout.validate_layout_for_model`, so
        the measured runner and the analytic planner reject identical
        layouts with identical messages.
        """
        self.check_layout(cfg.layout)
        validate_layout_for_model(cfg.layout, cfg.model)

    @abstractmethod
    def build(
        self, comm: Comm, cfg: "TrainingRunConfig", machine: "MachineSpec | None"
    ) -> RankTrainer:
        """Construct groups/model/optimizer on one rank (collective)."""

    # Shared helpers ---------------------------------------------------- #

    @staticmethod
    def _timer(cfg: "TrainingRunConfig", machine) -> ComputeTimer | None:
        if machine is None or not cfg.model_compute_time:
            return None
        return ComputeTimer(
            cfg.model, machine, cfg.seq_len, tp_size=cfg.layout.tp_size
        )

    @staticmethod
    def _scaler(cfg: "TrainingRunConfig", model) -> DynamicLossScaler | None:
        if not cfg.mixed_precision:
            return None
        cast_model(model, "fp16")
        return DynamicLossScaler(init_scale=2.0**12, growth_interval=50)

    @staticmethod
    def _corpus(cfg: "TrainingRunConfig") -> SyntheticCorpus:
        return SyntheticCorpus(
            vocab_size=cfg.model.vocab_size,
            predictability=cfg.corpus_predictability,
            seed=cfg.seed,
        )


_REGISTRY: dict[str, ParallelStrategy] = {}


def register_strategy(strategy: ParallelStrategy) -> ParallelStrategy:
    """Add a strategy to the registry (name must be unique)."""
    if not strategy.name:
        raise ConfigError("strategy must carry a non-empty name")
    if strategy.name in _REGISTRY:
        raise ConfigError(f"strategy {strategy.name!r} already registered")
    _REGISTRY[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> ParallelStrategy:
    """Look a strategy up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None


def available_strategies() -> list[str]:
    """Sorted names of every registered strategy."""
    return sorted(_REGISTRY)


def strategy_for_layout(layout: ParallelLayout) -> ParallelStrategy:
    """Infer the registered strategy a layout describes.

    Pipeline beats TP beats ZeRO in the dispatch order; within each, the
    expert axis selects the composite variant.
    """
    if layout.pp_size > 1:
        if layout.ep_size > 1:
            return get_strategy("pp_moda")
        if layout.plane_size > 1:
            return get_strategy("pp_dp")
        return get_strategy("pipeline")
    if layout.tp_size > 1:
        return get_strategy("tp_ep" if layout.ep_size > 1 else "tp")
    if layout.zero_shards > 1:
        return get_strategy("zero")
    if layout.ep_size == 1:
        return get_strategy("dp")
    if layout.ep_size == layout.world_size:
        return get_strategy("ep")
    return get_strategy("moda")


# ---------------------------------------------------------------------- #
# In-plane strategies (no pipeline axis)
# ---------------------------------------------------------------------- #


class _PlaneTrainer(RankTrainer):
    """Adapter: drives a (Hybrid/MoDa) trainer through the step protocol.

    Each step reads one batch per loader: one loader is the plain step,
    ``k`` loaders are ``k`` accumulation microsteps whose gradient sums
    divide by ``divisors`` (see :meth:`MoDaTrainer.train_step`).
    """

    def __init__(self, trainer: MoDaTrainer, model, loaders, comm,
                 strategy_name: str = "plane",
                 divisors: dict[str, float] | None = None):
        self.strategy_name = strategy_name
        self.trainer = trainer
        self.model = model
        self.loaders = loaders
        self.comm = comm
        self.divisors = divisors

    def train_step(self, step: int) -> StepOutcome:
        batches = [loader.get_batch(step) for loader in self.loaders]
        res = self.trainer.train_step(*batches, divisors=self.divisors)
        outcome = StepOutcome(
            loss=res.loss,
            global_loss=res.global_loss,
            imbalance=_imbalance_of(self.model.moe_layers()),
            extras=dict(res.extras),
        )
        _emit_step_observations(
            self.comm, step, outcome, self.model.moe_layers(), self.strategy_name
        )
        return outcome


class _PlaneStrategy(ParallelStrategy):
    """Common build path for dp/ep/moda/tp/tp_ep/zero."""

    def build(self, comm, cfg, machine) -> RankTrainer:
        layout = cfg.layout
        timer = self._timer(cfg, machine)

        def compute_hook(rows: int) -> None:
            if timer is not None:
                comm.advance(timer.expert_layer_time(rows))

        overlap = cfg.overlap_chunks > 1
        tokens = cfg.batch_size * cfg.seq_len

        def forward_hook() -> None:
            # When overlapping, only the forward share of the modelled dense
            # compute is advanced up front; backward_hook advances the
            # backward share while the bucketed gradient allreduces are in
            # flight (so sync hides behind it).
            if overlap:
                comm.advance(timer.dense_forward_time(tokens))
            else:
                comm.advance(timer.dense_step_time(tokens))

        def backward_hook() -> None:
            comm.advance(timer.dense_backward_time(tokens))

        hybrid = build_hybrid_groups(comm, layout)
        model = build_hybrid_model(
            cfg.model,
            hybrid,
            seed=cfg.seed,
            alltoall_algorithm=cfg.alltoall_algorithm,
            compute_hook=compute_hook,
            overlap_chunks=cfg.overlap_chunks,
        )
        scaler = self._scaler(cfg, model)
        if layout.zero_shards > 1:
            zero_comm = comm.Split(color=comm.rank // layout.zero_shards, key=comm.rank)
            assert zero_comm is not None
            dense, expert = split_params(model)
            optimizer = _ZeroHybridOptimizer(dense, expert, zero_comm, lr=cfg.lr)
        else:
            optimizer = Adam(model.parameters(), lr=cfg.lr)
        trainer = HybridTrainer(
            model,
            optimizer,
            hybrid,
            schedule=ConstantLR(cfg.lr),
            scaler=scaler,
            allreduce_algorithm=cfg.allreduce_algorithm,
            overlap_grad_sync=overlap,
            grad_sync_buckets=cfg.overlap_chunks,
            backward_compute_hook=(
                backward_hook if overlap and timer is not None else None
            ),
            forward_compute_hook=forward_hook if timer is not None else None,
        )
        r = comm.rank
        data_rank = layout.dp_index_of(r) * layout.ep_size + layout.ep_rank_of(r)
        loader = ShardedLoader(
            self._corpus(cfg), cfg.batch_size, cfg.seq_len,
            dp_rank=data_rank, dp_size=layout.data_streams,
        )
        return _PlaneTrainer(trainer, model, [loader], comm, strategy_name=self.name)


class DataParallelStrategy(_PlaneStrategy):
    """Pure data parallelism: every rank holds the full model."""

    name = "dp"

    def check_layout(self, layout: ParallelLayout) -> None:
        if (layout.ep_size, layout.tp_size, layout.pp_size, layout.zero_shards) != (1, 1, 1, 1):
            raise ConfigError(
                f"dp wants ep=tp=pp=zero=1, got {layout.describe()}"
            )


class ExpertParallelStrategy(_PlaneStrategy):
    """Flat expert parallelism: one EP group spanning the world."""

    name = "ep"

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.ep_size != layout.world_size:
            raise ConfigError(
                f"ep wants ep_size == world_size, got {layout.describe()}"
            )
        if layout.tp_size != 1 or layout.pp_size != 1 or layout.zero_shards != 1:
            raise ConfigError(f"ep wants tp=pp=zero=1, got {layout.describe()}")


class MoDaStrategy(_PlaneStrategy):
    """The paper's hybrid: EP groups inside, data parallelism outside."""

    name = "moda"

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.tp_size != 1 or layout.pp_size != 1 or layout.zero_shards != 1:
            raise ConfigError(f"moda wants tp=pp=zero=1, got {layout.describe()}")


class TensorParallelStrategy(_PlaneStrategy):
    """Megatron-style TP over dense FFN blocks (+ data parallelism)."""

    name = "tp"

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.tp_size < 2:
            raise ConfigError(f"tp wants tp_size >= 2, got {layout.describe()}")
        if layout.ep_size != 1 or layout.pp_size != 1 or layout.zero_shards != 1:
            raise ConfigError(f"tp wants ep=pp=zero=1, got {layout.describe()}")


class TensorExpertStrategy(_PlaneStrategy):
    """Composite TP x EP: sharded dense MLPs and sharded experts."""

    name = "tp_ep"
    composite = True

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.tp_size < 2 or layout.ep_size < 2:
            raise ConfigError(
                f"tp_ep wants tp_size >= 2 and ep_size >= 2, got {layout.describe()}"
            )
        if layout.pp_size != 1 or layout.zero_shards != 1:
            raise ConfigError(f"tp_ep wants pp=zero=1, got {layout.describe()}")


class ZeroStrategy(_PlaneStrategy):
    """ZeRO-1 optimizer-state sharding over (possibly MoDa) replicas."""

    name = "zero"

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.zero_shards < 2:
            raise ConfigError(f"zero wants zero_shards >= 2, got {layout.describe()}")
        if layout.zero_shards > layout.world_size:
            raise ConfigError(
                f"zero_shards={layout.zero_shards} exceeds "
                f"world_size={layout.world_size}"
            )
        if layout.tp_size != 1 or layout.pp_size != 1:
            raise ConfigError(f"zero wants tp=pp=1, got {layout.describe()}")


# ---------------------------------------------------------------------- #
# Pipeline strategies
# ---------------------------------------------------------------------- #


class _PipelineTrainer(RankTrainer):
    """Adapter: drives a Trainer3D pipeline through the step protocol."""

    def __init__(self, trainer: Trainer3D, loader, timer, comm, tokens, pp_size,
                 strategy_name: str = "pipeline"):
        self.strategy_name = strategy_name
        self.trainer = trainer
        self.loader = loader
        self.timer = timer
        self.comm = comm
        self.tokens = tokens
        self.pp_size = pp_size

    def train_step(self, step: int) -> StepOutcome:
        if self.timer is not None:
            # Each stage holds ~1/pp of the layers, so the dense compute
            # per rank is the full-model step time split across stages.
            self.comm.advance(self.timer.dense_step_time(self.tokens) / self.pp_size)
        res = self.trainer.train_step(self.loader.get_batch(step))
        outcome = StepOutcome(
            loss=res.loss,
            global_loss=res.global_loss,
            imbalance=_imbalance_of(self.trainer.stage.modules()),
            extras=dict(res.extras),
        )
        _emit_step_observations(
            self.comm, step, outcome, self.trainer.stage.modules(),
            self.strategy_name,
        )
        return outcome


class _PipelineBase(ParallelStrategy):
    """Common build path for pipeline/pp_dp/pp_moda (via grid3d)."""

    def validate(self, cfg) -> None:
        super().validate(cfg)
        layout = cfg.layout
        if layout.tp_size != 1:
            raise ConfigError(
                f"pipeline strategies do not compose with tp yet, got {layout.describe()}"
            )
        if cfg.num_microbatches < 1 or cfg.batch_size % cfg.num_microbatches != 0:
            raise ConfigError(
                f"num_microbatches={cfg.num_microbatches} must divide "
                f"batch_size={cfg.batch_size}"
            )

    def build(self, comm, cfg, machine) -> RankTrainer:
        layout = cfg.layout
        timer = self._timer(cfg, machine)

        def compute_hook(rows: int) -> None:
            if timer is not None:
                comm.advance(timer.expert_layer_time(rows))

        groups = build_groups3d(comm, pipe_size=layout.pp_size, ep_size=layout.ep_size)
        trainer = Trainer3D(
            cfg.model,
            groups,
            num_microbatches=cfg.num_microbatches,
            seed=cfg.seed,
            schedule=ConstantLR(cfg.lr),
            alltoall_algorithm=cfg.alltoall_algorithm,
            allreduce_algorithm=cfg.allreduce_algorithm,
            compute_hook=compute_hook,
        )
        scaler = self._scaler(cfg, trainer.stage)
        trainer.scaler = scaler
        trainer.attach_optimizer(Adam(trainer.stage.parameters(), lr=cfg.lr))
        loader = ShardedLoader(
            self._corpus(cfg), cfg.batch_size, cfg.seq_len,
            dp_rank=groups.pipeline_id, dp_size=layout.plane_size,
        )
        return _PipelineTrainer(
            trainer, loader, timer, comm,
            cfg.batch_size * cfg.seq_len, layout.pp_size,
            strategy_name=self.name,
        )


class PipelineStrategy(_PipelineBase):
    """Pure GPipe: every rank is one pipeline stage."""

    name = "pipeline"

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.pp_size != layout.world_size or layout.world_size < 2:
            raise ConfigError(
                f"pipeline wants pp_size == world_size >= 2, got {layout.describe()}"
            )
        if layout.zero_shards != 1:
            raise ConfigError(f"pipeline wants zero=1, got {layout.describe()}")


class PipelineDataStrategy(_PipelineBase):
    """Composite PP x DP: replicated pipelines over data shards."""

    name = "pp_dp"
    composite = True

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.pp_size < 2 or layout.plane_size < 2:
            raise ConfigError(
                f"pp_dp wants pp_size >= 2 with a >1-rank plane, got {layout.describe()}"
            )
        if layout.ep_size != 1 or layout.zero_shards != 1:
            raise ConfigError(f"pp_dp wants ep=zero=1, got {layout.describe()}")


class PipelineMoDaStrategy(_PipelineBase):
    """Composite PP x MoDa: pipeline stages whose planes run MoDa."""

    name = "pp_moda"
    composite = True

    def check_layout(self, layout: ParallelLayout) -> None:
        if layout.pp_size < 2 or layout.ep_size < 2:
            raise ConfigError(
                f"pp_moda wants pp_size >= 2 and ep_size >= 2, got {layout.describe()}"
            )
        if layout.zero_shards != 1:
            raise ConfigError(f"pp_moda wants zero=1, got {layout.describe()}")


for _strategy in (
    DataParallelStrategy(),
    ExpertParallelStrategy(),
    MoDaStrategy(),
    TensorParallelStrategy(),
    TensorExpertStrategy(),
    ZeroStrategy(),
    PipelineStrategy(),
    PipelineDataStrategy(),
    PipelineMoDaStrategy(),
):
    register_strategy(_strategy)
