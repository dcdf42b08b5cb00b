"""Parallel training strategies: MoDa hybrid, expert/data parallelism, ZeRO.

Every strategy — and every composite of them — is reachable through the
registry in :mod:`repro.parallel.strategy`; the measured runner
(:func:`run_distributed_training`) dispatches through it.
"""

from repro.layout import ParallelLayout
from repro.parallel.collective_ops import allreduce_sum, alltoall_rows, copy_to_tp_region
from repro.parallel.dp import (
    allreduce_gradients,
    broadcast_parameters,
    flatten_grads,
    unflatten_grads,
)
from repro.parallel.dist_checkpoint import (
    dense_state,
    global_expert_state,
    latest_snapshot,
    load_distributed,
    load_named_optimizer_state,
    named_optimizer_state,
    save_distributed,
    verify_snapshot,
)
from repro.parallel.ep import DistributedMoELayer
from repro.parallel.grid3d import Grid3D, Groups3D, Step3DResult, Trainer3D, build_groups3d
from repro.parallel.groups import MoDaGrid, MoDaGroups, build_groups
from repro.parallel.moda import MoDaStepResult, MoDaTrainer, build_moda_model, split_params
from repro.parallel.pipeline import (
    GPipeRunner,
    PipelineStage,
    pipeline_bubble_fraction,
    stage_bounds,
)
from repro.parallel.tp import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    shard_linear_weights,
)
from repro.parallel.strategy import (
    HybridGroups,
    HybridTrainer,
    ParallelStrategy,
    RankTrainer,
    StepOutcome,
    available_strategies,
    build_hybrid_groups,
    build_hybrid_model,
    get_strategy,
    register_strategy,
    strategy_for_layout,
)
from repro.parallel.runner import TrainingRunConfig, TrainingRunResult, run_distributed_training
from repro.parallel.zero import ZeroAdamW, shard_bounds

__all__ = [
    "ParallelLayout",
    "ParallelStrategy",
    "RankTrainer",
    "StepOutcome",
    "HybridGroups",
    "HybridTrainer",
    "available_strategies",
    "build_hybrid_groups",
    "build_hybrid_model",
    "get_strategy",
    "register_strategy",
    "strategy_for_layout",
    "dense_state",
    "global_expert_state",
    "latest_snapshot",
    "load_distributed",
    "load_named_optimizer_state",
    "named_optimizer_state",
    "save_distributed",
    "verify_snapshot",
    "GPipeRunner",
    "Grid3D",
    "Groups3D",
    "Step3DResult",
    "Trainer3D",
    "build_groups3d",
    "PipelineStage",
    "pipeline_bubble_fraction",
    "stage_bounds",
    "copy_to_tp_region",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "shard_linear_weights",
    "TrainingRunConfig",
    "TrainingRunResult",
    "run_distributed_training",
    "ZeroAdamW",
    "shard_bounds",
    "allreduce_sum",
    "alltoall_rows",
    "allreduce_gradients",
    "broadcast_parameters",
    "flatten_grads",
    "unflatten_grads",
    "DistributedMoELayer",
    "MoDaGrid",
    "MoDaGroups",
    "build_groups",
    "MoDaStepResult",
    "MoDaTrainer",
    "build_moda_model",
    "split_params",
]
