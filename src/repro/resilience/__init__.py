"""Elastic fault-tolerant training: fault models, supervision, resharding.

The production story this package reproduces — BaGuaLu's
checkpoint-restart loop, plus what production schedulers add on top.
Plain full-width restart is the ``elastic=False`` case of the same
:class:`~repro.resilience.supervisor.Supervisor`:

* :mod:`repro.simmpi.faults` injects failures — scripted
  (:class:`~repro.simmpi.FaultPlan`) or stochastic
  (:class:`~repro.simmpi.FaultModel`: MTBF crashes, dead nodes,
  stragglers, flaky links);
* :class:`~repro.resilience.supervisor.Supervisor` classifies failures,
  backs off exponentially, relaunches from the latest verified snapshot,
  and — when one node keeps failing — performs an *elastic restart*:
  exclude the node, halve the world, reshard through the
  layout-independent checkpoint, resume;
* :class:`~repro.resilience.elastic.ElasticStepDriver` makes the
  shrunken world reproduce the full world's loss trajectory exactly: it
  feeds the in-plane step
  (:meth:`~repro.parallel.moda.MoDaTrainer.train_step`) one microbatch
  per logical rank, which that step accumulates by fold-carry.
"""

from repro.resilience.backoff import BackoffPolicy
from repro.resilience.elastic import (
    ElasticStepDriver,
    SegmentProgress,
    SegmentSpec,
    run_elastic_segment,
)
from repro.resilience.supervisor import (
    ElasticRunConfig,
    ElasticRunResult,
    Supervisor,
    classify_failure,
    run_elastic_training,
)

__all__ = [
    "BackoffPolicy",
    "ElasticRunConfig",
    "ElasticRunResult",
    "ElasticStepDriver",
    "SegmentProgress",
    "SegmentSpec",
    "Supervisor",
    "classify_failure",
    "run_elastic_segment",
    "run_elastic_training",
]
