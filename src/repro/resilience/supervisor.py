"""Recovery supervisor: classify, back off, restart — and shrink if needed.

At BaGuaLu scale (96,000 nodes / 37M cores), failures are not
exceptional; they are the steady state. The original system survived
them with checkpoint-restart. This module reproduces that loop on the
simulated machine and extends it with what production schedulers add on
top of plain restart:

* **failure classification** — a rank killed by the fault model
  (:class:`~repro.errors.FaultInjected`), a hang from dropped messages
  (:class:`~repro.errors.DeadlockError`) and a loss-scale blow-up
  (:class:`~repro.errors.OverflowDetected`) are all *modelled* failures
  and recoverable; programming errors propagate immediately, exactly as
  :mod:`repro.errors` prescribes;
* **capped exponential backoff** — consecutive failures wait
  ``base * factor**(n-1)`` virtual seconds (capped) before relaunching,
  charged to the session clock and recorded as a ``backoff`` phase;
* **blame-driven elastic restart** — when the same node keeps killing
  runs (``shrink_after`` strikes), the supervisor excludes it from the
  fault model's rank↦node map, halves the world, and resumes from the
  latest verified snapshot. The layout-independent checkpoint format
  (:mod:`repro.parallel.dist_checkpoint`) reshards experts and optimizer
  state into the new world, and the fold-carry driver
  (:mod:`repro.resilience.elastic`) reproduces the full-world loss
  trajectory on the shrunken world;
* **goodput accounting** — every launch, failure, backoff, shrink and
  reshard lands in one session :class:`~repro.simmpi.RunContext`
  (absorbing each launch's own context, including the partial context of
  crashed attempts), yielding virtual-time goodput, availability,
  lost step-work and restart overhead.

All supervisor time is *virtual* (simulated-machine seconds), so
goodput numbers are reproducible bit for bit across hosts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import (
    CommunicatorError,
    ConfigError,
    DeadlockError,
    FaultInjected,
    OverflowDetected,
    ReproError,
)
from repro.models.configs import ModelConfig
from repro.parallel.dist_checkpoint import latest_snapshot
from repro.parallel.runner import TrainingRunConfig
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.elastic import SegmentProgress, SegmentSpec, run_elastic_segment
from repro.simmpi import RunContext, run_spmd

__all__ = [
    "ElasticRunConfig",
    "ElasticRunResult",
    "Supervisor",
    "classify_failure",
    "run_elastic_training",
]

#: Strategies the elastic driver can accumulate for (dense/expert axes).
_IN_PLANE = ("dp", "ep", "moda")


def classify_failure(exc: BaseException) -> str:
    """Name the failure class of a modelled error.

    ``fault`` (a rank killed by the plan/model), ``deadlock`` (lost
    messages / real hangs hitting the wall-clock deadline), ``overflow``
    (loss-scale exhaustion), or the exception class name for any other
    :class:`~repro.errors.ReproError`. Non-``ReproError`` exceptions are
    programming errors — the supervisor never catches them, but this
    helper still names them for logs.
    """
    if isinstance(exc, FaultInjected):
        return "fault"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, OverflowDetected):
        return "overflow"
    return type(exc).__name__


@dataclass(frozen=True)
class ElasticRunConfig:
    """Setup for a supervised, elastically-restartable training run."""

    model: ModelConfig
    world_size: int
    ep_size: int
    total_steps: int
    checkpoint_every: int
    checkpoint_dir: str | Path
    batch_size: int = 4
    seq_len: int = 8
    lr: float = 1e-3
    seed: int = 0
    corpus_predictability: float = 0.8
    strategy: str = "auto"
    allreduce_algorithm: str | None = None
    alltoall_algorithm: str | None = None
    max_restarts: int = 5
    #: Backoff before relaunch n consecutive failures in:
    #: ``min(cap, base * factor**(n-1))`` virtual seconds.
    backoff_base: float = 5.0
    backoff_factor: float = 2.0
    backoff_cap: float = 60.0
    #: Shrink the world when one node accumulates ``shrink_after`` blamed
    #: failures (set False to always relaunch at full width).
    elastic: bool = True
    shrink_after: int = 2
    min_world_size: int = 1
    model_compute_time: bool = True
    timeout: float = 120.0
    trace: bool = False
    #: Give the session (and every launch) a live metric registry +
    #: router telemetry; the session context absorbs each launch's.
    observe: bool = False

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ConfigError(f"world_size must be >= 1, got {self.world_size}")
        if self.world_size % self.ep_size != 0:
            raise ConfigError(
                f"ep_size={self.ep_size} must divide world_size={self.world_size}"
            )
        if self.total_steps < 1 or self.checkpoint_every < 1:
            raise ConfigError("total_steps and checkpoint_every must be >= 1")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        # Delegated: BackoffPolicy owns the schedule validation, so the
        # supervisor and the serving fleet router reject the same inputs.
        self.backoff_policy()
        if self.shrink_after < 1:
            raise ConfigError(f"shrink_after must be >= 1, got {self.shrink_after}")
        if not 1 <= self.min_world_size <= self.world_size:
            raise ConfigError(
                f"min_world_size must be in [1, {self.world_size}], "
                f"got {self.min_world_size}"
            )

    def backoff_policy(self) -> BackoffPolicy:
        """The capped-exponential schedule this run waits between retries."""
        return BackoffPolicy(
            base=self.backoff_base,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
        )


@dataclass
class ElasticRunResult:
    """Outcome + goodput accounting of a supervised run.

    ``losses`` covers the contiguous range ``[first_step, total_steps)``
    executed by surviving segments (losses computed by a crashed attempt
    died with it, as on a real machine). All times are virtual seconds
    on the session clock.
    """

    #: Global loss for steps ``first_step .. total_steps - 1``.
    losses: list[float]
    #: Step index of ``losses[0]``.
    first_step: int
    #: Relaunches after a failure.
    restarts: int
    #: How many times the world was shrunk (elastic restarts).
    shrinks: int
    checkpoint_steps: list[int]
    #: World size of each launch, in launch order.
    world_history: list[int]
    final_world_size: int
    final_ep_size: int
    #: Steps computed by crashed attempts past their last durable
    #: checkpoint — work that had to be redone.
    lost_steps: int
    #: Virtual makespan of the successful segments (productive time).
    useful_time: float
    #: Virtual makespan of crashed attempts (restart overhead).
    lost_time: float
    #: Virtual time spent waiting between relaunches.
    backoff_time: float
    #: Session-aggregated instrumentation (events, phases, traffic).
    context: RunContext
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Session makespan: useful + lost + backoff virtual seconds."""
        return self.useful_time + self.lost_time + self.backoff_time

    @property
    def goodput(self) -> float:
        """Fraction of session time that produced surviving step-work."""
        total = self.total_time
        return self.useful_time / total if total > 0 else 1.0

    @property
    def availability(self) -> float:
        """Fraction of session time the world was up and training."""
        total = self.total_time
        return (total - self.backoff_time) / total if total > 0 else 1.0

    def metrics_record(self) -> dict[str, Any]:
        """One flat record (for :class:`~repro.train.metrics.MetricsLogger`)."""
        record = dict(self.context.metrics_record())
        record.update(
            first_step=self.first_step,
            restarts=self.restarts,
            shrinks=self.shrinks,
            lost_steps=self.lost_steps,
            useful_time=self.useful_time,
            lost_time=self.lost_time,
            backoff_time=self.backoff_time,
            total_time=self.total_time,
            goodput=self.goodput,
            availability=self.availability,
            final_world_size=self.final_world_size,
            final_ep_size=self.final_ep_size,
        )
        return record


class Supervisor:
    """Drives a training job to completion through failures.

    The one checkpoint-restart loop. With ``cfg.elastic=False`` it
    always relaunches at full width — BaGuaLu's plain checkpoint-restart;
    otherwise it also shrinks around a repeat-offender node.

    Parameters
    ----------
    cfg:
        The run setup, including backoff and elasticity policy.
    faults:
        A persistent :class:`~repro.simmpi.FaultModel` shared by every
        launch (it re-draws failure times per launch and remembers
        excluded nodes), or a scripted :class:`~repro.simmpi.FaultPlan`
        injected into every launch. ``None`` = healthy machine.
    fault_plans:
        Alternative scripting hook (supersedes ``faults``):
        ``fault_plans[i]`` is injected into the i-th launch only, which
        is how tests script deterministic failure sequences.
    network_factory / machine_factory:
        ``world_size -> NetworkModel / MachineSpec`` for each launch
        (defaults: the Sunway presets). The factories are re-invoked
        after a shrink so the modelled machine matches the world.
    """

    def __init__(
        self,
        cfg: ElasticRunConfig,
        faults: Any | None = None,
        fault_plans: list[Any] | None = None,
        network_factory: Callable[[int], Any] | None = None,
        machine_factory: Callable[[int], Any] | None = None,
    ):
        self.cfg = cfg
        self.faults = faults
        self.fault_plans = fault_plans
        if network_factory is None:
            from repro.network.presets import sunway_network

            network_factory = sunway_network
        self._network_factory = network_factory
        if machine_factory is None:
            from repro.hardware.specs import sunway_machine

            def machine_factory(world: int):
                return sunway_machine(num_nodes=world)

        self._machine_factory = machine_factory

    # ------------------------------------------------------------------ #
    # Launch-plumbing helpers
    # ------------------------------------------------------------------ #

    def _run_cfg(self, world: int, ep: int) -> TrainingRunConfig:
        cfg = self.cfg
        run_cfg = TrainingRunConfig(
            model=cfg.model,
            world_size=world,
            ep_size=ep,
            num_steps=cfg.total_steps,
            batch_size=cfg.batch_size,
            seq_len=cfg.seq_len,
            lr=cfg.lr,
            seed=cfg.seed,
            corpus_predictability=cfg.corpus_predictability,
            alltoall_algorithm=cfg.alltoall_algorithm,
            allreduce_algorithm=cfg.allreduce_algorithm,
            model_compute_time=cfg.model_compute_time,
            timeout=cfg.timeout,
            strategy=cfg.strategy,
            trace=cfg.trace,
            observe=cfg.observe,
        )
        strategy = run_cfg.resolve_strategy()
        if strategy.name not in _IN_PLANE:
            raise ConfigError(
                f"the elastic supervisor drives in-plane strategies "
                f"{_IN_PLANE}, not {strategy.name!r}"
            )
        strategy.validate(run_cfg)
        return run_cfg

    def _plan_for(self, attempt: int) -> Any | None:
        if self.fault_plans is not None:
            return self.fault_plans[attempt] if attempt < len(self.fault_plans) else None
        return self.faults

    def _blame_key(self, exc: BaseException) -> int | None:
        """Node (preferred) or rank to blame for a failure, if known."""
        rank = getattr(exc, "rank", None)
        if rank is None:
            return None
        node_of_rank = getattr(self.faults, "node_of_rank", None)
        if node_of_rank is not None:
            try:
                return int(node_of_rank(rank))
            except ReproError:
                return int(rank)
        return int(rank)

    def _shrunk(self, world: int, ep: int) -> tuple[int, int]:
        """Halve the world; shrink EP only if it must (keeps exactness)."""
        new_world = world // 2
        new_ep = ep
        while new_ep > 1 and (
            new_world % new_ep != 0 or self.cfg.model.num_experts % new_ep != 0
        ):
            new_ep //= 2
        return new_world, new_ep

    # ------------------------------------------------------------------ #
    # The supervision loop
    # ------------------------------------------------------------------ #

    def run(self) -> ElasticRunResult:
        """Drive training to ``total_steps``; raise after ``max_restarts``
        consecutive failed launches."""
        cfg = self.cfg
        backoff_policy = cfg.backoff_policy()
        ckpt_dir = Path(cfg.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        session = RunContext(trace=cfg.trace, observe=cfg.observe)

        world = cfg.world_size
        ep = cfg.ep_size
        clock = 0.0
        useful_time = lost_time = backoff_time = 0.0
        lost_steps = 0
        restarts = 0
        shrinks = 0
        attempt = 0
        consecutive = 0
        blame: Counter[int] = Counter()
        world_history: list[int] = []
        loss_by_step: dict[int, float] = {}
        all_ckpts: set[int] = set()

        while True:
            if attempt > cfg.max_restarts:
                raise CommunicatorError(f"training failed {attempt} times; giving up")
            resume_dir, start = latest_snapshot(ckpt_dir)
            progress = SegmentProgress(completed_step=start, durable_step=start)
            run_cfg = self._run_cfg(world, ep)
            spec = SegmentSpec(
                run_cfg=run_cfg,
                logical_world=cfg.world_size,
                logical_ep=cfg.ep_size,
                total_steps=cfg.total_steps,
                checkpoint_every=cfg.checkpoint_every,
                checkpoint_dir=str(ckpt_dir),
                resume_dir=str(resume_dir) if resume_dir is not None else None,
                progress=progress,
                machine=(
                    self._machine_factory(world) if cfg.model_compute_time else None
                ),
            )
            world_history.append(world)
            session.record_event(
                "launch",
                t=clock,
                attempt=attempt,
                world_size=world,
                ep_size=ep,
                start_step=start,
                strategy=run_cfg.resolve_strategy().name,
            )
            launch_span = session.spans.begin(
                f"launch:{attempt}", clock, kind="launch",
                attempt=attempt, world_size=world, ep_size=ep,
                start_step=start,
            )
            try:
                res = run_spmd(
                    run_elastic_segment,
                    world,
                    network=self._network_factory(world),
                    timeout=cfg.timeout,
                    faults=self._plan_for(attempt),
                    args=(spec,),
                    trace=cfg.trace,
                    observe=cfg.observe,
                )
            except ReproError as exc:
                # A modelled failure: charge the crashed attempt's virtual
                # makespan and partial observations to the session, then
                # back off and relaunch. Programming errors propagate.
                attempt += 1
                restarts += 1
                consecutive += 1
                partial_clocks = getattr(exc, "partial_clocks", None) or [0.0]
                crashed_time = max(partial_clocks)
                partial_context = getattr(exc, "partial_context", None)
                if partial_context is not None:
                    session.absorb(partial_context, clock_offset=clock)
                clock += crashed_time
                session.spans.end(
                    launch_span, clock, outcome="failure",
                    failure=classify_failure(exc),
                )
                lost_time += crashed_time
                wasted = progress.completed_step - progress.durable_step
                lost_steps += wasted
                key = self._blame_key(exc)
                # The engine ships every rank's final recorded operations
                # on the exception; reference the evidence in the failure
                # event (the full dump was already folded into the session
                # flight recorder via the partial context).
                flight = getattr(exc, "flight_dump", None)
                flight_fields: dict[str, Any] = {}
                if flight is not None:
                    last_op = flight.get("last_op", {})
                    blamed_rank = getattr(exc, "rank", None)
                    flight_fields["flight_events"] = sum(
                        len(v) for v in flight.get("ranks", {}).values()
                    )
                    flight_fields["flight_last_op"] = last_op.get(
                        blamed_rank, None
                    ) if blamed_rank is not None else None
                session.record_event(
                    "failure",
                    t=clock,
                    failure=classify_failure(exc),
                    attempt=attempt - 1,
                    world_size=world,
                    rank=getattr(exc, "rank", None),
                    node=key,
                    lost_steps=wasted,
                    durable_step=progress.durable_step,
                    **flight_fields,
                )
                session.metrics.counter(
                    "session_failures", failure=classify_failure(exc)
                ).inc()
                session.metrics.counter("session_lost_steps").inc(wasted)
                if key is not None and cfg.elastic:
                    blame[key] += 1
                    if (
                        blame[key] >= cfg.shrink_after
                        and world > 1
                        and world // 2 >= cfg.min_world_size
                    ):
                        new_world, new_ep = self._shrunk(world, ep)
                        exclude = getattr(self.faults, "exclude_node", None)
                        if exclude is not None:
                            exclude(key)
                        session.record_event(
                            "elastic_restart",
                            t=clock,
                            node=key,
                            strikes=int(blame[key]),
                            from_world=world,
                            to_world=new_world,
                        )
                        session.record_event(
                            "reshard",
                            t=clock,
                            from_world=world,
                            to_world=new_world,
                            from_ep=ep,
                            to_ep=new_ep,
                            microsteps=cfg.world_size // new_world,
                        )
                        world, ep = new_world, new_ep
                        shrinks += 1
                        session.metrics.counter("session_shrinks").inc()
                        del blame[key]
                backoff = backoff_policy.delay(consecutive)
                clock += backoff
                backoff_time += backoff
                session.add_phase("backoff", backoff)
                session.record_event(
                    "backoff", t=clock, seconds=backoff, consecutive=consecutive
                )
                session.spans.add(
                    "backoff", clock - backoff, clock, parent=launch_span,
                    kind="backoff", seconds=backoff, consecutive=consecutive,
                )
                session.metrics.counter("session_restarts").inc()
                session.metrics.histogram("session_backoff_seconds").observe(backoff)
                continue

            # Success: fold the segment into the session and finish.
            attempt += 1
            consecutive = 0
            if res.context is not None:
                session.absorb(res.context, clock_offset=clock)
            clock += res.simulated_time
            session.spans.end(launch_span, clock, outcome="complete")
            useful_time += res.simulated_time
            seg = res.returns[0]
            for i, value in enumerate(seg["losses"]):
                loss_by_step[seg["start"] + i] = value
            all_ckpts.update(seg["ckpts"])
            session.record_event(
                "complete",
                t=clock,
                attempt=attempt - 1,
                world_size=world,
                steps=len(seg["losses"]),
            )
            session.metrics.gauge("session_final_world_size").set(world)
            session.metrics.gauge("session_useful_time").set(useful_time)
            session.metrics.gauge("session_lost_time").set(lost_time)
            session.metrics.gauge("session_backoff_time").set(backoff_time)
            break

        covered = sorted(loss_by_step)
        return ElasticRunResult(
            losses=[loss_by_step[s] for s in covered],
            first_step=covered[0] if covered else 0,
            restarts=restarts,
            shrinks=shrinks,
            checkpoint_steps=sorted(all_ckpts),
            world_history=world_history,
            final_world_size=world,
            final_ep_size=ep,
            lost_steps=lost_steps,
            useful_time=useful_time,
            lost_time=lost_time,
            backoff_time=backoff_time,
            context=session,
            meta={
                "world_size": cfg.world_size,
                "ep_size": cfg.ep_size,
                "elastic": cfg.elastic,
            },
        )


def run_elastic_training(
    cfg: ElasticRunConfig,
    faults: Any | None = None,
    fault_plans: list[Any] | None = None,
    network_factory: Callable[[int], Any] | None = None,
    machine_factory: Callable[[int], Any] | None = None,
) -> ElasticRunResult:
    """Convenience wrapper: build a :class:`Supervisor` and run it."""
    return Supervisor(
        cfg,
        faults=faults,
        fault_plans=fault_plans,
        network_factory=network_factory,
        machine_factory=machine_factory,
    ).run()
