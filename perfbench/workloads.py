"""The benchmark's three workloads, driven through the public API.

Each workload is built from a seed (``__init__`` is the set-up the
benchmark times as ``setup_s``) and runs one *pass* per call of
:meth:`run_pass`. A pass is everything a user pays on every run: world
launch, model build, the work itself. It returns the pass's virtual
(simulated-clock) results, which are deterministic for a seed, and the
failures of its correctness checks. Between its units of work a pass
calls ``tick()``, where the runner probes the machine's speed (speed.py).

Calls into the program go through module attributes (``api.x(...)``)
looked up at call time, so the traced run's patches see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.api as api
import stats
from repro.errors import ConfigError
from repro.models import BRAIN_SCALE_CONFIGS, bagualu_1_93t
from repro.network import sunway_network
from repro.obs import profile_comm
from repro.perf import ParallelPlan, StepModel, step_flops

#: Seed whose results must equal the ones recorded in ``reference.json``.
DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class PassResult:
    """One pass: virtual metrics, a bitwise fingerprint, check failures."""

    #: The workload's virtual step time (end-to-end metric).
    virtual_step_s: float
    #: Virtual per-layer metrics (reported by the traced run).
    layer: dict[str, float]
    #: Everything that must be bitwise-equal across passes of one seed.
    fingerprint: dict
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    #: Layer metrics left out of the fingerprint because the program makes
    #: them depend on rank-thread scheduling (reported as pass medians).
    scheduling_dependent: tuple[str, ...] = ()


def check_reference(name: str, seed: int, result: PassResult) -> list[str]:
    """For the default seed, the fingerprint's recorded keys must match."""
    if seed != DEFAULT_SEED:
        return []
    want = json.loads(REFERENCE.read_text()).get(name, {})
    got = json.loads(json.dumps(result.fingerprint))  # tuples -> lists
    return [
        f"{name}: {key} differs from reference.json" for key in want
        if got.get(key) != want[key]
    ]


class Workload:
    """Hooks beyond ``run_pass``; the defaults do nothing."""

    def run_checks(self) -> list[str]:
        """Checks run once per run, outside the timed passes."""
        return []

    def traced_extras(self, first: PassResult) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics only the traced run computes, and their checks."""
        return {}, []


# --------------------------------------------------------------------- #
# train_moda
# --------------------------------------------------------------------- #


class TrainModa(Workload):
    """Mixed-precision MoDa training of ``tiny`` at world 16 = ep 4 x dp 4.

    Chosen because its host time is simmpi rendezvous across 16 rank
    threads plus autograd backward and Adam, with many small-world
    cost-model calls; overlap is off so the blocking paths run.
    """

    STEPS = 4

    def __init__(self, seed: int):
        self.cfg = api.TrainingRunConfig(
            model=api.tiny_config(),
            world_size=16,
            ep_size=4,
            num_steps=self.STEPS,
            batch_size=2,
            seq_len=16,
            mixed_precision=True,
            overlap_chunks=1,
            seed=seed,
        )

    def run_pass(self, tick) -> PassResult:
        result = api.run_distributed_training(self.cfg)
        errors = []
        if len(result.losses) != self.STEPS or not all(map(math.isfinite, result.losses)):
            errors.append(f"train_moda: bad loss trajectory {result.losses}")
        phases = result.phase_seconds
        layer = {
            f"parallel.phase_virtual_s.{p}": phases.get(p, 0.0) / self.STEPS
            for p in ("forward", "backward", "grad_sync")
        }
        return PassResult(
            virtual_step_s=result.step_time,
            layer=layer,
            fingerprint={"losses": result.losses, "virtual_step_s": result.step_time},
            attempted=1,
            failed=1 if errors else 0,
            errors=errors,
        )

    def traced_extras(self, first: PassResult) -> tuple[dict[str, float], list[str]]:
        """Measured comm per op vs the StepModel's terms, |relative error|.

        Runs the same training once more with simmpi trace events on (the
        comm profiler needs them) and prices the same layout analytically.
        Recorded, not gated.
        """
        cfg = self.cfg
        run = api.run_distributed_training(replace(cfg, trace=True))
        measured = {
            r.op: r.seconds / cfg.num_steps
            for r in profile_comm(run.context, sunway_network(cfg.world_size)).per_op()
            if r.op != "compute"
        }
        model_cfg = cfg.model.scaled(dtype="fp16") if cfg.mixed_precision else cfg.model
        step_model = StepModel(
            model_cfg, api.sunway_machine(cfg.world_size), sunway_network(cfg.world_size)
        )
        plan = ParallelPlan(
            num_nodes=cfg.world_size,
            ep_size=cfg.ep_size,
            micro_batch=cfg.batch_size,
            seq_len=cfg.seq_len,
            load_imbalance=max(1.0, run.load_imbalance),
        )
        model = step_model.step_breakdown(plan).comm_by_op()
        out = {
            f"perf.model_rel_err.{op}": abs(model[op] / measured[op] - 1.0)
            for op in ("alltoall", "allreduce")
        }
        out["perf.model_rel_err.total"] = abs(
            sum(model.values()) / sum(measured.values()) - 1.0
        )
        errors = []
        if run.losses != first.fingerprint["losses"]:
            errors.append("train_moda: losses differ with simmpi trace events on")
        return out, errors


# --------------------------------------------------------------------- #
# serve_fleet
# --------------------------------------------------------------------- #


class ServeFleet(Workload):
    """Open-loop independent users against a 2-replica x ep-2 fleet.

    Chosen because only serving runs ragged no-grad forwards, KV
    append/commit, admission, routing, retries, re-dispatch and the
    per-segment model rebuilds. Arrivals are Poisson on the *virtual*
    clock, so the generator is never late.
    """

    #: Healthy ladder of arrival rates (requests per virtual second); the
    #: fleet saturates near 4e5 req/s.
    RATES = (150e3, 250e3, 350e3, 500e3)
    NOMINAL = 250e3
    #: TTFT p90 limit for ``max_rate_rps`` (virtual milliseconds).
    TTFT_LIMIT_MS = 0.05
    #: >= 100 so ten samples lie beyond p90.
    REQUESTS = 120
    #: Crashes arrive about every two healthy makespans per replica.
    MTBF_X_MAKESPAN = 2.0
    #: The faulted rung is one fixed scenario, whatever the run's seed: the
    #: fleet draws crash times from the serving seed, and across seeds the
    #: crash count ranges 0-21 (a 0.4-2.7 s rung), which swamped the pass
    #: time's spread. Seed 0 crashes 5 segments and retries 165 times.
    FAULT_SEED = 0
    #: Re-dispatches per request, with a wide margin so that no request
    #: runs out of them although crash dates depend on thread scheduling
    #: (at 8, seeds 12 and 18 crash 10 segments in a row and evict all
    #: 120; at 32, seeds 0-129 evict none).
    RETRY_MAX = 32

    def __init__(self, seed: int):
        self.serve = {
            rate: api.ServeConfig(
                model=api.tiny_config(),
                ep_size=2,
                num_requests=self.REQUESTS,
                arrival_rate=rate,
                prompt_len=4,
                prompt_len_max=12,
                max_new_tokens=8,
                num_tiers=2,
                seed=seed,
            )
            for rate in self.RATES
        }
        self.fault_serve = replace(self.serve[self.NOMINAL], seed=self.FAULT_SEED)

    @staticmethod
    def _terminal_errors(result, n: int, label: str) -> list[str]:
        errors = []
        rids = sorted(r["rid"] for r in result.requests)
        if rids != list(range(n)):
            errors.append(f"{label}: requests lost or duplicated ({len(rids)}/{n})")
        for r in result.requests:
            if r["state"] not in ("done", "evicted", "shed"):
                errors.append(f"{label}: rid {r['rid']} not terminal ({r['state']})")
            elif r["state"] != "done" and not r.get("reason"):
                errors.append(f"{label}: rid {r['rid']} {r['state']} without a reason")
        return errors

    def run_pass(self, tick) -> PassResult:
        runs = []  # (label, FleetResult)
        rungs = []  # (rate, TTFT p90 ms, backlog growing)
        for rate in self.RATES:
            res = api.run_fleet_serving(api.FleetConfig(serve=self.serve[rate], replicas=2))
            tick()
            runs.append((f"rung {rate:g}", res))
            done = [r["state"] == "done" for r in res.requests]
            ttfts = [r["ttft"] if ok else math.inf for r, ok in zip(res.requests, done)]
            finishes = [r["finish"] if ok else math.inf for r, ok in zip(res.requests, done)]
            arrivals = [r["arrival"] for r in res.requests]
            rungs.append((
                rate,
                stats.tail_percentile(ttfts, 90) * 1e3,
                stats.backlog_growing(arrivals, finishes),
            ))
            if rate == self.NOMINAL:
                healthy, nominal_ttfts = res, ttfts
        baseline = api.run_fleet_serving(api.FleetConfig(serve=self.fault_serve, replicas=2))
        tick()
        runs.append(("fault baseline", baseline))
        faulted = api.run_fleet_serving(
            api.FleetConfig(
                serve=self.fault_serve,
                replicas=2,
                mtbf=self.MTBF_X_MAKESPAN * baseline.simulated_time,
                retry_max=self.RETRY_MAX,
                backoff_base=2e-4,
                backoff_cap=2e-3,
            )
        )
        runs.append(("faulted rung", faulted))

        errors = [e for label, res in runs for e in self._terminal_errors(res, self.REQUESTS, label)]
        healthy_tokens = {r["rid"]: r["tokens"] for r in baseline.requests}
        for r in faulted.requests:
            if r["state"] == "done" and r["tokens"] != healthy_tokens.get(r["rid"]):
                errors.append(f"faulted rung: rid {r['rid']} tokens differ from the healthy run")
        requests = [r for _, res in runs for r in res.requests]
        completed = sum(1 for r in requests if r["state"] == "done")
        dispatched = sum(1 + r["attempts"] for r in requests) + sum(res.hedges for _, res in runs)
        failed = len(requests) - completed

        tpot = healthy.token_latency.percentile(50)
        layer = {
            "ttft_p50_ms": stats.percentile(nominal_ttfts, 50) * 1e3,
            "ttft_p90_ms": stats.tail_percentile(nominal_ttfts, 90) * 1e3,
            "tpot_p50_ms": tpot * 1e3,
            "max_rate_rps": stats.max_rate(rungs, self.TTFT_LIMIT_MS),
            "goodput_tok_s": faulted.goodput,
            "failed_frac": failed / len(requests),
            "serve.generator_lateness_ms": 0.0,
            "fleet.crashes": faulted.crashes,
            "fleet.retries": faulted.retries,
            "fleet.useful_dispatch_frac": completed / dispatched,
        }
        # The fleet dates a crash at the furthest rank clock when the
        # replica's world aborts; how far the surviving rank thread got by
        # then depends on thread scheduling, so the faulted makespan (not
        # its tokens or outcomes) varies between passes of one seed.
        unstable = ("goodput_tok_s",)
        return PassResult(
            virtual_step_s=tpot,
            layer=layer,
            fingerprint={
                "rungs": rungs,
                "tokens": [r["tokens"] for r in faulted.requests],
                "layer": {k: v for k, v in layer.items() if k not in unstable},
            },
            attempted=len(requests),
            failed=failed + (1 if errors else 0),
            errors=errors,
            scheduling_dependent=unstable,
        )


# --------------------------------------------------------------------- #
# project_scale
# --------------------------------------------------------------------- #


def _divisors_desc(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]), reverse=True)


def paper_plan(cfg, nodes: int) -> ParallelPlan:
    """The paper's MoDa plan: widest valid EP group, 8 x 2048 tokens/rank."""
    for ep in _divisors_desc(nodes):
        try:
            plan = ParallelPlan(num_nodes=nodes, ep_size=ep, micro_batch=8, seq_len=2048)
            plan.validate_against(cfg)
            return plan
        except ConfigError:
            continue
    raise ConfigError(f"no valid EP width for {cfg.name} on {nodes} nodes")


class ProjectScale(Workload):
    """Paper-scale StepModel projection plus one planner search.

    Chosen because it is single-threaded and its host time is O(nodes)
    topology and cost-model enumeration; it bypasses tensor, simmpi and
    serve. Inputs from the seed: the load imbalance of one step's tokens
    routed uniformly at random (the balanced gate's target) over each
    plan's EP group.
    """

    NODES = (1024, 16384, 96000)
    HEADLINE = ("14.5T", 96000)
    PLAN_NODES = 4096

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.plans = {}
        for name, build in BRAIN_SCALE_CONFIGS.items():
            cfg = build()
            for nodes in self.NODES:
                plan = paper_plan(cfg, nodes)
                routed = plan.tokens_per_rank * cfg.top_k * plan.ep_size
                loads = rng.multinomial(routed, np.full(plan.ep_size, 1.0 / plan.ep_size))
                imbalance = float(loads.max() / loads.mean())
                self.plans[name, nodes] = (cfg, replace(plan, load_imbalance=imbalance))
        # A 1.93T-class model with one expert per node of the search, so
        # some layouts fit; the launch-path and memory gates reject the rest.
        self.planner = api.PlannerConfig(
            model=bagualu_1_93t().scaled(num_experts=self.PLAN_NODES),
            num_nodes=self.PLAN_NODES,
            cluster="sunway",
            micro_batch=4,
            seq_len=2048,
        )

    def run_pass(self, tick) -> PassResult:
        preset = api.cluster_preset("sunway")
        totals = {}
        for nodes in self.NODES:
            machine, network = preset.machine(nodes), preset.network(nodes)
            for name in BRAIN_SCALE_CONFIGS:
                cfg, plan = self.plans[name, nodes]
                bd = StepModel(cfg, machine, network).step_breakdown(plan)
                totals[f"{name}@{nodes}"] = bd.total
                tick()
        search = api.search_plans(self.planner)
        cfg, plan = self.plans[self.HEADLINE]
        step = totals[f"{self.HEADLINE[0]}@{self.HEADLINE[1]}"]
        # The paper's headline: sustained mixed-precision EFLOPS at 96k nodes.
        eflops = step_flops(cfg, plan.global_tokens, plan.seq_len) / step / 1e18
        return PassResult(
            virtual_step_s=step,
            layer={"perf.headline_eflops": eflops},
            fingerprint={
                "totals": totals,
                "best_plan_s": search.candidates[0].predicted_step_time,
                "tokens_per_s": plan.global_tokens / step,
                "eflops": eflops,
            },
            attempted=len(totals) + 1,
            failed=0,
        )

    def run_checks(self) -> list[str]:
        """``step_breakdown(...).total == step_time(...)``.

        On every plan below 96k nodes and on the headline one: each 96k
        evaluation costs seconds, and the identity is per plan, not per
        scale.
        """
        preset = api.cluster_preset("sunway")
        errors = []
        for (name, nodes), (cfg, plan) in self.plans.items():
            if nodes == max(self.NODES) and (name, nodes) != self.HEADLINE:
                continue
            model = StepModel(cfg, preset.machine(nodes), preset.network(nodes))
            total, step = model.step_breakdown(plan).total, model.step_time(plan)
            if total != step:
                errors.append(f"project_scale: {name}@{nodes} total {total!r} != step_time {step!r}")
        return errors


WORKLOADS = {"train_moda": TrainModa, "serve_fleet": ServeFleet, "project_scale": ProjectScale}
