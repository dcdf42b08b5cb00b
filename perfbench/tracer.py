"""Host-clock span recorder for the traced benchmark run.

The program under test carries no host-clock spans of its own, so this
module patches the public calls of each layer *at their use sites* (the
module attribute or class method the caller looks up at call time) with
wrappers that record a span: name, layer, start, end, parent span, thread
and, where known, simmpi rank, request id and collective round. Hot
leaf calls (forward matmuls, topology ``span_level``) only bump counters.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them as JSON.
:func:`install` is called only for traced passes and every patch is
undone by :meth:`SpanRecorder.uninstall`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import stats

_MISSING = object()

#: simmpi collectives whose ranks rendezvous (paired for ``simmpi.wait_s``).
COLLECTIVES = (
    "barrier", "bcast", "scatter", "gather", "allgather", "reduce",
    "allreduce", "reduce_scatter", "alltoall", "ialltoall", "iallreduce",
    "iallgather", "Split",
)


class SpanRecorder:
    """In-memory span store plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Span that rank threads with an empty stack hang under (the
        #: ``run_spmd`` launch that started them).
        self.launch_parent: int | None = None
        self._round_seq: dict[tuple[int, int], int] = {}
        self._comm_states: list[Any] = []  # keeps ids unique within a pass

    # -- spans ---------------------------------------------------------- #

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def open(self, name: str, layer: str, fields: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.launch_parent
        span = {
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "thread": threading.current_thread().name,
        }
        if fields:
            span.update(fields)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def bump(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def round_of(self, comm) -> tuple[int, int]:
        """(communicator, per-rank call ordinal): equal across one round."""
        state = comm._state
        key = (id(state), comm.rank)
        with self._lock:
            seq = self._round_seq.get(key, 0)
            self._round_seq[key] = seq + 1
            if seq == 0 and comm.rank == 0:
                self._comm_states.append(state)
        return (id(state), seq)

    # -- patching ------------------------------------------------------- #

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str | None],
        layer: str,
        fields: Callable[..., dict] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a callable of the call's arguments returning the
        span name, or None to pass the call through unrecorded.
        ``fields`` adds keys to the span at entry; ``after(span, args,
        kwargs, result)`` runs once the call returned.
        """
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if span_name is None:
                return orig(*args, **kwargs)
            idx = rec.open(span_name, layer, fields(*args, **kwargs) if fields else None)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                rec.spans[idx]["error"] = type(exc).__name__
                raise
            finally:
                rec.close(idx)
            if after is not None:
                after(rec.spans[idx], args, kwargs, out)
            return out

        self._set(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, on_call: Callable[..., None]) -> None:
        """Replace ``owner.attr`` with a wrapper that only calls ``on_call``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            on_call(*args, **kwargs)
            return orig(*args, **kwargs)

        self._set(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra, spans=self.spans, counters=dict(self.counters))
        path.write_text(json.dumps(payload, default=str))


# --------------------------------------------------------------------- #
# The patch table: one entry per public call of each layer.
# --------------------------------------------------------------------- #


def _defining_classes(base: type, attr: str) -> list[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install(rec: SpanRecorder) -> SpanRecorder:
    """Patch every layer's public calls to record into ``rec``."""
    import repro.api as api
    import repro.parallel.ep as ep
    import repro.parallel.moda as moda
    import repro.parallel.runner as runner
    import repro.parallel.strategy as strategy
    import repro.serve.engine as engine
    import repro.serve.fleet as fleet
    import repro.tensor.ops as ops
    from repro.amp.scaler import DynamicLossScaler
    from repro.models.layers import MLP
    from repro.models.transformer import MoELanguageModel
    from repro.moe.gates import Gate
    from repro.network.costmodel import NetworkModel
    from repro.network.topology import Topology
    from repro.parallel.moda import MoDaTrainer
    from repro.perf import StepModel
    from repro.resilience.backoff import BackoffPolicy
    from repro.serve.kvcache import KVCache, KVLayerView
    from repro.serve.router import ReplicaRouter
    from repro.serve.scheduler import ContinuousBatchScheduler
    from repro.simmpi.comm import Comm
    from repro.simmpi.payload import payload_nbytes
    from repro.tensor.tensor import Tensor
    from repro.train.optim import Optimizer

    # -- parallel / serve.fleet / plan: the top-level entry points ------- #
    rec.wrap(api, "run_distributed_training", "parallel.run", "parallel")
    rec.wrap(api, "run_fleet_serving", "fleet.run", "fleet")

    def after_search(span, args, kwargs, result):
        span["layouts"] = len(result.candidates) + len(result.rejected)
        span["rejected"] = len(result.rejected)

    rec.wrap(api, "search_plans", "plan.search", "plan", after=after_search)

    # -- simmpi ---------------------------------------------------------- #
    for mod in (runner, engine):
        orig = mod.run_spmd

        def launched(*args, _orig=orig, **kwargs):
            idx = rec.open("simmpi.run_spmd", "simmpi")
            prev, rec.launch_parent = rec.launch_parent, idx
            try:
                return _orig(*args, **kwargs)
            finally:
                rec.launch_parent = prev
                rec.close(idx)

        rec._set(mod, "run_spmd", functools.wraps(orig)(launched))

    def comm_fields(op):
        def fields(comm, *args, **kwargs):
            payload = args[0] if args else kwargs.get("value", kwargs.get("obj"))
            if op in ("alltoall", "ialltoall"):
                nbytes = sum(
                    payload_nbytes(x) for i, x in enumerate(payload) if i != comm.rank
                )
            elif op in ("barrier", "Split", "recv"):
                nbytes = 0
            else:
                nbytes = payload_nbytes(payload)
            out = {
                "rank": comm.world_rank,
                "size": comm.size,
                "nbytes": nbytes,
                "clock0": comm.clock,
            }
            if op in COLLECTIVES:
                out["round"] = rec.round_of(comm)
            return out
        return fields

    def comm_after(span, args, kwargs, result):
        span["virtual_s"] = args[0].clock - span.pop("clock0")

    for op in COLLECTIVES + ("send", "recv", "isend"):
        if op in Comm.__dict__:
            rec.wrap(Comm, op, f"simmpi.{op}", "simmpi", fields=comm_fields(op), after=comm_after)

    # -- network --------------------------------------------------------- #
    for attr in (
        "p2p_time", "barrier_time", "bcast_time", "allreduce_time",
        "reduce_time", "reduce_scatter_time", "allgather_time",
        "gather_time", "scatter_time", "alltoall_time", "alltoallv_time",
    ):
        rec.wrap(NetworkModel, attr, "network.cost", "network")
    rec.count(Topology, "span_level", lambda *a, **k: rec.bump("network.span_level_calls"))

    # -- perf / plan ----------------------------------------------------- #
    def plan_nodes(model, plan, *a, **k):
        return {"nodes": plan.num_nodes}

    rec.wrap(StepModel, "step_breakdown", "perf.step_breakdown", "perf", fields=plan_nodes)
    rec.wrap(StepModel, "step_time", "perf.step_time", "perf", fields=plan_nodes)

    # -- tensor ---------------------------------------------------------- #
    def count_matmul(a, b, *rest, **kw):
        m = a.shape[-2] if a.ndim > 1 else 1
        k = a.shape[-1]
        n = b.shape[-1] if b.ndim > 1 else 1
        batch = 1
        for dim in (a.shape[:-2] if a.ndim > 2 else b.shape[:-2]):
            batch *= dim
        with rec._lock:
            rec.counters["tensor.matmul_calls"] += 1
            rec.counters["tensor.matmul_flop"] += 2 * batch * m * k * n

    rec.count(ops, "matmul", count_matmul)
    rec.wrap(MoELanguageModel, "loss", "tensor.forward", "tensor")
    rec.wrap(MoELanguageModel, "__call__", "tensor.forward", "tensor")
    rec.wrap(Tensor, "backward", "tensor.backward", "tensor")

    # -- amp ------------------------------------------------------------- #
    rec.wrap(moda, "grads_have_overflow", "amp.overflow_check", "amp")
    rec.wrap(strategy, "cast_model", "amp.cast", "amp")

    def scaler_after(span, args, kwargs, result):
        found = kwargs.get("found_overflow", args[1] if len(args) > 1 else False)
        if found:
            rec.bump("amp.skipped_steps")

    rec.wrap(DynamicLossScaler, "update", "amp.scaler_update", "amp", after=scaler_after)

    # -- moe ------------------------------------------------------------- #
    def moe_after(span, args, kwargs, result):
        layer = args[0]
        rec.sample("moe.drop_frac", float(layer.last_drop_fraction))
        load = layer.last_global_load
        mean = float(load.mean()) if load is not None else 0.0
        if mean > 0:
            rec.sample("moe.load_imbalance", float(load.max()) / mean)

    rec.wrap(ep.DistributedMoELayer, "forward", "moe.layer", "moe", after=moe_after)
    rec.wrap(Gate, "__call__", "moe.gate", "moe")
    rec.wrap(ep, "build_dispatch", "moe.dispatch", "moe")

    def rows_name(*args, **kwargs):
        # The first row exchange of a layer forward dispatches, the second
        # combines (overlap off; the chunked path uses ialltoall_rows).
        cur = rec.current()
        if cur is None or cur["name"] != "moe.layer":
            return "moe.dispatch"
        cur["exchanges"] = cur.get("exchanges", 0) + 1
        return "moe.dispatch" if cur["exchanges"] == 1 else "moe.combine"

    rec.wrap(ep, "alltoall_rows", rows_name, "moe")
    rec.wrap(ep, "scatter_rows", "moe.combine", "moe")

    def expert_name(*args, **kwargs):
        cur = rec.current()
        return "moe.expert" if cur is not None and cur["name"] == "moe.layer" else None

    rec.wrap(MLP, "__call__", expert_name, "moe")

    # -- parallel / train ------------------------------------------------ #
    rec.wrap(MoDaTrainer, "train_step", "parallel.step", "parallel")
    rec.wrap(moda, "allreduce_gradients", "parallel.grad_sync", "parallel")
    rec.wrap(moda, "clip_grad_norm", "train.clip", "train")
    rec.wrap(moda, "global_grad_norm", "train.clip", "train")
    for cls in _defining_classes(Optimizer, "step"):
        rec.wrap(cls, "step", "train.optim", "train")

    # -- serve ----------------------------------------------------------- #
    rec.wrap(engine, "_build_serve_model", "serve.model_build", "serve")

    def segment_after(span, args, kwargs, result):
        arrival = {r["rid"]: r["arrival"] for r in result.requests}
        for rid, t in result.admitted_at.items():
            if rid in arrival:
                rec.sample("serve.queue_wait_s", t - arrival[rid])

    rec.wrap(fleet, "run_serving", "serve.run_serving", "serve", after=segment_after)

    def admit_after(span, args, kwargs, result):
        sched = args[0]
        rec.bump("serve.iterations")
        rec.sample("serve.batch_occupancy", len(sched.active) / sched.max_batch_size)

    def request_fields(sched, *args, **kwargs):
        rid = getattr(args[0], "rid", None) if args else None
        return {"rid": rid} if rid is not None else {}

    for attr in (
        "submit", "admit", "shed_overloaded", "preempt_for_premium",
        "evict_expired", "lowest_priority_active", "evict", "finish",
    ):
        rec.wrap(
            ContinuousBatchScheduler, attr, "serve.scheduler", "serve",
            fields=request_fields,
            after=admit_after if attr == "admit" else None,
        )
    for attr in ("for_model", "fits", "layer", "commit", "reset"):
        rec.wrap(KVCache, attr, "serve.kv", "serve")
    rec.wrap(KVLayerView, "append", "serve.kv", "serve")

    # -- router + resilience.backoff ------------------------------------ #
    for attr in (
        "pick", "on_dispatch", "on_segment_done", "on_crash",
        "next_recovery", "add_replica", "drain", "drain_candidate",
    ):
        rec.wrap(ReplicaRouter, attr, "router.call", "router")
    rec.wrap(BackoffPolicy, "delay", "router.backoff", "router")
    return rec


# --------------------------------------------------------------------- #
# Per-layer metrics from one traced pass
# --------------------------------------------------------------------- #

#: simmpi ops and communicator sizes the per-layer metrics break out.
SIMMPI_OPS = ("allreduce", "alltoall", "bcast")
SIMMPI_SIZES = (2, 4, 16)
#: Node counts of the projection's StepModel calls (label -> nodes).
STEP_MODEL_NODES = {"1k": 1024, "16k": 16384, "96k": 96000}


def layer_metrics(
    rec: SpanRecorder, pass_start: float, pass_end: float, probe_s: float = 0.0
) -> dict[str, float]:
    """Reduce one traced pass's spans and counters to per-layer metrics.

    ``probe_s`` is the benchmark's own speed-probe time inside the pass,
    which no layer owns.
    """
    spans = [s for s in rec.spans if s["end"] is not None]
    selfs = stats.self_times(spans)
    waits = stats.rendezvous_waits(spans)
    by_name: dict[str, float] = Counter()
    calls: dict[str, int] = Counter()
    for s, st in zip(spans, selfs):
        by_name[s["name"]] += st
        calls[s["name"]] += 1
    m: dict[str, float] = {}

    # simmpi
    for op in SIMMPI_OPS:
        ops_spans = [s for s in spans if s["name"] == f"simmpi.{op}"]
        m[f"simmpi.calls.{op}"] = len(ops_spans)
        m[f"simmpi.bytes.{op}"] = sum(s["nbytes"] for s in ops_spans)
        m[f"simmpi.virtual_comm_s.{op}"] = sum(s.get("virtual_s", 0.0) for s in ops_spans)
        for size in SIMMPI_SIZES:
            durs = [s["end"] - s["start"] for s in ops_spans if s["size"] == size]
            m[f"simmpi.host_s.{op}.size{size}"] = sum(durs) / len(durs) if durs else 0.0
    m["simmpi.wait_s"] = sum(waits)

    # tensor
    m["tensor.host_s.forward"] = by_name["tensor.forward"]
    m["tensor.host_s.backward"] = by_name["tensor.backward"]
    m["tensor.matmul_calls"] = rec.counters["tensor.matmul_calls"]
    m["tensor.matmul_gflop"] = rec.counters["tensor.matmul_flop"] / 1e9

    # amp
    m["amp.skipped_steps"] = rec.counters["amp.skipped_steps"]
    m["amp.host_s"] = sum(v for k, v in by_name.items() if k.startswith("amp."))

    # moe
    for stage in ("gate", "dispatch", "expert", "combine"):
        m[f"moe.host_s.{stage}"] = by_name[f"moe.{stage}"]
    drops = rec.samples.get("moe.drop_frac", [])
    imbs = rec.samples.get("moe.load_imbalance", [])
    m["moe.drop_frac"] = sum(drops) / len(drops) if drops else 0.0
    m["moe.load_imbalance"] = sum(imbs) / len(imbs) if imbs else 0.0

    # parallel / train (step and sync spans are totals: they contain the
    # forward, backward and collectives they drive)
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    m["parallel.step_host_s"] = total("parallel.step")
    m["parallel.grad_sync_host_s"] = total("parallel.grad_sync")
    m["train.optim_host_s"] = by_name["train.optim"]
    m["train.clip_host_s"] = by_name["train.clip"]

    # serve
    occ = rec.samples.get("serve.batch_occupancy", [])
    waits_q = rec.samples.get("serve.queue_wait_s", [])
    m["serve.iterations"] = rec.counters["serve.iterations"]
    m["serve.batch_occupancy"] = sum(occ) / len(occ) if occ else 0.0
    m["serve.queue_wait_ms_p50"] = stats.percentile(waits_q, 50) * 1e3 if waits_q else 0.0
    m["serve.scheduler_host_s"] = by_name["serve.scheduler"]
    m["serve.kv_host_s"] = by_name["serve.kv"]
    m["serve.model_builds"] = calls["serve.model_build"]
    m["serve.model_build_host_s"] = total("serve.model_build")

    # fleet / router
    m["fleet.segments"] = calls["serve.run_serving"]
    m["router.host_s"] = by_name["router.call"] + by_name["router.backoff"]

    # network
    outer = [
        s for s in spans
        if s["name"] == "network.cost"
        and (s["parent"] is None or spans[s["parent"]]["name"] != "network.cost")
    ]
    m["network.cost_calls"] = len(outer)
    m["network.cost_host_s"] = sum(s["end"] - s["start"] for s in outer)
    m["network.span_level_calls"] = rec.counters["network.span_level_calls"]

    # perf / plan
    for label, nodes in STEP_MODEL_NODES.items():
        m[f"perf.step_model_host_s.{label}"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "perf.step_breakdown" and s.get("nodes") == nodes
        )
    searches = [s for s in spans if s["name"] == "plan.search"]
    layouts = sum(s["layouts"] for s in searches)
    m["plan.layouts"] = layouts
    m["plan.rejected"] = sum(s["rejected"] for s in searches)
    m["plan.host_s_per_layout"] = (
        sum(s["end"] - s["start"] for s in searches) / layouts if layouts else 0.0
    )

    # obs: pass wall time no span covers
    m["unattributed_s"] = (pass_end - pass_start - probe_s) - stats.covered(
        [(s["start"], s["end"]) for s in spans], pass_start, pass_end
    )
    return m
