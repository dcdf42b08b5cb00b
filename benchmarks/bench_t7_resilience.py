"""T7 (extension) — fault tolerance: checkpoint interval vs lost work.

At 96,000 nodes faults are routine; the checkpoint interval trades steady-
state overhead against work lost per failure. This bench crashes a run at
a fixed step under several intervals and reports the recomputed steps,
verifies the recovered trajectory matches an undisturbed run (T7/T7b run
the supervisor with shrinking off: plain full-width checkpoint-restart),
and sweeps the node MTBF through the elastic supervisor to chart
goodput/availability against failure rate (T7c).
"""

import numpy as np

from repro.models import tiny_config
from repro.resilience import ElasticRunConfig, Supervisor
from repro.simmpi import FaultModel, FaultPlan

CFG = tiny_config(num_experts=4)
TOTAL = 8


def restart_cfg(**kw) -> ElasticRunConfig:
    """Full-width checkpoint-restart on world 4 / ep 2 (no shrinking)."""
    return ElasticRunConfig(
        model=CFG, world_size=4, ep_size=2, batch_size=2, seq_len=8,
        elastic=False, corpus_predictability=0.9, **kw,
    )

# Op index that lands the kill around training step ~5 of the first launch
# (measured for this model/batch configuration).
KILL_AT_OP = 120


def test_t7_interval_vs_lost_work(benchmark, report, tmp_path):
    def measure():
        rows = []
        for interval in (1, 2, 4):
            cfg = restart_cfg(
                total_steps=TOTAL, checkpoint_every=interval,
                checkpoint_dir=tmp_path / f"ival{interval}", seed=7,
            )
            res = Supervisor(
                cfg, fault_plans=[FaultPlan().kill_rank(1, at_op=KILL_AT_OP), None]
            ).run()
            # Steps recomputed = steps the surviving segment replayed that
            # the crashed attempt had already processed (upper-bounded by
            # the interval).
            rows.append(
                {
                    "checkpoint_every": interval,
                    "restarts": res.restarts,
                    "resume_step": res.first_step,
                    "checkpoints_written": len(res.checkpoint_steps),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t7_resilience", "T7: checkpoint interval vs recovery point", rows)

    assert all(r["restarts"] == 1 for r in rows)
    # Tighter intervals resume later (less lost work), at the cost of more
    # checkpoint writes.
    resume = [r["resume_step"] for r in rows]
    writes = [r["checkpoints_written"] for r in rows]
    assert resume[0] >= resume[-1]
    assert writes[0] > writes[-1]


def test_t7_recovery_is_exact(benchmark, report, tmp_path):
    """Crash+restore reproduces the healthy trajectory bit-for-bit."""

    def measure():
        healthy = Supervisor(
            restart_cfg(
                total_steps=6, checkpoint_every=2,
                checkpoint_dir=tmp_path / "healthy", seed=9,
            )
        ).run()
        faulted = Supervisor(
            restart_cfg(
                total_steps=6, checkpoint_every=2,
                checkpoint_dir=tmp_path / "faulted", seed=9,
            ),
            fault_plans=[FaultPlan().kill_rank(2, at_op=100), None],
        ).run()
        overlap = healthy.losses[faulted.first_step:]
        worst = float(np.abs(np.array(overlap) - np.array(faulted.losses)).max())
        return [
            {
                "restarts": faulted.restarts,
                "resumed_at_step": faulted.first_step,
                "max_loss_difference": worst,
            }
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t7_exactness", "T7b: recovered vs healthy trajectory", rows)
    assert rows[0]["restarts"] == 1
    assert rows[0]["max_loss_difference"] < 1e-6


def test_t7_goodput_vs_mtbf(benchmark, report, tmp_path):
    """Sweep node MTBF through the elastic supervisor.

    Virtual step times for the tiny model are ~1e-4 s, so the MTBF grid
    spans "a failure every step or two" up to "effectively healthy"; the
    backoff base is scaled to the same regime. Goodput (surviving
    step-work per session second) should recover toward 1.0 as the
    machine gets healthier.
    """

    def sweep():
        rows = []
        for mtbf in (3e-4, 1e-3, 1e-2, None):
            cfg = ElasticRunConfig(
                model=CFG, world_size=4, ep_size=2, total_steps=TOTAL,
                checkpoint_every=2,
                checkpoint_dir=tmp_path / f"mtbf{mtbf or 'inf'}",
                batch_size=2, seq_len=8, seed=0,
                max_restarts=30, backoff_base=1e-4, backoff_cap=1e-3,
            )
            res = Supervisor(
                cfg, faults=FaultModel(seed=1, mtbf=mtbf) if mtbf else None
            ).run()
            rows.append(
                {
                    "mtbf_s": mtbf if mtbf is not None else float("inf"),
                    "restarts": res.restarts,
                    "shrinks": res.shrinks,
                    "final_world": res.final_world_size,
                    "lost_steps": res.lost_steps,
                    "goodput": res.goodput,
                    "availability": res.availability,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("t7_goodput", "T7c: goodput vs node MTBF (elastic supervisor)", rows)

    goodput = [r["goodput"] for r in rows]
    assert goodput[-1] == 1.0  # healthy machine: no overhead at all
    assert goodput == sorted(goodput)  # healthier machine, better goodput
    assert rows[0]["restarts"] > 0  # failure-dominated regime really failed
