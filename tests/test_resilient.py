"""Fault-tolerant training: checkpoint-restart recovery determinism.

Plain checkpoint-restart is the supervisor with shrinking off: every
relaunch runs at full width from the latest verified snapshot.
"""

import pytest

from repro.errors import CommunicatorError, ConfigError
from repro.models import tiny_config
from repro.parallel import TrainingRunConfig, latest_snapshot, run_distributed_training
from repro.resilience import ElasticRunConfig, Supervisor
from repro.simmpi import FaultPlan

CFG = tiny_config(num_experts=4)


def make_cfg(tmp_path, **kw):
    defaults = dict(
        model=CFG, world_size=4, ep_size=2, total_steps=6,
        checkpoint_every=2, checkpoint_dir=tmp_path / "ckpts",
        batch_size=2, seq_len=8, seed=11,
        elastic=False, corpus_predictability=0.9,
    )
    defaults.update(kw)
    return ElasticRunConfig(**defaults)


def run_resilient_training(cfg, fault_plans=None):
    return Supervisor(cfg, fault_plans=fault_plans).run()


class TestHealthyRun:
    def test_completes_without_restarts(self, tmp_path):
        res = run_resilient_training(make_cfg(tmp_path))
        assert res.restarts == 0
        assert len(res.losses) == 6
        assert res.checkpoint_steps == [2, 4, 6]

    def test_checkpoints_on_disk(self, tmp_path):
        run_resilient_training(make_cfg(tmp_path))
        d = tmp_path / "ckpts"
        assert (d / "step-000002" / "meta.json").exists()
        assert (d / "step-000006" / "dense.npz").exists()

    def test_loss_decreases(self, tmp_path):
        res = run_resilient_training(make_cfg(tmp_path, total_steps=10))
        assert res.losses[-1] < res.losses[0]


class TestFaultyRun:
    def _kill_plan(self, at_op):
        return FaultPlan().kill_rank(1, at_op=at_op)

    def test_recovers_from_rank_kill(self, tmp_path):
        # First launch dies quickly; second launch (healthy) completes.
        res = run_resilient_training(
            make_cfg(tmp_path),
            fault_plans=[self._kill_plan(at_op=60), None],
        )
        assert res.restarts == 1
        # Steps before the surviving segment's checkpoint died with the
        # crashed world; coverage resumes at that checkpoint.
        assert res.first_step + len(res.losses) == 6

    def test_recovered_run_matches_healthy_run(self, tmp_path):
        """Determinism: crash + restore reproduces the undisturbed
        trajectory exactly (the property real recovery systems target)."""
        healthy = run_resilient_training(make_cfg(tmp_path / "a"))
        faulted = run_resilient_training(
            make_cfg(tmp_path / "b"),
            fault_plans=[self._kill_plan(at_op=90), None],
        )
        assert faulted.restarts == 1
        overlap = healthy.losses[faulted.first_step:]
        assert overlap == faulted.losses

    def test_multiple_failures(self, tmp_path):
        res = run_resilient_training(
            make_cfg(tmp_path),
            fault_plans=[self._kill_plan(50), self._kill_plan(50), None],
        )
        assert res.restarts == 2
        assert res.first_step + len(res.losses) == 6

    def test_gives_up_after_max_restarts(self, tmp_path):
        always_fail = [self._kill_plan(0)] * 10
        with pytest.raises(CommunicatorError, match="giving up"):
            run_resilient_training(
                make_cfg(tmp_path, max_restarts=2), fault_plans=always_fail
            )

    def test_immediate_failure_restarts_from_scratch(self, tmp_path):
        """A crash before the first checkpoint restarts from step 0."""
        res = run_resilient_training(
            make_cfg(tmp_path),
            fault_plans=[self._kill_plan(at_op=5), None],
        )
        assert res.restarts == 1
        # Crash before any checkpoint: the retry covers all steps.
        assert res.first_step == 0
        assert len(res.losses) == 6


class TestLatestCheckpoint:
    def test_empty_dir(self, tmp_path):
        assert latest_snapshot(tmp_path) == (None, 0)

    def test_picks_highest_complete(self, tmp_path):
        for step in (2, 4):
            d = tmp_path / f"step-{step:06d}"
            d.mkdir(parents=True)
            (d / "meta.json").write_text("{}")
        # A partial (crashed) save without meta.json must be ignored.
        (tmp_path / "step-000006").mkdir()
        path, step = latest_snapshot(tmp_path)
        assert step == 4
        assert path.name == "step-000004"

    def test_ignores_malformed_names(self, tmp_path):
        d = tmp_path / "step-xyz"
        d.mkdir()
        (d / "meta.json").write_text("{}")
        assert latest_snapshot(tmp_path) == (None, 0)


class TestConfigValidation:
    def test_invalid_steps(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, total_steps=0)
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, checkpoint_every=0)
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, max_restarts=-1)


class TestOneStepPath:
    """The supervisor's segments run the registry's plain in-plane step."""

    @staticmethod
    def _collective_calls(steps, tmp_path):
        plain = run_distributed_training(TrainingRunConfig(
            model=CFG, world_size=4, ep_size=2, num_steps=steps,
            batch_size=2, seq_len=8, seed=11,
        ))
        elastic = Supervisor(make_cfg(
            tmp_path / f"s{steps}", total_steps=steps, checkpoint_every=100,
        )).run()
        return (plain.context.stats.collective_calls,
                elastic.context.stats.collective_calls)

    def test_healthy_segment_issues_plain_step_collectives(self, tmp_path):
        plain2, elastic2 = self._collective_calls(2, tmp_path)
        plain4, elastic4 = self._collective_calls(4, tmp_path)
        plain_per_2_steps = plain4 - plain2
        assert plain_per_2_steps["allreduce"] > 0
        assert elastic4 - elastic2 == plain_per_2_steps
