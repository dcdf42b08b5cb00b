"""Property-based tests of the performance model's sanity invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, tiny_config
from repro.network import sunway_network
from repro.perf import ParallelPlan, StepModel, node_memory, step_flops

CFG = bagualu_14_5t()
MACHINE = sunway_machine(96_000)
NET = sunway_network(96_000)
SM = StepModel(CFG, MACHINE, NET)

micro_batches = st.sampled_from([1, 2, 4, 8, 16])
node_counts = st.sampled_from([256, 1024, 4096, 16384, 96_000])


def plan(nodes=96_000, mb=1, **kw):
    return ParallelPlan(num_nodes=nodes, ep_size=nodes, micro_batch=mb,
                        seq_len=2048, **kw)


@given(micro_batches)
@settings(deadline=None)
def test_achieved_never_exceeds_peak(mb):
    achieved = SM.achieved_flops(plan(mb=mb))
    assert achieved <= MACHINE.peak_flops(CFG.dtype)


@given(micro_batches)
@settings(deadline=None)
def test_step_time_monotone_in_batch(mb):
    t1 = SM.step_time(plan(mb=mb))
    t2 = SM.step_time(plan(mb=mb * 2))
    assert t2 > t1


@given(node_counts)
@settings(deadline=None)
def test_throughput_monotone_in_nodes(nodes):
    sm = StepModel(CFG, MACHINE.with_nodes(nodes), sunway_network(nodes))
    small = sm.tokens_per_second(plan(nodes=nodes, mb=4))
    if nodes < 96_000:
        bigger = 4 * nodes
        sm2 = StepModel(CFG, MACHINE.with_nodes(bigger), sunway_network(bigger))
        assert sm2.tokens_per_second(plan(nodes=bigger, mb=4)) > small


@given(micro_batches)
@settings(deadline=None)
def test_efficiency_monotone_in_batch(mb):
    """Bigger micro-batches amortize communication: higher sustained FLOPs."""
    a = SM.achieved_flops(plan(mb=mb))
    b = SM.achieved_flops(plan(mb=mb * 2))
    assert b >= a * 0.999


@given(node_counts)
@settings(deadline=None)
def test_memory_params_decrease_with_ep(nodes):
    instances = CFG.num_moe_layers * CFG.num_experts
    small_ep = min(nodes // 2 or 1, instances)
    # pick divisors of nodes
    ep_small = 1
    for cand in range(small_ep, 0, -1):
        if nodes % cand == 0 and cand <= instances:
            ep_small = cand
            break
    ep_big = 1
    for cand in range(min(nodes, instances), 0, -1):
        if nodes % cand == 0:
            ep_big = cand
            break
    if ep_big <= ep_small:
        return
    p_small = ParallelPlan(num_nodes=nodes, ep_size=ep_small, micro_batch=1, seq_len=2048)
    p_big = ParallelPlan(num_nodes=nodes, ep_size=ep_big, micro_batch=1, seq_len=2048)
    assert node_memory(CFG, p_big).expert_params <= node_memory(CFG, p_small).expert_params


@given(st.integers(min_value=1, max_value=1_000_000))
@settings(deadline=None)
def test_step_flops_additive(tokens):
    a = step_flops(CFG, tokens)
    b = step_flops(CFG, tokens * 2)
    assert b == pytest.approx(2 * a, rel=1e-12)


@given(micro_batches, st.floats(min_value=1.0, max_value=3.0))
@settings(deadline=None)
def test_imbalance_monotone(mb, imbalance):
    base = SM.step_time(plan(mb=mb))
    skew = SM.step_time(plan(mb=mb, load_imbalance=imbalance))
    assert skew >= base


def test_tiny_config_plan_sane():
    cfg = tiny_config()
    sm = StepModel(cfg, MACHINE.with_nodes(8), sunway_network(8))
    p = ParallelPlan(num_nodes=8, ep_size=8, micro_batch=1, seq_len=16)
    bd = sm.step_breakdown(p)
    assert bd.total > 0
    assert sm.achieved_flops(p) > 0
