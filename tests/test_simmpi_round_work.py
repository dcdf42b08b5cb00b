"""A collective round does its shared work once, without sharing state.

* an allreduce round folds its contributions once, and every member
  must name the same reduction op;
* a communicator prices each (kind, bytes, algorithm) on the network
  model once;
* no in-place mutation of a result, or of a send buffer after return,
  reaches another rank.
"""

import copy
import sys

import numpy as np
import pytest

from repro.errors import CommunicatorError, DeadlockError
from repro.network import NetworkModel, sunway_network
from repro.simmpi import MAX, SUM, run_spmd
from repro.simmpi import comm as comm_mod


def _counting(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_fold_per_allreduce_round(monkeypatch):
    calls = _counting(monkeypatch, comm_mod, "_reduce_payloads")

    def program(comm):
        x = np.arange(4.0) + comm.rank
        a = comm.allreduce(x)
        b = comm.iallreduce(x, op=MAX).wait()
        c = comm.allreduce(comm.rank)
        return a, b, c

    res = run_spmd(program, 4)
    assert len(calls) == 3
    for a, b, c in res.returns:
        np.testing.assert_array_equal(a, np.arange(4.0) * 4 + 6)
        np.testing.assert_array_equal(b, np.arange(4.0) + 3)
        assert c == 6


def test_one_price_per_repeated_collective(monkeypatch):
    calls = _counting(monkeypatch, NetworkModel, "allreduce_time")

    def program(comm):
        x = np.ones(16, dtype=np.float32)
        for _ in range(10):
            comm.allreduce(x)
        return comm.clock

    res = run_spmd(program, 4, network=sunway_network(4))
    assert len(calls) == 1
    assert len(set(res.clocks)) == 1 and res.clocks[0] > 0


def test_allreduce_op_mismatch_raises():
    def program(comm):
        return comm.allreduce(comm.rank + 1, op=SUM if comm.rank == 0 else MAX)

    with pytest.raises(CommunicatorError, match="collective mismatch"):
        run_spmd(program, 2)


def test_iallreduce_op_mismatch_raises():
    def program(comm):
        return comm.iallreduce(comm.rank + 1, op=SUM if comm.rank == 0 else MAX).wait()

    with pytest.raises(CommunicatorError, match="collective mismatch"):
        run_spmd(program, 2)


def test_unknown_op_rejected_before_the_round():
    """A rejected call contributes nothing, so the next round still pairs up."""

    def program(comm):
        if comm.rank == 0:
            with pytest.raises(CommunicatorError, match="unknown reduction op"):
                comm.allreduce(1, op="median")
        return comm.allreduce(comm.rank + 1)

    try:
        res = run_spmd(program, 2, timeout=5.0)
    except DeadlockError as exc:  # the bad call joined round 0
        pytest.fail(f"unknown op entered a round: {exc}")
    assert res.returns == [3, 3]


def _bump(obj):
    """Add 100 in place to every array inside ``obj``."""
    if isinstance(obj, np.ndarray):
        obj += 100
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _bump(x)


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)


def test_mutating_results_and_send_buffers_stays_local():
    def program(comm):
        n = comm.size
        x = np.full(3, comm.rank + 1.0)
        sends = [[np.full(2, 10.0 * comm.rank + j) for j in range(n)] for _ in range(2)]
        results = [
            comm.allreduce(x),
            comm.iallreduce(x).wait(),
            comm.alltoall(sends[0]),
            comm.ialltoall(sends[1]).wait(),
            comm.bcast(x if comm.rank == 0 else None),
            comm.allgather(x),
        ]
        expected = copy.deepcopy(results)
        # Each rank in turn scribbles over everything it holds; ranks that
        # have not scribbled yet must still see their own values.
        for mutator in range(n):
            if comm.rank == mutator:
                _bump(results)
                _bump(sends)
                _bump(x)
            comm.barrier()
            if comm.rank > mutator:
                _assert_same(results, expected)
            comm.barrier()
        return expected

    res = run_spmd(program, 4)
    for rank, (ar, iar, a2a, ia2a, bc, ag) in enumerate(res.returns):
        np.testing.assert_array_equal(ar, np.full(3, 10.0))
        np.testing.assert_array_equal(iar, np.full(3, 10.0))
        _assert_same(a2a, [np.full(2, 10.0 * src + rank) for src in range(4)])
        _assert_same(ia2a, [np.full(2, 10.0 * src + rank) for src in range(4)])
        np.testing.assert_array_equal(bc, np.full(3, 1.0))
        _assert_same(ag, [np.full(3, src + 1.0) for src in range(4)])


def test_shared_round_work_under_fast_thread_switching(monkeypatch):
    """Overlapping rounds on a world and its split halves, switching threads
    every microsecond: every result is right, every price computed once."""
    prices = _counting(monkeypatch, NetworkModel, "allreduce_time")

    def program(comm):
        half = comm.Split(comm.rank % 2)
        totals = []
        for i in range(40):
            sub = comm if i % 3 == 0 else half
            x = np.full(4, float(comm.rank + i))
            totals.append(float(sub.allreduce(x, op=SUM if i % 2 else MAX)[0]))
        return totals

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = run_spmd(program, 8, network=sunway_network(8), timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    for rank, totals in enumerate(res.returns):
        for i, got in enumerate(totals):
            members = range(8) if i % 3 == 0 else range(rank % 2, 8, 2)
            vals = [m + i for m in members]
            assert got == (sum(vals) if i % 2 else max(vals))
    # Three communicators, one buffer size, one algorithm: one price each.
    assert len(prices) == 3
