"""Machine-speed probe: how fast this CPU runs fixed work now.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within seconds, with the load of the host's other tenants:
the same single-threaded pass of identical work measured 4.7 s and 7.5 s
a minute apart. No single-pass statistic removes such drift, so the
runner probes the speed between the units of work of every pass and
reports host seconds *at reference speed*: each pass as measured, times
the probe's reference seconds over its median seconds during that pass
(one probe before the pass and one after each unit of work). A program
change cannot move the probe (it is the benchmark's own code, run
between the program's calls), so the scaled figures move only with the
program.

The probe has three parts, because code slows down unequally on a busy
host: interpreter-bound Python with small numpy calls, a pointer chase
through memory (cache misses), and a two-thread condition-variable
hand-off (the futex wake-ups rank threads pay). Interleaved with the
workloads on the tuning VM, their geometric mean tracked the workloads'
drift better than any one part. Over eight 20-30 s runs of one seed,
the interquartile spread of the run's median pass went from 15% as
measured to 4% scaled on train_moda, 21% to 5% on serve_fleet and 36%
to 10% on project_scale; scaling each pass by its own probes beat
scaling the run by all of them (7%, 11%, 11%).
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time

import numpy as np

#: Seconds of each probe part that define reference speed: about their
#: medians on the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = {"interp": 0.005, "memory": 0.005, "handoff": 0.005}

#: Pointer-chase table: a random cycle over this many slots (~5 MB).
_CHASE_SLOTS = 1 << 17


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value

    def scaled(self, f: float) -> float:
        return self.value * f


def _interp() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    batch: list[_Item] = []
    for i in range(4000):
        item = _Item(i % 97, i * 0.5)
        table[item.key] = table.get(item.key, 0.0) + item.scaled(1.5)
        batch.append(item)
        if len(batch) == 32:
            batch.sort(key=lambda it: (it.key, -it.value))
            acc += math.sqrt(batch[0].value + 1.0)
            batch.clear()
    a = np.full((8, 8), 0.5)
    for _ in range(200):
        a = np.tanh(a @ a * 0.1 + 1.0)
        acc += float(a.sum())
    return acc + sum(table.values())


def _chase_table() -> list[int]:
    """A single random cycle through every slot."""
    order = list(range(_CHASE_SLOTS))
    random.Random(0).shuffle(order)
    nxt = [0] * _CHASE_SLOTS
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


def _memory(nxt: list[int]) -> int:
    i = total = 0
    for _ in range(20000):
        i = nxt[i]
        total += i
    return total


def _handoff() -> None:
    cv = threading.Condition()
    turn = [0]
    rounds = 300

    def other():
        for _ in range(rounds):
            with cv:
                while turn[0] % 2 == 0:
                    cv.wait()
                turn[0] += 1
                cv.notify_all()

    t = threading.Thread(target=other)
    t.start()
    for _ in range(rounds):
        with cv:
            turn[0] += 1
            cv.notify_all()
            while turn[0] % 2 == 1:
                cv.wait()
    t.join()


class SpeedProbe:
    """Times the probe parts on the wall and the process-CPU clock."""

    def __init__(self) -> None:
        self._nxt = _chase_table()
        self._parts = {
            "interp": _interp,
            "memory": lambda: _memory(self._nxt),
            "handoff": _handoff,
        }
        #: part -> [(wall s, CPU s)] per measurement
        self.samples: dict[str, list[tuple[float, float]]] = {k: [] for k in self._parts}
        for fn in self._parts.values():
            fn()  # warm caches and first-call paths

    def measure(self) -> None:
        for name, fn in self._parts.items():
            w0, c0 = time.perf_counter(), time.process_time()
            fn()
            self.samples[name].append((time.perf_counter() - w0, time.process_time() - c0))

    def count(self) -> int:
        return len(self.samples["interp"])

    def to_reference(self, clock: int, start: int = 0, stop: int | None = None) -> float:
        """Factor from seconds measured while probes ``start:stop`` ran to
        reference seconds: the geometric mean over the parts of reference
        over median probe time. ``clock`` 0 scales wall seconds, 1 CPU
        seconds."""
        logs = [
            math.log(REFERENCE_S[name] / statistics.median(s[clock] for s in samples[start:stop]))
            for name, samples in self.samples.items()
        ]
        return math.exp(sum(logs) / len(logs))
