"""The repository's benchmark: one command, three workloads, two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_moda --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
tracing off: host set-up time, and wall seconds, CPU seconds and peak RSS
per pass (medians over the run's passes), plus the workload's virtual
step time. Host seconds are reported at reference speed: scaled by a
machine-speed probe run between the units of work (speed.py), because
the shared machine's own speed drifts more than the bounds allow; the
seconds as measured are printed as comment lines. ``--trace 1``
alternates untraced and traced passes and
reports the per-layer metrics of BENCHMARK.json: host-clock spans
recorded around each layer's public calls (tracer.py), the virtual
serving and reconciliation figures, and the tracing overhead; the spans
of the last traced pass are written to ``perfbench/out/``.

The run pins itself to one CPU (see ``_pin_to_one_cpu``) and records the
environment the host numbers depend on. Every pass runs the workload's
correctness checks. Virtual results must
be bitwise-equal across all passes of a run, traced or not, and equal
``reference.json`` for the default seed. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed check exits 1, and a checkout
without the program's sources exits 2 without a result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (this file's directory leads sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups timed in fresh interpreters per run; their median is ``setup_s``.
SETUP_SAMPLES = 5
#: Untraced passes per untraced run, at least.
MIN_PASSES = 3
#: No run measures past this many seconds, whatever ``--seconds`` says.
HARD_CAP_S = 140.0


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload, then exit (how setup_s is timed)")
    return p.parse_args(argv)


def _pin_to_one_cpu() -> None:
    """Run the benchmark, its threads and children on one CPU.

    On a 2-vCPU VM, rank threads hopping between vCPUs get their time
    stolen by the hypervisor: an unpinned train_moda pass measured 3-4.5 s
    wall with 2-3.6 s stolen, the same pass pinned 1.0-1.5 s with < 0.15 s
    stolen. The program's Python is serialised by the interpreter lock
    either way. Called after numpy started its BLAS threads, which keep
    every CPU: BLAS threading stays as the environment sets it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def _load_program():
    """Import the program from this checkout's ``src``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# --------------------------------------------------------------------- #
# Host measurements
# --------------------------------------------------------------------- #


def _reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) so each pass reads its own."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers the process so far


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_samples(args: argparse.Namespace, probe) -> list[float]:
    """Wall seconds from interpreter spawn to a built workload.

    Timed in fresh processes: imports are cached per process, so
    in-process repeats would miss them. The machine's speed is probed
    before the first and after each.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    probe.measure()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms; without one
        # it blocks until the exit, so a timer thread enforces the limit.
        limit = threading.Timer(120, child.kill)
        limit.start()
        try:
            code = child.wait()
        finally:
            limit.cancel()
            limit.join()
        out.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        probe.measure()
    return out


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    info: dict = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _steal_seconds() -> float:
    """Seconds the hypervisor stole from this VM's CPUs since boot."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    """What the host numbers depend on. Recorded, never pinned, so that a
    BLAS-threading fix can show as a gain."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


# --------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------- #


class Timed:
    """One pass with its host measurements.

    The machine's speed is probed once before the pass and at every
    ``tick`` the workload calls between its units of work; the pass's
    times leave the probes out. ``ref_wall`` and ``ref_cpu`` are its times
    at reference speed, scaled by the probes of this pass (speed.py).
    """

    def __init__(self, workload, probe):
        _reset_peak_rss()
        self.wall = self.cpu = 0.0
        self.probe_s = 0.0  # probe wall time inside the pass
        first = probe.count()
        probe.measure()
        self.start = w0 = time.perf_counter()
        c0 = time.process_time()

        def tick():
            nonlocal w0, c0
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0
            p0 = time.perf_counter()
            probe.measure()
            w0, c0 = time.perf_counter(), time.process_time()
            self.probe_s += w0 - p0

        self.result = workload.run_pass(tick)
        tick()
        self.end = time.perf_counter()
        self.rss = _peak_rss_mb()
        self.ref_wall = self.wall * probe.to_reference(0, first)
        self.ref_cpu = self.cpu * probe.to_reference(1, first)


def _run_passes(workload, args, stats, probe):
    """Untraced (and, with --trace 1, alternating traced) passes until the
    next one would overrun ``--seconds``."""
    plain: list[Timed] = []
    traced: list[Timed] = []
    layer: list[dict] = []
    recorder = None
    if args.trace:
        import tracer
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            recorder = tracer.install(tracer.SpanRecorder())
            try:
                timed = Timed(workload, probe)
            finally:
                recorder.uninstall()
            traced.append(timed)
            layer.append(tracer.layer_metrics(recorder, timed.start, timed.end, timed.probe_s))
        else:
            plain.append(Timed(workload, probe))
        enough = (len(traced) >= 1) if args.trace else (len(plain) >= MIN_PASSES)
        now = time.perf_counter()
        typical = stats.median(p.wall for p in plain + traced)
        if enough and (now + typical > start + args.seconds or now - start > HARD_CAP_S):
            return plain, traced, layer, recorder


def main(argv: list[str]) -> int:
    args = _parse(argv)
    workloads = _load_program()
    _pin_to_one_cpu()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(f"setup {time.perf_counter() - _T_START:.6f} s (in process)")
        return 0

    import stats

    e2e_units, layer_units = _metric_units()
    probe = speed.SpeedProbe()
    setups = _setup_samples(args, probe)
    setup_to_ref = probe.to_reference(0)
    steal0 = _steal_seconds()
    plain, traced, layer, recorder = _run_passes(workload, args, stats, probe)
    stolen = _steal_seconds() - steal0
    results = [p.result for p in plain + traced]

    # Run-level checks, each one attempted operation.
    errors = [e for r in results for e in r.errors]
    run_checks: list[list[str]] = []
    first = json.dumps(results[0].fingerprint, sort_keys=True)
    run_checks.append(
        [] if all(json.dumps(r.fingerprint, sort_keys=True) == first for r in results)
        else [f"{args.workload}: virtual results differ between passes (traced or not)"]
    )
    run_checks.append(workloads.check_reference(args.workload, args.seed, results[0]))
    run_checks.append(workload.run_checks())
    extra_layer: dict[str, float] = {}
    if args.trace:
        extra, errs = workload.traced_extras(results[0])
        extra_layer.update(extra)
        run_checks.append(errs)
    for errs in run_checks:
        errors += errs
    attempted = sum(r.attempted for r in results) + len(run_checks)
    failed = sum(r.failed for r in results) + sum(1 for errs in run_checks if errs)

    virtual_layer = {k: stats.median(r.layer[k] for r in results) for k in results[0].layer}
    if args.trace:
        values = {k: stats.median(s[k] for s in layer) for k in layer[0]}
        values.update(virtual_layer)
        values.update(extra_layer)
        values["obs.trace_overhead_frac"] = (
            stats.median(p.ref_wall for p in traced) / stats.median(p.ref_wall for p in plain)
            - 1.0
        )
        values.setdefault("failed_frac", failed / attempted)
        units = layer_units
        recorder.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "environment": environment()},
        )
    else:
        values = {
            "setup_s": stats.median(setups) * setup_to_ref,
            "wall_s": stats.median(p.ref_wall for p in plain),
            "cpu_s": stats.median(p.ref_cpu for p in plain),
            "peak_rss_mb": stats.median(p.rss for p in plain),
            "virtual_step_s": results[0].virtual_step_s,
        }
        units = e2e_units
    # Layers a workload does not exercise read 0.
    report = {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()}

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes: {len(plain)} untraced (n={len(plain)} per median), "
          f"{len(traced)} traced; setups: {len(setups)}")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    print(f"# hypervisor steal during the passes: {stolen:.2f} s (all CPUs)")
    print("# speed probe wall s, median per part: " + " ".join(
        f"{name} {stats.median(w for w, _ in s):.5f}" for name, s in probe.samples.items()
    ) + f" (n={probe.count()}); host seconds are reported at reference speed")
    print("# pass wall s at reference speed: "
          + " ".join(f"{p.ref_wall:.3f}" for p in plain + traced))
    print("# pass wall s as measured: " + " ".join(f"{p.wall:.3f}" for p in plain + traced))
    print("# pass cpu s as measured:  " + " ".join(f"{p.cpu:.3f}" for p in plain + traced))
    print(f"# setup s as measured (times {setup_to_ref:.4f} to reference speed): "
          + " ".join(f"{w:.3f}" for w in setups))
    for k, v in report.items():
        print(f"{k:40s} {v['value']:.6g} {v['unit']}")
    if not args.trace:
        for k, v in virtual_layer.items():
            print(f"# virtual {k:32s} {v:.6g} {layer_units.get(k, '')}")
        print(f"# failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for key in results[0].scheduling_dependent:
        seen = {r.layer[key] for r in results}
        if len(seen) > 1:
            print(f"# note: {key} took {len(seen)} values over {len(results)} passes "
                  "of one seed; the program makes it depend on thread scheduling")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
