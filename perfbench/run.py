"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  The
workload runs in this process and then in a fresh replica process; each
sets up from scratch and starts ops until half of ``--seconds`` has
passed.  ``--trace 1`` is a separate,
single-process run that records layer spans and prints the per-layer
metrics.  The last stdout line is the result object; the line before it
is the run's record (environment, samples, the workload-specific
figures).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Processes an untraced run times: this one, then a fresh replica.  Each
#: sets up from scratch (a ``setup_s`` sample) and times its share of
#: ``--seconds``, so the samples span the whole run.  Two, not more: a
#: fig5 set-up and op take 5 to 9 s each, and a run should stay near 30 s.
PROCESSES = 2
#: Op indices of replica ``r`` start at ``r * REPLICA_STRIDE + 1``.
REPLICA_STRIDE = 1000
#: Untraced, then traced, ops of a ``--trace 1`` run.
TRACED_OPS = 3
CHILD_TIMEOUT_S = 60
#: Seconds a leftover process gets to end on SIGTERM before SIGKILL.
STOP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36
#: ``setup_s`` and ``op_s_p50`` rescale wall time to a host on which the
#: host-speed probe's loop takes this much CPU time (see ``hostspeed.py``),
#: so they do not follow the whole-host slowdowns of a shared machine.
PROBE_REF_S = 0.001
RSS_METHOD = (
    "VmHWM reset through /proc/<pid>/clear_refs after set-up, read after "
    "the timed ops, summed over this process and its pool workers (pages "
    "a forked worker shares with its parent count in both); the baseline "
    "is the summed VmRSS at the reset"
)


def process_age_s() -> float:
    """Seconds since this interpreter started (kernel start time)."""
    try:
        with open("/proc/self/stat") as stat:
            start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return now - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, AttributeError, ValueError):
        return time.perf_counter() - _START


# -- processes --------------------------------------------------------------------
def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux), so processes a
    replica leaves behind, e.g. after it was killed, are still ours to
    stop and wait for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """PIDs of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The library's pool workers are shut down and multiprocessing's
    resource tracker (started by the shared-memory transport) is closed
    and waited for; any other child left, an adopted orphan included, gets
    SIGTERM, then SIGKILL after ``STOP_GRACE_S``, and is reaped.
    """
    pool = sys.modules.get("repro.cachesim.pool")
    if pool is not None:
        pool.shutdown_pool(wait=True)
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and hasattr(tracker._resource_tracker, "_stop"):
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_GRACE_S
    signalled = None
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        sig = signal.SIGKILL if time.monotonic() > deadline else signal.SIGTERM
        if sig != signalled:
            for child in child_pids():
                try:
                    os.kill(child, sig)
                except ProcessLookupError:
                    pass
            signalled = sig
        time.sleep(0.01)


# -- memory ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _processes() -> list[int]:
    """This process and the library's pool workers."""
    pids = [os.getpid()]
    pool = sys.modules.get("repro.cachesim.pool")
    if pool is not None:
        pids += pool.worker_pids()
    return pids


def reset_peak_rss() -> float:
    """Reset each process's VmHWM; returns the summed VmRSS in MiB."""
    kib = 0
    for pid in _processes():
        with open(f"/proc/{pid}/clear_refs", "w") as clear:
            clear.write("5")
        kib += _status_kb(pid, "VmRSS")
    return kib / 1024


def peak_rss_mb() -> float:
    """Summed peak resident memory since the reset, in MiB."""
    return sum(_status_kb(pid, "VmHWM") for pid in _processes()) / 1024


# -- environment ------------------------------------------------------------------
def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "rss_method": RSS_METHOD,
    }


# -- the op loop --------------------------------------------------------------------
@dataclass
class Op:
    index: int
    input: object
    seconds: float
    result: object
    error: str | None
    #: The host-speed probe's median loop CPU time during the op.
    probe_s: float | None = None

    @property
    def ref_seconds(self) -> float:
        """Wall time rescaled to the reference host speed."""
        return self.seconds * PROBE_REF_S / self.probe_s


def timed_ops(workload, first, count=None, seconds=None, tracer=None, probe=None) -> list[Op]:
    """Closed loop: ``count`` ops, or ops started until ``seconds`` pass.

    The time-bound loop runs at least one op; its last op may end past
    ``seconds``.  With a host-speed ``probe``, each op gets its reading.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    index = first
    while True:
        if count is not None:
            if len(ops) >= count:
                break
        elif ops and time.perf_counter() - start >= seconds:
            break
        op_input = workload.op_input(index)
        gc.collect()
        began = time.monotonic()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(op_input)
            else:
                with tracer.op(index):
                    result = workload.run(op_input)
            error = None
        except Exception:
            result, error = None, traceback.format_exc()
        op = Op(index, op_input, time.perf_counter() - t0, result, error)
        if probe is not None:
            op.probe_s = probe.loop_cpu_s(began, time.monotonic())
        ops.append(op)
        index += 1
    return ops


def check_ops(workload, ops: list[Op]) -> list[str]:
    """Run the per-op checks; marks failing ops and returns the problems."""
    problems = []
    for op in ops:
        if op.error is not None:
            problems.append(f"op {op.index} raised:\n{op.error}")
            continue
        try:
            found = workload.check(op.input, op.result)
        except Exception:
            found = [f"check raised:\n{traceback.format_exc()}"]
        if found:
            op.error = "; ".join(found)
            problems += [f"op {op.index}: {p}" for p in found]
    return problems


def check_shared(workload, ops: list[Op]) -> list[str]:
    """The once-per-run check, on the first passing op and set-up's
    reference data; when it fails, every op counts as failed."""
    first = next((op for op in ops if op.error is None), None)
    if first is None:
        return []
    try:
        problems = workload.check_once(first.input, first.result)
    except Exception:
        problems = [f"once-per-run check raised:\n{traceback.format_exc()}"]
    for op in ops if problems else ():
        op.error = op.error or "once-per-run check failed"
    return problems


def workload_figures(workload, scores, attempted, failed, p50) -> dict[str, float]:
    """Workload-specific end-to-end figures over the passing ops' scores."""
    figures = {"error_rate": failed / attempted}
    if scores:
        figures.update(workload.summarize(scores))
    if hasattr(workload, "touches"):
        figures["refs_per_s"] = workload.touches() / p50
    return figures


def setup_share(workload, seed, probe) -> dict:
    """Set up and warm up; the set-up time, as measured and rescaled."""
    workload.setup(seed)
    workload.warm_up()
    wall = process_age_s()
    probe_s = probe.loop_cpu_s(probe.started, time.monotonic())
    return {
        "setup_s": wall * PROBE_REF_S / probe_s,
        "setup_wall_s": wall,
        "setup_probe_s": probe_s,
    }


def time_share(workload, setup, first, seconds, probe, first_process) -> dict:
    """Time and check this process's share of an untraced run; the
    host-speed probe is stopped after the timed ops."""
    baseline = reset_peak_rss()
    ops = timed_ops(workload, first, seconds=seconds, probe=probe)
    probe.close()
    peak = peak_rss_mb()
    problems = check_ops(workload, ops)
    shared = check_shared(workload, ops) if first_process else []
    return {
        **setup,
        "rss_baseline_mb": baseline,
        "peak_rss_mb": peak,
        "op_seconds": [op.seconds for op in ops],
        "op_ref_seconds": [op.ref_seconds for op in ops],
        "probe_s": [op.probe_s for op in ops],
        "passed": [op.error is None for op in ops],
        "scores": [workload.score(op.input, op.result) for op in ops if op.error is None],
        "problems": problems + shared,
        "reference": workload.reference(),
        "reference_ok": not shared,
    }


def run_child(args, *flags, interpreter=()) -> subprocess.CompletedProcess:
    """Run this script again for the same workload, seed and seconds."""
    out = subprocess.run(
        [
            sys.executable,
            *interpreter,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            *flags,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(flags)} child failed:\n{out.stderr}")
    return out


def replica_share(args, replica: int) -> dict:
    """A fresh process's set-up time and share of the timed ops."""
    out = run_child(args, "--replica", str(replica))
    return json.loads(out.stdout.splitlines()[-1])


STARTUP_METRICS = ("startup.import_s", "startup.import_scipy_s")
#: Workload-specific end-to-end figures, reported in the run record and,
#: from a traced run, as ``bench.*`` metrics (0 where they do not apply).
WORKLOAD_FIGURES = (
    "error_rate",
    "refs_per_s",
    "model_max_rel_error",
    "ci_coverage",
    "ci_rel_halfwidth",
)


def startup_layer(args) -> dict[str, float]:
    """``startup.*`` from ``-X importtime`` of this workload's imports."""
    from tracing import parse_importtime

    out = run_child(args, "--import-probe", interpreter=("-X", "importtime"))
    return dict(zip(STARTUP_METRICS, parse_importtime(out.stderr)))


def end_to_end_values(setups, durations, peak_mb) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(durations),
        "peak_rss_mb": peak_mb,
    }


def bench_values(figures, overhead_s) -> dict[str, float]:
    values = {f"bench.{name}": figures.get(name, 0.0) for name in WORKLOAD_FIGURES}
    values["bench.tracing_overhead_s"] = overhead_s
    return values


def _result(attempted, failed, values: dict[str, float], section: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        units = {m["name"]: m["unit"] for m in json.load(spec)[section]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def untraced_run(args, workload, setup, probe) -> tuple[dict, dict]:
    share = args.seconds / PROCESSES
    shares = [time_share(workload, setup, 1, share, probe, first_process=True)]
    shares += [replica_share(args, r) for r in range(1, PROCESSES)]
    problems = [p for s in shares for p in s["problems"]]
    first = shares[0]
    for r, s in enumerate(shares[1:], 1):
        if s["reference"] != first["reference"]:
            problems.append(f"replica {r}: set-up reference differs from the first process's")
        if s["reference"] != first["reference"] or not first["reference_ok"]:
            s["passed"] = [False] * len(s["passed"])
    timed = [
        (wall, ref, ok)
        for s in shares
        for wall, ref, ok in zip(s["op_seconds"], s["op_ref_seconds"], s["passed"])
    ]
    attempted = len(timed)
    failed = sum(not ok for *_, ok in timed)
    passed = [t for t in timed if t[2]] or timed
    values = end_to_end_values(
        [s["setup_s"] for s in shares],
        [ref for _, ref, _ in passed],
        statistics.median(s["peak_rss_mb"] for s in shares),
    )
    wall_p50 = statistics.median(wall for wall, _, _ in passed)
    scores = [score for s in shares for score in s["scores"]]
    record = {
        "samples": attempted,
        "op_seconds": [s["op_seconds"] for s in shares],
        "op_wall_s_p50": wall_p50,
        "probe_s": [s["probe_s"] for s in shares],
        "probe_ref_s": PROBE_REF_S,
        "setup_samples_s": [s["setup_s"] for s in shares],
        "setup_wall_s": [s["setup_wall_s"] for s in shares],
        "setup_probe_s": [s["setup_probe_s"] for s in shares],
        "peak_rss_mb": [s["peak_rss_mb"] for s in shares],
        "rss_baseline_mb": [s["rss_baseline_mb"] for s in shares],
        "workload_figures": workload_figures(workload, scores, attempted, failed, wall_p50),
        "problems": problems,
    }
    return _result(attempted, failed, values, "end_to_end"), record


def traced_run(args, workload) -> tuple[dict, dict]:
    from tracing import Tracer, install_layer_spans, layer_metrics

    untraced = timed_ops(workload, 1, count=TRACED_OPS)
    tracer = Tracer()
    install_layer_spans(tracer)
    try:
        traced = timed_ops(workload, 1 + TRACED_OPS, count=TRACED_OPS, tracer=tracer)
    finally:
        tracer.unpatch()
    ops = untraced + traced
    problems = check_ops(workload, ops) + check_shared(workload, ops)
    good = [op for op in ops if op.error is None]
    untraced_p50 = statistics.median(op.seconds for op in untraced)
    traced_p50 = statistics.median(op.seconds for op in traced)
    figures = workload_figures(
        workload,
        [workload.score(op.input, op.result) for op in good],
        len(ops),
        len(ops) - len(good),
        untraced_p50,
    )
    values = layer_metrics(tracer.spans)
    values.update(startup_layer(args))
    values.update(bench_values(figures, traced_p50 - untraced_p50))
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    record = {
        "samples": len(ops),
        "untraced_op_seconds": [op.seconds for op in untraced],
        "traced_op_seconds": [op.seconds for op in traced],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "workload_figures": figures,
        "problems": problems,
    }
    return _result(len(ops), len(ops) - len(good), values, "per_layer"), record


def load_workloads() -> dict:
    from workloads import WORKLOADS

    return WORKLOADS


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replica", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = workloads[args.workload]()
    if args.import_probe:
        workload.imports()
        return 0
    if args.trace:
        workload.setup(args.seed)
        workload.warm_up()
        result, record = traced_run(args, workload)
    else:
        from hostspeed import HostSpeedProbe

        with HostSpeedProbe() as probe:
            setup = setup_share(workload, args.seed, probe)
            if args.replica:
                share = time_share(
                    workload,
                    setup,
                    args.replica * REPLICA_STRIDE + 1,
                    args.seconds / PROCESSES,
                    probe,
                    first_process=False,
                )
                print(json.dumps(share))
                return 0
            result, record = untraced_run(args, workload, setup, probe)
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record["env"] = environment(args)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library source at {SRC / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        code = main()
    finally:
        stop_processes()
    sys.exit(code)
