"""quditmbqc benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload compile-haar --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It is a closed loop: one client in one
process makes sequential calls, with BLAS pinned to one thread.  CLI work
goes through ``quditmbqc.cli.main(argv)`` in-process with stdout captured;
graph rewriting calls the library's public functions.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed in five
fresh interpreters spread over the run (``setup_s`` is their median); the
inputs the first one built run in whole passes until ``--seconds`` is used
up, and each op's latency is its median over the passes.  Op times are
scaled to a reference host speed with the kernel in ``calibrate.py``.
Every op is checked after it is timed; CLI output must repeat byte for byte.

``--trace 1`` runs one slice of the workload untraced and then traced, checks
that both give the same output, and reports per-layer metrics from spans
around every public library function (see ``tracer.py``).

README.md describes the workloads, the metrics and the checks.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A failed check makes
the exit code 1.  The full result, with provenance, and the spans of a
traced run are written under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource as rusage
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
PASS_LIMIT = 50
HD_GRID = 20000
TICK_S = 0.1
HASH_SEED = "0"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_layers() -> dict:
    with open(BENCH_DIR / "layers.json") as fh:
        return json.load(fh)


# --- set-up ---------------------------------------------------------------

def child_main(args) -> int:
    """Set-up in this fresh interpreter.

    Prints one JSON line: the inputs, the scale factor of the host speed
    over the set-up (see ``Clock``), and the seconds spent in the kernel,
    which the parent takes out of the set-up time.
    """
    import quditmbqc  # noqa: F401  (imports are part of set-up)
    t_first = time.perf_counter()
    clock = Clock()
    t0 = clock.start()
    inputs = workloads.PREPARE[args.workload](args.seed, args.tiny,
                                              args.workdir)
    wall, scaled = clock.stop(t0)
    kernel_s = time.perf_counter() - t_first - wall
    sys.stdout.write(json.dumps({"inputs": inputs, "scale": scaled / wall,
                                 "kernel_s": kernel_s}, sort_keys=True)
                     + "\n")
    sys.stdout.flush()
    return 0


class SetupSampler:
    """Set-up times of fresh interpreters, and the inputs they built.

    A time runs from the spawn to the line of inputs, so it covers
    interpreter start, imports, tables, input generation and compiling,
    less the child's kernel runs.  It is scaled with the host speed the
    child measured over its set-up.  The samples are spread over the run
    so that they see the host at several speeds rather than at one.
    """

    def __init__(self, args, workdir: str):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--setup-child", "--workload", args.workload,
                    "--seed", str(args.seed), "--workdir", workdir] \
            + (["--tiny"] if args.tiny else [])
        self.wall: List[float] = []
        self.times: List[float] = []
        self.payloads: List[str] = []

    def take(self) -> dict:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, cwd=ROOT,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        msg = json.loads(line)
        wall = elapsed - msg["kernel_s"]
        self.wall.append(wall)
        self.times.append(wall * msg["scale"])
        self.payloads.append(json.dumps(msg["inputs"], sort_keys=True))
        return msg["inputs"]

    def due(self, elapsed: float, seconds: float) -> bool:
        n = len(self.times)
        return n < SETUP_REPEATS and elapsed >= n * seconds / SETUP_REPEATS


# --- measuring ------------------------------------------------------------

class Clock:
    """Wall time of calls, and the same time scaled to the reference speed.

    The calibration kernel runs after every timed call.  With ``ticks`` on,
    a timer signal also runs it every TICK_S inside a call; a call of
    several seconds then has its scale set by the host's speed during the
    call, not only at its two ends.  The time spent in ticks is taken out
    of the call's wall time.  Traced runs leave ticks off, so that no span
    holds kernel time.
    """

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self._inside: List[float] = []
        self._tick_s = 0.0
        self.resync()

    def resync(self):
        """Time the kernel afresh, after a pause between timed calls."""
        self.kernel_s = calibrate.kernel_seconds()

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(calibrate.kernel_seconds(repeats=1))
        self._tick_s += time.perf_counter() - t0

    def start(self) -> float:
        self._inside, self._tick_s = [], 0.0
        if self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return time.perf_counter()

    def stop(self, t0: float):
        wall = time.perf_counter() - t0
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self._tick_s
        k = calibrate.kernel_seconds()
        speed = statistics.median([self.kernel_s, k] + self._inside)
        self.kernel_s = k
        return wall, wall * calibrate.REFERENCE_S / speed


class Ledger:
    """Attempted and failed checks, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, what: str, reason: Optional[str]):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


def run_op(op, pass_index: int, ledger: Ledger, clock: Clock,
           check: bool = True):
    """Time one op, then check it unless told not to.

    Returns ((wall, scaled), output); the output is None if the op raised.
    """
    t0 = clock.start()
    try:
        out = op.call(pass_index)
    except Exception as exc:  # the benchmark keeps going and reports it
        times = clock.stop(t0)
        ledger.record(op.key, f"raised {type(exc).__name__}: {exc}")
        return times, None
    times = clock.stop(t0)
    if check:
        ledger.record(op.key, op.check(out))
    return times, out


def measure(ops, seconds: float, ledger: Ledger, clock: Clock,
            setups: SetupSampler):
    """Whole passes over the ops until the next would overrun the budget.

    Set-up samples fall due between ops; their time is left out of the
    budget.  Returns per-op wall and scaled latencies, each op's first
    output, the number of passes and the timed seconds.
    """
    wall: Dict[str, List[float]] = {op.key: [] for op in ops}
    scaled: Dict[str, List[float]] = {op.key: [] for op in ops}
    first: Dict[str, object] = {}
    t_start = time.perf_counter()
    paused = 0.0
    passes = 0
    while passes < PASS_LIMIT:
        t_pass, paused_pass = time.perf_counter(), paused
        for op in ops:
            t = time.perf_counter()
            if setups.due(t - t_start - paused, seconds):
                setups.take()
                clock.resync()
                paused += time.perf_counter() - t
            (w, s), out = run_op(op, passes, ledger, clock)
            wall[op.key].append(w)
            scaled[op.key].append(s)
            if out is None:
                continue
            if op.key not in first:
                first[op.key] = out
            elif op.repeatable and out != first[op.key]:
                ledger.record(f"{op.key} pass {passes}",
                              "output differs from the first pass")
        passes += 1
        now = time.perf_counter()
        spent = now - t_start - paused
        if spent + (now - t_pass - (paused - paused_pass)) > seconds:
            break
    return wall, scaled, first, passes, \
        time.perf_counter() - t_start - paused


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of the order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    distribution, so one noisy sample near the quantile moves it less than
    it moves the interpolated sample quantile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(HD_GRID) + 0.5) / HD_GRID
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = cdf[np.round(np.arange(n + 1) * HD_GRID / n).astype(int)]
    return float(np.dot(np.diff(edges), x))


def latency_metrics(ops, lat) -> Dict[str, tuple]:
    """Throughput and per-call latency from each op's median over passes."""
    med = [statistics.median(lat[op.key]) for op in ops]
    per_call = [m / op.calls for m, op in zip(med, ops)]
    return {
        "ops_per_s": (sum(op.units for op in ops) / sum(med), "1/s",
                      len(ops)),
        "lat_gmean_ms": (1e3 * math.exp(statistics.fmean(
            math.log(x) for x in per_call)), "ms", len(ops)),
        "lat_p90_ms": (1e3 * hd_quantile(per_call, 0.9), "ms", len(ops)),
    }


def e2e_metrics(ops, scaled, first, setup_s) -> Dict[str, tuple]:
    out = {"setup_s": (statistics.median(setup_s), "s", len(setup_s)),
           "peak_rss_mb": (peak_rss_mb(), "MB", 1)}
    out.update(latency_metrics(ops, scaled))
    out["steps_mean"] = (statistics.fmean(op.steps_of(first[op.key])
                                          for op in ops), "count", len(ops))
    return out


def part_metrics(ops, lat) -> Dict[str, tuple]:
    """Per-part totals: seconds per pass and ops per second."""
    out = {}
    for part in sorted({op.part for op in ops}):
        sel = [op for op in ops if op.part == part]
        t = sum(statistics.median(lat[op.key]) for op in sel)
        out[f"{part}.s"] = (t, "s", len(sel))
        out[f"{part}.per_s"] = (sum(op.units for op in sel) / t, "1/s",
                                len(sel))
    return out


def peak_rss_mb() -> float:
    return rusage.getrusage(rusage.RUSAGE_SELF).ru_maxrss / 1024.0


# --- tracing --------------------------------------------------------------

def run_slice(ops, ledger: Ledger, clock: Clock, check: bool = True):
    """One call of each op: wall and scaled totals, and the outputs."""
    wall = scaled = 0.0
    outs = []
    for op in ops:
        (w, s), out = run_op(op, 0, ledger, clock, check)
        wall, scaled = wall + w, scaled + s
        outs.append(out)
    return wall, scaled, outs


def layer_metrics(layers: dict, tracer: Tracer, traced_s: float,
                  overhead: float) -> Dict[str, tuple]:
    """Per-layer metrics from the spans; shares are of traced_s wall."""
    totals = tracer.totals()
    out = {}
    for spec in layers["per_layer"]:
        stat, spans = spec["stat"], spec.get("spans", [])
        if stat == "calls":
            v = sum(totals[s]["calls"] for s in spans if s in totals)
        elif stat == "share":
            v = 100.0 * sum(totals[s]["self_s"] for s in spans
                            if s in totals) / traced_s
        elif stat == "amps":
            v = sum(tracer.amps.get(s, 0) for s in spans)
        elif stat == "method_calls":
            v = tracer.method_calls.get(spec["method"], 0)
        elif stat == "overhead":
            v = overhead
        elif stat == "wall_s":
            v = traced_s
        elif stat == "descendant_share":
            root = totals.get(spec["root"], {}).get("inclusive_s", 0.0)
            v = 100.0 * tracer.descendant_time(spec["root"], spec["prefix"]) \
                / root if root else 0.0
        else:
            raise ValueError(f"unknown per-layer stat {stat!r}")
        out[spec["name"]] = (v, spec["unit"], totals_count(totals, spans))
    return out


def totals_count(totals, spans) -> int:
    return sum(totals[s]["calls"] for s in spans if s in totals)


# --- provenance and output ------------------------------------------------

def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "reference_kernel_s": calibrate.REFERENCE_S,
        "git_commit": git_commit(),
    }


def metric_json(metrics: Dict[str, tuple]) -> dict:
    return {k: {"value": v, "unit": u, "samples": n}
            for k, (v, u, n) in metrics.items()}


def print_metrics(title: str, metrics: Dict[str, tuple], aliases=None):
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        alias = f"  [{aliases[name]}]" if aliases and name in aliases else ""
        print(f"{name:40s} {value:>16.6g} {unit:6s} n={n}{alias}")


def finish(args, ledger: Ledger, metrics: Dict[str, tuple],
           extra: dict) -> int:
    for reason in ledger.failures:
        print(f"FAILED {reason}")
    failed = len(ledger.failures)
    attempted = max(ledger.attempted, 1)
    prov = provenance(args)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "failures": ledger.failures,
              "metrics": metric_json(metrics)}
    record.update(extra)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    names = [m["name"] for m in load_layers()["per_layer"]] if args.trace \
        else list(E2E_NAMES)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names if k in metrics}}))
    return 0 if failed == 0 else 1


E2E_NAMES = ("setup_s", "peak_rss_mb", "ops_per_s", "lat_gmean_ms",
             "lat_p90_ms", "steps_mean")


# --- modes ----------------------------------------------------------------

def main_e2e(args, workdir: str) -> int:
    ledger = Ledger()
    setups = SetupSampler(args, workdir)
    inputs = setups.take()
    ops = workloads.MAKE_OPS[args.workload](inputs, workdir, args.seed)
    try:  # warm-up, untimed: first calls pay one-time costs
        warm = ops[0].call(0)
    except Exception as exc:
        warm = f"raised {type(exc).__name__}: {exc}"
    wall, scaled, first, passes, elapsed = measure(ops, args.seconds,
                                                   ledger, Clock(), setups)
    while len(setups.times) < SETUP_REPEATS:
        setups.take()
    ledger.record("set-up inputs agree across interpreters",
                  None if len(set(setups.payloads)) == 1
                  else "inputs differ")
    ledger.record(f"{ops[0].key} repeated",
                  None if warm == first.get(ops[0].key)
                  else "output not byte-identical on repeat")
    missing = [op.key for op in ops if op.key not in first]
    if missing:  # an op failed on every pass; it has no output to measure
        return finish(args, ledger, {}, {"ops_without_output": missing})
    metrics = e2e_metrics(ops, scaled, first, setups.times)
    unscaled = latency_metrics(ops, wall)
    unscaled["setup_s"] = (statistics.median(setups.wall), "s",
                           len(setups.wall))
    parts = part_metrics(ops, scaled)
    extra = {"passes": passes, "timed_wall_s": elapsed,
             "wall_metrics": metric_json(unscaled), "parts": metric_json(parts),
             "op_wall_s": wall, "op_scaled_s": scaled}
    print(f"# {args.workload} seed={args.seed}: {len(ops)} ops x {passes} "
          f"passes in {elapsed:.1f} s")
    aliases = load_layers()["e2e_aliases"].get(args.workload, {})
    print_metrics("end-to-end, times scaled to the reference speed",
                  metrics, aliases)
    print_metrics("the same, unscaled wall time", unscaled)
    print_metrics("per part (median scaled latency per op, summed over a "
                  "pass)", parts)
    if args.workload == "graph-rewrite":
        extra["known_defects"] = workloads.probe_known_defects(args.seed)
        extra["unsupported_inputs"] = workloads.UNSUPPORTED
        for d in extra["known_defects"]:
            print(f"# known defect, not counted: {d['case']} -> "
                  f"{d['observed']}")
    return finish(args, ledger, metrics, extra)


def main_trace(args, workdir: str) -> int:
    ledger = Ledger()
    clock = Clock(ticks=False)
    inputs = workloads.PREPARE[args.workload](args.seed, args.tiny, workdir)
    ops = workloads.trace_slice(
        args.workload,
        workloads.MAKE_OPS[args.workload](inputs, workdir, args.seed))
    run_slice(ops, ledger, clock)  # warm-up: first calls pay one-time costs
    _, untraced_s, plain = run_slice(ops, ledger, clock)
    tracer = Tracer()
    tracer.run_id = f"{args.workload}-seed{args.seed}"
    with tracer:  # checks call the library too, so they run afterwards
        traced_wall, traced_s, traced = run_slice(ops, ledger, clock,
                                                  check=False)
    for op, a, b in zip(ops, plain, traced):
        if b is not None:
            ledger.record(op.key, op.check(b))
        ledger.record(f"{op.key} traced",
                      None if a == b else "traced output differs")
    metrics = layer_metrics(load_layers(), tracer, traced_wall,
                            traced_s / untraced_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(str(spans_path))
    totals = tracer.totals()
    print(f"# {args.workload} seed={args.seed}: traced slice of {len(ops)} "
          f"ops, {len(tracer.spans)} spans -> {spans_path.name}")
    print_metrics("per-layer", metrics)
    print("# self time by span (s)")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40s} {t['self_s']:>12.6f} s  calls={t['calls']}")
    extra = {"untraced_scaled_s": untraced_s, "traced_scaled_s": traced_s,
             "traced_wall_s": traced_wall, "span_totals": totals,
             "spans_file": spans_path.name}
    return finish(args, ledger, metrics, extra)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the benchmark's own tests")
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Per-process hash randomisation moved compile times by 5-10 %
        # between otherwise identical runs; fix it before anything runs.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__))]
                 + sys.argv[1:])
    args = parse_args()
    if not (SRC / "quditmbqc" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no quditmbqc sources under {SRC}\n")
        return 2
    if args.setup_child:
        return child_main(args)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            return main_trace(args, str(workdir))
        return main_e2e(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
