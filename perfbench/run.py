"""Time to a certified result: the loewnerqc benchmark.

Run from the repository root; one workload per process:

    python3 perfbench/run.py --workload interior-atlas --seed 1 --seconds 30 --trace 0

The workload's op list (``run_pipeline`` calls, as the CLI makes them) runs
in a closed loop, one client, ops in sequence, until the next pass would
overrun ``--seconds``.  Every op's output is checked by a closed-form
oracle.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

The benchmark imports the package from ``src/`` next to this directory and
writes its artifacts under ``.perfbench_out/`` there, removing them again.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
CONFIG_BUILDS = 5
HARD_LIMIT_S = 170.0     # the whole run ends well inside 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that run_pipeline's
    ``except Exception`` failure record cannot swallow it."""


@contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def canonical(summary: dict) -> str:
    """The op summary without its run time, for bit-for-bit comparison."""
    body = {k: v for k, v in summary.items() if k != "runtime_ms"}
    return json.dumps(body, sort_keys=True, default=repr)


def run_pass(workload, out_root: Path, deadline: float, log=None) -> dict:
    """Run the op list once; time each op, then check it against its oracle."""
    from loewnerqc import cli   # run_pipeline is looked up per call: it may be traced

    ops = []
    for idx, op in enumerate(workload.ops):
        out = out_root / f"{idx}-{op.command}"
        limit = min(op.limit_s, deadline - time.perf_counter())
        if log is not None:
            log.op_id = idx
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with time_limit(limit):
                code, summary = cli.run_pipeline(op.cfg, op.command, out)
        except OpTimeout:
            code = summary = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if log is not None:
            log.op_id = -1
        if summary is None:
            rec = {"wall": wall, "cpu": cpu, "ok": False, "err": math.inf,
                   "why": [f"no result within {limit:.0f} s"], "summary": None}
        else:
            v = op.check(code, summary, out, expected_code=op.expected_code)
            rec = {"wall": wall, "cpu": cpu, "ok": v.ok, "err": v.err,
                   "why": v.failures(), "summary": canonical(summary)}
        ops.append(rec)
    return {"wall": sum(r["wall"] for r in ops), "cpu": sum(r["cpu"] for r in ops),
            "ops": ops}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to package imported and workload configs built, per probe."""
    probe = HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {code}")
        times.append(elapsed)
    return times


def environment() -> dict:
    import numpy
    import scipy

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "openblas": []}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            try:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            env["openblas"].append({"library": Path(path).name,
                                    "config": get_config().decode().strip(),
                                    "threads": get_threads()})
            break
    return env


def _median(values):
    return float(statistics.median(values)) if values else math.nan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S

    if not (SRC / "loewnerqc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import loewnerqc
    import workloads

    if Path(loewnerqc.__file__).resolve().parent != SRC / "loewnerqc":
        print(f"error: imported loewnerqc from {loewnerqc.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    build_s = []
    for _ in range(CONFIG_BUILDS):
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        build_s.append(time.perf_counter() - t0)
    print(f"environment {json.dumps(environment())}")
    print(f"workload {wl.name} seed {args.seed}: {workloads.draw_inputs(args.seed)}")

    out_root = ROOT / ".perfbench_out" / f"{wl.name}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(wl, args, out_root, t_start, deadline, build_s)
        else:
            result = plain_run(wl, args, out_root, deadline)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:         # another run still writes there
            pass
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _fits(t_start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more pass of median length ends inside the budget."""
    return time.perf_counter() - t_start + _median(walls) <= seconds


def _report_pass(label: str, p: dict) -> None:
    ops = " ".join(f"{r['wall']:.3f}/{r['err']:.3g}" for r in p["ops"])
    print(f"pass {label}: wall {p['wall']:.3f} s, cpu {p['cpu']:.3f} s, "
          f"op wall/oracle {ops}")
    for i, r in enumerate(p["ops"]):
        if not r["ok"]:
            print(f"  op {i} FAILED: {', '.join(r['why'])}")


def _tally(passes: list[dict]):
    ops = [r for p in passes for r in p["ops"]]
    failed = sum(not r["ok"] for r in ops)
    return ops, len(ops), failed


def plain_run(wl, args, out_root, deadline) -> dict:
    setup = setup_seconds(wl.name, args.seed)
    passes: list[dict] = []
    t_measure = time.perf_counter()
    while not passes or _fits(t_measure, args.seconds, [p["wall"] for p in passes]):
        passes.append(run_pass(wl, out_root, deadline))
        _report_pass(str(len(passes)), passes[-1])
        if any(r["summary"] is None for r in passes[-1]["ops"]):
            break
    ops, attempted, failed = _tally(passes)
    values = {
        "wall_s": _median([p["wall"] for p in passes]),
        "cpu_s": _median([p["cpu"] for p in passes]),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def traced_run(wl, args, out_root, t_start, deadline, build_s) -> dict:
    import tracing

    # the first pass warms caches and gives the untraced reference summaries
    warm = run_pass(wl, out_root, deadline)
    _report_pass("warm-up", warm)
    plain: list[dict] = []
    traced: list[dict] = []
    per_pass: list[dict] = []
    problems: list[str] = []
    while not traced or _fits(t_start, args.seconds,
                              [a["wall"] + b["wall"] for a, b in zip(plain, traced)]):
        log = tracing.SpanLog()
        with tracing.instrumented(log):
            traced.append(run_pass(wl, out_root, deadline, log))
        _report_pass(f"{len(traced)} traced", traced[-1])
        problems += tracing.check_spans(log, [r["wall"] for r in traced[-1]["ops"]])
        per_pass.append(tracing.layer_metrics(log))
        for i, (a, b) in enumerate(zip(warm["ops"], traced[-1]["ops"])):
            if a["summary"] is not None and b["summary"] is not None \
                    and a["summary"] != b["summary"]:
                problems.append(f"op {i}: traced summary differs from the untraced one")
        plain.append(run_pass(wl, out_root, deadline))
        _report_pass(f"{len(plain)} untraced", plain[-1])
        if any(r["summary"] is None for p in (plain[-1], traced[-1]) for r in p["ops"]):
            break
    for msg in problems:
        print(f"trace check FAILED: {msg}")
    ops, attempted, failed = _tally([warm] + plain + traced)
    values = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    values["config.build_s"] = _median(build_s)
    values["oracle.err"] = max(r["err"] for r in ops)
    values["trace.overhead_frac"] = (_median([p["wall"] for p in traced])
                                     / _median([p["wall"] for p in plain]) - 1.0)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": unit}
                        for k, unit in tracing.PER_LAYER.items()}}


if __name__ == "__main__":
    sys.exit(main())
