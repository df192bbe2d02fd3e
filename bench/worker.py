"""One workload in one fresh process: import diraclab, run passes, gate them.

Started by run.py. Prints ``ready`` as soon as ``diraclab.cli`` is imported
(run.py times set-up against that line), then, unless --setup-only, one JSON
line with the pass timings, the gate outcomes, the environment record and,
with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "diraclab", "cli.py")):
        sys.exit(f"error: no diraclab sources under {SRC}")
    sys.path.insert(0, SRC)
    from diraclab import cli

    return cli


def run_pass(cli, labels, seed, out_dir, tiny, tracer=None) -> dict:
    """Run every command once, back to back, writing reports into out_dir;
    return timings and raw results."""
    from workloads import command_argv

    os.makedirs(out_dir)
    results = []
    root = tracer.open("pass") if tracer else None
    cpu0, steal0 = time.process_time(), _steal_s()
    start = time.perf_counter()
    for i, label in enumerate(labels):
        out = os.path.join(out_dir, f"{label}.json")
        argv = command_argv(label, seed, out, tiny)
        log = io.StringIO()  # keeps command output off the worker's result stream
        rc, error = None, None
        if tracer:
            tracer.command = i
            span = tracer.open(f"cli.{label}")
        t0 = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                rc = cli.main(argv)
        except Exception as exc:  # a raising command is a counted failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.close(span)
            tracer.command = None
        results.append({"label": label, "rc": rc, "error": error, "seconds": t1 - t0,
                        "report": out})
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "steal_s": _steal_s() - steal0,
            "commands": results}


def gate(passes, refs) -> dict:
    """Judge every command of every pass against its reference."""
    from workloads import judge

    attempted = failed = wrong = 0
    failures = []
    for p in passes:
        for c in p["commands"]:
            report = None
            if os.path.exists(c["report"]):
                with open(c["report"]) as fh:
                    report = json.load(fh)
            verdict = judge(c["label"], c["rc"], c["error"], report, refs)
            attempted += 1
            failed += verdict["failed"]
            wrong += verdict["wrong"]
            if verdict["failed"]:
                failures.append({"label": c["label"], "reasons": verdict["reasons"]})
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "failures": failures}


# ----------------------------------------------------------------------------
# Environment record


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _steal_s() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running it."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _l3_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if _read(os.path.join(base, entry, "level")) == "3":
            return _read(os.path.join(base, entry, "size"))
    return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    threads = {}
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    from workloads import working_set

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "fft_workers": {"requested": -1, "resolved": os.cpu_count()},
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload,
        "working_set_computed": working_set(workload),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = _import_cli()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import LABELS, WORKLOADS, load_references

    labels = WORKLOADS[args.workload]
    refs = None if args.tiny else load_references()
    env = environment(args.workload, args.seed)
    passes = []
    layer = None

    def one_pass(tracer=None):
        out_dir = os.path.join(args.out_dir, f"pass{len(passes)}")
        passes.append(run_pass(cli, labels, args.seed, out_dir, args.tiny, tracer))

    if args.trace:
        from spans import Tracer, layer_metrics

        one_pass()
        tracer = Tracer()
        tracer.install()
        try:
            one_pass(tracer)
        finally:
            tracer.uninstall()
        layer = layer_metrics(tracer.spans, LABELS, untraced_wall=passes[0]["wall_s"])
        tracer.write_jsonl(os.path.join(args.out_dir, "spans.jsonl"), header=env)
    else:
        # one pass at least; another only if one more pass of the same length
        # still ends within --seconds, so a run never mixes pass counts by chance
        start = time.perf_counter()
        one_pass()
        while time.perf_counter() - start + passes[-1]["wall_s"] <= args.seconds:
            one_pass()
    verdict = gate(passes, refs)
    print(json.dumps({
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "steal_s": [p["steal_s"] for p in passes],
        "command_s": [{c["label"]: c["seconds"] for c in p["commands"]} for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "gate": verdict,
        "env": env,
        "layer": layer,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
