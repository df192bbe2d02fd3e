"""diraclab benchmark: fixed command sequences through ``diraclab.cli.main``.

Run from the root of a source checkout:

    python3 bench/run.py --workload cold_small --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Each workload runs in one fresh worker process (bench/worker.py), one client
in a closed loop: every command starts when the previous one has returned.
The worker runs one pass of the workload's command sequence, and further
passes only while one more still ends within --seconds (every workload's
pass is longer than the 15 s of BENCHMARK.json, so a run is one pass). With --trace 1 it instead
runs one untraced pass and then one traced pass, and reports the per-layer
metrics of the traced pass together with the tracing overhead.

End-to-end metrics (--trace 0):
  setup_s      median over seven fresh processes of the time from process
               start until diraclab.cli is imported
  wall_s       median over passes of first command start to last command end
  peak_rss_mb  ru_maxrss of the worker process

Commands that raise, exit non-zero, fail their own checks or disagree with
bench/references.json count in ``failed``; fail_frac = failed / attempted is
printed by name. ``correct`` is false when a command exited 0 with all its
own checks passing but reported numbers that disagree with the reference.
The last line of standard output is the JSON result; spans of a traced run
are kept in .bench_out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7  # fresh processes timed for setup_s, the worker included
DEADLINE_S = 170.0  # the whole run, set-up included, must end before this


def _start(extra, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + extra, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, deadline) -> str:
    """Wait for proc until the deadline, killing it past that; return stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the run deadline and was killed")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """One benchmark run; returns (result object printed as the last line,
    detail for the human-readable lines). tiny=True is for the self-tests:
    every grid n=8 and no reference comparison."""
    deadline = time.perf_counter() + DEADLINE_S
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = _start(["--workload", workload, "--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(ready)
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out-dir", run_dir] + (["--tiny"] if tiny else [])
        proc, ready = _start(args, deadline)
        setups.append(ready)
        out = _finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        data = json.loads(out.strip().splitlines()[-1])
        if trace:
            os.replace(os.path.join(run_dir, "spans.jsonl"),
                       os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics = data["layer"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(data["wall_s"]), "s"),
            "peak_rss_mb": (data["peak_rss_mb"], "MB"),
        }
    gate = data["gate"]
    result = {
        "correct": gate["wrong"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"env": data["env"], "gate": gate, "passes_wall_s": data["wall_s"],
              "passes_cpu_s": data["cpu_s"], "passes_steal_s": data["steal_s"],
              "command_s": data["command_s"], "setup_samples_s": setups}
    return result, detail


def report(workload: str, result: dict, detail: dict) -> None:
    """Human-readable lines: environment, failures, every metric by name."""
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for key in ("passes_wall_s", "passes_cpu_s", "passes_steal_s"):
        print(f"{workload} {key} {detail[key]}")
    print(f"{workload} command_s {json.dumps(detail['command_s'])}")
    for f in detail["gate"]["failures"]:
        print(f"{workload} FAILED {f['label']}: {'; '.join(f['reasons'])}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload} fail_frac {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands)")


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "diraclab", "cli.py")):
        print(f"error: {ROOT} holds no diraclab sources (src/diraclab)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name], detail = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name], detail)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
