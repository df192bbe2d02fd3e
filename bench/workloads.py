"""Workload definitions and the per-command correctness gate.

A workload is a fixed sequence of ``diraclab`` commands, each identified by a
label and run through ``diraclab.cli.main(argv)``. The gate reads the JSON
report each command writes and compares its numbers with the recorded
references in ``references.json``.
"""

from __future__ import annotations

import json
import math
import os

LY = '{"variant":"loss_yau"}'
SCALED_LY = '{"variant":"scaled","t":1.0,"inner":%s}' % LY

# Agreement demanded of a reference number: |x - ref| <= REF_TOL * max(1, |ref|).
# 1e-9 is the reproduction bar for eigenvalues; deterministic scalars meet it too.
REF_TOL = 1e-9
# Numbers far below 1 that measure an error are compared relatively instead,
# |x - ref| <= tol * |ref|, so that a regression by any sizeable factor fails.
# Round-off sized numbers (divergence, curl and analytic residuals near 1e-15)
# are not compared at all; the commands' own checks bound them.
RELATIVE_TOL = {"sup_deviation": 1e-4}

# label -> (argv without --seed/--out, grid n, spinor rank, lobpcg block columns)
# n is 0 for commands without a grid, rank 0 for commands without a spinor
# field; block columns are count + max(2, count) for the solves eigs_near
# runs, 0 when the command runs no eigensolver.
COMMANDS = {
    "spectrum_t": (["spectrum", "--operator", "t_a", "--target", "0", "--count", "3",
                    "--grid-n", "16", "--box-l", "20", "--potential", LY], 16, 2, 6),
    "gap_scan": (["gap-scan", "--lambdas=-0.5,0,0.5", "--grid-n", "16", "--box-l", "20"],
                 16, 2, 3),
    "spectrum_h": (["spectrum", "--operator", "h_a", "--target", "1", "--count", "1",
                    "--grid-n", "16", "--box-l", "20"], 16, 4, 3),
    "coupling_scan": (["coupling-scan", "--t-values", "0.5,1.0,1.5", "--grid-n", "16",
                       "--box-l", "20"], 16, 2, 6),
    "verify_zero_mode": (["verify-zero-mode", "--grid-n", "64", "--box-l", "20",
                          "--potential", LY], 64, 2, 3),
    "gauge_solve": (["gauge", "--grid-n", "32", "--box-l", "20", "--potential", LY],
                    32, 2, 3),
    "gauge": (["gauge", "--grid-n", "128", "--box-l", "20", "--potential", SCALED_LY],
              128, 0, 0),
    "weyl": (["weyl", "--grid-n", "128", "--box-l", "20", "--sweep", "4",
              "--potential", LY], 128, 4, 0),
    "asymptotics": (["asymptotics", "--potential", LY], 0, 0, 0),
    "potential_info": (["potential-info", "--potential", LY], 0, 0, 0),
    "decay_fit": (["decay-fit", "--potential", LY], 0, 0, 0),
}

WORKLOADS = {
    "cold_small": ("spectrum_t", "gap_scan", "spectrum_h", "coupling_scan"),
    "warm_fine": ("verify_zero_mode", "gauge_solve"),
    "fields_large": ("gauge", "weyl", "asymptotics", "potential_info", "decay_fit"),
}

LABELS = tuple(label for labels in WORKLOADS.values() for label in labels)


def command_argv(label: str, seed: int, out_path: str, tiny: bool = False) -> list:
    """Full argv of one command; tiny=True shrinks every grid to n=8 for smoke runs."""
    argv = list(COMMANDS[label][0])
    if tiny and "--grid-n" in argv:
        argv[argv.index("--grid-n") + 1] = "8"
    return argv + ["--seed", str(seed), "--out", out_path]


def working_set(workload: str) -> dict:
    """Computed sizes (MB) per command: one complex spinor field, one lobpcg
    block of them, and one sampled real vector potential."""
    sizes = {}
    for label in WORKLOADS[workload]:
        _, n, rank, cols = COMMANDS[label]
        field_mb = n**3 * rank * 16 / 1e6
        sizes[label] = {"grid_n": n, "rank": rank, "field_mb": field_mb,
                        "block_cols": cols, "block_mb": field_mb * cols,
                        "potential_mb": n**3 * 3 * 8 / 1e6}
    return sizes


# ----------------------------------------------------------------------------
# Numbers each report is gated on


def _floats(values) -> list:
    return [float(v) for v in values]


def _eigs(result: dict) -> list:
    return _floats(result["eigensolve"]["eigenvalues"])


def extract(label: str, report: dict) -> dict:
    """Named number lists a command's report is compared on."""
    r = report["result"]
    if label in ("spectrum_t", "spectrum_h"):
        return {"eigenvalues": _eigs(r)}
    if label == "gap_scan":
        return {"proxies": _floats(p for _, p in r["rows"]),
                "nearest_eigenvalues": _floats(r["nearest_eigenvalues"])}
    if label == "coupling_scan":
        return {"lambda_min": _floats(l for _, l in r["rows"]),
                "eigenvalues": [float(x) for row in r["eigenvalues"] for x in row]}
    if label == "verify_zero_mode":
        return {"eigenvalues": _eigs(r),
                "norms": _floats([r["norm_quadrature"], r["norm_grid"]])}
    if label in ("gauge", "gauge_solve"):
        out = {"chi_range": _floats(r["chi_range"])}
        if "eigensolve" in r:
            out["eigenvalues"] = _eigs(r)
        return out
    if label == "weyl":
        return {"residuals": _floats(q["residual"] for q in r["quasimodes"])}
    if label == "asymptotics":
        return {"sup_deviation": _floats([r["sup_deviation"]])}
    if label == "potential_info":
        return {"decay": _floats([r["rho_fit"], r["cubic_integral"]])}
    if label == "decay_fit":
        return {"exponent": _floats([r["exponent"]])}
    raise KeyError(label)


def mismatches(got: dict, ref: dict) -> list:
    """Human-readable list of every number in `got` that disagrees with `ref`."""
    bad = []
    for key in sorted(set(got) | set(ref)):
        g, r = got.get(key), ref.get(key)
        if g is None or r is None or len(g) != len(r):
            bad.append(f"{key}: got {g}, reference {r}")
            continue
        rel = RELATIVE_TOL.get(key)
        for i, (x, y) in enumerate(zip(g, r)):
            allowed = rel * abs(y) if rel else REF_TOL * max(1.0, abs(y))
            if not (math.isfinite(x) and abs(x - y) <= allowed):
                bad.append(f"{key}[{i}]: got {x!r}, reference {y!r}")
    return bad


def judge(label: str, rc, error, report, refs) -> dict:
    """Outcome of one command.

    failed: it raised, exited non-zero, failed one of its own checks, or
    reported numbers that disagree with the reference. wrong: it exited 0 with
    every own check passing, yet its numbers disagree with the reference, so a
    user would have trusted a wrong answer. refs=None skips the comparison
    (smoke runs on grids without references).
    """
    reasons = []
    if error is not None:
        reasons.append(f"raised {error}")
    elif rc != 0:
        reasons.append(f"exit code {rc}")
    if report is None:
        if error is None:
            reasons.append("no report written")
        return {"failed": True, "wrong": False, "reasons": reasons}
    if not report.get("passed", False):
        reasons.append("own checks failed")
    own_ok = not reasons
    wrong = False
    if refs is not None:
        bad = mismatches(extract(label, report), refs[label])
        if bad:
            reasons.append("disagrees with reference: " + "; ".join(bad[:4]))
            wrong = own_ok
    return {"failed": bool(reasons), "wrong": wrong, "reasons": reasons}


def load_references() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path) as fh:
        return json.load(fh)["commands"]
