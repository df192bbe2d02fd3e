"""Command-line driver: one probe per subcommand, reproducible JSON reports.

One table, COMMANDS, holds each subcommand's interface: the function that
runs it, the shared settings it reads, its options and their kinds, its
tolerances and their defaults, and the columns of its CSV table. The
argument parser is generated from it, and RunConfig.validate checks every
value against it, whether it came from a flag or a config file.

Every run resolves its configuration as defaults < config file < explicit
flags, executes exactly one probe, prints one PASS/FAIL line per check, and
writes a self-describing JSON report (atomically, tmp + rename) that embeds
the resolved configuration; feeding that block back through --config
reproduces the numbers bit for bit. Exit codes: 0 all checks pass, 1 usage or
configuration error, 2 a check failed, 3 the solver or quadrature did not
converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from diraclab import __version__
from diraclab.grid import (
    SPIN_STRUCTURES,
    Grid3D,
    OperatorHandle,
    gauge_transform,
    gauged_mode,
    read_field,
    residual_norm,
    sample_field,
    sample_potential,  # noqa: F401  bench/spans.py patches it here
    spectral_curl,  # noqa: F401  bench/spans.py patches it here
    spectral_divergence,  # noqa: F401  bench/spans.py patches it here
)
from diraclab.modes import (
    AccuracyError,
    HypothesisViolation,
    LossYauMode,
    asymptotic_convergence,
    mode_l2_norm,
    t_residual_analytic,
)
from diraclab.potentials import (
    ClassificationUndetermined,
    LossYau,
    brief,
    default_classification,
    potential_from_json,
)
from diraclab.probe import (
    SolverError,
    build_weyl_quasimode,
    coupling_scan,
    decay_fit,
    eigs_near,
    gap_scan,
)


class ConfigError(ValueError):
    """Unusable configuration: unknown names, bad values, malformed files."""


@dataclass(frozen=True)
class Command:
    """One subcommand's interface.

    settings names the SETTINGS that run reads: the only ones with a flag
    --<name> (underscores as dashes) and a config key <name>. options maps
    each option name to its kind: int, float, str, list (a non-empty list of
    numbers, given on the command line as comma-separated numbers) or a
    tuple of the allowed strings. Each option is the flag --<name> and the
    key options.<name>; its default lives in run. tolerances maps each
    tolerance name to its default, set by --tol-<name> or tolerances.<name>.
    csv holds the columns of the command's CSV table, empty when it has none;
    only a command with a table has the flag --format and the key format.
    """

    run: Callable[["RunConfig"], int]
    settings: tuple = ()
    options: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    csv: tuple = ()


# The shared settings a command may read, and their kinds
SETTINGS = {"grid_n": int, "box_l": float, "mass": float}
GRID = ("grid_n", "box_l")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A number that is neither NaN nor infinite; flags and JSON can carry both."""
    return _number(value) and math.isfinite(value)


def _checked(name: str, kind, value):
    """value, checked against its kind; numbers of a float kind come back as
    floats, and must be finite."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(f"{name} must be one of {', '.join(kind)}, got {brief(value)}")
    if kind is list:
        if isinstance(value, list) and value and all(map(_finite, value)):
            return [float(v) for v in value]
        raise ConfigError(f"{name} must be a non-empty list of finite numbers, got {brief(value)}")
    if kind is float and _finite(value):
        return float(value)
    if kind is int and _number(value) and isinstance(value, int):
        return value
    if kind is str and isinstance(value, str):
        return value
    what = {int: "an integer", float: "a finite number", str: "a string"}[kind]
    raise ConfigError(f"{name} must be {what}, got {brief(value)}")


@dataclass
class RunConfig:
    """Fully resolved run parameters; every report embeds those its command reads."""

    command: str
    grid_n: int = 64
    box_l: float = 20.0
    mass: float = 1.0
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    format: str = "json"
    potential: dict = field(default_factory=lambda: {"variant": "loss_yau"})
    options: dict = field(default_factory=dict)  # per-command extras

    def validate(self) -> None:
        """Check every value against its kind: the top-level fields here, and
        the options and tolerances against the command's row of COMMANDS."""
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        command = COMMANDS[self.command]
        for name in command.settings:
            _checked(name, SETTINGS[name], getattr(self, name))
        if _checked("seed", int, self.seed) < 0:
            raise ConfigError("seed must be a non-negative integer")
        _checked("format", ("json", "csv", "both"), self.format)
        if self.output_path is not None:
            _checked("output_path", str, self.output_path)
        if "grid_n" in command.settings and (self.grid_n < 8 or self.grid_n & (self.grid_n - 1)):
            raise ConfigError(f"grid_n must be a power of two >= 8, got {brief(self.grid_n)}")
        for name in ("box_l", "mass"):
            if name in command.settings and not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name, value in self.tolerances.items():
            if name not in command.tolerances:
                raise ConfigError(
                    f"command {self.command} accepts no tolerance {brief(name)} "
                    f"(known: {', '.join(command.tolerances) or 'none'})"
                )
            value = _checked(f"tolerance {name}", float, value)
            if not value > 0:
                raise ConfigError(f"tolerance {name} must be a positive number, got {value!r}")
        # potential_path is recorded by --potential PATH, so that a replayed
        # config finds the potential's companion files; it has no flag
        kinds = {**command.options, "potential_path": str}
        for name, value in self.options.items():
            if name not in kinds:
                raise ConfigError(f"command {self.command} accepts no {brief(name)} option "
                                  f"(known: {', '.join(kinds)})")
            self.options[name] = _checked(name, kinds[name], value)

    def potential_unread(self) -> Optional[str]:
        """'<command> --<option>' of a run that reads no potential, else None."""
        if self.command == "decay-fit" and self.options.get("field"):
            return "decay-fit --field"
        return None

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, COMMANDS[self.command].tolerances[name]))

    def grid(self) -> Grid3D:
        return Grid3D(n=self.grid_n, L=self.box_l, spin=self.options.get("spin", "periodic"))

    def to_dict(self) -> dict:
        command = COMMANDS[self.command]
        full_tols = dict(command.tolerances)
        full_tols.update(self.tolerances)
        return {
            "command": self.command,
            **{name: getattr(self, name) for name in command.settings},
            "seed": self.seed,
            "tolerances": full_tols,
            "output_path": self.output_path,
            **({"format": self.format} if command.csv else {}),
            **({} if self.potential_unread() else {"potential": self.potential}),
            "options": self.options,
        }


def _check(name: str, value: float, threshold: float, lower_is_pass: bool = True) -> dict:
    """One numeric check. Its value stays as measured, inf and NaN included,
    for the PASS/FAIL line; the report writes a non-finite value as null."""
    ok = bool(value <= threshold) if lower_is_pass else bool(value >= threshold)
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "comparison": "<=" if lower_is_pass else ">=",
        "passed": ok,
    }


def _print_checks(checks) -> None:
    """One PASS/FAIL line per numeric check. Checks without a numeric
    comparison (verdicts, flags) get their own line from the command."""
    for c in checks:
        if c["comparison"] not in ("<=", ">="):
            continue
        value = f"{c['value']:.6g}"
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
              f"{value} {c['comparison']} {c['threshold']:.6g}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(cfg: RunConfig, report: dict, rows=None) -> None:
    """The report as strict JSON (a non-finite number left in it raises
    ValueError, exit 1) and, for --format csv or both, the table rows."""
    base = cfg.output_path or cfg.command.replace("-", "_") + "_report.json"
    stem = next((base[: -len(s)] for s in (".json", ".csv") if base.endswith(s)), base)
    if cfg.format in ("json", "both"):
        path = stem + ".json"
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        _atomic_write(path, text + "\n")
        print(f"report written to {path}")
    if cfg.format in ("csv", "both"):
        path = stem + ".csv"
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(COMMANDS[cfg.command].csv)
        out.writerows([f"{v:.17g}" for v in row] for row in rows or [])
        _atomic_write(path, buf.getvalue())
        print(f"table written to {path}")


def _load_potential(cfg: RunConfig):
    """The run's potential, None on a path that reads none."""
    if cfg.potential_unread():
        return None
    # companion files resolve against the potential file's directory, or
    # against the working directory for inline JSON
    path = cfg.options.get("potential_path")
    base_dir = os.path.dirname(os.path.abspath(path)) if path else os.getcwd()
    try:
        return potential_from_json(cfg.potential, base_dir=base_dir)
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"cannot build potential: {exc}") from exc


def _number_list(text: str) -> list:
    """argparse type of a list option: comma-separated numbers."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"needs comma-separated numbers, got {brief(text)}")
    return values


def _closed_form_mode(pot) -> Optional[LossYauMode]:
    """The potential's closed-form zero mode, None when it has none; of the
    variants, only loss_yau has one."""
    return LossYauMode(phi0=pot.phi0) if isinstance(pot, LossYau) else None


def _zero_mode(cfg: RunConfig) -> tuple:
    """The run's potential and its closed-form zero mode, which it must have."""
    pot = _load_potential(cfg)
    if mode := _closed_form_mode(pot):
        return pot, mode
    raise ConfigError(f"{cfg.command} needs a potential with a known zero mode "
                      "(variant loss_yau)")


def _finish(cfg: RunConfig, checks, result: dict, converged: bool = True, rows=None) -> int:
    """Print the checks, write the report envelope, and return the exit code.

    The report's passed is True when every check passed and the solves
    converged, so that it agrees with the exit code.
    """
    _print_checks(checks)
    checks_pass = all(c["passed"] for c in checks)
    report = {
        "version": __version__,
        "config": cfg.to_dict(),
        # JSON holds no NaN or inf: a non-finite check value is written as null
        "checks": [dict(c, value=c["value"] if _finite(c["value"]) else None) for c in checks],
        "result": result,
        "passed": checks_pass and converged,
    }
    _write_report(cfg, report, rows=rows)
    if not converged:
        return 3
    return 0 if checks_pass else 2


# ----------------------------------------------------------------------------
# Commands


def cmd_verify_zero_mode(cfg: RunConfig) -> int:
    pot, mode = _zero_mode(cfg)
    grid = cfg.grid()

    # pointwise closed-form residual on the grid nodes, slab by slab; each
    # slab x = axis[i] is built from the 1-D axis, not from the full mesh
    worst = 0.0
    slab = np.empty((grid.n, grid.n, 3))
    slab[..., 1:] = np.stack(np.meshgrid(grid.axis, grid.axis, indexing="ij"), axis=-1)
    for x in grid.axis:
        slab[..., 0] = x
        worst = max(worst, float(np.max(t_residual_analytic(mode, pot, slab))))

    # discrete L2 norm of the sampled mode vs the radial-quadrature norm, and
    # the mode's own residual; the list is the mode's only holder
    warm = [sample_field(mode.eval, grid)]
    norm_quad = mode_l2_norm(mode)
    norm_grid = warm[0].norm()
    norm_dev = abs(norm_grid - norm_quad)
    op = OperatorHandle(kind="t_a", grid=grid, potential=pot)
    sampled_residual = residual_norm(op, warm[0], 0.0)

    # near-kernel eigenvalue of the discretized operator, started from the
    # mode (plus the constant spinors on periodic grids), no random columns;
    # eigs_near empties the list, so the mode is freed before the solver runs
    rep = eigs_near(op, 0.0, 1, warm, seed=cfg.seed, extra=0)
    lam_min = abs(rep.eigenvalues[0])

    checks = [
        _check("analytic_residual", worst, cfg.tol("analytic")),
        _check("grid_residual", lam_min, cfg.tol("grid")),
        _check("norm_deviation", norm_dev, cfg.tol("norm")),
    ]
    result = {
        "analytic_residual": worst,
        "grid_residual": lam_min,
        "norm_quadrature": norm_quad,
        "norm_grid": norm_grid,
        "sampled_application_residual": sampled_residual,
        "eigensolve": rep.to_dict(),
    }
    return _finish(cfg, checks, result, rep.converged)


def cmd_spectrum(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    grid = cfg.grid()
    kind = cfg.options.get("operator", "h_a")
    target = cfg.options.get("target", cfg.mass)
    count = cfg.options.get("count", 1)
    op = OperatorHandle(kind=kind, grid=grid, potential=pot,
                        mass=cfg.mass if kind == "h_a" else None)
    rep = eigs_near(op, target, count, seed=cfg.seed)
    best = int(np.argmin(np.abs(np.array(rep.eigenvalues) - target)))
    checks = [
        _check("eigenvalue_offset", abs(rep.eigenvalues[best] - target), cfg.tol("eigenvalue")),
    ]
    result = {"eigensolve": rep.to_dict()}
    if kind == "h_a" and abs(abs(target) - cfg.mass) < 1e-12:
        v = rep.fields[best].values
        upper = float(np.linalg.norm(v[..., 0:2]))
        lower = float(np.linalg.norm(v[..., 2:4]))
        total = float(np.hypot(upper, lower))
        off = (lower if target > 0 else upper) / max(total, 1e-300)
        checks.append(_check("off_block_fraction", off, cfg.tol("block")))
        result["block_norms"] = {"upper": upper, "lower": lower}
    return _finish(cfg, checks, result, rep.converged)


def cmd_gap_scan(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    grid = cfg.grid()
    scan = gap_scan(pot, cfg.mass, grid, lambdas=cfg.options.get("lambdas"), seed=cfg.seed)
    checks = [
        _check(f"proxy_at_{lam:+.6g}", proxy, cfg.tol("proxy"), lower_is_pass=False)
        for lam, proxy in scan.rows
    ]
    return _finish(cfg, checks, scan.to_dict(), scan.converged, rows=scan.rows)


def cmd_asymptotics(cfg: RunConfig) -> int:
    pot, mode = _zero_mode(cfg)
    radii = cfg.options.get("radii", [10.0, 20.0, 40.0, 80.0])
    report_obj = asymptotic_convergence(mode, pot, radii)
    checks = [_check("sup_deviation_vs_closed_form", report_obj.sup_deviation, cfg.tol("sup"))]
    return _finish(cfg, checks, report_obj.to_dict(), rows=report_obj.convergence_table)


def cmd_decay_fit(cfg: RunConfig) -> int:
    field_path = cfg.options.get("field")
    if field_path:
        try:
            mode = read_field(field_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field file: {exc}") from exc
        r_max_default = 0.85 * mode.grid.L
    else:
        mode = _zero_mode(cfg)[1].eval
        r_max_default = 200.0
    r_min = cfg.options.get("r_min", 20.0 if not field_path else 4.0)
    r_max = cfg.options.get("r_max", r_max_default)
    points = cfg.options.get("points", 24)
    if not (0 < r_min < r_max) or points < 6:
        raise ConfigError("need 0 < r_min < r_max and at least 6 points")
    radii = np.geomspace(r_min, r_max, points)
    fit = decay_fit(mode, radii)
    expect = cfg.options.get("expect", "any")
    checks = []
    if expect != "any":
        checks.append({
            "name": "verdict",
            "value": None,
            "threshold": 0.0,
            "comparison": f"== {expect}",
            "passed": fit.verdict == expect,
        })
        print(f"{'PASS' if checks[-1]['passed'] else 'FAIL'} verdict: "
              f"{fit.verdict} (expected {expect})")
    expo = "nan" if fit.exponent != fit.exponent else f"{fit.exponent:.4f}"
    print(f"decay exponent {expo} +- {fit.exponent_stderr:.4f} "
          f"over r in [{fit.window[0]:g}, {fit.window[1]:g}]: verdict {fit.verdict}")
    return _finish(cfg, checks, fit.to_dict(), rows=fit.table)


def cmd_weyl(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    lambda0 = cfg.options.get("lambda0", 1.5 * cfg.mass)
    sweep = cfg.options.get("sweep", 1)
    if sweep < 1:
        raise ConfigError("sweep must be >= 1")
    op = OperatorHandle(kind="h_a", grid=cfg.grid(), potential=pot, mass=cfg.mass)
    modes = [m.to_dict() for m in build_weyl_quasimode(op, lambda0, range(1, sweep + 1))]
    residuals = [m["residual"] for m in modes]
    checks = []
    if op.sampled_potential() is None:
        checks.append(_check("free_residual", residuals[0], cfg.tol("free")))
    if sweep > 1:
        # equal residuals read 1, exact zeros included (lambda0 = m gives the
        # k = 0 plane wave at every index); zero then nonzero reads inf
        ratios = [1.0 if later == earlier else later / earlier if earlier else math.inf
                  for earlier, later in zip(residuals[:-1], residuals[1:])]
        checks.append(_check("residual_decrease_ratio", max(ratios), 1.0))
    for idx, m in enumerate(modes, start=1):
        print(f"n_index {idx}: residual {m['residual']:.6g} "
              f"(k = {np.array(m['k_vector']).round(6).tolist()}, nu0 = {m['nu0']:.6g})")
    return _finish(cfg, checks, {"quasimodes": modes})


def cmd_gauge(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    grid = cfg.grid()
    # one pass over the half spectra of A: pot is evaluated once, and the
    # gauged samples, chi and both measurements come out of gauge_transform
    gauged, div_rel, curl_dev = gauge_transform(pot, grid)
    checks = [
        _check("divergence_relative", div_rel, cfg.tol("div")),
        _check("curl_deviation", curl_dev, cfg.tol("curl")),
    ]
    result = {
        "divergence_relative": div_rel,
        "curl_deviation": curl_dev,
        "chi_range": [float(gauged.chi.min()), float(gauged.chi.max())],
    }
    converged = True
    if mode := _closed_form_mode(pot):
        # the gauged operator must keep its near-kernel eigenvalue
        op = OperatorHandle(kind="t_a", grid=grid, potential=gauged)
        rep = eigs_near(op, 0.0, 1, [gauged_mode(sample_field(mode.eval, grid), gauged)],
                        seed=cfg.seed, extra=0)
        converged = rep.converged
        checks.append(_check("gauged_grid_residual", abs(rep.eigenvalues[0]), cfg.tol("gauged")))
        result["eigensolve"] = rep.to_dict()
    return _finish(cfg, checks, result, converged)


def cmd_coupling_scan(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    grid = cfg.grid()
    t_values = cfg.options.get("t_values", [0.0, 0.5, 1.0, 1.5, 2.0])
    scan = coupling_scan(pot, t_values, grid, seed=cfg.seed)
    t_min, lam_min = min(scan.rows, key=lambda row: row[1])
    print(f"minimum |lambda_min| = {lam_min:.6g} at t = {t_min:g}")
    for note in scan.notes:
        print(f"note: {note}")
    return _finish(cfg, [], scan.to_dict(), all(scan.converged), rows=scan.rows)


def cmd_potential_info(cfg: RunConfig) -> int:
    pot = _load_potential(cfg)
    try:
        dec = default_classification(pot)
    except ValueError as exc:  # a grid-backed potential sampled outside its box
        raise ConfigError(
            "potential-info samples |A| out to r = 2000, and a grid-backed potential "
            f"(sampled) is known only inside its box: {exc}") from exc
    except ClassificationUndetermined as exc:
        print(f"FAIL classification: {exc}")
        return _finish(cfg, [{"name": "classification", "value": None, "threshold": 0.0,
                              "comparison": "determined", "passed": False}], {})
    result = dec.to_dict()
    print(f"decay exponent rho = {dec.rho_fit:.4f}, "
          f"slowly-decreasing class: {dec.in_SU}, cubic-integrable: {dec.in_BE}")
    print(f"cubic field integral = {dec.cubic_integral:.6g}")
    return _finish(cfg, [], result)


COMMANDS = {
    "verify-zero-mode": Command(
        cmd_verify_zero_mode, GRID, {"spin": SPIN_STRUCTURES},
        {"analytic": 1e-10, "grid": 5e-3, "norm": 1e-1}),
    "spectrum": Command(
        cmd_spectrum, GRID + ("mass",),
        {"operator": ("t_a", "h_a"), "target": float, "count": int},
        {"eigenvalue": 5e-3, "block": 1e-2}),
    "gap-scan": Command(
        cmd_gap_scan, GRID + ("mass",), {"lambdas": list}, {"proxy": 0.9}, ("lambda", "proxy")),
    "asymptotics": Command(
        cmd_asymptotics, (), {"radii": list}, {"sup": 1e-3}, ("r", "sup_deviation")),
    "decay-fit": Command(
        cmd_decay_fit, (),
        {"field": str, "r_min": float, "r_max": float, "points": int,
         "expect": ("mode_tail", "resonance_tail", "any")},
        csv=("r", "amplitude")),
    "weyl": Command(cmd_weyl, GRID + ("mass",), {"lambda0": float, "sweep": int}, {"free": 1e-10}),
    "gauge": Command(cmd_gauge, GRID, tolerances={"div": 1e-8, "curl": 1e-10, "gauged": 1e-2}),
    "coupling-scan": Command(
        cmd_coupling_scan, GRID, {"spin": SPIN_STRUCTURES, "t_values": list},
        csv=("t", "lambda_min")),
    "potential-info": Command(cmd_potential_info),
}


# ----------------------------------------------------------------------------
# Argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="Spectral probes for magnetic Dirac operators at threshold",
    )
    parser.add_argument("--version", action="version", version=f"diraclab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for setting in command.settings:
            p.add_argument("--" + setting.replace("_", "-"), type=SETTINGS[setting])
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str, dest="output_path", metavar="OUT")
        if command.csv:
            p.add_argument("--format", type=str, choices=["json", "csv", "both"])
        p.add_argument("--config", type=str)
        p.add_argument("--potential", type=str,
                       help="inline potential JSON (starting with '{') "
                            "or a path to a potential JSON file")
        for option, kind in command.options.items():
            flag = "--" + option.replace("_", "-")
            if isinstance(kind, tuple):
                p.add_argument(flag, type=str, choices=kind)
            else:
                p.add_argument(flag, type=_number_list if kind is list else kind)
        for tol, default in command.tolerances.items():
            p.add_argument(f"--tol-{tol}", type=float, metavar="VALUE",
                           help=f"tolerance (default {default:g})")
    return parser


def _json(what: str, path: Optional[str], text: str = ""):
    """JSON from the file at path, else from text; unreadable, malformed or
    too deeply nested JSON is a ConfigError."""
    try:
        if path is not None:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    data = {}
    if args.config is not None:
        data = _json("cannot read config file", args.config)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        if data.get("command", args.command) != args.command:
            raise ConfigError(
                f"config file is for command {brief(data['command'])}, not {args.command!r}"
            )
        known = cfg.to_dict()
        unknown = [key for key in data if key not in known]
        if unknown and unknown[0] in (*SETTINGS, "format"):
            raise ConfigError(f"command {args.command} reads no {unknown[0]}")
        if unknown:
            raise ConfigError(f"config file has unknown key {brief(unknown[0])} "
                              f"(known: {', '.join(known)})")
        for key in ("tolerances", "options"):
            if not isinstance(data.get(key, {}), dict):
                raise ConfigError(f"{key} must be a JSON object, got {brief(data[key])}")
        for key, value in data.items():
            setattr(cfg, key, value)

    command = COMMANDS[args.command]
    for key in (*command.settings, "seed", "output_path", "format"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))

    if args.potential is not None:
        text = args.potential.strip()
        if text.startswith("{"):  # inline JSON; anything else is a file path
            cfg.potential = _json("malformed potential JSON", None, text)
        else:
            cfg.potential = _json("cannot read potential file", args.potential)
            cfg.options["potential_path"] = args.potential

    for table, names, prefix in ((cfg.tolerances, command.tolerances, "tol_"),
                                 (cfg.options, command.options, "")):
        for name in names:
            value = getattr(args, prefix + name)
            if value is not None:
                table[name] = value

    unread = cfg.potential_unread()
    if unread and (args.potential is not None or "potential" in data):
        raise ConfigError(f"{unread} reads no potential")
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # check failures, so remap (0 stays 0 for --help/--version)
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _resolve_config(args)
        return COMMANDS[cfg.command].run(cfg)
    except (SolverError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ConfigError is a ValueError; OverflowError: a JSON integer past float range
    except (ValueError, OverflowError, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
