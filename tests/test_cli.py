"""End-to-end command tests, run in process through main(argv).

Heavy physics lives in the acceptance suite; these pin the command surface:
exit codes (0 pass, 1 config, 2 failed check, 3 solver), report files, CSV
shapes, and the config round trip.
"""

import copy
import dataclasses
import importlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diraclab import __version__, cli
from diraclab.cli import RunConfig, _check, _finish, main
from diraclab.grid import Grid3D, sample_field, write_field
from diraclab.modes import LossYauMode

FREE = '{"variant": "scaled", "t": 0.0, "inner": {"variant": "loss_yau"}}'
LY = '{"variant": "loss_yau"}'
SCALED = '{"variant": "scaled", "t": 1.4, "inner": {"variant": "loss_yau"}}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


def strict_json(path) -> dict:
    """A report parsed as strict JSON: NaN, Infinity and -Infinity raise."""
    return json.loads(path.read_text(), parse_constant=_refuse)


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in out


@pytest.mark.parametrize("module", ["diraclab", "diraclab.algebra", "diraclab.blocksolver",
                                    "diraclab.grid",
                                    "diraclab.modes", "diraclab.potentials",
                                    "diraclab.probe", "diraclab.quadrature"])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is gone breaks `import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_importing_the_cli_loads_only_the_scipy_it_runs():
    # the transforms call scipy's pocketfft kernel, loaded from its file:
    # scipy.fft's package init alone loads about 320 modules and 26 MB
    import diraclab

    code = (
        "import sys, diraclab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(diraclab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_no_command_is_config_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_is_config_error(capsys):
    code, _, err = run(capsys, "potential-info", "--no-such-flag")
    assert code == 1


def test_potential_info(tmp_path, capsys):
    out_path = tmp_path / "info.json"
    code, out, _ = run(capsys, "potential-info", "--potential", LY,
                       "--out", str(out_path))
    assert code == 0
    assert "rho" in out
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert report["version"] == __version__


def test_potential_info_on_a_grid_backed_potential_says_why_it_exits_1(tmp_path, capsys,
                                                                    monkeypatch):
    from diraclab.grid import sample_potential
    from diraclab.potentials import LossYau, Sampled, write_sampled_potential

    g = Grid3D(n=8, L=4.0)
    write_sampled_potential(tmp_path / "a.dtl", Sampled(g, sample_potential(LossYau(), g)))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "potential-info",
                       "--potential", '{"variant": "sampled", "file": "a.dtl"}')
    assert code == 1
    assert "samples |A| out to r = 2000" in err and "known only inside its box" in err


def test_potential_inline_json_malformed(capsys):
    code, _, err = run(capsys, "potential-info", "--potential", '{"variant": bad')
    assert code == 1
    assert "malformed potential" in err


def test_potential_file_missing(capsys):
    code, _, err = run(capsys, "potential-info", "--potential", "/no/such/file.json")
    assert code == 1
    assert "cannot read potential file" in err


def test_inline_potential_companion_resolves_in_the_working_directory(tmp_path, capsys,
                                                                     monkeypatch):
    from diraclab.grid import sample_potential
    from diraclab.potentials import LossYau, Sampled, write_sampled_potential

    g = Grid3D(n=8, L=4.0)
    write_sampled_potential(tmp_path / "a.dtl", Sampled(g, sample_potential(LossYau(), g)))
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "spectrum", "--grid-n", "8", "--box-l", "4", "--operator", "t_a",
                       "--target", "0", "--count", "1", "--tol-eigenvalue", "1",
                       "--potential", '{"variant": "sampled", "file": "a.dtl"}',
                       "--out", "spectrum.json")
    assert code == 0, err
    assert json.loads((tmp_path / "spectrum.json").read_text())["result"]["eigensolve"]["converged"]


def test_weyl_free_exact_lattice(tmp_path, capsys):
    # smallest dual-lattice wavenumber of the L=5 box; off by even 1e-6 the
    # quasi-mode residual jumps above the free tolerance
    nu0 = 2.0 * math.pi / 10.0
    lam0 = math.sqrt(1.0 + nu0**2)
    code, out, _ = run(capsys, "weyl", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--lambda0", repr(lam0),
                       "--out", str(tmp_path / "w.json"))
    assert code == 0
    assert "PASS free_residual" in out


def test_weyl_free_off_lattice_fails(tmp_path, capsys):
    nu0 = 2.0 * math.pi / 10.0
    lam0 = math.sqrt(1.0 + nu0**2) + 1e-6
    code, out, _ = run(capsys, "weyl", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--lambda0", repr(lam0),
                       "--out", str(tmp_path / "w.json"))
    assert code == 2
    assert "FAIL free_residual" in out


def test_weyl_sweep_of_equal_zero_residuals_passes(tmp_path, capsys):
    # at lambda0 = m every index gives the k = 0 plane wave, residual exactly 0
    code, out, err = run(capsys, "weyl", "--grid-n", "8", "--box-l", "5", "--sweep", "2",
                         "--lambda0", "1.0", "--potential", FREE,
                         "--out", str(tmp_path / "w.json"))
    assert code == 0, err
    assert "PASS residual_decrease_ratio: 1 <= 1" in out
    checks = {c["name"]: c["value"] for c in strict_json(tmp_path / "w.json")["checks"]}
    assert checks == {"free_residual": 0.0, "residual_decrease_ratio": 1.0}


def test_weyl_sweep_fails_when_a_zero_residual_grows(tmp_path, capsys, monkeypatch):
    residuals = iter([0.0, 1e-3])

    class Quasimode:
        def to_dict(self):
            return {"residual": next(residuals), "k_vector": [0.0, 0.0, 0.0], "nu0": 0.0}

    monkeypatch.setattr(cli, "build_weyl_quasimode",
                        lambda op, lam, indices: [Quasimode() for _ in indices])
    code, out, _ = run(capsys, "weyl", "--grid-n", "8", "--box-l", "5", "--sweep", "2",
                       "--potential", LY, "--out", str(tmp_path / "w.json"))
    assert code == 2
    assert "FAIL residual_decrease_ratio: inf <= 1" in out
    # the report holds the inf ratio as null
    report = strict_json(tmp_path / "w.json")
    assert [(c["name"], c["value"], c["passed"]) for c in report["checks"]] == [
        ("residual_decrease_ratio", None, False)]


def test_weyl_rejects_csv_format(tmp_path, capsys, monkeypatch):
    # only the four commands with a CSV table take --format; on the other
    # five the flag and the config key exit 1 before the run, with no report
    no_table = sorted(c for c, entry in cli.COMMANDS.items() if not entry.csv)
    assert no_table == ["gauge", "potential-info", "spectrum", "verify-zero-mode", "weyl"]
    for command in no_table:
        out_path = tmp_path / "w.csv"
        code, _, err = run(capsys, command, "--format", "csv", "--out", str(out_path))
        assert code == 1 and "unrecognized arguments: --format csv" in err
        assert not out_path.exists() and not (tmp_path / "w.json").exists()
        code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                     {"command": command, "format": "json"})
        assert code == 1 and f"error: command {command} reads no format" in err


def test_spectrum_free_supercharge(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code, out, _ = run(capsys, "spectrum", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--operator", "t_a",
                       "--target", "0", "--count", "2", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    solve = report["result"]["eigensolve"]
    assert solve["kernel_dim_estimate"] == 2
    assert all(abs(e) < 1e-8 for e in solve["eigenvalues"])


def test_gap_scan_csv_table(tmp_path, capsys):
    out_path = tmp_path / "gap.json"
    code, out, _ = run(capsys, "gap-scan", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--lambdas=-0.5,0,0.5",
                       "--out", str(out_path), "--format", "both")
    assert code == 0
    assert out.count("PASS proxy_at_") == 3
    assert (tmp_path / "gap.csv").read_bytes().startswith(b"lambda,proxy\n")
    rows = (tmp_path / "gap.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,proxy"
    assert len(rows) == 4
    # free gap edge sits exactly at +-m, so every proxy is exactly 1
    assert all(float(r.split(",")[1]) == 1.0 for r in rows[1:])


def test_gap_scan_endpoint_rejected(capsys):
    code, _, err = run(capsys, "gap-scan", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--lambdas", "0.99")
    assert code == 1
    assert "endpoints" in err


def test_config_round_trip(tmp_path, capsys):
    cfg = {
        "command": "gap-scan",
        "grid_n": 16,
        "box_l": 5.0,
        "mass": 1.0,
        "potential": json.loads(FREE),
        "options": {"lambdas": [0.0, 0.5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "gap-scan", "--config", str(cfg_path),
                       "--out", str(tmp_path / "gap.json"))
    assert code == 0

    code, _, err = run(capsys, "spectrum", "--config", str(cfg_path))
    assert code == 1
    assert "is for command 'gap-scan'" in err


def test_decay_fit_analytic_mode(tmp_path, capsys):
    out_path = tmp_path / "decay.csv"
    code, out, _ = run(capsys, "decay-fit", "--potential", LY,
                       "--expect", "mode_tail",
                       "--out", str(out_path), "--format", "csv")
    assert code == 0
    assert "verdict mode_tail" in out
    assert out_path.exists()  # suffix must not be doubled to .csv.csv
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "r,amplitude"
    assert len(rows) == 25


def test_decay_fit_wrong_expectation_fails(tmp_path, capsys):
    code, out, _ = run(capsys, "decay-fit", "--potential", LY,
                       "--expect", "resonance_tail",
                       "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "FAIL verdict" in out


def _inverse_bracket(pts):
    """<x>^-1 times a constant spinor: a resonance-like tail."""
    return (1.0 + np.sum(pts**2, axis=-1))[..., None] ** -0.5 * np.ones(2)


@pytest.mark.parametrize("evaluator,code,verdict", [
    (LossYauMode().eval, 0, "mode_tail"),
    (_inverse_bracket, 2, "resonance_tail"),
])
def test_decay_fit_of_a_field_file(tmp_path, capsys, evaluator, code, verdict):
    path = tmp_path / "mode.dtl"
    write_field(path, sample_field(evaluator, Grid3D(n=32, L=20.0)))
    got, out, _ = run(capsys, "decay-fit", "--field", str(path), "--expect", "mode_tail",
                      "--out", str(tmp_path / "d.json"))
    assert got == code and f"verdict {verdict}" in out, out


def test_asymptotics_closed_form_agreement(tmp_path, capsys):
    out_path = tmp_path / "asym.json"
    code, out, _ = run(capsys, "asymptotics", "--out", str(out_path),
                       "--format", "both")
    assert code == 0
    assert "PASS sup_deviation_vs_closed_form" in out
    rows = (tmp_path / "asym.csv").read_text().strip().splitlines()
    assert rows[0] == "r,sup_deviation"
    devs = [float(r.split(",")[1]) for r in rows[1:]]
    assert devs == sorted(devs, reverse=True)


def test_gauge_small_grid_flags_coarse_residual(tmp_path, capsys):
    # n=16 resolves the gauge calculus (div, curl) but not the zero mode,
    # so the command must report the failure through exit code 2
    code, out, _ = run(capsys, "gauge", "--grid-n", "16", "--box-l", "5",
                       "--potential", LY, "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "PASS divergence_relative" in out
    assert "PASS curl_deviation" in out
    assert "FAIL gauged_grid_residual" in out


def test_gauge_divergence_is_judged_by_tol_div_alone(tmp_path, capsys, monkeypatch):
    # gauged samples off by a gradient: their divergence, and only it, moves
    # far above round-off, and --tol-div alone decides the exit code
    from diraclab import grid as grid_module
    from diraclab.grid import spectral_scalar_gradient

    original = grid_module._transverse_part

    def off(grid_, a_hat):
        A_t, chi = original(grid_, a_hat)
        scalar = 1e-6 * np.random.default_rng(4).normal(size=A_t.shape[:-1])
        return A_t + spectral_scalar_gradient(grid_, scalar), chi

    monkeypatch.setattr(grid_module, "_transverse_part", off)
    argv = ["gauge", "--grid-n", "16", "--box-l", "10", "--potential", SCALED,
            "--out", str(tmp_path / "g.json")]
    code, out, err = run(capsys, *argv, "--tol-div", "1e-3")
    assert code == 0, err
    assert "PASS divergence_relative" in out and "PASS curl_deviation" in out
    div_rel = json.loads((tmp_path / "g.json").read_text())["result"]["divergence_relative"]
    assert 1e-8 < div_rel <= 1e-3
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    assert "FAIL divergence_relative" in out and "PASS curl_deviation" in out


def test_verify_zero_mode_coarse_grid_fails(tmp_path, capsys):
    code, out, _ = run(capsys, "verify-zero-mode", "--grid-n", "8",
                       "--box-l", "20", "--potential", LY,
                       "--out", str(tmp_path / "v.json"))
    assert code == 2
    assert "PASS analytic_residual" in out
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["passed"] is False


def test_verify_zero_mode_spin_flag(tmp_path, capsys):
    # antiperiodic spinors have no constant branch to hybridize with the
    # mode, so the near-kernel eigenvalue sits closer to zero
    lam = {}
    for spin in ("periodic", "antiperiodic"):
        out_path = tmp_path / f"v_{spin}.json"
        code, out, _ = run(capsys, "verify-zero-mode", "--grid-n", "16", "--box-l", "10",
                           "--potential", LY, "--spin", spin, "--out", str(out_path))
        assert code in (0, 2)  # 2: the n=16 grid misses the 5e-3 grid tolerance
        report = json.loads(out_path.read_text())
        assert report["config"]["options"]["spin"] == spin
        assert report["result"]["eigensolve"]["converged"] is True
        lam[spin] = report["result"]["grid_residual"]
    assert lam["antiperiodic"] < lam["periodic"]


def test_spin_option_scope(tmp_path, capsys):
    code, _, _ = run(capsys, "spectrum", "--grid-n", "8", "--spin", "antiperiodic")
    assert code == 1  # only the kernel probes of T_A take --spin
    code, _, _ = run(capsys, "coupling-scan", "--grid-n", "8", "--spin", "twisted")
    assert code == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "gap-scan", "options": {"spin": "antiperiodic"}}))
    code, _, err = run(capsys, "gap-scan", "--config", str(cfg))
    assert code == 1 and "accepts no 'spin' option" in err


def test_coupling_scan_minimum_at_unit_coupling(tmp_path, capsys):
    out_path = tmp_path / "cs.json"
    code, out, _ = run(capsys, "coupling-scan", "--grid-n", "16", "--box-l", "5",
                       "--potential", LY, "--t-values", "0.5,1.0,1.5",
                       "--out", str(out_path), "--format", "both")
    assert code == 0
    assert "minimum |lambda_min|" in out
    rows = (tmp_path / "cs.csv").read_text().strip().splitlines()
    assert rows[0] == "t,lambda_min"
    lam = {float(t): float(v) for t, v in (r.split(",") for r in rows[1:])}
    assert lam[1.0] < lam[0.5] and lam[1.0] < lam[1.5]


def test_coupling_scan_unconverged_exits_3(tmp_path, capsys, monkeypatch):
    from diraclab import probe

    monkeypatch.setattr(probe, "RESID_TOL", 1e-30)
    out_path = tmp_path / "cs.json"
    code, _, _ = run(capsys, "coupling-scan", "--grid-n", "8", "--box-l", "5",
                     "--t-values", "0,1,2", "--out", str(out_path))
    assert code == 3
    report = json.loads(out_path.read_text())
    assert report["passed"] is False
    assert report["result"]["converged"] == [False, False, False]


def test_gap_scan_unconverged_writes_its_report_and_exits_3(tmp_path, capsys, monkeypatch):
    # as every other solve command: the report is written, passed false
    from diraclab import probe

    monkeypatch.setattr(probe, "RESID_TOL", 1e-30)
    out_path = tmp_path / "gap.json"
    code, _, err = run(capsys, "gap-scan", "--grid-n", "8", "--box-l", "5",
                       "--out", str(out_path))
    assert code == 3 and err == ""
    report = strict_json(out_path)
    assert report["passed"] is False and len(report["result"]["rows"]) == 3
    # the report says why: the edge solve's residuals missed the one gate
    solve = report["result"]["eigensolve"]
    assert solve["converged"] is False and solve["iterations"] > 0
    assert any(f"residuals above {probe.RESID_TOL:.1e}" in note for note in solve["notes"]), solve


@pytest.mark.parametrize("command", ["spectrum", "coupling-scan"])
def test_the_residual_gate_is_no_setting(tmp_path, capsys, monkeypatch, command):
    # probe.RESID_TOL alone decides convergence: no flag and no config key
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, command, "--grid-n", "8", "--tol-residual", "1e-6",
                       "--out", str(out_path))
    assert code == 1 and "unrecognized arguments: --tol-residual" in err
    assert "Traceback" not in err and not out_path.exists()
    code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                 {"command": command, "tolerances": {"residual": 1e-6}})
    assert code == 1 and f"command {command} accepts no tolerance 'residual'" in err, err


def test_finish_unconverged_with_passing_checks(tmp_path, capsys):
    # a check reads one pair, while another pair of the solve may not have
    # converged: the report must not say passed while the exit code is 3
    out_path = tmp_path / "r.json"
    cfg = RunConfig(command="spectrum", output_path=str(out_path))
    check = _check("residual", 1e-9, 1e-6)
    assert _finish(cfg, [check], {}, converged=False) == 3
    report = json.loads(out_path.read_text())
    assert report["passed"] is False
    assert _finish(cfg, [check], {}, converged=True) == 0
    assert json.loads(out_path.read_text())["passed"] is True


def test_reports_are_strict_json(tmp_path, capsys):
    # non-finite check values print as inf and nan and are written as null;
    # a non-finite number left anywhere else in a report is refused
    out_path = tmp_path / "r.json"
    cfg = RunConfig(command="spectrum", output_path=str(out_path))
    checks = [_check("ratio", math.inf, 1.0), _check("offset", math.nan, 1.0)]
    assert _finish(cfg, checks, {}) == 2
    out = capsys.readouterr().out
    assert "FAIL ratio: inf <= 1" in out and "FAIL offset: nan <= 1" in out
    assert [c["value"] for c in strict_json(out_path)["checks"]] == [None, None]
    with pytest.raises(ValueError):
        _finish(cfg, [], {"value": -math.inf})


@pytest.fixture(scope="module")
def reports():
    """One report of each of the seven kinds, from runs on n=8 grids."""
    from diraclab.grid import OperatorHandle
    from diraclab.modes import asymptotic_convergence
    from diraclab.potentials import LossYau, default_classification
    from diraclab.probe import build_weyl_quasimode, coupling_scan, decay_fit, eigs_near, gap_scan

    g = Grid3D(n=8, L=5.0)
    radii = np.geomspace(2.0, 16.0, 8)
    h_a = OperatorHandle(kind="h_a", grid=g, potential=LossYau(), mass=1.0)
    return [
        eigs_near(OperatorHandle(kind="t_a", grid=g, potential=LossYau()), 0.0, 2),
        gap_scan(LossYau(), 1.0, g),
        build_weyl_quasimode(h_a, 1.5, [1])[0],
        decay_fit(lambda p: np.stack([np.sum(p * p, axis=-1) ** -1.0] * 2, axis=-1), radii),
        coupling_scan(LossYau(), (0.5, 1.0, 1.5), g),
        asymptotic_convergence(LossYauMode(), LossYau(), radii),
        default_classification(LossYau()),
    ]


def test_every_report_writes_its_fields_under_their_names(reports):
    omitted = {"EigenReport": {"fields"}, "WeylQuasimode": {"spinor", "factors"}}
    kinds = [type(rep).__name__ for rep in reports]
    assert kinds == ["EigenReport", "GapScanReport", "WeylQuasimode", "DecayFit",
                     "CouplingScanReport", "AsymptoticReport", "DecayClassReport"]
    for kind, rep in zip(kinds, reports):
        names = {f.name for f in dataclasses.fields(rep)} - omitted.get(kind, set())
        if "grid" in names:
            names = names - {"grid"} | {"grid_n", "box_l"}
        d = rep.to_dict()
        assert set(d) == names, kind
        assert json.loads(json.dumps(d, allow_nan=False)) == d, kind
    eigen, gap = reports[0], reports[1]
    assert gap.to_dict()["eigensolve"] == gap.eigensolve.to_dict()
    assert (eigen.to_dict()["grid_n"], eigen.to_dict()["box_l"]) == (8, 5.0)
    u = reports[5].u_closed
    assert reports[5].to_dict()["u_closed"][3][1] == [u[3, 1].real, u[3, 1].imag]


def test_a_nullable_report_field_writes_nan_and_inf_as_null(reports):
    fit, dec = reports[3], reports[6]
    d = dataclasses.replace(fit, exponent=math.nan, exponent_stderr=math.inf).to_dict()
    assert d["exponent"] is None and d["exponent_stderr"] is None
    assert d["table"] == fit.to_dict()["table"]
    assert dataclasses.replace(dec, cubic_tail_estimate=math.inf).to_dict()[
        "cubic_tail_estimate"] is None
    assert fit.to_dict()["exponent"] == fit.exponent


def test_a_nan_in_an_ordinary_report_field_writes_no_report(tmp_path, reports):
    # only the fields marked nullable turn a non-finite number into null;
    # anywhere else strict JSON refuses it, and no file is left behind
    cfg = RunConfig(command="spectrum", output_path=str(tmp_path / "r.json"))
    bad = dataclasses.replace(reports[0], eigenvalues=(math.nan,))
    assert math.isnan(bad.to_dict()["eigenvalues"][0])
    with pytest.raises(ValueError):
        _finish(cfg, [], {"eigensolve": bad.to_dict()})
    gap = dataclasses.replace(reports[1], eigensolve=bad)
    with pytest.raises(ValueError):
        _finish(cfg, [], gap.to_dict())
    assert list(tmp_path.iterdir()) == []


def test_a_report_into_a_missing_directory_exits_1_without_a_traceback(tmp_path, capsys):
    for fmt in ("json", "csv"):
        out_path = tmp_path / "missing" / "r.json"
        code, _, err = run(capsys, "asymptotics", "--format", fmt, "--out", str(out_path))
        assert code == 1, err
        assert err.startswith("error: cannot write report ") and str(tmp_path / "missing") in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert ".tmp" not in err
        assert list(tmp_path.iterdir()) == []


def test_an_unwritable_report_path_exits_1_before_the_run(tmp_path, capsys, monkeypatch):
    def refuse(_):
        raise AssertionError("the command ran")

    command = cli.COMMANDS["verify-zero-mode"]
    monkeypatch.setitem(cli.COMMANDS, "verify-zero-mode", dataclasses.replace(command, run=refuse))
    out_path = tmp_path / "missing" / "v.json"
    code, out, err = run(capsys, "verify-zero-mode", "--grid-n", "8", "--out", str(out_path))
    assert code == 1, err
    assert err.startswith(f"error: cannot write report {out_path}: "), err
    assert len(err.splitlines()) == 1 and out == ""
    assert list(tmp_path.iterdir()) == []
    # --format both checks both files' directories
    code, _, err = run(capsys, "gap-scan", "--grid-n", "8", "--format", "both",
                       "--out", str(tmp_path / "missing" / "g"))
    assert code == 1 and err.startswith("error: cannot write report "), err
    assert list(tmp_path.iterdir()) == []


def _config_exit_code(tmp_path, capsys, **fields):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "potential-info", **fields}))
    code, _, err = run(capsys, "potential-info", "--config", str(cfg_path),
                       "--out", str(tmp_path / "info.json"))
    return code, err


def test_config_rejects_non_numeric_values(tmp_path, capsys, monkeypatch):
    # potential-info reads no grid and no mass; spectrum reads all three
    for value in ("16", 16.0):
        code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                     {"command": "spectrum", "grid_n": value})
        assert code == 1 and "grid_n must be an integer" in err
    code, _ = _config_exit_code(tmp_path, capsys, seed=3)
    assert code == 0
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "spectrum", dataclasses.replace(
        cli.COMMANDS["spectrum"], run=lambda cfg: seen.append(cfg.to_dict()) or 0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_n": 16, "box_l": 5, "mass": 2, "seed": 3}))
    code, _, _ = run(capsys, "spectrum", "--config", str(cfg_path))
    assert code == 0
    assert [seen[0][key] for key in ("grid_n", "box_l", "mass", "seed")] == [16, 5.0, 2.0, 3]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(["grid_n", "box_l", "mass", "seed", "tolerances", "options"]),
       value=st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                       st.lists(st.integers(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)))
def test_config_wrong_types_are_config_errors(tmp_path, capsys, monkeypatch, key, value):
    if key in cli.SETTINGS:
        # potential-info reads none of the settings; spectrum reads all three
        code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                     {"command": "spectrum", key: value})
    else:
        code, err = _config_exit_code(tmp_path, capsys, **{key: value})
    if key in ("tolerances", "options") and isinstance(value, dict):
        # the right JSON type: empty is the default, and potential-info
        # knows no tolerance and no option of at most two characters
        assert code == (1 if value else 0) and (not value or "accepts no" in err)
    else:
        assert code == 1 and f"{key} must be" in err


def _exit_before_run(tmp_path, capsys, monkeypatch, cfg):
    """Exit code and stderr of a config run whose command must not start."""
    def refuse(_):
        raise AssertionError("the command ran")

    command = cfg["command"]
    monkeypatch.setitem(cli.COMMANDS, command, dataclasses.replace(cli.COMMANDS[command], run=refuse))
    cfg_path = tmp_path / "cfg.json"
    small = {"grid_n": 8} if "grid_n" in cli.COMMANDS[command].settings else {}
    cfg_path.write_text(json.dumps({**small, **cfg}))
    code, _, err = run(capsys, command, "--config", str(cfg_path))
    return code, err


@pytest.mark.parametrize("command,option", [(c, o) for c, cmd in cli.COMMANDS.items()
                                            for o in cmd.options])
@pytest.mark.parametrize("value", [None, {}])
def test_config_option_of_wrong_type_exits_1_before_the_run(tmp_path, capsys, monkeypatch,
                                                            command, option, value):
    code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                 {"command": command, "options": {option: value}})
    assert code == 1 and err.startswith("error: ") and f"{option} must be" in err


@pytest.mark.parametrize("cfg,message", [
    ({"command": "spectrum", "options": {"count": None}}, "count must be an integer"),
    ({"command": "spectrum", "options": {"count": "3"}}, "count must be an integer"),
    ({"command": "spectrum", "options": {"count": 2.7}}, "count must be an integer"),
    ({"command": "spectrum", "options": {"sweep": 3}}, "accepts no 'sweep' option"),
    ({"command": "spectrum", "options": {"cont": 3}}, "command spectrum accepts no 'cont' option"),
    ({"command": "weyl", "options": {"sweep": [2]}}, "sweep must be an integer"),
    ({"command": "decay-fit", "options": {"expect": "foo"}}, "expect must be one of"),
    ({"command": "spectrum", "options": [1, 2]}, "options must be a JSON object"),
    ({"command": "spectrum", "tolerances": [1]}, "tolerances must be a JSON object"),
    ({"command": "spectrum", "tolerances": {"eigenvalue": True}}, "tolerance eigenvalue must be"),
    ({"command": "spectrum", "box_l": 10**400}, "too large"),
    ({"command": "gauge", "options": {"potential_path": {}}}, "potential_path must be a string"),
    ({"command": "gauge", "output_path": 5}, "output_path must be a string"),
    ({"command": "spectrum", "options": {"target": math.nan}}, "target must be a finite number"),
    ({"command": "spectrum", "options": {"target": math.inf}}, "target must be a finite number"),
    ({"command": "gap-scan", "options": {"lambdas": [math.nan]}},
     "lambdas must be a non-empty list of finite numbers"),
    ({"command": "asymptotics", "options": {"radii": [math.nan, 10, 20]}},
     "radii must be a non-empty list of finite numbers"),
    ({"command": "weyl", "options": {"lambda0": math.nan}}, "lambda0 must be a finite number"),
])
def test_config_defects_exit_1_before_the_run(tmp_path, capsys, monkeypatch, cfg, message):
    code, err = _exit_before_run(tmp_path, capsys, monkeypatch, cfg)
    assert code == 1 and err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--grid-n", "8", "--box-l", "5", "--operator", "t_a", "--target", "nan"],
     "target must be a finite number"),
    (["asymptotics", "--radii=-10,10,20"], "radii must be strictly increasing and positive"),
])
def test_out_of_range_flag_values_exit_1(tmp_path, capsys, argv, message):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "r.json"))
    assert code == 1 and err.startswith("error: ") and message in err, err


# The shared settings each command's run reads; the rest it has no flag for.
GRID = ("grid_n", "box_l")
READS = {"verify-zero-mode": GRID, "gauge": GRID, "coupling-scan": GRID,
         "spectrum": GRID + ("mass",), "gap-scan": GRID + ("mass",), "weyl": GRID + ("mass",),
         "asymptotics": (), "decay-fit": (), "potential-info": ()}
UNREAD = [(command, name) for command, names in READS.items()
          for name in ("grid_n", "box_l", "mass") if name not in names]


def test_each_command_reads_the_settings_of_its_run():
    assert {command: entry.settings for command, entry in cli.COMMANDS.items()} == READS
    assert len(UNREAD) == 12


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_lists_every_flag_of_the_table(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    entry = cli.COMMANDS[command]
    flags = ["--" + o.replace("_", "-") for o in entry.options]
    flags += [f"--tol-{t}" for t in entry.tolerances]
    assert [flag for flag in flags if flag not in out.split()] == []
    assert ("--format" in out.split()) == bool(entry.csv)
    # exactly the settings the command reads: asymptotics --help has no
    # --mass, gauge --help has --grid-n
    settings = {"--" + name.replace("_", "-") for name in cli.SETTINGS}
    assert settings & set(out.split()) == {"--" + name.replace("_", "-") for name in READS[command]}


@pytest.mark.parametrize("command,name", UNREAD)
def test_a_setting_the_command_does_not_read_exits_1(tmp_path, capsys, monkeypatch,
                                                     command, name):
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, command, "--" + name.replace("_", "-"), "16",
                       "--out", str(out_path))
    assert code == 1 and "unrecognized arguments" in err and "Traceback" not in err
    assert not out_path.exists()
    code, err = _exit_before_run(tmp_path, capsys, monkeypatch,
                                 {"command": command, name: 16})
    assert code == 1 and f"error: command {command} reads no {name}" in err, err


def test_config_unknown_top_level_key_exits_1(tmp_path, capsys):
    code, err = _config_exit_code(tmp_path, capsys, **{"grid-n": 8})
    assert code == 1 and "unknown key 'grid-n'" in err
    # a whole report is not a config; its config block is
    code, _, _ = run(capsys, "potential-info", "--out", str(tmp_path / "r.json"))
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text((tmp_path / "r.json").read_text())
    code, _, err = run(capsys, "potential-info", "--config", str(cfg_path))
    assert code == 1 and "unknown key" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--grid-n", "8", "--box-l", "4", "--operator", "t_a", "--count", "2"],
    ["gap-scan", "--grid-n", "8", "--box-l", "4"],
    ["potential-info"],
    ["spectrum", "--grid-n", "8", "--box-l", "4", "--operator", "t_a", "--target", "0.7",
     "--potential", FREE],
    ["decay-fit", "--field", "FIELD", "--r-min", "0.5", "--r-max", "3"],
])
def test_report_config_replays_to_the_same_result(tmp_path, capsys, argv):
    from diraclab.grid import Grid3D, _write_dtl1, sample_potential
    from diraclab.potentials import LossYau

    # a field file reads no potential: none is given or recorded
    reads_potential = "--field" not in argv
    write_field(tmp_path / "f.dtl", sample_field(LossYauMode().eval, Grid3D(n=8, L=4.0)))
    argv = [str(tmp_path / "f.dtl") if a == "FIELD" else a for a in argv]

    # the companion file is found next to the potential file, so the replay
    # must carry options.potential_path
    g = Grid3D(n=8, L=4.0)
    (tmp_path / "pot").mkdir()
    _write_dtl1(tmp_path / "pot" / "a.dtl", g, sample_potential(LossYau(), g))
    pot = tmp_path / "pot" / "pot.json"
    entry = {"variant": "sampled", "grid_n": 8, "box_l": 4.0, "file": "a.dtl"}
    if argv[0] == "potential-info":
        # it classifies out to r = 2000, past a sampled potential's box
        entry = {"variant": "loss_yau"}
    pot.write_text(json.dumps(entry))
    given = ["--potential", str(pot)] if reads_potential and "--potential" not in argv else []
    code, _, _ = run(capsys, *argv, *given, "--out", str(tmp_path / "a.json"))
    assert code in (0, 2)
    first = json.loads((tmp_path / "a.json").read_text())
    assert ("potential" in first["config"]) == reads_potential
    # the config records exactly the settings the command reads
    assert [name for name in cli.SETTINGS if name in first["config"]] == list(READS[argv[0]])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(first["config"]))
    replay_code, _, _ = run(capsys, argv[0], "--config", str(cfg_path),
                            "--out", str(tmp_path / "b.json"))
    assert replay_code == code
    assert json.loads((tmp_path / "b.json").read_text())["result"] == first["result"]


@pytest.mark.parametrize("argv,message", [
    # two operator kinds, by config key (by flag: argparse's invalid choice)
    (["spectrum", {"grid_n": 8, "options": {"operator": "sigma_d"}}],
     "operator must be one of t_a, h_a, got 'sigma_d'"),
    (["spectrum", {"grid_n": 8, "options": {"operator": "h_squared"}}],
     "operator must be one of t_a, h_a, got 'h_squared'"),
    # a potential on a path that reads none, by flag and by config key
    (["decay-fit", "--field", "FIELD", "--potential", LY], "decay-fit --field reads no potential"),
    (["decay-fit", {"potential": json.loads(LY), "options": {"field": "FIELD"}}],
     "decay-fit --field reads no potential"),
    (["spectrum", "--grid-n", "8", "--seed", "-1"], "seed must be a non-negative integer"),
    (["asymptotics", "--seed", "-1"], "seed must be a non-negative integer"),
    # library ValueErrors reach main unwrapped and exit 1 there
    (["gap-scan", "--grid-n", "8", "--box-l", "4", "--lambdas", "0.99"],
     "gap samples must stay away from the +-m endpoints"),
    (["weyl", "--grid-n", "8", "--box-l", "4", "--lambda0", "0.5"],
     "need |lambda0| >= mass, got 0.5 with mass 1.0"),
    (["coupling-scan", "--grid-n", "8", "--box-l", "4", "--t-values", "0,1"],
     "need >= 3 finite coupling values"),
    # a potential with no closed-form zero mode, where the run needs one
    (["verify-zero-mode", "--grid-n", "8", "--potential", SCALED],
     "verify-zero-mode needs a potential with a known zero mode (variant loss_yau)"),
    (["asymptotics", "--potential", SCALED],
     "asymptotics needs a potential with a known zero mode (variant loss_yau)"),
    (["decay-fit", "--potential", SCALED],
     "decay-fit needs a potential with a known zero mode (variant loss_yau)"),
    # more pairs than the grid's 2-spinor space has dimensions
    (["spectrum", "--grid-n", "8", "--count", "1025"],
     "count must be in [1, 2 n^3 = 1024], got 1025"),
])
def test_refused_runs_exit_1_with_one_message_and_no_report(tmp_path, capsys, argv, message):
    field_path = tmp_path / "f.dtl"
    write_field(field_path, sample_field(LossYauMode().eval, Grid3D(n=8, L=4.0)))
    args = []
    for a in argv:
        if isinstance(a, dict):  # a config file
            options = {k: str(field_path) if v == "FIELD" else v for k, v in a["options"].items()}
            cfg = {"command": argv[0], **a, "options": options}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args += ["--config", str(tmp_path / "cfg.json")]
        else:
            args.append(str(field_path) if a == "FIELD" else a)
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, *args, "--out", str(out_path))
    assert (code, err) == (1, f"error: {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("operator", ["sigma_d", "h_squared"])
def test_spectrum_has_two_operator_kinds(tmp_path, capsys, operator):
    # T and H: sigma.D is t_a on a zero potential, and H^2 is no kind
    assert cli.COMMANDS["spectrum"].options["operator"] == ("t_a", "h_a")
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "spectrum", "--grid-n", "8", "--operator", operator,
                       "--out", str(out_path))
    assert code == 1 and "invalid choice" in err, err
    assert not out_path.exists()


def test_tolerance_override_flag(tmp_path, capsys):
    # loosening the norm tolerance turns the n=8 failure into a pass of
    # that clause; the grid clause keeps its own verdict
    code, out, _ = run(capsys, "verify-zero-mode", "--grid-n", "8",
                       "--box-l", "20", "--potential", LY,
                       "--tol-norm", "10", "--out", str(tmp_path / "v.json"))
    assert "PASS norm_deviation" in out


def test_unknown_tolerance_name(capsys):
    code, _, err = run(capsys, "gap-scan", "--grid-n", "16", "--box-l", "5",
                       "--potential", FREE, "--lambdas", "0",
                       "--tol-bogus", "1")
    assert code == 1


def test_headerless_companion_file_is_config_error(tmp_path, capsys):
    n = 8
    (tmp_path / "old.bin").write_bytes(struct.pack("<4d", n, n, n, 4.0)
                                       + np.zeros(3 * n**3).tobytes())
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"variant": "sampled", "grid_n": n, "box_l": 4.0,
                               "file": "old.bin"}))
    code, _, err = run(capsys, "potential-info", "--potential", str(pot))
    assert code == 1
    assert "DTL1" in err


def test_grid_beyond_physical_memory_is_config_error(capsys):
    code, _, err = run(capsys, "weyl", "--grid-n", "4096", "--potential", FREE)
    assert code == 1
    assert "physical memory" in err


@pytest.mark.parametrize("error", [cli.SolverError, cli.AccuracyError])
def test_solver_and_quadrature_errors_exit_3_with_one_message(tmp_path, capsys, monkeypatch,
                                                              error):
    def fail(cfg):
        raise error("no convergence")

    monkeypatch.setitem(cli.COMMANDS, "asymptotics",
                        dataclasses.replace(cli.COMMANDS["asymptotics"], run=fail))
    code, out, err = run(capsys, "asymptotics", "--out", str(tmp_path / "a.json"))
    assert (code, out, err) == (3, "", "error: no convergence\n")
    assert not (tmp_path / "a.json").exists()


def test_potential_info_on_a_zero_potential_fails_its_check(tmp_path, capsys):
    code, out, _ = run(capsys, "potential-info", "--potential", FREE,
                       "--out", str(tmp_path / "i.json"))
    assert code == 2 and "FAIL classification" in out
    report = strict_json(tmp_path / "i.json")
    assert report["passed"] is False and report["result"] == {}
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("classification", False)]


def test_out_of_memory_exits_1_with_one_message_and_no_report(tmp_path, capsys, monkeypatch):
    def eigs_near(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(cli, "eigs_near", eigs_near)
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "spectrum", "--grid-n", "8", "--out", str(out_path))
    assert (code, err) == (1, "error: out of memory: Unable to allocate 64.0 GiB\n")
    assert not out_path.exists()


@pytest.mark.parametrize("source", ["inline", "file", "config", "config_string"])
@pytest.mark.parametrize("depth", [985, 2000])
def test_deeply_nested_potential_exits_1_with_one_message(tmp_path, capsys, source, depth):
    # 985 scaled entries parse and are refused past MAX_DEPTH; 2000 are too
    # deep for the JSON parser itself; a config's potential given as a JSON
    # string is no object, and is not parsed a second time
    text = '{"variant": "scaled", "t": 1.0, "inner": ' * depth + LY + "}" * depth
    args = ["--potential", text]
    if source == "file":
        (tmp_path / "pot.json").write_text(text)
        args = ["--potential", str(tmp_path / "pot.json")]
    elif source == "config":
        (tmp_path / "cfg.json").write_text('{"potential": ' + text + "}")
        args = ["--config", str(tmp_path / "cfg.json")]
    elif source == "config_string":
        (tmp_path / "cfg.json").write_text(json.dumps({"potential": text}))
        args = ["--config", str(tmp_path / "cfg.json")]
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "spectrum", "--grid-n", "8", *args, "--out", str(out_path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out_path.exists()


@pytest.mark.parametrize("config", [
    {"potential": 3000},  # a 3000-deep potential as a JSON string
    {"potential": {"variant": "scaled", "t": "x" * 10**5, "inner": {"variant": "loss_yau"}}},
    {"tolerances": "x" * 10**5},
    {"x" * 10**5: 1},
    {"options": {"x" * 10**5: 1}},  # an unknown option key
])
def test_rejected_value_is_cut_in_the_error_line(tmp_path, capsys, config):
    if config.get("potential") == 3000:
        config["potential"] = ('{"variant": "scaled", "t": 1.0, "inner": ' * 3000 + LY
                               + "}" * 3000)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out_path = tmp_path / "i.json"
    code, _, err = run(capsys, "potential-info", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(out_path))
    assert code == 1 and not out_path.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024 and " characters)" in err


# A valid entry of each potential variant, and the key paths a random JSON
# value is put at (the empty path replaces the whole entry).
POTENTIAL_ENTRIES = {
    "loss_yau": {"variant": "loss_yau", "phi0": [[1.0, 0.0], [0.0, 0.0]]},
    "scaled": {"variant": "scaled", "t": 0.5, "inner": {"variant": "loss_yau"}},
    "amn": {"variant": "amn", "ell": 0, "c_ell": 3.0},
    "sampled": {"variant": "sampled", "grid_n": 8, "box_l": 4.0, "file": "a.dtl"},
}
POTENTIAL_KEYS = [("loss_yau", ()), ("loss_yau", ("variant",)), ("loss_yau", ("phi0",)),
                  ("scaled", ("t",)), ("scaled", ("inner",)), ("scaled", ("inner", "phi0")),
                  ("amn", ("ell",)), ("amn", ("c_ell",)),
                  ("sampled", ("grid_n",)), ("sampled", ("box_l",)), ("sampled", ("file",))]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _potential_info_code(tmp_path, capsys, entry):
    from diraclab.grid import Grid3D, _write_dtl1

    g = Grid3D(n=8, L=4.0)
    _write_dtl1(tmp_path / "a.dtl", g, np.zeros((8, 8, 8, 3)))
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(entry))
    return run(capsys, "potential-info", "--potential", str(pot), "--out", str(tmp_path / "i.json"))


def test_potential_of_wrong_json_type_is_config_error(tmp_path, capsys):
    for entry in ({"variant": "loss_yau", "phi0": 5},
                  {"variant": "scaled", "t": [1], "inner": {"variant": "loss_yau"}},
                  dict(POTENTIAL_ENTRIES["sampled"], file=5), 5):
        code, _, err = _potential_info_code(tmp_path, capsys, entry)
        assert code == 1 and "error: cannot build potential" in err, entry


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(POTENTIAL_KEYS), value=JSON_VALUES)
def test_any_json_value_in_a_potential_runs_or_exits_1(tmp_path, capsys, where, value):
    # never a traceback: main returns, with exit code 1 unless the entry is
    # a usable potential
    variant, path = where
    entry = copy.deepcopy(POTENTIAL_ENTRIES[variant])
    if not path:
        entry = value
    else:
        node = entry
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    code, _, err = _potential_info_code(tmp_path, capsys, entry)
    assert code in (0, 1, 2), (entry, code, err)
    if code == 1:
        assert err.startswith("error: "), (entry, err)


def test_weyl_sweep_evaluates_the_potential_once(tmp_path, capsys, monkeypatch):
    from diraclab.potentials import LossYau

    calls = []
    original = LossYau.eval
    monkeypatch.setattr(LossYau, "eval", lambda self, pts: calls.append(1) or original(self, pts))
    code, out, _ = run(capsys, "weyl", "--grid-n", "16", "--box-l", "20", "--sweep", "4",
                       "--potential", LY, "--out", str(tmp_path / "w.json"))
    assert code in (0, 2)
    assert out.count("n_index") == 4
    assert len(calls) == 1
    report = json.loads((tmp_path / "w.json").read_text())
    assert len(report["result"]["quasimodes"]) == 4


def test_weyl_sweep_makes_no_3d_transform_and_no_grid_apply(tmp_path, capsys, monkeypatch,
                                                             kernel_calls):
    """Counts, not timings: the quasi-mode residuals come from 1-D factors."""
    from diraclab import grid, probe

    applies = []
    original = grid.apply_values
    monkeypatch.setattr(grid, "apply_values",
                        lambda *args, **kwargs: applies.append(1) or original(*args, **kwargs))
    # probe imports apply_values by name; count its calls too
    monkeypatch.setattr(probe, "apply_values", grid.apply_values)
    code, out, _ = run(capsys, "weyl", "--grid-n", "16", "--box-l", "20", "--sweep", "4",
                       "--potential", LY, "--out", str(tmp_path / "w.json"))
    assert code in (0, 2)
    assert out.count("n_index") == 4
    fftn, ifftn = kernel_calls["c2c", 3, True], kernel_calls["c2c", 3, False]
    assert (fftn, ifftn, len(applies)) == (0, 0, 0)
    assert kernel_calls["c2c", 1, True] == 4 * 3  # one 1-D derivative per axis and quasi-mode


def test_gauge_makes_10_real_transforms(tmp_path, capsys, kernel_calls):
    """Counts, not timings: one pass over half spectra. A is transformed
    once (3), chi and the gauged samples come from that spectrum (1 + 3),
    and the samples are transformed once (3) for the divergence and the
    curl change; the three norms need no inverse transform (Parseval)."""
    scaled = '{"variant": "scaled", "t": 1.0, "inner": {"variant": "loss_yau"}}'
    code, out, _ = run(capsys, "gauge", "--grid-n", "16", "--box-l", "20",
                       "--potential", scaled, "--out", str(tmp_path / "g.json"))
    assert code == 0
    assert "PASS divergence_relative" in out and "PASS curl_deviation" in out
    rfftn, irfftn = kernel_calls["r2c", 3, True], kernel_calls["c2r", 1, False]
    assert (rfftn, irfftn) == (6, 4)
    # each irfftn is one c2r after one c2c over the other two axes
    assert kernel_calls == {("r2c", 3, True): 6, ("c2c", 2, False): 4, ("c2r", 1, False): 4}


def test_potential_info_has_no_bound_constant(tmp_path, capsys):
    code, _, err = run(capsys, "potential-info", "--potential", LY, "--bound-constant", "1")
    assert code == 1 and "unrecognized arguments" in err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "potential-info",
                                    "options": {"bound_constant": 1}}))
    code, _, err = run(capsys, "potential-info", "--config", str(cfg_path),
                       "--out", str(tmp_path / "i.json"))
    assert code == 1 and "accepts no 'bound_constant' option" in err
