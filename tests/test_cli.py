import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from goldens import golden_cli_args

import polaromech
from polaromech import cli, lyapunov, outputfield, pipeline


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _record(out):
    header, values = out.splitlines()[:2]
    cells = values.split(",")
    return dict(zip(header.split(","), cells))


# --- steady ---

def test_steady_defaults(capsys):
    code, out = _run(capsys, "steady", "--defaults", "paper",
                     *golden_cli_args())
    assert code == 0
    rec = _record(out)
    assert float(rec["q_s"]) == pytest.approx(14568.700049593311, rel=1e-9)
    assert float(rec["delta_eff_over_omega_m"]) == pytest.approx(
        0.90020440466028584, rel=1e-9)
    assert rec["root_count"] == "1"
    assert float(rec["spectral_abscissa_over_omega_m"]) < 0.0


def test_steady_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelength_m = 810e-9\n"
                   "power_w = 50e-3\n"
                   "omega_m_rad_s = 62.8e6\n"
                   "mass_kg = 5e-12\n"
                   "q_mech = 1e5\n"
                   "q_cavity = 1e8\n"
                   "g0_rad_s = 242.4\n"
                   "temperature_k = 0.4\n"
                   "delta_c_over_omega_m = 1.0\n"
                   "theta_rad = 0.785398\n")
    code, out = _run(capsys, "steady", "--config", str(cfg))
    assert code == 0
    rec = _record(out)
    assert float(rec["coupling_mag_te_over_omega_m"]) == pytest.approx(
        float(rec["coupling_mag_tm_over_omega_m"]), rel=1e-5)


def test_set_overrides(capsys):
    code, out = _run(capsys, "steady", "--defaults", "paper",
                     "--set", "theta_rad=1.5707963267948966")
    assert code == 0
    rec = _record(out)
    assert float(rec["coupling_mag_te_over_omega_m"]) == 0.0


# --- entangle ---

def test_entangle_intracavity(capsys):
    code, out = _run(capsys, "entangle", "--defaults", "paper",
                     *golden_cli_args())
    assert code == 0
    rec = _record(out)
    assert rec["pair"] == "te-mech" and rec["where"] == "intracavity"
    assert float(rec["log_negativity"]) == pytest.approx(
        0.07417687428230683, rel=1e-6)


def test_entangle_tm_is_separable(capsys):
    code, out = _run(capsys, "entangle", "--defaults", "paper",
                     "--pair", "tm-mech")
    assert code == 0
    assert float(_record(out)["log_negativity"]) == 0.0


def test_entangle_output(capsys):
    code, out = _run(capsys, "entangle", "--defaults", "paper",
                     *golden_cli_args(), "--where", "output", "--epsilon", "10",
                     "--omega-over-omega-m", "-1")
    assert code == 0
    rec = _record(out)
    assert float(rec["log_negativity"]) == pytest.approx(0.48598, abs=1e-3)
    assert float(rec["epsilon"]) == 10.0


def test_entangle_structured(capsys):
    code, out = _run(capsys, "entangle", "--defaults", "paper",
                     *golden_cli_args(), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == "te-mech"
    assert doc["log_negativity"] > 0.07


# --- error paths ---

def test_missing_config_file(capsys):
    assert cli.main(["steady", "--config", "/no/such/file.cfg"]) == 2


def test_no_parameter_source(capsys):
    code = cli.main(["steady"])
    assert code == 2
    assert "defaults" in capsys.readouterr().err


def test_unknown_set_key(capsys):
    assert cli.main(["steady", "--defaults", "paper",
                     "--set", "frobnication=3"]) == 2


def test_malformed_set(capsys):
    assert cli.main(["steady", "--defaults", "paper", "--set", "g0_rad_s"]) == 2


def test_unknown_figure(capsys):
    assert cli.main(["figure", "fig77"]) == 2


@pytest.mark.parametrize("option", [["--set", "power_w=0.001"],
                                    ["--config", "/no/such/file.cfg"],
                                    ["--defaults", "paper"]])
def test_figure_rejects_parameter_options(tmp_path, capsys, option):
    # canned figures always start from the baseline parameter set
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as e:
        cli.main(["figure", "fig2b", "--out", str(out)] + option)
    assert e.value.code == 2
    assert not out.exists()


def test_bad_axis_spec(capsys):
    assert cli.main(["sweep", "--defaults", "paper",
                     "--axis1", "theta_rad:0", "--target",
                     "EN_TE_mech_intracavity"]) == 2


def test_numeric_failure_exit_code(capsys, monkeypatch):
    # a covariance solve that comes back non-finite is a numeric failure,
    # not a configuration problem
    monkeypatch.setattr(lyapunov, "_solve_vectorized",
                        lambda a, d: np.full(np.shape(a), np.nan))
    code = cli.main(["entangle", "--defaults", "paper"])
    assert code == 3
    assert "numeric" in capsys.readouterr().err


def _nan_integrand(w, *args):
    return np.full((w.size, 4, 4), np.nan)


def test_nonfinite_output_quadrature_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(outputfield, "_difference_integrand", _nan_integrand)
    code = cli.main(["entangle", "--defaults", "paper", "--where", "output"])
    assert code == 3
    assert "numeric" in capsys.readouterr().err


def test_sweep_records_nonfinite_output_quadrature(capsys, monkeypatch):
    monkeypatch.setattr(outputfield, "_difference_integrand", _nan_integrand)
    code, out_text = _run(capsys, "sweep", "--defaults", "paper",
                          "--axis1", "epsilon:5:10:2",
                          "--target", "EN_TE_mech_output")
    assert code == 0
    rows = out_text.splitlines()[1:]
    assert len(rows) == 2
    assert all(",nan," in row and "numeric: non-finite" in row for row in rows)


def test_nonpositive_epsilon_is_config_error(capsys):
    code = cli.main(["entangle", "--defaults", "paper", "--where", "output",
                     "--epsilon", "0"])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_sweep_through_zero_epsilon_completes(capsys):
    code, out_text = _run(capsys, "sweep", "--defaults", "paper",
                          "--axis1", "epsilon:0:20:3",
                          "--target", "EN_TE_mech_output")
    assert code == 0
    lines = out_text.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("0,nan,")
    assert "config: epsilon" in lines[1]
    assert lines[2].endswith(",")  # epsilon = 10 evaluates without error


def test_import_loads_no_scipy():
    # importing the package and its CLI must stay numpy-only: scipy alone
    # used to cost more than half of a fresh process's start-up
    src = str(Path(polaromech.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys, polaromech, polaromech.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_unstable_point_exit_code(capsys):
    code = cli.main(["entangle", "--defaults", "paper",
                     "--set", "delta_c_over_omega_m=-1"])
    assert code == 4
    err = capsys.readouterr().err
    assert "unstable" in err


# --- sweep and figure commands ---

def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = cli.main(["sweep", "--defaults", "paper",
                     "--axis1", "delta_c_over_omega_m:-1:1:5",
                     "--target", "EN_TE_mech_intracavity",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta_c_over_omega_m,")
    assert len(lines) == 6
    assert any("unstable" in l for l in lines[1:])


def test_sweep_structured_stdout(capsys):
    code, out_text = _run(capsys, "sweep", "--defaults", "paper",
                          "--axis1", "theta_rad:0:1.2:3",
                          "--target", "coupling_magnitude_TE",
                          "--format", "structured")
    assert code == 0
    doc = json.loads(out_text)
    assert doc["format"] == "polaromech.sweep.v1"
    assert len(doc["rows"]) == 3


def test_figure_command(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, text = _run(capsys, "figure", "fig2b", "--out", str(out))
    assert code == 0
    assert "fig2b" in text and str(out) in text
    assert len(out.read_text().splitlines()) == 202


def _out_help(command):
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.dest == "command")
    return next(a.help for a in subs.choices[command]._actions
                if "--out" in a.option_strings)


def test_figure_out_help_names_the_default_files(tmp_path, capsys, monkeypatch):
    # figure never writes its table to stdout: without --out it writes
    # <id>.csv or <id>.json in the working directory, as its help says
    text = _out_help("figure")
    assert "stdout" not in text
    assert "<id>.csv" in text and "<id>.json" in text
    for command in ("steady", "entangle", "sweep", "validate"):
        assert "stdout" in _out_help(command)
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, "figure", "fig2b")[0] == 0
    assert _run(capsys, "figure", "fig2b", "--format", "structured")[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2b.csv", "fig2b.json"]


def test_validate_command(capsys):
    code, out = _run(capsys, "validate", "--defaults", "paper")
    assert code == 0
    assert "ok" in out


def test_validate_catches_a_wrong_rotation(capsys, monkeypatch):
    # validate checks the rotated bright-mode solution that entangle uses
    # against the full 6x6 model, so swapping cos and sin must fail it
    rotate = pipeline.polarization_cm
    monkeypatch.setattr(pipeline, "polarization_cm",
                        lambda v, c, s: rotate(v, s, c))
    code, out = _run(capsys, "validate", "--defaults", "paper",
                     "--set", "theta_rad=0.3")
    assert code == 3
    assert "lyapunov residual < 1e-9" in out and "FAILED" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
