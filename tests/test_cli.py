"""CLI dispatch, exit codes, determinism, manifests.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elastica
from elastica import curves, flow, serialization
from elastica.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, dispatch


def test_constants_json(capsys):
    assert dispatch(["constants"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["m_star"] == pytest.approx(0.826115, abs=1e-6)
    assert set(doc) >= {"m_star", "K_star", "E_star", "varpi_star", "phi_star"}


def test_generate_writes_curve_and_manifest(tmp_path, capsys):
    out = tmp_path / "fe.csv"
    assert dispatch(["generate", "figure-eight", "--halves", "2",
                     "--n", "128", "--out", str(out)]) == EXIT_OK
    assert out.exists()
    manifest = json.loads((tmp_path / "fe.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["parameters"]["kind"] == "figure-eight"
    assert len(manifest["versions"]["constants_checksum"]) == 64


def test_generate_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert dispatch(["generate", "perturbed-circle", "--seed", "5",
                         "--n", "96", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_randomized_requires_seed(tmp_path, capsys):
    assert dispatch(["generate", "drop", "--out",
                     str(tmp_path / "d.csv")]) == EXIT_USAGE


def test_usage_error_exit_code(capsys):
    assert dispatch(["no-such-command"]) == EXIT_USAGE
    assert dispatch([]) == EXIT_USAGE
    assert dispatch(["--threads", "1", "constants"]) == EXIT_USAGE


def test_energy_report(tmp_path, capsys):
    out = tmp_path / "c.csv"
    dispatch(["generate", "circle", "--radius", "1.0", "--n", "256",
              "--out", str(out)])
    capsys.readouterr()
    assert dispatch(["energy", "--in", str(out), "--lambda", "0.5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["normalized_bending"] == pytest.approx(39.478, abs=0.1)


def test_flow_trace(tmp_path, capsys):
    src = tmp_path / "pc.csv"
    dispatch(["generate", "perturbed-circle", "--seed", "1", "--n", "128",
              "--out", str(src)])
    trace = tmp_path / "trace.csv"
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-length",
                     "--steps", "2000", "--out", str(trace)]) == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "time,energy,length,roundness,embedded"
    assert len(lines) > 2
    assert (tmp_path / "trace.csv.manifest.json").exists()


def test_flow_fixed_lambda_requires_lambda(tmp_path, capsys):
    src = tmp_path / "pc.csv"
    dispatch(["generate", "circle", "--n", "64", "--out", str(src)])
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-lambda",
                     "--steps", "10", "--out", str(tmp_path / "t.csv")]) \
        == EXIT_USAGE


def test_network_pipeline(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert dispatch(["network", "wavelike", "--m", "0.75",
                     "--samples", "128", "--out", str(net)]) == EXIT_OK
    capsys.readouterr()
    assert dispatch(["network", "energy", "--in", str(net)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta_energy"] == pytest.approx(19.844, abs=0.05)
    sweep = tmp_path / "sweep.csv"
    assert dispatch(["network", "sweep", "--m-lo", "0.1", "--m-hi", "0.8",
                     "--steps", "4", "--out", str(sweep)]) == EXIT_OK
    assert len(sweep.read_text().strip().splitlines()) == 5


def test_closure_search_reports_empty(capsys):
    assert dispatch(["closure-search", "--k", "5", "--eps", "1e-6"]) == EXIT_OK
    assert "no closures found" in capsys.readouterr().out


def test_verify_exact_bounds(capsys):
    assert dispatch(["verify", "exact-bounds"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_single_criterion(capsys):
    assert dispatch(["verify", "constants"]) == EXIT_OK
    assert "PASS  constants" in capsys.readouterr().out


def test_domain_error_maps_to_usage_exit(tmp_path, capsys):
    assert dispatch(["network", "wavelike", "--m", "0.95",
                     "--out", str(tmp_path / "n.json")]) == EXIT_USAGE


def test_cli_import_leaves_integrate_and_optimize_unloaded():
    """[TRIVIAL] `import elastica.cli` loads neither scipy.integrate nor
    scipy.optimize, which dominate cold start."""
    src = str(Path(elastica.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, elastica.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_non_finite_csv_is_rejected(tmp_path, capsys):
    """[TRIVIAL] a CSV with nan exits 2 with one line and prints no JSON."""
    src = tmp_path / "nan.csv"
    src.write_text("2,1\n0,0\n1,0\nnan,1\n0,1\n")
    assert dispatch(["energy", "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: non-finite coordinates"


def test_out_of_range_vertex_mark_is_rejected(tmp_path, capsys):
    """[TRIVIAL] a curve JSON marking vertex 10**6 exits 2, no IndexError."""
    src = tmp_path / "fe.json"
    assert dispatch(["generate", "figure-eight", "--n", "128",
                     "--out", str(src)]) == EXIT_OK
    doc = json.loads(src.read_text())
    doc["vertex_marks"] = [10 ** 6]
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["energy", "--in", str(src), "--k", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "vertex_marks" in err


def test_flow_step_failure_exit_code(tmp_path, capsys, monkeypatch):
    """[TRIVIAL] a flow step that cannot lower the energy exits 3."""
    src = tmp_path / "c.csv"
    dispatch(["generate", "circle", "--n", "64", "--out", str(src)])
    capsys.readouterr()
    # every trial triples the curve, which raises 1/2 B + L at lambda = 1
    monkeypatch.setattr(flow, "_implicit_step", lambda pts, *args: 3.0 * pts)
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-lambda",
                     "--lambda", "1.0", "--steps", "10",
                     "--out", str(tmp_path / "t.csv")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.strip() == "error: step failure: energy increased after 20 dt halvings"


def test_json_writers_refuse_nan(tmp_path):
    """[TRIVIAL] JSON output never carries NaN."""
    with pytest.raises(ValueError):
        serialization.curve_to_json(curves.circle(2, 1.0, 16),
                                    tmp_path / "c.json", generator="circle",
                                    parameters={"radius": float("nan")})
