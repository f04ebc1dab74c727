"""CLI dispatch, exit codes, determinism, manifests.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import ast
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import elastica
from elastica import curves, flow, serialization
from elastica.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, RunManifest,
                          dispatch)


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


def test_energy_rejects_negative_lambda(tmp_path, capsys):
    """[TRIVIAL] a negative lambda exits 2 with one line and prints no JSON."""
    src = tmp_path / "c.csv"
    dispatch(["generate", "circle", "--n", "64", "--out", str(src)])
    capsys.readouterr()
    assert dispatch(["energy", "--in", str(src), "--lambda", "-1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: lambda must be finite and nonnegative"


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


_COUNT_OPTIONS = {
    "--dim": [["circle"]],
    "--turns": [["circle"]],
    "--halves": [["figure-eight"]],
    "--n": [["wavelike"], ["figure-eight"], ["half-leaf"], ["propeller"], ["circle"],
            ["perturbed-circle", "--seed", "1"], ["drop", "--seed", "1"]],
}


@pytest.mark.parametrize("value", ["-1", "0", "1", "2", "3"])
@pytest.mark.parametrize("option", list(_COUNT_OPTIONS))
def test_generate_count_options_exit_0_or_2(option, value, tmp_path, capsys, monkeypatch):
    """[TRIVIAL] a small or negative count either generates a curve or exits
    2 with one line on stderr: --dim 1 and --dim 0 used to end in an
    IndexError traceback with exit 1, the code of a failed verification."""
    monkeypatch.chdir(tmp_path)
    for kind in _COUNT_OPTIONS[option]:
        code = dispatch(["generate", *kind, option, value, "--out", "c.csv"])
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_USAGE:
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("error: ")


def test_domain_error_maps_to_usage_exit(tmp_path, capsys):
    assert dispatch(["network", "wavelike", "--m", "0.95",
                     "--out", str(tmp_path / "n.json")]) == EXIT_USAGE


def test_cli_import_leaves_integrate_and_optimize_unloaded(subprocess_env):
    """[TRIVIAL] `import elastica.cli` loads neither scipy.integrate nor
    scipy.optimize, which dominate cold start."""
    code = ("import sys, elastica.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_src_imports_no_scipy_optimize_integrate_or_interpolate():
    """[TRIVIAL] no module of the package imports scipy.optimize,
    scipy.integrate or scipy.interpolate, at the top or inside a function:
    they cost cold start, and the oracles that use them live in the tests."""
    banned = {"scipy.optimize", "scipy.integrate", "scipy.interpolate"}
    found = []
    for path in sorted(Path(elastica.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []


@pytest.mark.parametrize("text, line", [
    ("2,5\n0,0\n1,0\n0,1\n", 1),          # closed neither 0 nor 1
    ("2,x\n0,0\n1,0\n0,1\n", 1),
    ("2.0,1\n0,0\n1,0\n0,1\n", 1),
    ("1,1\n0\n1\n2\n", 1),
    ("2\n0,0\n1,0\n0,1\n", 1),
    ("\n\n2,1,0\n0,0\n1,0\n0,1\n", 3),   # blank lines before the header
    ("2,1\n0,0\n1,0,0\n0,1\n", 3),         # ragged row
    ("2,1\n0,0\n1,0\n0,y\n", 4),
    ("2,1\n0,0\n1\n0,1\n", 3),
], ids=["closed-5", "closed-x", "float-dim", "dim-1", "no-closed", "after-blank-lines",
        "ragged-row", "non-numeric-row", "short-row"])
def test_malformed_csv_is_rejected(text, line, tmp_path, capsys):
    """[TRIVIAL] a CSV header other than `dim,closed` with closed 0 or 1, or
    a row that is not dim numbers, exits 2 with one stderr line naming the
    file and the line, and prints nothing on stdout."""
    src = tmp_path / "bad.csv"
    src.write_text(text)
    assert dispatch(["energy", "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {src}: line {line}: expected ")


def test_non_finite_csv_is_rejected(tmp_path, capsys):
    """[TRIVIAL] a CSV with nan exits 2 with one line and prints no JSON."""
    src = tmp_path / "nan.csv"
    src.write_text("2,1\n0,0\n1,0\nnan,1\n0,1\n")
    assert dispatch(["energy", "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == "error: non-finite coordinates"


def test_overflowing_csv_is_rejected(tmp_path, capsys):
    """[TRIVIAL] finite coordinates near 1e300, whose edge lengths overflow,
    exit 2 with one line and no numpy warning, and print no JSON."""
    src = tmp_path / "big.csv"
    src.write_text("2,1\n1e300,0\n-1e300,1e300\n0,-1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["energy", "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: edge length is not finite (coordinates too large)"]


_GOOD_CURVE = {"kind": "curve", "dim": 2, "closed": True,
               "points": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}


@pytest.mark.parametrize("command, doc, key", [
    ("energy", {"kind": "curve", "closed": True}, "'points'"),
    ("energy", [1, 2], "JSON object"),
    ("energy", {**_GOOD_CURVE, "points": 5}, "'points'"),
    ("energy", {**_GOOD_CURVE, "points": [[0, 0], [1], [1, 1]]}, "'points'"),
    ("energy", {**_GOOD_CURVE, "points": [[0, 0], [1, "x"], [1, 1]]}, "'points'"),
    ("energy", {**_GOOD_CURVE, "points": [[0, 0], [1, True], [1, 1]]}, "'points'"),
    ("energy", {**_GOOD_CURVE, "points": [[0, 0], [1, {}], [1, 1]]}, "'points'"),
    ("energy", {**_GOOD_CURVE, "closed": "yes"}, "'closed'"),
    ("energy", {k: v for k, v in _GOOD_CURVE.items() if k != "closed"}, "'closed'"),
    ("energy", {**_GOOD_CURVE, "vertex_marks": 5}, "'vertex_marks'"),
    ("network", {"kind": "theta-network"}, "'curves'"),
    ("network", {"kind": "theta-network", "curves": 5}, "'curves'"),
    ("network", {"kind": "theta-network", "curves": [_GOOD_CURVE] * 2}, "'curves'"),
    ("network", {"kind": "theta-network", "curves": [1, 2, 3]}, "curves[0]"),
])
def test_malformed_json_documents_are_rejected(command, doc, key, tmp_path, capsys):
    """[TRIVIAL] a JSON document of the wrong shape exits 2 with one stderr
    line that names the offending key, and prints no JSON."""
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    argv = ["energy", "--in", str(src)] if command == "energy" else \
        ["network", "energy", "--in", str(src)]
    assert dispatch(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err


@pytest.mark.parametrize("command", ["energy", "network energy"])
def test_deeply_nested_json_is_rejected(command, tmp_path, capsys):
    """[TRIVIAL] nesting too deep for the JSON decoder exits 2 with one line,
    not a RecursionError traceback."""
    src = tmp_path / "deep.json"
    src.write_text('{"kind": "curve", "closed": true, "points": '
                   + "[" * 100_000 + "]" * 100_000 + "}")
    assert dispatch([*command.split(), "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {src}: JSON nested too deeply"]


def test_json_curve_points_may_be_numbers_or_numeric_strings(tmp_path, capsys):
    """[TRIVIAL] the reader takes JSON numbers as well as the strings the
    writer emits."""
    src = tmp_path / "doc.json"
    src.write_text(json.dumps({**_GOOD_CURVE, "points": [[0, 0], ["1", 0.0], [1, "1"], [0, 1]]}))
    assert dispatch(["energy", "--in", str(src)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["length"] == 4.0


def test_malformed_network_fields_are_rejected(tmp_path, capsys):
    """[TRIVIAL] a written network with one field spoiled at a time exits 2
    with one line naming that field."""
    net = tmp_path / "net.json"
    assert dispatch(["network", "wavelike", "--m", "0.75", "--samples", "64",
                     "--out", str(net)]) == EXIT_OK
    good = json.loads(net.read_text())
    for key, value in (("junction_a", "0"), ("junction_b", [0.0]), ("angle_spec", [1.0]),
                       ("start_tangents", [[1.0, 0.0]]), ("end_tangents", [[1.0]] * 3)):
        net.write_text(json.dumps({**good, key: value}))
        capsys.readouterr()
        assert dispatch(["network", "energy", "--in", str(net)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and repr(key) in err


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


# every float option, each in a command line that is valid apart from it
_FLOAT_OPTIONS = {
    "generate --m": ["generate", "wavelike", "--m", "{}", "--out", "w.csv"],
    "generate --s-lo": ["generate", "wavelike", "--s-lo", "{}", "--out", "w.csv"],
    "generate --s-hi": ["generate", "wavelike", "--s-hi", "{}", "--out", "w.csv"],
    "generate --radius": ["generate", "circle", "--radius", "{}", "--out", "c.csv"],
    "generate --noise": ["generate", "perturbed-circle", "--seed", "1",
                         "--noise", "{}", "--out", "p.csv"],
    "energy --lambda": ["energy", "--in", "c.csv", "--lambda", "{}"],
    "flow --lambda": ["flow", "--in", "c.csv", "--mode", "fixed-lambda",
                      "--lambda", "{}", "--out", "t.csv"],
    "flow --L0": ["flow", "--in", "c.csv", "--mode", "fixed-length", "--L0", "{}",
                  "--out", "t.csv"],
    "flow --dt": ["flow", "--in", "c.csv", "--mode", "fixed-length", "--dt", "{}",
                  "--out", "t.csv"],
    "flow --tol": ["flow", "--in", "c.csv", "--mode", "fixed-length", "--tol", "{}",
                   "--out", "t.csv"],
    "network wavelike --m": ["network", "wavelike", "--m", "{}", "--out", "n.json"],
    "network sweep --m-lo": ["network", "sweep", "--m-lo", "{}", "--m-hi", "0.8",
                             "--out", "s.csv"],
    "network sweep --m-hi": ["network", "sweep", "--m-lo", "0.1", "--m-hi", "{}",
                             "--out", "s.csv"],
    "closure-search --eps": ["closure-search", "--k", "3", "--eps", "{}"],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", list(_FLOAT_OPTIONS))
def test_non_finite_float_option_is_a_usage_error(option, value, tmp_path, capsys,
                                                  monkeypatch):
    """[TRIVIAL] NaN or inf in any float option exits 2 with one line on
    stderr, before anything is read or written."""
    monkeypatch.chdir(tmp_path)
    argv = [a.format(value) for a in _FLOAT_OPTIONS[option]]
    assert dispatch(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip().splitlines() == [
        f"elastica {argv[0]}{' ' + argv[1] if argv[0] == 'network' else ''}: error: "
        f"argument {option.split()[-1]}: not a finite number: '{value}'"]
    assert list(tmp_path.iterdir()) == []


def test_flow_rejects_non_positive_L0(tmp_path, capsys):
    """[TRIVIAL] --L0 -1 exits 2 instead of flowing at L0 = +1."""
    src = tmp_path / "c.csv"
    dispatch(["generate", "circle", "--n", "64", "--out", str(src)])
    capsys.readouterr()
    trace = tmp_path / "t.csv"
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-length", "--L0", "-1",
                     "--steps", "10", "--out", str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip() == "error: L0 must be finite and positive"
    assert not trace.exists()


def test_flow_rejects_negative_lambda(tmp_path, capsys):
    """[TRIVIAL] --lambda -1 exits 2 with the energy module's lambda message
    instead of running a flow that grows the curve and never converges."""
    src = tmp_path / "c.csv"
    dispatch(["generate", "circle", "--n", "64", "--out", str(src)])
    capsys.readouterr()
    trace = tmp_path / "t.csv"
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-lambda", "--lambda", "-1",
                     "--steps", "10", "--out", str(trace)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: lambda must be finite and nonnegative"]
    assert not trace.exists()


def test_flow_rejects_open_curve(tmp_path, capsys):
    """[TRIVIAL] an open curve exits 2 with the flow's one-line message, not
    a numpy broadcast error from the remesh."""
    src = tmp_path / "halfleaf.csv"
    dispatch(["generate", "half-leaf", "--n", "64", "--out", str(src)])
    capsys.readouterr()
    trace = tmp_path / "t.csv"
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-length",
                     "--out", str(trace)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: elastic flow runs on closed curves"]
    assert not trace.exists()


def test_manifest_refuses_nan(tmp_path):
    """[TRIVIAL] a NaN parameter cannot reach a run manifest."""
    out = tmp_path / "c.csv"
    with pytest.raises(ValueError):
        RunManifest(command="generate", parameters={"radius": float("nan")},
                    outputs=[str(out)]).write()
    assert not (tmp_path / "c.csv.manifest.json").exists()


def test_cli_runs_are_byte_identical(tmp_path, subprocess_env):
    """[TRIVIAL] generate, a 200-step flow and a network sweep, run twice in
    fresh interpreters with different hash seeds and in separate directories,
    print the same bytes and write the same files, manifests included."""
    script = (
        "from elastica.cli import dispatch\n"
        "for argv in (['generate', 'perturbed-circle', '--seed', '7', '--n', '256',"
        " '--out', 'pc.csv'],\n"
        "             ['flow', '--in', 'pc.csv', '--mode', 'fixed-length', '--steps',"
        " '200', '--tol', '1e-12', '--out', 'trace.csv'],\n"
        "             ['network', 'sweep', '--m-lo', '0.1', '--m-hi', '0.8',"
        " '--steps', '8', '--out', 'sweep.csv']):\n"
        "    assert dispatch(argv) == 0\n")
    runs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"run{hash_seed}"
        run_dir.mkdir()
        res = subprocess.run([sys.executable, "-c", script], cwd=run_dir, check=True,
                             env=dict(subprocess_env, PYTHONHASHSEED=hash_seed),
                             capture_output=True)
        runs.append((res.stdout, {p.name: p.read_bytes() for p in run_dir.iterdir()}))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == sorted(
        f"{name}{suffix}" for name in ("pc.csv", "trace.csv", "sweep.csv")
        for suffix in ("", ".manifest.json"))
    assert len(runs[0][1]["trace.csv"].splitlines()) == 1 + 6   # t = 0, 4 checks, end
