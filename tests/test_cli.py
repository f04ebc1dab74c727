"""CLI dispatch, exit codes, determinism, manifests.

Tags: [TRIVIAL] direct checks of invented plumbing.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import elastica
from elastica import curves, flow, networks, serialization
from elastica.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, dispatch,
                          write_manifest)


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
    assert capsys.readouterr() == ("", "error: seed must be an integer >= 0\n")


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
    capsys.readouterr()
    assert dispatch(["flow", "--in", str(src), "--mode", "fixed-lambda",
                     "--steps", "10", "--out", str(tmp_path / "t.csv")]) \
        == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --lambda is required in fixed-lambda mode\n")


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


@pytest.mark.parametrize("argv, message", [
    (["generate", "perturbed-circle", "--seed", "-1", "--n", "64"],
     "error: seed must be an integer >= 0"),
    (["generate", "drop", "--seed", "-1", "--n", "64"], "error: seed must be an integer >= 0"),
    (["network", "sweep", "--m-lo", "0.1", "--m-hi", "0.8", "--steps", "0"],
     "error: steps must be an integer >= 1"),
    (["network", "sweep", "--m-lo", "0.1", "--m-hi", "0.8", "--steps", "-1"],
     "error: steps must be an integer >= 1"),
    (["network", "sweep", "--m-lo", "0.1", "--m-hi", "0.8", "--steps", "1000001"],
     "error: steps > 1000000 exceeds the output budget"),
    (["network", "sweep", "--m-lo", "0.9", "--m-hi", "0.1", "--steps", "3"],
     "error: need m_lo < m_hi"),
    (["network", "sweep", "--m-lo", "0.5", "--m-hi", "0.5", "--steps", "1"],
     "error: need m_lo < m_hi"),
], ids=["perturbed-circle-seed", "drop-seed", "sweep-steps-0", "sweep-steps-negative",
        "sweep-steps-over-budget", "sweep-descending", "sweep-empty-range"])
def test_seed_and_sweep_steps_are_checked(argv, message, tmp_path, capsys, monkeypatch):
    """[TRIVIAL] a negative seed, a sweep of fewer than one step or of more
    rows than its budget, and a sweep range that does not ascend exit 2 with
    one line on stderr and write nothing: --seed -1 used to print numpy's
    "expected non-negative integer", --steps 0 to write a file with only a
    header and exit 0, --steps 100000000 to run for minutes, and --m-lo 0.9
    --m-hi 0.1 to write a descending table."""
    monkeypatch.chdir(tmp_path)
    assert dispatch([*argv, "--out", "o.csv"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"
    assert list(tmp_path.iterdir()) == []


def test_every_exported_name_resolves():
    """[TRIVIAL] each name in a module's __all__ is defined there, so a
    removed name cannot stay exported."""
    missing = []
    for path in sorted(Path(elastica.__file__).parent.glob("*.py")):
        dotted = "elastica" if path.stem == "__init__" else f"elastica.{path.stem}"
        module = importlib.import_module(dotted)
        missing += [f"{dotted}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
    assert "propeller_curve" in curves.__all__


def test_domain_error_maps_to_usage_exit(tmp_path, capsys):
    assert dispatch(["network", "wavelike", "--m", "0.95",
                     "--out", str(tmp_path / "n.json")]) == EXIT_USAGE


def test_cli_import_leaves_integrate_and_optimize_unloaded(subprocess_env, tmp_path, capsys):
    """[TRIVIAL] `import elastica.cli` loads neither scipy.integrate nor
    scipy.optimize, which dominate cold start, nor any other scipy module;
    a cold `energy` without --k loads none either, and prints the bytes the
    same command prints in a process that has loaded scipy."""
    code = ("import sys, elastica.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    code = ("import sys, elastica.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    src = tmp_path / "pc.csv"
    assert dispatch(["generate", "perturbed-circle", "--seed", "3", "--n", "128",
                     "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert dispatch(["energy", "--in", str(src)]) == EXIT_OK
    warm = capsys.readouterr().out
    code = ("import sys; from elastica.cli import dispatch; "
            f"code = dispatch(['energy', '--in', {str(src)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True)
    assert res.stderr == "0 []\n"
    assert res.stdout == warm


def test_commands_that_only_read_the_constants_load_no_scipy(subprocess_env, tmp_path):
    """[TRIVIAL] in a fresh interpreter, `generate circle`, `energy --k 2` on
    a 2-turn circle, `closure-search` and `constants` read the constants
    bundle and evaluate no elliptic function, so they load no scipy module;
    a `flow` run after them loads LAPACK's compiled module for its remesh,
    and neither the `scipy.linalg` package nor `scipy.special`."""
    one, two = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
    commands = [["generate", "circle", "--n", "64", "--out", one],
                ["generate", "circle", "--turns", "2", "--n", "128", "--out", two],
                ["energy", "--in", two, "--k", "2"],
                ["closure-search", "--k", "7"],
                ["constants"],
                ["flow", "--in", one, "--mode", "fixed-length", "--steps", "5",
                 "--out", str(tmp_path / "trace.csv")]]
    code = ("import sys\n"
            "from elastica.cli import dispatch\n"
            f"for argv in {commands!r}:\n"
            "    code = dispatch(argv)\n"
            # loading any scipy module loads the package 'scipy' too
            "    print(argv[0], code, sorted(m for m in sys.modules if m in "
            "('scipy', 'scipy.special', 'scipy.linalg', 'scipy.linalg.lapack', "
            "'scipy.linalg._flapack')), file=sys.stderr)\n")
    res = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True)
    assert res.stderr.splitlines() == [
        "generate 0 []", "generate 0 []", "energy 0 []", "closure-search 0 []",
        "constants 0 []", "flow 0 ['scipy', 'scipy.linalg._flapack']"]


def test_first_use_loads_the_module_alone(subprocess_env, tmp_path):
    """[TRIVIAL] `_lazy.on_first_use` imports the top-level package, runs the
    `__init__` of no package in between, and registers the module so that a
    later import of its package reuses it; a module that fails to load is
    not left registered."""
    sub = tmp_path / "toppkg" / "sub"
    sub.mkdir(parents=True)
    (tmp_path / "toppkg" / "__init__.py").write_text("")
    (sub / "__init__.py").write_text("print('sub ran')\nfrom . import leaf\n")
    (sub / "leaf.py").write_text("print('leaf ran')\ndef twice(x):\n    return 2 * x\n")
    (sub / "broken.py").write_text("raise RuntimeError('broken ran')\n")
    code = ("import sys\n"
            "from elastica._lazy import on_first_use\n"
            "(twice,) = on_first_use(globals(), 'toppkg.sub.leaf', 'twice')\n"
            "(x,) = on_first_use(globals(), 'toppkg.sub.broken', 'x')\n"
            "print(twice(21), sorted(m for m in sys.modules if m.startswith('toppkg')))\n"
            "try:\n"
            "    x()\n"
            "except RuntimeError as e:\n"
            "    print(e, 'toppkg.sub.broken' in sys.modules)\n"
            "import toppkg.sub\n"
            "print(twice is toppkg.sub.leaf.twice)\n")
    # the child runs in tmp_path, which `python -c` puts first on sys.path
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, cwd=tmp_path,
                         check=True, capture_output=True, text=True).stdout
    assert out == ("leaf ran\n42 ['toppkg', 'toppkg.sub.leaf']\n"
                   "broken ran False\nsub ran\nTrue\n")


def test_concurrent_first_uses_load_each_module_once(subprocess_env):
    """[TRIVIAL] in a fresh interpreter, eight threads (more than the cores)
    reach the first elliptic evaluation and the first remesh together, with
    a short switch interval; each call returns its value, none meets a
    half-executed module."""
    code = ("import sys, threading\n"
            "from elastica import curves, elliptic, flow\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier, results = threading.Barrier(8), []\n"
            "def work(i):\n"
            "    barrier.wait()\n"
            "    if i % 2:\n"
            "        results.append(elliptic.complete_K(0.5) == 1.8540746773013719)\n"
            "    else:\n"
            "        c = curves.circle(2, 1.0, 16)\n"
            "        results.append(flow._resample_uniform(c, 16).n_points == 16)\n"
            "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "print(sum(t.is_alive() for t in threads), results.count(True))\n")
    res = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert res.stdout == "0 8\n"


def _imported_names(node):
    """The dotted names an import statement node imports, else []."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _is_under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_src_imports_no_scipy_optimize_integrate_or_interpolate():
    """[TRIVIAL] no module of the package imports scipy.optimize,
    scipy.integrate or scipy.interpolate, at the top or inside a function:
    they cost cold start, and the oracles that use them live in the tests.
    No module imports any scipy module at its top level either: scipy loads
    on first use (`_lazy.on_first_use`), so importing the package loads
    numpy only.  Imports inside functions stay allowed."""
    banned = {"scipy.optimize", "scipy.integrate", "scipy.interpolate"}
    found = []
    for path in sorted(Path(elastica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_functions = {id(inner) for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for inner in ast.walk(node)}
        for node in ast.walk(tree):
            names = _imported_names(node)
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if any(_is_under(name, b) for b in banned)]
            if id(node) not in in_functions:
                found += [f"{path.name}:{node.lineno}: top-level {name}" for name in names
                          if _is_under(name, "scipy")]
    assert found == []


def test_src_takes_its_shared_checks_from_the_checks_module():
    """[TRIVIAL] each shared parameter check is defined once, in `_checks`: no
    module of the package imports a `_check*` name or `_real_coordinates`
    from another module, or reaches one as a module attribute (as
    `curves._check_int`); and `exact_bounds`, which does exact Fraction
    arithmetic, imports no `curves`."""
    checks = ("_check", "_real_coordinates")
    found = []
    for path in sorted(Path(elastica.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] != "_checks":
                found += [f"{path.name}:{node.lineno}: {a.name} from {node.module}"
                          for a in node.names if a.name.startswith(checks)]
            if isinstance(node, ast.Attribute) and node.attr.startswith(checks):
                found.append(f"{path.name}:{node.lineno}: attribute {node.attr}")
            if path.stem == "exact_bounds" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] + [a.name for a in node.names]
                found += [f"{path.name}:{node.lineno}: imports curves" for name in names
                          if name.split(".")[-1] == "curves"]
    assert found == []


def test_scipy_names_are_the_scipy_objects_after_first_use(subprocess_env):
    """[TRIVIAL] in a fresh interpreter, one `complete_K` call binds all five
    elliptic names to the `scipy.special` ufuncs themselves, and one remesh
    binds the flow's `dgtsv` to LAPACK's: no accessor or import statement
    stands between the hot scalar path and the ufunc."""
    code = ("import sys\n"
            "from elastica import curves, elliptic, flow\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert elliptic.complete_K(0.5) == 1.8540746773013719\n"
            "import scipy.special\n"
            "names = ('ellipe', 'ellipj', 'ellipk', 'elliprd', 'elliprf')\n"
            "print([getattr(elliptic, n) is getattr(scipy.special, n) for n in names])\n"
            "flow._resample_uniform(curves.circle(2, 1.0, 16), 16)\n"
            "import scipy.linalg.lapack\n"
            "print(flow.dgtsv is scipy.linalg.lapack.dgtsv)\n")
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[True, True, True, True, True]\nTrue\n"


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
    (b"2,1\n0,0\n1,\xff\n0,1\n", 3),   # not UTF-8
], ids=["closed-5", "closed-x", "float-dim", "dim-1", "no-closed", "after-blank-lines",
        "ragged-row", "non-numeric-row", "short-row", "not-utf-8"])
def test_malformed_csv_is_rejected(text, line, tmp_path, capsys):
    """[TRIVIAL] a CSV header other than `dim,closed` with closed 0 or 1, or
    a row that is not dim numbers, exits 2 with one stderr line naming the
    file and the line, and prints nothing on stdout."""
    src = tmp_path / "bad.csv"
    src.write_bytes(text if isinstance(text, bytes) else text.encode())
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
    ("energy", {**_GOOD_CURVE, "dim": 7}, "'dim'"),
    ("energy", {**_GOOD_CURVE, "dim": "x"}, "'dim'"),
    ("energy", {**_GOOD_CURVE, "dim": True}, "'dim'"),
    ("energy", {**_GOOD_CURVE, "dim": 2.0}, "'dim'"),
    ("energy", {k: v for k, v in _GOOD_CURVE.items() if k != "dim"}, "'dim'"),
    ("network", {"kind": "theta-network", "curves": [{**_GOOD_CURVE, "dim": 3}] * 3},
     "curves[0]: key 'dim'"),
    pytest.param("energy", b'{"kind": "curve",\n "x": "\xe9"}',
                 "line 2: expected UTF-8 text, got byte 0xe9 at byte offset 25",
                 id="energy-not-utf-8"),
    pytest.param("network", b'{"kind": "\xff"}',
                 "line 1: expected UTF-8 text, got byte 0xff at byte offset 10",
                 id="network-not-utf-8"),
    pytest.param("energy", b'{"kind": "curve",\r\n\r"x": "' + b"a" * 100_000 + b'\xff"}',
                 "line 3: expected UTF-8 text, got byte 0xff at byte offset 100026",
                 id="energy-not-utf-8-past-100-kb"),
])
def test_malformed_json_documents_are_rejected(command, doc, key, tmp_path, capsys):
    """[TRIVIAL] a JSON document of the wrong shape exits 2 with one stderr
    line that names the offending key, and prints no JSON."""
    src = tmp_path / "doc.json"
    src.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    argv = ["energy", "--in", str(src)] if command == "energy" else \
        ["network", "energy", "--in", str(src)]
    assert dispatch(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err


def test_generate_rejects_noise_outside_0_1(tmp_path, capsys, monkeypatch):
    """[TRIVIAL] --noise 1.5 exits 2 with one line and writes nothing: it
    used to write a self-crossing curve with exit 0."""
    monkeypatch.chdir(tmp_path)
    assert dispatch(["generate", "perturbed-circle", "--seed", "0", "--noise", "1.5",
                     "--out", "p.csv"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: noise must be a finite number with 0 <= noise < 1\n"
    assert list(tmp_path.iterdir()) == []


# closed curves that the energy or the flow cannot take, with the one line
# each exits 2 with; each used to print numpy warnings, and the flow at 1e79
# a traceback (OverflowError from h**4)
_UNREADABLE_CURVES = {
    "energy-1e-158": (["energy"], 1e-158, None,
                      "an energy overflows a float (edges too short or lambda too large)"),
    "flow-1e-77": (["flow"], 1e-77, None,
                   "the flow needs a mean edge length between 1e-60 and 1e60"),
    "flow-1e79": (["flow"], 1e79, None,
                  "the flow needs a mean edge length between 1e-60 and 1e60"),
    "flow-cusp": (["flow"], 1.0, [[0, 0], [1, 0], [0, 0], [1, 0]],
                  "a node's two neighbours coincide (a cusp): no flow tangent there"),
    "flow-collinear": (["flow"], 1.0, [[0, 0], [1, 0], [2, 0], [3, 0]],
                       "a node's two neighbours coincide (a cusp): no flow tangent there"),
}


@pytest.mark.parametrize("case", list(_UNREADABLE_CURVES))
def test_curves_outside_the_numeric_range_exit_2_without_warning(case, tmp_path, capsys):
    """[TRIVIAL] a curve too small or too large for the arithmetic, or with a
    cusp, is refused where it enters the energy report or the flow."""
    command, scale, points, message = _UNREADABLE_CURVES[case]
    src = tmp_path / "c.json"
    pts = scale * (curves.circle(2, 1.0, 12).points if points is None else np.array(points))
    src.write_text(json.dumps({"kind": "curve", "dim": 2, "closed": True,
                               "points": pts.tolist()}))
    extra = ["--mode", "fixed-lambda", "--lambda", "1", "--steps", "2",
             "--out", str(tmp_path / "t.csv")] if command == ["flow"] else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch([*command, "--in", str(src), *extra]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


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


@pytest.mark.parametrize("command", ["energy", "network energy"])
@pytest.mark.parametrize("text, message", [
    ('{"kind": "curve",', "line 1: Expecting property name enclosed in double quotes"),
    ('{"kind": "curve",\n "closed": true,\n "points": [[0, 0] [1, 0]]}',
     "line 3: Expecting ',' delimiter"),
    ("", "line 1: Expecting value"),
], ids=["open-object", "missing-comma", "empty"])
def test_json_syntax_error_names_the_file(command, text, message, tmp_path, capsys):
    """[TRIVIAL] a file that is not valid JSON exits 2 with one line naming
    the file and the line; the decoder's message used to stand alone."""
    src = tmp_path / "syn.json"
    src.write_text(text)
    assert dispatch([*command.split(), "--in", str(src)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {src}: {message}\n"


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


@pytest.mark.parametrize("L0", ["1e80", "1e-300", "1e70"])
def test_flow_range_guard_applies_after_the_L0_rescale(L0, tmp_path, capsys, monkeypatch):
    """[TRIVIAL] an --L0 that puts the mean edge of the flowing curve outside
    [1e-60, 1e60] exits 2 with the range guard's line: the guard used to read
    the input curve, so 1e80 and 1e70 ended in "zero curvature" and 1e-300
    in "consecutive points must be distinct"."""
    monkeypatch.chdir(tmp_path)
    dispatch(["generate", "circle", "--n", "24", "--out", "c.csv"])
    capsys.readouterr()
    assert dispatch(["flow", "--in", "c.csv", "--mode", "fixed-length", "--L0", L0,
                     "--out", "t.csv"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: the flow needs a mean edge length between 1e-60 and 1e60\n")
    assert not Path("t.csv").exists()


def test_energy_margin_warning_is_part_of_one_stderr_line(tmp_path, capsys):
    """[TRIVIAL] energy --k reports the margin's coarse-eps warning in its one
    stderr line: in the error line when no k-fold point is found, as a
    "warning: ..." line beside the JSON when one is.  The warning used to
    reach stderr as Python's two-line UserWarning."""
    far = curves.circle(2, 1.0, 12).points.copy()
    far[3] = (1e8, 0.0)
    fine = curves.sample_figure_eight(2, 256).points
    fine = np.insert(fine, 5, fine[5] + 1e-9 * (fine[6] - fine[5]), axis=0)
    for name, pts in (("far", far), ("fine", fine)):
        serialization.curve_to_json(curves.DiscreteCurve(pts, closed=True),
                                    tmp_path / f"{name}.json")
    assert dispatch(["energy", "--in", str(tmp_path / "far.json"), "--k", "2"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: no point of multiplicity >= 2 found at eps=200; eps=200 "
                          "exceeds half the minimum edge length 0.517638;")
    assert dispatch(["energy", "--in", str(tmp_path / "fine.json"), "--k", "2"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["k"] == 2
    assert len(err.splitlines()) == 1 and err.startswith("warning: eps=")


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
        write_manifest(argparse.Namespace(command="generate", radius=float("nan")), out)
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


# ---------------------------------------------------------------- reader fuzz

_FUZZ_COMMANDS = {
    "energy": ["energy", "--in", "{dir}/in.json"],
    "flow": ["flow", "--in", "{dir}/in.json", "--mode", "fixed-length", "--steps", "2",
             "--out", "{dir}/t.csv"],
    "network energy": ["network", "energy", "--in", "{dir}/in.json"],
}

# JSON values, with the numbers and numeric strings a reader must refuse
_NUMBERS = (st.integers() | st.floats()
            | st.sampled_from(["nan", "-inf", "1e400", "-0", " 1", "1_0", "0x1", "1e300"]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)


def _written_documents():
    """A planar closed curve with metadata, a marked propeller in R^3 and a
    wavelike network, each as its writer lays it out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        texts = []
        serialization.curve_to_json(curves.circle(2, 1.0, 12), path, generator="circle",
                                    parameters={"n": 12})
        texts.append(path.read_text())
        serialization.curve_to_json(curves.propeller_curve(16), path)
        texts.append(path.read_text())
        serialization.network_to_json(networks.build_wavelike_network(0.5, 64), path)
        texts.append(path.read_text())
    return texts


_WRITTEN = _written_documents()


@st.composite
def _mutated_documents(draw):
    """A written document with one value, reached by a random walk from the
    root, deleted, replaced by an arbitrary JSON value or, in a list, by a
    copy of another item (a repeated point, a cusp)."""
    doc = json.loads(draw(st.sampled_from(_WRITTEN)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
        node = node[key]
    if parent is None:
        return json.dumps(draw(_JSON_VALUES)).encode()
    how = draw(st.sampled_from(["delete", "replace", "copy"]))
    if how == "delete":
        del parent[key]
    elif how == "copy" and isinstance(parent, list):
        parent[key] = parent[draw(st.integers(0, len(parent) - 1))]
    else:
        parent[key] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


def _scaled(doc, factor: float):
    """doc with every point and junction multiplied by factor."""
    if isinstance(doc, list):
        return [_scaled(v, factor) for v in doc]
    if not isinstance(doc, dict):
        return doc
    out = {}
    for key, value in doc.items():
        if key == "points":
            out[key] = [[repr(float(v) * factor) for v in row] for row in value]
        elif key in ("junction_a", "junction_b"):
            out[key] = [repr(float(v) * factor) for v in value]
        else:
            out[key] = _scaled(value, factor)
    return out


_FUZZ_INPUTS = (_JSON_VALUES.map(lambda v: json.dumps(v).encode())
                | _mutated_documents()
                | st.builds(lambda text, e: json.dumps(_scaled(json.loads(text), 10.0 ** e)).encode(),
                            st.sampled_from(_WRITTEN), st.integers(-330, 308))
                | st.binary(max_size=64)
                | st.tuples(st.sampled_from(_WRITTEN), st.integers(0, 4000))
                .map(lambda t: t[0][:t[1]].encode()))


def _check_fuzz_run(argv, data):
    """Run argv on the input file data: it exits 0 or 2 (the flow also 3,
    its numerical failure) without a warning, with one line on stderr, or on
    0 with JSON (the flow: its one summary line) on stdout and at most one
    line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in.json").write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = dispatch([a.format(dir=tmp) for a in argv])
    assert [str(w.message) for w in caught] == []
    assert code in (EXIT_OK, EXIT_USAGE) or (argv[0] == "flow" and code == EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        return
    assert len(err.getvalue().splitlines()) <= 1
    if argv[0] == "flow":
        assert out.getvalue().startswith("converged=") and len(out.getvalue().splitlines()) == 1
    else:
        json.loads(out.getvalue())


@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)), data=_FUZZ_INPUTS)
def test_reader_fuzz_exits_with_one_line_or_valid_output(command, data):
    """[TRIVIAL] energy, a 2-step flow and network energy, fed arbitrary JSON
    values, mutated, scaled and truncated written documents and raw bytes,
    exit 0 or 2 (the flow also 3, its numerical failure) without a warning:
    with one line on stderr, or on 0 with JSON (the flow: its one summary
    line) on stdout."""
    _check_fuzz_run(_FUZZ_COMMANDS[command], data)


# the numeric options of energy and flow: each command line takes the drawn
# value in place of {v}, as --option=value so that a negative value is read
# as a value
_OPTION_INTS = (st.integers(-3, 6) | st.sampled_from([2**31, 2**63, 10**30])).map(str)
_OPTION_FLOATS = (st.sampled_from([0.0, -0.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, 1e-80,
                                   1e80, -1e80, 5e-324, 1.7976931348623157e308])
                  | st.floats(1e-6, 1e3) | st.floats(-1e3, 0.0)).map(repr)
_FUZZ_OPTIONS = {
    "energy --k": (["energy", "--in", "{dir}/in.json", "--k={v}"], _OPTION_INTS),
    "flow --dt": (["flow", "--in", "{dir}/in.json", "--mode", "fixed-length", "--steps", "2",
                   "--dt={v}", "--out", "{dir}/t.csv"], _OPTION_FLOATS),
    "flow --lambda": (["flow", "--in", "{dir}/in.json", "--mode", "fixed-lambda", "--steps",
                       "2", "--lambda={v}", "--out", "{dir}/t.csv"], _OPTION_FLOATS),
    "flow --L0": (["flow", "--in", "{dir}/in.json", "--mode", "fixed-length", "--steps", "2",
                   "--L0={v}", "--out", "{dir}/t.csv"], _OPTION_FLOATS),
}


def _far_vertex_document() -> bytes:
    """The written 12-gon with one vertex moved out to (1e8, 0)."""
    doc = json.loads(_WRITTEN[0])
    doc["points"][3] = ["1e8", "0"]
    return json.dumps(doc).encode()


@given(case=st.one_of(*[st.tuples(st.just(option), values)
                        for option, (_, values) in sorted(_FUZZ_OPTIONS.items())]),
       document=st.sampled_from(_WRITTEN).map(str.encode) | _FUZZ_INPUTS)
@example(case=("energy --k", "2"), document=_far_vertex_document())
@example(case=("flow --dt", "1.7976931348623157e+308"), document=_WRITTEN[0].encode())
@example(case=("flow --lambda", "1.7976931348623157e+308"), document=_WRITTEN[0].encode())
def test_option_fuzz_exits_with_one_line_or_valid_output(case, document):
    """[TRIVIAL] energy --k and a 2-step flow with --dt, --lambda or --L0,
    fed small and huge, zero and negative numbers and the reader fuzz's
    inputs, keep the reader fuzz's contract; on exit 0 a run may print one
    warning line.  The margin's coarse-eps warning, and numpy's overflow
    warnings at a huge dt or lambda, used to reach stderr."""
    option, value = case
    _check_fuzz_run([a.format(dir="{dir}", v=value) for a in _FUZZ_OPTIONS[option][0]],
                    document)
