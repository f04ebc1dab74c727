"""Command-line entry point.

Subcommands: constants, generate, energy, flow, network, closure-search,
verify.  Exit codes: 0 success, 1 verification failure, 2 usage error
(including rejected input: every float option must be a finite number, and
the flow rejects a non-positive --L0; and a request, such as a huge --n,
whose arrays do not fit in memory), 3 numerical failure (a flow step that
still raised the energy after 20 halvings of dt).
Every output file gets a manifest JSON written beside it; all numeric
output is deterministic given identical flags (randomized generators take a
mandatory --seed).  Every usage error is one line on stderr: argparse's, or
"error: ..." from `dispatch`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, curves, elliptic, energy, flow, networks
from ._checks import _check_int
from .random_shapes import perturbed_circle, random_drop
from .serialization import (curve_from_csv, curve_from_json, curve_to_csv,
                            curve_to_json, format_float, network_from_json,
                            network_to_json)
from .verification import CRITERION_NAMES, run_all, run_criterion

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def constants_checksum() -> str:
    """Hash of the EllipticConstants bundle rendered at 15 significant digits."""
    c = elliptic.constants()
    text = ",".join(f"{k}={v:.15g}" for k, v in sorted(c.as_dict().items()))
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(args, out) -> None:
    """Write <out>.manifest.json: the command, its options, the output path
    and the versions."""
    params = {k: v for k, v in vars(args).items() if k != "func"}
    command = params.pop("command")
    if "subcommand" in params:
        command = f"{command} {params.pop('subcommand')}"
    doc = {"command": command, "parameters": params, "outputs": [str(out)],
           "versions": {"toolkit": __version__, "constants_checksum": constants_checksum()}}
    Path(f"{out}.manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _load_curve(path) -> curves.DiscreteCurve:
    return curve_from_json(path) if str(path).endswith(".json") else curve_from_csv(path)


def _save_curve(curve, path, generator, parameters) -> None:
    if str(path).endswith(".json"):
        curve_to_json(curve, path, generator=generator, parameters=parameters)
    else:
        curve_to_csv(curve, path)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------- commands


def cmd_constants(args) -> int:
    c = elliptic.constants()
    _print_json({k: float(f"{v:.15g}") for k, v in c.as_dict().items()})
    return EXIT_OK


# each generator kind: the function that builds it and the options it takes,
# in its argument order
GENERATORS = {
    "wavelike": (curves.sample_wavelike, ("m", "s_lo", "s_hi", "n")),
    "figure-eight": (curves.sample_figure_eight, ("halves", "n")),
    "half-leaf": (curves.canonical_half_leaf, ("n",)),
    "propeller": (curves.propeller_curve, ("n",)),
    "circle": (curves.circle, ("dim", "radius", "n", "turns")),
    "perturbed-circle": (perturbed_circle, ("seed", "n", "noise")),
    "drop": (random_drop, ("seed", "n")),
}


def cmd_generate(args) -> int:
    build, names = GENERATORS[args.kind]
    params = {name: getattr(args, name) for name in names}
    if args.kind == "wavelike":
        K = elliptic.complete_K(args.m)
        params["s_lo"] = -K if args.s_lo is None else args.s_lo
        params["s_hi"] = K if args.s_hi is None else args.s_hi
    curve = build(*params.values())
    _save_curve(curve, args.out, args.kind, params)
    write_manifest(args, args.out)
    print(f"wrote {args.out} ({curve.n_points} points, "
          f"{'closed' if curve.closed else 'open'})")
    return EXIT_OK


def cmd_energy(args) -> int:
    curve = _load_curve(args.infile)
    rep = energy.report(curve, lam=args.lam)
    doc = rep.as_dict()
    if args.k is not None:
        # the margin warns when its eps is coarse for the sampling: its first
        # warning goes into the error line, or into one line of its own
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                doc["li_yau_margin"] = energy.li_yau_margin(curve, args.k)
            except ValueError as exc:
                parts = [str(exc)] + [str(w.message) for w in caught[:1]]
                raise ValueError("; ".join(parts)) from None
        for w in caught[:1]:
            print(f"warning: {w.message}", file=sys.stderr)
        doc["k"] = args.k
    _print_json(doc)
    return EXIT_OK


def cmd_flow(args) -> int:
    curve = _load_curve(args.infile)
    if args.mode == "fixed-lambda":
        if args.lam is None:
            raise ValueError("--lambda is required in fixed-lambda mode")
        target = args.lam
    else:
        target = curve.length() if args.L0 is None else args.L0
    config = flow.FlowConfig(dt=args.dt, max_steps=args.steps,
                             tol_velocity=args.tol,
                             embed_check_every=args.check_every)
    rows = []

    def observer(time, en, length, roundness, embedded):
        rows.append((time, en, length, roundness, int(embedded)))

    rep = flow.run(curve, args.mode, target, config, observer=observer)
    header = "time,energy,length,roundness,embedded"
    body = "\n".join(",".join(format_float(v) if i < 4 else str(v)
                              for i, v in enumerate(row)) for row in rows)
    Path(args.out).write_text(header + "\n" + body + "\n")
    write_manifest(args, args.out)
    print(f"converged={rep.converged} roundness={rep.final_roundness:.3e} "
          f"limit_radius={rep.limit_radius:.6f} embedded={rep.always_embedded}")
    return EXIT_OK


def cmd_network(args) -> int:
    if args.subcommand == "wavelike":
        net = networks.build_wavelike_network(args.m, args.samples)
        network_to_json(net, args.out, generator="wavelike",
                        parameters={"m": args.m, "samples": args.samples})
        write_manifest(args, args.out)
        print(f"wrote {args.out} (E = {networks.theta_energy(net):.6f})")
        return EXIT_OK
    if args.subcommand == "energy":
        net = network_from_json(args.infile)
        _print_json({
            "theta_energy": networks.theta_energy(net),
            "angle_spec": list(net.angle_spec),
        })
        return EXIT_OK
    # sweep
    _check_int(args.steps, 1, "steps")
    if args.steps > 10**6:
        raise ValueError("steps > 1000000 exceeds the output budget")
    if args.m_lo >= args.m_hi:
        raise ValueError("need m_lo < m_hi")
    ms = np.linspace(args.m_lo, args.m_hi, args.steps)
    lines = ["m,formula_energy"]
    for m in ms:
        lines.append(f"{format_float(m)},{format_float(networks.network_energy_formula(m))}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    write_manifest(args, args.out)
    print(f"wrote {args.out} ({args.steps} rows)")
    return EXIT_OK


def cmd_closure_search(args) -> int:
    found = curves.search_planar_closure(args.k, args.eps)
    if found:
        print(f"{len(found)} closures found for k={args.k} at eps={args.eps}:")
        for signs in found:
            print("  " + "".join("+" if s > 0 else "-" for s in signs))
    else:
        print(f"no closures found for k={args.k} at eps={args.eps}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all() if args.target == "all" else [run_criterion(args.target)]
    for r in results:
        print(r.line)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------- parser


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage synopsis
    (`-h` prints that); subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="elastica", description="elastica numerical toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="print the universal constants as JSON")
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("generate", help="sample a curve and write it to a file")
    sp.add_argument("kind", choices=list(GENERATORS))
    sp.add_argument("--m", type=_finite_float, default=0.5, help="elliptic parameter")
    sp.add_argument("--s-lo", type=_finite_float, default=None)
    sp.add_argument("--s-hi", type=_finite_float, default=None)
    sp.add_argument("--halves", type=int, default=2,
                    help="N for the N/2-fold figure-eight")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--radius", type=_finite_float, default=1.0)
    sp.add_argument("--turns", type=int, default=1)
    sp.add_argument("--noise", type=_finite_float, default=0.05)
    sp.add_argument("--seed", type=int, default=None,
                    help="required for randomized kinds")
    sp.add_argument("--n", type=int, default=512, help="sample count")
    sp.add_argument("--out", required=True, help="output path (.csv or .json)")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("energy", help="print an energy report for a curve file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    sp.add_argument("--k", type=int, default=None,
                    help="also report the multiplicity-k margin")
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("flow", help="run the elastic flow and write a trace CSV")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mode", choices=["fixed-lambda", "fixed-length"],
                    required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    sp.add_argument("--L0", type=_finite_float, default=None)
    sp.add_argument("--steps", type=int, default=flow.FlowConfig.max_steps)
    sp.add_argument("--dt", type=_finite_float, default=flow.FlowConfig.dt)
    sp.add_argument("--tol", type=_finite_float, default=flow.FlowConfig.tol_velocity)
    sp.add_argument("--check-every", type=int, default=flow.FlowConfig.embed_check_every)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("network", help="Theta-network construction and sweeps")
    nsub = sp.add_subparsers(dest="subcommand", required=True)
    w = nsub.add_parser("wavelike")
    w.add_argument("--m", type=_finite_float, required=True)
    w.add_argument("--samples", type=int, default=512)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_network)
    e = nsub.add_parser("energy")
    e.add_argument("--in", dest="infile", required=True)
    e.set_defaults(func=cmd_network)
    s = nsub.add_parser("sweep")
    s.add_argument("--m-lo", type=_finite_float, required=True)
    s.add_argument("--m-hi", type=_finite_float, required=True)
    s.add_argument("--steps", type=int, default=100)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_network)

    sp = sub.add_parser("closure-search",
                        help="exhaustive planar sign-sequence closure search")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=_finite_float, default=1e-6)
    sp.set_defaults(func=cmd_closure_search)

    sp = sub.add_parser("verify", help="run verification criteria")
    sp.add_argument("target", choices=["all", *CRITERION_NAMES])
    sp.set_defaults(func=cmd_verify)

    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, flow.FlowStepError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, flow.FlowStepError) else EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
