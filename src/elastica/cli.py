"""Command-line entry point.

Subcommands: constants, generate, energy, flow, network, closure-search,
verify.  Exit codes: 0 success, 1 verification failure, 2 usage error
(including rejected input), 3 numerical failure (a flow step that still
raised the energy after 20 halvings of dt).
Every output file gets a RunManifest JSON written beside it; all numeric
output is deterministic given identical flags (randomized generators take a
mandatory --seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, curves, elliptic, energy, flow, networks
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


@dataclass
class RunManifest:
    command: str
    parameters: dict
    outputs: list = field(default_factory=list)
    versions: dict = field(default_factory=lambda: {
        "toolkit": __version__,
        "constants_checksum": constants_checksum(),
    })

    def write(self) -> None:
        for out in self.outputs:
            path = Path(out).with_suffix(Path(out).suffix + ".manifest.json")
            path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _manifest(args, outputs) -> None:
    params = {k: v for k, v in vars(args).items()
              if k != "func" and not k.startswith("_")}
    cmd = params.pop("command")
    if "subcommand" in params:
        cmd = f"{cmd} {params.pop('subcommand')}"
    RunManifest(command=cmd, parameters=params,
                outputs=[str(o) for o in outputs]).write()


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


def cmd_generate(args) -> int:
    kind = args.kind
    if kind == "wavelike":
        K = elliptic.complete_K(args.m)
        s_lo = -K if args.s_lo is None else args.s_lo
        s_hi = K if args.s_hi is None else args.s_hi
        curve = curves.sample_wavelike(args.m, s_lo, s_hi, args.n)
        params = {"m": args.m, "s_lo": s_lo, "s_hi": s_hi, "n": args.n}
    elif kind == "figure-eight":
        curve = curves.sample_figure_eight(args.halves, args.n)
        params = {"halves": args.halves, "n": args.n}
    elif kind == "half-leaf":
        curve = curves.canonical_half_leaf(args.n)
        params = {"n": args.n}
    elif kind == "propeller":
        curve = curves.propeller_curve(n_samples_per_leaf=args.n)
        params = {"n": args.n}
    elif kind == "circle":
        curve = curves.circle(args.dim, args.radius, args.n, turns=args.turns)
        params = {"dim": args.dim, "radius": args.radius, "n": args.n,
                  "turns": args.turns}
    elif kind == "perturbed-circle":
        curve = perturbed_circle(args.seed, args.n, args.noise)
        params = {"seed": args.seed, "n": args.n, "noise": args.noise}
    elif kind == "drop":
        curve = random_drop(args.seed, args.n)
        params = {"seed": args.seed, "n": args.n}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind!r}")
    _save_curve(curve, args.out, kind, params)
    _manifest(args, [args.out])
    print(f"wrote {args.out} ({curve.n_points} points, "
          f"{'closed' if curve.closed else 'open'})")
    return EXIT_OK


def cmd_energy(args) -> int:
    curve = _load_curve(args.infile)
    rep = energy.report(curve, lam=args.lam)
    doc = rep.as_dict()
    if args.k is not None:
        doc["li_yau_margin"] = energy.li_yau_margin(curve, args.k)
        doc["k"] = args.k
    _print_json(doc)
    return EXIT_OK


def cmd_flow(args) -> int:
    curve = _load_curve(args.infile)
    if args.mode == "fixed-lambda":
        if args.lam is None:
            print("flow: --lambda is required in fixed-lambda mode", file=sys.stderr)
            return EXIT_USAGE
        target = args.lam
    else:
        target = curve.length() if args.L0 is None else args.L0
    config = flow.FlowConfig(dt=args.dt, max_steps=args.steps,
                             tol_velocity=args.tol,
                             embed_check_every=args.check_every)
    rows = []

    def observer(time, en, length, roundness, embedded):
        rows.append((time, en, length, roundness, int(embedded)))

    try:
        rep = flow.run(curve, args.mode, target, config, observer=observer)
    except flow.FlowStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    header = "time,energy,length,roundness,embedded"
    body = "\n".join(",".join(format_float(v) if i < 4 else str(v)
                              for i, v in enumerate(row)) for row in rows)
    Path(args.out).write_text(header + "\n" + body + "\n")
    _manifest(args, [args.out])
    print(f"converged={rep.converged} roundness={rep.final_roundness:.3e} "
          f"limit_radius={rep.limit_radius:.6f} embedded={rep.always_embedded}")
    return EXIT_OK


def cmd_network(args) -> int:
    if args.subcommand == "wavelike":
        net = networks.build_wavelike_network(args.m, args.samples)
        network_to_json(net, args.out, generator="wavelike",
                        parameters={"m": args.m, "samples": args.samples})
        _manifest(args, [args.out])
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
    ms = np.linspace(args.m_lo, args.m_hi, args.steps)
    lines = ["m,formula_energy"]
    for m in ms:
        lines.append(f"{format_float(m)},{format_float(networks.network_energy_formula(m))}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    _manifest(args, [args.out])
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
    if args.target == "all":
        results = run_all()
    else:
        results = [run_criterion(args.target)]
    for r in results:
        print(r.line)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="elastica",
                                description="elastica numerical toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="print the universal constants as JSON")
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("generate", help="sample a curve and write it to a file")
    sp.add_argument("kind", choices=["wavelike", "figure-eight", "half-leaf",
                                     "propeller", "circle", "perturbed-circle",
                                     "drop"])
    sp.add_argument("--m", type=float, default=0.5, help="elliptic parameter")
    sp.add_argument("--s-lo", type=float, default=None)
    sp.add_argument("--s-hi", type=float, default=None)
    sp.add_argument("--halves", type=int, default=2,
                    help="N for the N/2-fold figure-eight")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--turns", type=int, default=1)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=None,
                    help="required for randomized kinds")
    sp.add_argument("--n", type=int, default=512, help="sample count")
    sp.add_argument("--out", required=True, help="output path (.csv or .json)")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("energy", help="print an energy report for a curve file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=None,
                    help="also report the multiplicity-k margin")
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("flow", help="run the elastic flow and write a trace CSV")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--mode", choices=["fixed-lambda", "fixed-length"],
                    required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--L0", type=float, default=None)
    sp.add_argument("--steps", type=int, default=50_000)
    sp.add_argument("--dt", type=float, default=2e-3)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--check-every", type=int, default=50)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("network", help="Theta-network construction and sweeps")
    nsub = sp.add_subparsers(dest="subcommand", required=True)
    w = nsub.add_parser("wavelike")
    w.add_argument("--m", type=float, required=True)
    w.add_argument("--samples", type=int, default=512)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_network)
    e = nsub.add_parser("energy")
    e.add_argument("--in", dest="infile", required=True)
    e.set_defaults(func=cmd_network)
    s = nsub.add_parser("sweep")
    s.add_argument("--m-lo", type=float, required=True)
    s.add_argument("--m-hi", type=float, required=True)
    s.add_argument("--steps", type=int, default=100)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_network)

    sp = sub.add_parser("closure-search",
                        help="exhaustive planar sign-sequence closure search")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, default=1e-6)
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
    if getattr(args, "kind", None) in ("perturbed-circle", "drop") and args.seed is None:
        print("generate: --seed is required for randomized kinds", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
