"""Command-line interface.

Subcommands
-----------
eval      energy report for a mesh (optionally multiphase)
minimize  constrained minimization; writes trajectory CSV and final mesh
verify    inequality suite on a mesh or the shipped corpus; JSON report
overlap   no-overlap scaling check between two phase supports
hessian   9x9 density Hessian, eigenvalues, and convexity verdict

``--config file.json`` supplies a JSON run configuration; individual flags
override config fields. The keys ``run.seed`` and ``constraints.tol`` of
older configs are accepted and ignored. Per-phase lists may start with a
minus sign (``--gamma -0.3,-1``). Exit codes: 0 success, 1 parse/validation
error (argparse's message follows the usage line), 2 infeasible
constraints, 3 optimizer failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys

import numpy as np

from . import serialize
from .constraints import ConstraintSet, constraint_residuals, no_overlap_check, phase_support
from .curvature import curvature_field
from .density import MaterialParams, convexity_check, hessian
from .energy import PhaseField, canham_helfrich, multiphase_energy
from .errors import Diverged, HelfrichError, Infeasible, QualityCollapse
from .mesh_io import read_mesh, write_mesh
from .optimize import RunConfig, TrajectoryPoint, minimize
from .shapes import standard_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_OPTIMIZER = 3
EXIT_VERIFICATION = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as "-0.3,-1" is a per-phase value list, not an option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand rejects the flags it does not know itself, so the
        # usage line and the error name the subcommand, not the top level
        parsed, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return parsed, extra

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _nonnegative_int(text):
    """argparse type for an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


def build_parser():
    parser = _Parser(prog="helfrich", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads, so a flag it
    # would ignore is an error rather than a silent no-op
    def common(p, phases=True, material=True):
        p.add_argument("--config", help="JSON run configuration; flags override its fields")
        p.add_argument("--mesh", help="input mesh (.off or .obj)")
        if phases:
            p.add_argument("--phases", help="per-face integer phase labels, one per line")
        if material:
            p.add_argument("--beta", help="bending rigidity, comma-separated per phase")
            p.add_argument("--gamma", help="Gaussian rigidity, comma-separated per phase")
            p.add_argument("--h0", help="spontaneous curvature, comma-separated per phase")
            p.add_argument("--sigma", help="line tension, comma-separated per phase")
        p.add_argument("--out", help="output file (default: stdout)")

    p_eval = sub.add_parser("eval", help="energy report for a mesh")
    common(p_eval)
    p_eval.add_argument("--area", type=float, help="target area for residual reporting")
    p_eval.add_argument("--volume", type=float, help="target volume for residual reporting")

    p_min = sub.add_parser("minimize", help="run the constrained optimizer")
    common(p_min)
    p_min.add_argument("--area", type=float)
    p_min.add_argument("--volume", type=float)
    p_min.add_argument("--phase-areas", help="comma-separated per-phase area targets")
    p_min.add_argument("--eps0", type=float, help="no-overlap threshold (0 disables the gate)")
    p_min.add_argument("--max-iterations", type=int)
    p_min.add_argument("--grad-tol", type=float)
    p_min.add_argument("--constraint-tol", type=float)
    p_min.add_argument("--penalty-init", type=float)
    p_min.add_argument("--penalty-growth", type=float)
    p_min.add_argument("--out-dir", default=None, help="directory for trajectory/final mesh")

    p_ver = sub.add_parser("verify", help="inequality verification suite")
    common(p_ver, phases=False, material=False)
    p_ver.add_argument("--corpus", action="store_true", help="run the shipped corpus")
    p_ver.add_argument("--n-fields", type=_nonnegative_int, default=20)
    p_ver.add_argument("--seed", type=_nonnegative_int, default=0)

    p_ovl = sub.add_parser("overlap", help="no-overlap scaling check")
    common(p_ovl, material=False)
    p_ovl.add_argument("--mesh-b", help="second mesh (defaults to phase split of --mesh)")
    p_ovl.add_argument("--phase-a", type=int, default=1)
    p_ovl.add_argument("--phase-b", type=int, default=2)
    p_ovl.add_argument("--eps0", type=float, required=False)
    p_ovl.add_argument("--n-eps", type=int, default=6)

    p_hes = sub.add_parser("hessian", help="density Hessian and convexity verdict")
    p_hes.add_argument("--beta", type=float, required=True)
    p_hes.add_argument("--gamma", type=float, required=True)
    p_hes.add_argument("--out", help="output file (default: stdout)")
    return parser


def _load_config(args):
    cfg = {}
    if getattr(args, "config", None):
        cfg = serialize.load_json(args.config)
    return cfg


def _option(args, cfg, name, default=None):
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(name, default)


def _material_params(args, cfg):
    entries = cfg.get("params", [])
    beta = _float_list(args.beta) if getattr(args, "beta", None) else [e["beta"] for e in entries]
    gamma = _float_list(args.gamma) if getattr(args, "gamma", None) else [
        e.get("gamma", 0.0) for e in entries
    ]
    h0 = _float_list(args.h0) if getattr(args, "h0", None) else [e.get("h0", 0.0) for e in entries]
    sigma = _float_list(args.sigma) if getattr(args, "sigma", None) else [
        e.get("sigma", 0.0) for e in entries
    ]
    if not beta:
        raise HelfrichError("material parameters missing (use --beta or config params)")
    n = max(len(beta), len(gamma), len(h0), len(sigma))

    def pad(xs, fill=0.0):
        xs = list(xs) + [xs[-1] if xs else fill] * (n - len(xs))
        return xs

    beta, gamma, h0, sigma = pad(beta), pad(gamma), pad(h0), pad(sigma)
    return [
        MaterialParams(beta[i], gamma[i], h0[i], sigma[i], phase_id=i + 1) for i in range(n)
    ]


def _mesh_path(args, cfg):
    mesh_path = _option(args, cfg, "mesh")
    if not mesh_path:
        raise HelfrichError("--mesh (or config mesh) is required")
    return mesh_path


def _read_inputs(args, cfg):
    mesh = read_mesh(_mesh_path(args, cfg))
    phases = None
    labels_path = _option(args, cfg, "phases") or cfg.get("phase_labels")
    if labels_path:
        labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
        phases = PhaseField(labels)
        phases.check(mesh)
    return mesh, phases


def _emit(args, payload):
    text = serialize.dumps(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_hessian(args):
    params = MaterialParams(args.beta, args.gamma)
    res = hessian(params)
    verdict = convexity_check(params)
    payload = {
        "beta": args.beta,
        "gamma": args.gamma,
        "matrix": [list(row) for row in res.matrix],
        "eigenvalues_closed_form": list(res.eigenvalues_closed_form),
        "eigenvalues_numeric": list(res.eigenvalues_numeric),
        "verdict": verdict,
    }
    _emit(args, payload)
    lam1 = (6 * args.beta + 5 * args.gamma) / 2
    print(
        f"lambda_1 = {lam1:.17g}, lambda_2..9 = {-args.gamma / 2:.17g} -> {verdict.replace('_', ' ')}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_eval(args):
    cfg = _load_config(args)
    mesh, phases = _read_inputs(args, cfg)
    params = _material_params(args, cfg)
    curv = curvature_field(mesh)
    if phases is None and len(params) == 1:
        canham_helfrich(mesh, curv, params[0])  # raises if the tensor and scalar paths disagree
    report = multiphase_energy(mesh, curv, phases, params)
    payload = report.to_dict()
    area = _option(args, cfg, "area")
    volume = _option(args, cfg, "volume")
    if area and volume:
        cs = ConstraintSet(area=float(area), volume=float(volume))
        payload["constraint_residuals"] = constraint_residuals(mesh, phases, cs).to_dict()
    _emit(args, payload)
    return EXIT_OK


def _run_config(args, cfg):
    run = dict(cfg.get("run", {}))
    run.pop("seed", None)  # older configs carry it; minimize draws no random numbers
    for flag, key in (
        ("max_iterations", "max_iterations"),
        ("grad_tol", "grad_tol"),
        ("constraint_tol", "constraint_tol"),
        ("penalty_init", "penalty_init"),
        ("penalty_growth", "penalty_growth"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            run[key] = val
    return RunConfig(**run)


def cmd_minimize(args):
    cfg = _load_config(args)
    mesh, phases = _read_inputs(args, cfg)
    params = _material_params(args, cfg)
    con = dict(cfg.get("constraints", {}))
    for flag, key in (("area", "area"), ("volume", "volume"), ("eps0", "overlap_eps0")):
        val = getattr(args, flag, None)
        if val is not None:
            con[key] = val
    if getattr(args, "phase_areas", None):
        con["phase_areas"] = _float_list(args.phase_areas)
    if "area" not in con or "volume" not in con:
        raise HelfrichError("minimize needs --area and --volume (or config constraints)")
    cs = ConstraintSet(
        area=float(con["area"]),
        volume=float(con["volume"]),
        phase_areas=con.get("phase_areas"),
        overlap_eps0=float(con.get("overlap_eps0", 0.0)),
    )
    run_cfg = _run_config(args, cfg)
    state = minimize(mesh, phases, params, cs, run_cfg)
    out_dir = getattr(args, "out_dir", None) or cfg.get("output_dir")
    payload = {
        "termination": state.termination,
        "inner_stops": state.inner_stops,
        "iterations": state.iteration,
        "energy": state.energy,
        "augmented": state.augmented,
        "grad_norm": state.grad_norm,
        "penalty": state.penalty,
        "multipliers": state.multipliers,
        "residuals": state.residuals.to_dict(),
        "energy_report": state.energy_report.to_dict(),
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_mesh(os.path.join(out_dir, "final.off"), state.mesh)
        with open(os.path.join(out_dir, "trajectory.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TrajectoryPoint.FIELDS)
            for point in state.trajectory:
                writer.writerow(
                    [x if isinstance(x, int) else f"{x:.17g}" for x in point.row()]
                )
        serialize.dump(payload, os.path.join(out_dir, "state.json"))
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args):
    from .diagnostics import standard_report

    cfg = _load_config(args)
    reports = []
    if args.corpus:
        for name, (mesh, labels) in standard_corpus().items():
            reports.append(standard_report(mesh, name, n_fields=args.n_fields, seed=args.seed))
    else:
        mesh_path = _mesh_path(args, cfg)
        reports.append(
            standard_report(read_mesh(mesh_path), mesh_path, n_fields=args.n_fields, seed=args.seed)
        )
    payload = {"all_pass": all(r.all_pass for r in reports), "reports": [r.to_dict() for r in reports]}
    _emit(args, payload)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFICATION


def cmd_overlap(args):
    cfg = _load_config(args)
    eps0 = _option(args, cfg, "eps0")
    if eps0 is None:
        raise HelfrichError("--eps0 is required")
    if getattr(args, "mesh_b", None):
        mesh_a, _ = _read_inputs(args, cfg)
        mesh_b = read_mesh(args.mesh_b)
        sup_a = phase_support(mesh_a, PhaseField.uniform(mesh_a), 1)
        sup_b = phase_support(mesh_b, PhaseField.uniform(mesh_b), 1)
    else:
        mesh, phases = _read_inputs(args, cfg)
        if phases is None:
            raise HelfrichError("overlap needs --phases or --mesh-b")
        sup_a = phase_support(mesh, phases, args.phase_a)
        sup_b = phase_support(mesh, phases, args.phase_b)
    verdict = no_overlap_check(sup_a, sup_b, float(eps0), n_eps=args.n_eps)
    _emit(args, verdict.to_dict())
    return EXIT_OK if verdict.passed else EXIT_VERIFICATION


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": cmd_eval,
        "minimize": cmd_minimize,
        "verify": cmd_verify,
        "overlap": cmd_overlap,
        "hessian": cmd_hessian,
    }
    try:
        return handlers[args.command](args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (QualityCollapse, Diverged) as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (HelfrichError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
