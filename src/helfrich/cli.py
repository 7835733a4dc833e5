"""Command-line interface.

Subcommands
-----------
eval      energy report for a mesh (optionally multiphase)
minimize  constrained minimization; writes trajectory CSV and final mesh
verify    inequality suite on a mesh or the shipped corpus; JSON report
overlap   no-overlap scaling check between two phase supports
hessian   9x9 density Hessian, eigenvalues, and convexity verdict

``--config file.json`` supplies a JSON run configuration; each flag given
is written over its config key (``_SCHEMA``). Besides those keys a config
may hold the other ``RunConfig`` fields under ``run``, and the keys
``run.seed`` and ``constraints.tol`` of older configs, which are ignored;
any other key is an error. Per-phase lists may start with a minus sign
(``--gamma -0.3,-1``, ``--gamma -inf``). Exit codes: 0 success, 1 parse/validation error
(argparse's message follows the usage line), 2 infeasible constraints,
3 optimizer failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields

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
        # a token such as "-0.3,-1" or "-inf,1" is a per-phase value list, not an option
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)(,|$))", re.I)

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


_MATERIAL = ("beta", "gamma", "h0", "sigma")


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
            for name, what in zip(_MATERIAL, ("bending rigidity", "Gaussian rigidity",
                                              "spontaneous curvature", "line tension")):
                p.add_argument(f"--{name}", help=f"{what}, comma-separated per phase")
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
    p_min.add_argument("--out-dir", help="directory for trajectory/final mesh")

    p_ver = sub.add_parser("verify", help="inequality verification suite")
    common(p_ver, phases=False, material=False)
    p_ver.add_argument("--corpus", action="store_true", help="run the shipped corpus")
    p_ver.add_argument("--n-fields", type=_nonnegative_int, default=20)
    p_ver.add_argument("--seed", type=_nonnegative_int, default=0)

    p_ovl = sub.add_parser("overlap", help="no-overlap scaling check")
    common(p_ovl, material=False)
    p_ovl.add_argument("--mesh-b", help="second mesh (defaults to phase split of --mesh)")
    p_ovl.add_argument("--phase-a", type=int, help="first phase of --phases (default 1)")
    p_ovl.add_argument("--phase-b", type=int, help="second phase of --phases (default 2)")
    p_ovl.add_argument("--eps0", type=float)
    p_ovl.add_argument("--n-eps", type=int, default=6)

    p_hes = sub.add_parser("hessian", help="density Hessian and convexity verdict")
    p_hes.add_argument("--beta", type=float, required=True)
    p_hes.add_argument("--gamma", type=float, required=True)
    p_hes.add_argument("--out", help="output file (default: stdout)")
    return parser


# Every config key the CLI reads, by the flag written over it (README,
# "Config schema"). A material flag is a per-phase comma list written over
# that key of every params[i]; shorter lists are padded with their last value.
_SCHEMA = {
    "mesh": "mesh",
    "phases": "phase_labels",
    "out_dir": "output_dir",
    **{name: f"params[i].{name}" for name in _MATERIAL},
    "area": "constraints.area",
    "volume": "constraints.volume",
    "phase_areas": "constraints.phase_areas",
    "eps0": "constraints.overlap_eps0",
    **{name: f"run.{name}" for name in (
        "max_iterations", "grad_tol", "constraint_tol", "penalty_init", "penalty_growth"
    )},
}
# accepted from older configs and never read
_IGNORED = ("constraints.tol", "run.seed")


def _resolve(args):
    """The run configuration as {schema key: value}: the --config file, with
    every given flag written over its key. A file key outside the schema raises."""
    loaded = serialize.load_json(args.config) if args.config else {}
    if not isinstance(loaded, dict):
        raise HelfrichError(f"{args.config}: a config file holds one JSON object")
    cfg = {}
    for key, value in loaded.items():
        if key == "params":  # one column per key; an entry without gamma, h0 or sigma has 0
            if not isinstance(value, list):
                raise HelfrichError("config params must be a list of objects")
            for i, entry in enumerate(value):
                if not isinstance(entry, dict):
                    raise HelfrichError(f"config params[{i}] is not an object")
            # in first-seen order, so the first unknown key reported is fixed
            for name in dict.fromkeys([*_MATERIAL, *(name for entry in value for name in entry)]):
                cfg[f"params[i].{name}"] = [e.get(name, None if name == "beta" else 0.0) for e in value]
        elif key in ("constraints", "run"):
            cfg.update({f"{key}.{name}": v for name, v in dict(value).items()})
        else:
            cfg[key] = value
    known = {*_SCHEMA.values(), *_IGNORED, *(f"run.{f.name}" for f in fields(RunConfig))}
    for key in cfg:
        if key not in known:
            raise HelfrichError(f"unknown config key {key}")
    for flag, key in _SCHEMA.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = _float_list(value) if flag in (*_MATERIAL, "phase_areas") else value
    return cfg


def _required(cfg, key):
    if cfg.get(key) is None:
        flag = next(f for f, k in _SCHEMA.items() if k == key)
        raise HelfrichError(f"--{flag.replace('_', '-')} (or config {key}) is required")
    return cfg[key]


def _material_params(cfg):
    columns = [cfg.get(f"params[i].{name}", []) for name in _MATERIAL]
    if not columns[0] or None in columns[0]:
        raise HelfrichError("material parameters missing (use --beta or config params[i].beta)")
    n = max(map(len, columns))
    columns = [col + [col[-1] if col else 0.0] * (n - len(col)) for col in columns]
    return [MaterialParams(*row, phase_id=i + 1) for i, row in enumerate(zip(*columns))]


def _constraint_set(cfg, **optional):
    area, volume = (float(_required(cfg, f"constraints.{key}")) for key in ("area", "volume"))
    return ConstraintSet(area=area, volume=volume, **optional)


def _read_inputs(cfg):
    mesh = read_mesh(_required(cfg, "mesh"))
    if not cfg.get("phase_labels"):
        return mesh, None
    phases = PhaseField(np.loadtxt(cfg["phase_labels"], dtype=np.int64, ndmin=1))
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
    _emit(args, {"beta": args.beta, "gamma": args.gamma, **vars(res), "verdict": verdict})
    lam1 = (6 * args.beta + 5 * args.gamma) / 2
    print(
        f"lambda_1 = {lam1:.17g}, lambda_2..9 = {-args.gamma / 2:.17g} -> {verdict.replace('_', ' ')}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_eval(args):
    cfg = _resolve(args)
    mesh, phases = _read_inputs(cfg)
    params = _material_params(cfg)
    curv = curvature_field(mesh)
    if phases is None and len(params) == 1:
        canham_helfrich(mesh, curv, params[0])  # raises if the tensor and scalar paths disagree
    report = multiphase_energy(mesh, curv, phases, params)
    payload = dict(vars(report))
    if "constraints.area" in cfg or "constraints.volume" in cfg:
        cs = _constraint_set(cfg)
        payload["constraint_residuals"] = constraint_residuals(mesh, phases, cs)
    _emit(args, payload)
    return EXIT_OK


def cmd_minimize(args):
    cfg = _resolve(args)
    mesh, phases = _read_inputs(cfg)
    params = _material_params(cfg)
    cs = _constraint_set(
        cfg,
        phase_areas=cfg.get("constraints.phase_areas"),
        overlap_eps0=float(cfg.get("constraints.overlap_eps0", 0.0)),
    )
    run_cfg = RunConfig(**{key[4:]: value for key, value in cfg.items()
                           if key.startswith("run.") and key not in _IGNORED})
    state = minimize(mesh, phases, params, cs, run_cfg)
    out_dir = cfg.get("output_dir")
    payload = {
        "termination": state.termination,
        "inner_stops": state.inner_stops,
        "iterations": state.iteration,
        "energy": state.energy,
        "augmented": state.augmented,
        "grad_norm": state.grad_norm,
        "penalty": state.penalty,
        "multipliers": state.multipliers,
        "residuals": state.residuals,
        "energy_report": state.energy_report,
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_mesh(os.path.join(out_dir, "final.off"), state.mesh)
        serialize.dump_csv(TrajectoryPoint, state.trajectory, os.path.join(out_dir, "trajectory.csv"))
        serialize.dump(payload, os.path.join(out_dir, "state.json"))
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args):
    from .diagnostics import standard_report

    if args.corpus:
        if args.mesh or args.config:
            raise HelfrichError("--corpus verifies the shipped corpus; drop --mesh and --config")
        meshes = [(name, mesh) for name, (mesh, _) in standard_corpus().items()]
    else:
        mesh_path = _required(_resolve(args), "mesh")
        meshes = [(mesh_path, read_mesh(mesh_path))]
    reports = [standard_report(m, name, n_fields=args.n_fields, seed=args.seed) for name, m in meshes]
    payload = {"all_pass": all(r.all_pass for r in reports), "reports": [r.to_dict() for r in reports]}
    _emit(args, payload)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFICATION


def cmd_overlap(args):
    cfg = _resolve(args)
    eps0 = float(_required(cfg, "constraints.overlap_eps0"))
    if args.mesh_b:
        given = [f"--{f.replace('_', '-')}" for f in ("phases", "phase_a", "phase_b")
                 if getattr(args, f) is not None]
        if given:  # no phase labels are read, from flags or config
            raise HelfrichError(f"--mesh-b compares whole meshes; {', '.join(given)} do not apply")
        mesh_a = read_mesh(_required(cfg, "mesh"))
        mesh_b = read_mesh(args.mesh_b)
        sup_a = phase_support(mesh_a, PhaseField.uniform(mesh_a), 1)
        sup_b = phase_support(mesh_b, PhaseField.uniform(mesh_b), 1)
    else:
        mesh, phases = _read_inputs(cfg)
        if phases is None:
            raise HelfrichError("overlap needs --phases or --mesh-b")
        phase_a = 1 if args.phase_a is None else args.phase_a
        phase_b = 2 if args.phase_b is None else args.phase_b
        if phase_a == phase_b:
            raise HelfrichError(f"--phase-a and --phase-b both name phase {phase_a}")
        sup_a = phase_support(mesh, phases, phase_a)
        sup_b = phase_support(mesh, phases, phase_b)
    verdict = no_overlap_check(sup_a, sup_b, eps0, n_eps=args.n_eps)
    _emit(args, verdict)
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
