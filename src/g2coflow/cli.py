"""Command-line entry point: verify | torsion | flow | soliton | residual.

Configuration flows through two operations: `parse_config` resolves raw
JSON or flags into a RunConfig with every default filled (rejecting unknown
keys with their path), and `run` dispatches it, writing artifacts and a
manifest that echoes the fully resolved configuration plus versions, wall
time, and status. Re-running from a manifest's config reproduces the run;
CSV output uses 17 significant digits, so identical config and seed give
byte-identical artifacts.

Exit codes: 0 success, 1 tolerance failure or search miss, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import coflow as cfl
from . import profiles as pf
from . import soliton as so
from . import torsion as ts
from . import verify as vf
from .errors import ConfigError, G2CoflowError
from .forms import G2Profile, StructureKind


# ---------------------------------------------------------------------------
# expression mini-grammar: r, sin, cos, exp, atan, pow, literals, + - * / ()
# ---------------------------------------------------------------------------

_FUNCS = {"sin": pf.sin, "cos": pf.cos, "exp": pf.exp, "atan": pf.arctan}


def parse_expression(text, domain=None):
    """Closed-form Profile from an expression string."""
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc.msg}") from None

    def build(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return pf.constant(float(node.value), domain)
        if isinstance(node, ast.Name):
            if node.id == "r":
                return pf.coordinate(domain)
            raise ConfigError(f"unknown identifier {node.id!r} in {text!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return pf.mul(pf.constant(-1.0), build(node.operand))
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: pf.add, ast.Sub: pf.sub, ast.Mult: pf.mul, ast.Div: pf.div}
            for kind, op in ops.items():
                if isinstance(node.op, kind):
                    return op(build(node.left), build(node.right))
            raise ConfigError(f"unsupported operator in {text!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "pow":
                if (len(node.args) != 2
                        or not isinstance(node.args[1], ast.Constant)
                        or not isinstance(node.args[1].value, int)):
                    raise ConfigError(f"pow needs (expr, integer) in {text!r}")
                return pf.pow_int(build(node.args[0]), node.args[1].value)
            if name in _FUNCS and len(node.args) == 1:
                return _FUNCS[name](build(node.args[0]))
            raise ConfigError(f"unknown function {name!r} in {text!r}")
        raise ConfigError(f"unsupported syntax in expression {text!r}")

    return build(tree)


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

STENCIL_ORDER = 4   # finite-difference order for sampled data and the flow


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation.

    `resolved` is the JSON-serializable echo (defaults filled) written to
    the manifest; `objects` holds the constructed domain/profile values.
    """

    subcommand: str
    resolved: dict
    objects: dict = field(default_factory=dict)
    outdir: str = "out"


def _require_keys(obj, allowed, required, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown configuration key", key=f"{path}{key}")
    for key in required:
        if key not in obj:
            raise ConfigError("missing configuration key", key=f"{path}{key}")


def _parse_domain(obj, path="domain."):
    _require_keys(obj, {"kind", "r0", "r1", "period", "n"}, {"kind"}, path)
    kind = obj["kind"]
    if kind == "circle":
        if "period" not in obj:
            raise ConfigError("circle domain needs a period", key=path + "period")
        return pf.Circle(float(obj["period"]), float(obj.get("r0", 0.0)))
    if kind == "interval":
        for k in ("r0", "r1"):
            if k not in obj:
                raise ConfigError("interval domain needs r0 and r1", key=path + k)
        return pf.Interval(float(obj["r0"]), float(obj["r1"]))
    raise ConfigError(f"unknown domain kind {kind!r}", key=path + "kind")


def _parse_structure(name, path="structure"):
    try:
        return StructureKind(name)
    except ValueError:
        raise ConfigError(f"structure must be CY or NK, got {name!r}",
                          key=path) from None


def _parse_field(entry, domain, n, key):
    if isinstance(entry, str):
        return parse_expression(entry, domain)
    if isinstance(entry, dict) and set(entry) == {"file"}:
        vals = _load_sample_file(entry["file"], n, key)
        return pf.Sampled(domain, vals, order=STENCIL_ORDER)
    raise ConfigError("field must be an expression string or {\"file\": path}",
                      key=key)


def _load_sample_file(path, n, key):
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read sample file: {exc}", key=key) from None
    vals = rows[:, -1]
    if n is not None and len(vals) != n:
        raise ConfigError(f"sample file has {len(vals)} rows, mesh has {n}",
                          key=key)
    return vals


def load_config_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


_FLOW_KEYS = {"structure", "domain", "initial", "t_end", "output_times", "cfl",
              "stencil_order"}
_SHOOT_KEYS = {"h0", "dh0", "ddh0", "span", "target_dh_end", "lam_range",
               "u_sign0", "rtol", "residual_tol", "grid"}
_TORSION_KEYS = {"structure", "domain", "h", "theta", "G", "samples",
                 "stencil_order"}
_RESIDUAL_KEYS = {"structure", "domain", "h", "theta", "kprime", "lambda",
                  "samples", "tolerance"}


def parse_config(subcommand, raw, outdir="out"):
    """Resolve a raw config dict for the given subcommand.

    Fills documented defaults, constructs domains and profiles, and rejects
    unknown keys with their path. Returns a RunConfig.
    """
    if subcommand == "flow":
        _require_keys(raw, _FLOW_KEYS,
                      {"structure", "domain", "initial", "t_end"}, "")
        t_end = float(raw["t_end"])
        if t_end <= 0:
            raise ConfigError("t_end must be positive", key="t_end")
        cfl_const = float(raw.get("cfl", 0.2))
        if cfl_const <= 0:
            raise ConfigError("cfl must be positive", key="cfl")
        if int(raw.get("stencil_order", STENCIL_ORDER)) != STENCIL_ORDER:
            raise ConfigError(f"only stencil order {STENCIL_ORDER} is "
                              "implemented", key="stencil_order")
        domain = _parse_domain(raw["domain"])
        if "n" not in raw["domain"]:
            raise ConfigError("flow domain needs a node count n", key="domain.n")
        n = int(raw["domain"]["n"])
        structure = _parse_structure(raw["structure"])
        _require_keys(raw["initial"], {"h", "theta", "G"},
                      {"h", "theta", "G"}, "initial.")
        initial = {name: _parse_field(raw["initial"][name], domain, n,
                                      f"initial.{name}")
                   for name in ("h", "theta", "G")}
        resolved = {
            "structure": structure.value,
            "domain": raw["domain"],
            "initial": raw["initial"],
            "t_end": t_end,
            "output_times": [float(t) for t in raw.get("output_times", [])],
            "cfl": cfl_const,
            "stencil_order": STENCIL_ORDER,
        }
        objects = {"domain": domain, "structure": structure,
                   "initial": initial, "n": n}
        return RunConfig("flow", resolved, objects, outdir)

    if subcommand == "torsion":
        _require_keys(raw, _TORSION_KEYS,
                      {"structure", "domain", "h", "theta", "G"}, "")
        domain = _parse_domain(raw["domain"])
        structure = _parse_structure(raw["structure"])
        n = raw["domain"].get("n")
        fields = {name: _parse_field(raw[name], domain, n, name)
                  for name in ("h", "theta", "G")}
        samples = int(raw.get("samples", 200))
        resolved = dict(raw, samples=samples, stencil_order=STENCIL_ORDER)
        g = G2Profile(h=fields["h"], theta=fields["theta"], G=fields["G"],
                      structure=structure, domain=domain)
        return RunConfig("torsion", resolved, {"g": g, "samples": samples},
                         outdir)

    if subcommand == "shoot":
        _require_keys(raw, _SHOOT_KEYS,
                      {"h0", "dh0", "ddh0", "span", "target_dh_end",
                       "lam_range"}, "")
        resolved = {
            "h0": float(raw["h0"]), "dh0": float(raw["dh0"]),
            "ddh0": float(raw["ddh0"]),
            "span": [float(x) for x in raw["span"]],
            "target_dh_end": float(raw["target_dh_end"]),
            "lam_range": [float(x) for x in raw["lam_range"]],
            "u_sign0": float(raw.get("u_sign0", 1.0)),
            "rtol": float(raw.get("rtol", 1e-10)),
            "residual_tol": float(raw.get("residual_tol", 1e-6)),
            "grid": int(raw.get("grid", 13)),
        }
        return RunConfig("shoot", resolved, {}, outdir)

    if subcommand == "residual":
        _require_keys(raw, _RESIDUAL_KEYS,
                      {"structure", "domain", "h", "theta", "kprime",
                       "lambda"}, "")
        domain = _parse_domain(raw["domain"])
        structure = _parse_structure(raw["structure"])
        cand = so.SolitonCandidate(
            h=parse_expression(raw["h"], domain),
            theta=parse_expression(raw["theta"], domain),
            kprime=parse_expression(raw["kprime"], domain),
            lam=float(raw["lambda"]), structure=structure,
            family=so.Family.CUSTOM, domain=domain,
        )
        resolved = dict(raw, samples=int(raw.get("samples", 200)),
                        tolerance=float(raw.get("tolerance", 1e-8)))
        return RunConfig("residual", resolved, {"candidate": cand}, outdir)

    raise ConfigError(f"unknown subcommand {subcommand!r}")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.17g}"


def write_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([_fmt(x) for x in row])


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Manifest:
    def __init__(self, outdir, config):
        self.outdir = outdir
        self.config = config
        self.t0 = time.monotonic()
        os.makedirs(outdir, exist_ok=True)

    def finish(self, status):
        write_json(os.path.join(self.outdir, "manifest.json"), {
            "config": self.config,
            "versions": {
                "g2coflow": __version__,
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "python": sys.version.split()[0],
            },
            "wall_time": time.monotonic() - self.t0,
            "status": status,
        })


# ---------------------------------------------------------------------------
# run dispatch
# ---------------------------------------------------------------------------

def run(config):
    """Execute a resolved RunConfig; writes artifacts, returns exit code."""
    handlers = {"flow": _run_flow, "torsion": _run_torsion,
                "shoot": _run_shoot, "residual": _run_residual}
    return handlers[config.subcommand](config)


def _run_flow(config):
    manifest = Manifest(config.outdir, config.resolved)
    domain, n = config.objects["domain"], config.objects["n"]
    mesh = cfl.Mesh.from_domain(domain, n)
    nodes = mesh.nodes
    init = config.objects["initial"]
    state = cfl.FlowState(
        mesh=mesh,
        h=np.real(np.asarray(init["h"].value(nodes))),
        theta=np.real(np.asarray(init["theta"].value(nodes))),
        G=np.real(np.asarray(init["G"].value(nodes))),
        t=0.0, structure=config.objects["structure"],
    )
    rundata = cfl.run_flow(state, config.resolved["t_end"],
                           config.resolved["output_times"],
                           config.resolved["cfl"])
    for i, snap in enumerate(rundata.snapshots):
        write_csv(os.path.join(config.outdir, f"snapshot_{i:03d}.csv"),
                  ["r", "h", "theta", "G", "constraint_residual", "tau0"],
                  [nodes, snap.h, snap.theta, snap.G,
                   snap.constraint_residual(), snap.tau0()])
    write_json(os.path.join(config.outdir, "diagnostics.json"), {
        "columns": ["t", "dt", "sup_constraint", "sup_tau0", "min_h", "min_G"],
        "rows": [list(map(float, row)) for row in rundata.diagnostics],
        "status": rundata.status,
        "snapshot_times": [snap.t for snap in rundata.snapshots],
    })
    manifest.finish(rundata.status)
    print(f"flow {rundata.status} after {len(rundata.diagnostics)} steps; "
          f"{len(rundata.snapshots)} snapshots in {config.outdir}")
    return 0 if rundata.status == "Completed" else 1


def _run_torsion(config, csv_out=False):
    manifest = Manifest(config.outdir, config.resolved)
    g = config.objects["g"]
    samples = config.objects["samples"]
    rep = ts.torsion_report(g, samples=samples)
    rs = g.sample_points(samples, interior=True)
    payload = {
        "tau0_sup": float(np.max(np.abs(np.asarray(rep.tau0.value(rs))))),
        "tau1_sup": float(np.max(np.abs(np.asarray(rep.tau1_coeff.value(rs))))),
        "tau2_norm": rep.tau2_norm,
        "tau3_sup": rep.tau3.sup_norm(rs),
        "coclosed_residual": rep.coclosed_residual,
        "samples": rep.samples,
    }
    write_json(os.path.join(config.outdir, "torsion.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if csv_out:
        write_csv(os.path.join(config.outdir, "torsion.csv"),
                  ["r", "tau0", "tau1_coeff"],
                  [rs, np.real(np.asarray(rep.tau0.value(rs))),
                   np.real(np.asarray(rep.tau1_coeff.value(rs)))])
    manifest.finish("Completed")
    return 0


def _run_shoot(config):
    manifest = Manifest(config.outdir, config.resolved)
    c = config.resolved
    rep = so.shoot(c["h0"], c["dh0"], c["ddh0"], tuple(c["span"]),
                   c["target_dh_end"], tuple(c["lam_range"]),
                   u_sign0=c["u_sign0"], rtol=c["rtol"], grid=c["grid"],
                   residual_tol=c["residual_tol"])
    payload = {
        "found": rep.found,
        "lambda": rep.lam,
        "reason": rep.reason,
        "closing_values": [[float(a), float(b)] for a, b in rep.closing_values],
    }
    write_json(os.path.join(config.outdir, "shoot.json"), payload)
    if rep.candidate is not None:
        _write_candidate(config.outdir, rep.candidate)
    print(json.dumps({k: payload[k] for k in ("found", "lambda", "reason")},
                     indent=2))
    manifest.finish("Completed" if rep.found else "NotFound")
    return 0 if rep.found else 1


def _run_residual(config):
    manifest = Manifest(config.outdir, config.resolved)
    cand = config.objects["candidate"]
    payload, ok = _residual_payload(cand, config.resolved["samples"],
                                    config.resolved["tolerance"])
    write_json(os.path.join(config.outdir, "residuals.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    manifest.finish("Completed" if ok else "ToleranceFailure")
    return 0 if ok else 1


def _write_candidate(outdir, cand, samples=200):
    rs = cand.sample_points(samples)
    write_csv(os.path.join(outdir, "candidate.csv"),
              ["r", "h", "theta", "kprime"],
              [rs,
               np.real(np.asarray(cand.h.value(rs))),
               np.real(np.asarray(cand.theta.value(rs))),
               np.real(np.asarray(cand.kprime.value(rs)))])


def _residual_payload(cand, samples, tolerance):
    coord = so.coordinate_residuals(cand, samples=samples, tolerance=tolerance)
    form = so.form_residual(cand, samples=samples, tolerance=tolerance)
    return {
        "family": cand.family.value,
        "lambda": cand.lam,
        "kind": cand.kind,
        "coordinate": coord.to_json(),
        "form": form.to_json(),
    }, coord.passed and form.passed


# ---------------------------------------------------------------------------
# subcommand glue
# ---------------------------------------------------------------------------

def cmd_verify(args):
    if args.suite != "identities":
        raise ConfigError(f"unknown suite {args.suite!r}", key="suite")
    config = {"suite": args.suite, "seed": args.seed,
              "profiles": args.profiles, "points": args.points}
    manifest = Manifest(args.out, config)
    report = vf.run_identity_suite(seed=args.seed, n_profiles=args.profiles,
                                   n_points=args.points)
    write_json(os.path.join(args.out, "identities.json"), report)
    ok = all(entry["passed"] for entry in report)
    for entry in report:
        flag = "pass" if entry["passed"] else "FAIL"
        print(f"[{flag}] {entry['name']}: max residual "
              f"{entry['max_residual']:.3e} (tol {entry['tolerance']:.0e})")
    manifest.finish("Completed" if ok else "ToleranceFailure")
    return 0 if ok else 1


def cmd_torsion(args):
    config = parse_config("torsion", load_config_file(args.config), args.out)
    return _run_torsion(config, csv_out=args.csv)


def cmd_flow(args):
    config = parse_config("flow", load_config_file(args.config), args.out)
    return run(config)


def cmd_soliton_cy(args):
    config = {"b": args.b, "c": args.c, "r0": args.r0, "r1": args.r1,
              "tolerance": args.tolerance}
    manifest = Manifest(args.out, config)
    cand = so.cy_closed_form(args.b, args.c, pf.Interval(args.r0, args.r1))
    _write_candidate(args.out, cand)
    payload, ok = _residual_payload(cand, 200, args.tolerance)
    write_json(os.path.join(args.out, "residuals.json"), payload)
    print(json.dumps(payload["coordinate"], indent=2, sort_keys=True))
    manifest.finish("Completed" if ok else "ToleranceFailure")
    return 0 if ok else 1


def cmd_soliton_nk(args):
    config = {"family": args.family, "b": args.b, "c": args.c,
              "lambda": args.lam, "tolerance": args.tolerance}
    manifest = Manifest(args.out, config)
    cand = so.nk_special(args.family, b=args.b, c=args.c, lam=args.lam)
    _write_candidate(args.out, cand)
    payload, ok = _residual_payload(cand, 200, args.tolerance)
    write_json(os.path.join(args.out, "residuals.json"), payload)
    print(json.dumps(payload["coordinate"], indent=2, sort_keys=True))
    manifest.finish("Completed" if ok else "ToleranceFailure")
    return 0 if ok else 1


def cmd_soliton_reduce(args):
    config = {"h0": args.h0, "dh0": args.dh0, "ddh0": args.ddh0,
              "lambda": args.lam, "span": args.span, "rtol": args.rtol,
              "u_sign0": args.u_sign0, "tolerance": args.tolerance}
    manifest = Manifest(args.out, config)
    traj = so.integrate_reduced(args.h0, args.dh0, args.ddh0, args.lam,
                                args.span, rtol=args.rtol)
    write_csv(os.path.join(args.out, "trajectory.csv"),
              ["r", "h", "hp", "hpp"], [traj.rs, traj.h, traj.hp, traj.hpp])
    cand = so.candidate_from_trajectory(traj, args.u_sign0)
    _write_candidate(args.out, cand)
    payload, ok = _residual_payload(cand, 200, args.tolerance)
    payload["trajectory_status"] = traj.status
    write_json(os.path.join(args.out, "residuals.json"), payload)
    print(f"reduced trajectory {traj.status} on [{traj.rs[0]:.6g}, "
          f"{traj.rs[-1]:.6g}]; residuals {'pass' if ok else 'FAIL'}")
    manifest.finish("Completed" if ok else "ToleranceFailure")
    return 0 if ok else 1


def cmd_soliton_shoot(args):
    config = parse_config("shoot", load_config_file(args.config), args.out)
    return run(config)


def cmd_residual(args):
    config = parse_config("residual", load_config_file(args.config), args.out)
    return run(config)


def build_parser():
    p = argparse.ArgumentParser(
        prog="g2coflow",
        description="Laplacian coflow of coclosed G2-structures: identities, "
                    "torsion, evolution, and solitons.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a randomized identity suite")
    v.add_argument("--suite", default="identities")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--profiles", type=int, default=20)
    v.add_argument("--points", type=int, default=50)
    v.add_argument("--out", default="out/verify")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("torsion", help="torsion report for configured data")
    t.add_argument("--config", required=True)
    t.add_argument("--csv", action="store_true")
    t.add_argument("--out", default="out/torsion")
    t.set_defaults(func=cmd_torsion)

    f = sub.add_parser("flow", help="run the Laplacian coflow")
    f.add_argument("--config", required=True)
    f.add_argument("--out", default="out/flow")
    f.set_defaults(func=cmd_flow)

    s = sub.add_parser("soliton", help="soliton families and searches")
    ssub = s.add_subparsers(dest="soliton_command", required=True)

    cy = ssub.add_parser("cy", help="Calabi-Yau closed-form soliton")
    cy.add_argument("--b", type=float, required=True)
    cy.add_argument("--c", type=float, required=True)
    cy.add_argument("--r0", type=float, default=-2.0)
    cy.add_argument("--r1", type=float, default=2.0)
    cy.add_argument("--tolerance", type=float, default=1e-8)
    cy.add_argument("--out", default="out/soliton-cy")
    cy.set_defaults(func=cmd_soliton_cy)

    nk = ssub.add_parser("nk", help="nearly Kahler special family")
    nk.add_argument("--family", required=True,
                    choices=[f.value for f in so.Family
                             if f not in (so.Family.CY_CLOSED_FORM,
                                          so.Family.ODE_TRAJECTORY,
                                          so.Family.CUSTOM)])
    nk.add_argument("--b", type=float, default=0.0)
    nk.add_argument("--c", type=float, default=0.0)
    nk.add_argument("--lambda", dest="lam", type=float, default=None)
    nk.add_argument("--tolerance", type=float, default=1e-8)
    nk.add_argument("--out", default="out/soliton-nk")
    nk.set_defaults(func=cmd_soliton_nk)

    rd = ssub.add_parser("reduce", help="integrate the reduced third-order ODE")
    rd.add_argument("--h0", type=float, required=True)
    rd.add_argument("--dh0", type=float, required=True)
    rd.add_argument("--ddh0", type=float, required=True)
    rd.add_argument("--lambda", dest="lam", type=float, required=True)
    rd.add_argument("--span", type=float, nargs=2, required=True)
    rd.add_argument("--rtol", type=float, default=1e-10)
    rd.add_argument("--u-sign0", dest="u_sign0", type=float, default=1.0)
    rd.add_argument("--tolerance", type=float, default=1e-6)
    rd.add_argument("--out", default="out/soliton-reduce")
    rd.set_defaults(func=cmd_soliton_reduce)

    sh = ssub.add_parser("shoot", help="shooting over the soliton constant")
    sh.add_argument("--config", required=True)
    sh.add_argument("--out", default="out/soliton-shoot")
    sh.set_defaults(func=cmd_soliton_shoot)

    rs = sub.add_parser("residual", help="residuals of a custom candidate")
    rs.add_argument("--config", required=True)
    rs.add_argument("--out", default="out/residual")
    rs.set_defaults(func=cmd_residual)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except G2CoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
