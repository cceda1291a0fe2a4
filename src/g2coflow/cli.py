"""Command-line entry point: verify | torsion | flow | soliton | residual.

Every invocation takes one path. `main` builds a raw config dict from the
JSON file given by `--config` (optional on every subcommand), then lays the
flags given on the command line over it: each flag is the config key of the
same name (`--u-sign0` is `u_sign0`) and wins over the file. `parse_config`
resolves that dict into a RunConfig with every default filled, rejecting
unknown keys and bad values with their key path, and `run` dispatches it,
writing artifacts and a manifest that echoes the fully resolved
configuration plus versions, wall time, and status. Re-running with the
manifest's config as `--config` reproduces the run; CSV output uses 17
significant digits, so identical config and seed give byte-identical
artifacts.

Exit codes: 0 success, 1 tolerance failure or search miss, 2 configuration
error (including soliton family parameters outside their valid range).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from . import coflow as cfl
from . import profiles as pf
from . import soliton as so
from . import torsion as ts
from . import verify as vf
from .errors import (
    ConfigError,
    G2CoflowError,
    InvalidGeometry,
    InvalidParams,
    StructureMismatch,
)
from .forms import G2Profile, StructureKind
from .profiles import write_csv


# ---------------------------------------------------------------------------
# expression mini-grammar: r, sin, cos, exp, atan, pow, literals, + - * / ()
# ---------------------------------------------------------------------------

_FUNCS = {"sin": pf.sin, "cos": pf.cos, "exp": pf.exp, "atan": pf.arctan}


def parse_expression(text, domain=None):
    """Closed-form Profile from an expression string."""
    if not isinstance(text, str):
        raise ConfigError(f"expression must be a string, got {text!r}")
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
# configuration keys: one table read by build_parser and parse_config
# ---------------------------------------------------------------------------

STENCIL_ORDER = 4   # finite-difference order for sampled data and the flow
_MIN_NODES = STENCIL_ORDER + pf.JET_ORDER   # the smallest mesh Sampled accepts

_REQUIRED = object()


class Key(NamedTuple):
    """One configuration key of a subcommand.

    `type` converts the value, or each of `nargs` values ("*": any number);
    None marks a structured value (domain, profile expressions) that the
    subcommand parses itself and the manifest echoes as given. `flag` keys
    are also command-line flags, spelled --key with "_" as "-".
    """

    type: object = None
    default: object = _REQUIRED
    nargs: object = None
    choices: tuple = None
    flag: bool = False


def _flag(type, default=_REQUIRED, **kw):
    return Key(type, default, flag=True, **kw)


_NK_FAMILIES = tuple(f.value for f in (so.Family.CONE, so.Family.ANTICONE,
                                       so.Family.CYLINDER, so.Family.SINECONE))
_STENCIL = Key(int, STENCIL_ORDER, choices=(STENCIL_ORDER,))

_KEYS = {
    "verify": {"suite": _flag(str, "identities", choices=("identities",)),
               "seed": _flag(int, 0), "profiles": _flag(int, 20),
               "points": _flag(int, 50)},
    "torsion": {"structure": Key(), "domain": Key(), "h": Key(),
                "theta": Key(), "G": Key(), "samples": Key(int, 200),
                "stencil_order": _STENCIL, "csv": _flag(bool, False)},
    "flow": {"structure": Key(), "domain": Key(), "initial": Key(),
             "t_end": Key(float), "output_times": Key(float, (), nargs="*"),
             "cfl": Key(float, 0.2), "stencil_order": _STENCIL},
    "cy": {"b": _flag(float), "c": _flag(float), "r0": _flag(float, -2.0),
           "r1": _flag(float, 2.0), "tolerance": _flag(float, 1e-8)},
    "nk": {"family": _flag(str, choices=_NK_FAMILIES), "b": _flag(float, 0.0),
           "c": _flag(float, 0.0), "lambda": _flag(float, None),
           "tolerance": _flag(float, 1e-8)},
    "reduce": {"h0": _flag(float), "dh0": _flag(float), "ddh0": _flag(float),
               "lambda": _flag(float), "span": _flag(float, nargs=2),
               "rtol": _flag(float, 1e-10), "u_sign0": _flag(float, 1.0),
               "tolerance": _flag(float, 1e-6)},
    "shoot": {"h0": Key(float), "dh0": Key(float), "ddh0": Key(float),
              "span": Key(float, nargs=2), "target_dh_end": Key(float),
              "lam_range": Key(float, nargs=2), "u_sign0": Key(float, 1.0),
              "rtol": Key(float, 1e-10), "residual_tol": Key(float, 1e-6),
              "grid": Key(int, 13)},
    "residual": {"structure": Key(), "domain": Key(), "h": Key(),
                 "theta": Key(), "kprime": Key(), "lambda": Key(float),
                 "samples": Key(int, 200), "tolerance": Key(float, 1e-8)},
}


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation.

    `resolved` is the JSON-serializable echo (defaults filled) written to
    the manifest; `objects` holds the constructed domains, profiles and
    candidates.
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


def _value(key, spec, value):
    """A key's value converted by its spec; structured values pass as given."""
    if spec.type is None or (value is None and spec.default is None):
        return value
    try:
        if spec.nargs is None:
            if spec.type is bool and not isinstance(value, bool):
                raise TypeError
            out = spec.type(value)
        else:
            out = [spec.type(x) for x in value]
            if spec.nargs != "*" and len(out) != spec.nargs:
                raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value {value!r}", key=key) from None
    if spec.choices is not None and out not in spec.choices:
        raise ConfigError(f"must be one of {list(spec.choices)}", key=key)
    return out


def _parse_domain(obj, path="domain."):
    """`profiles.domain_from_json`, a bad bound a ConfigError at the domain."""
    _require_keys(obj, {"kind", "r0", "r1", "period", "n"}, {"kind"}, path)
    try:
        return pf.domain_from_json(obj)
    except KeyError as exc:
        raise ConfigError(f"{obj['kind']} domain needs {exc.args[0]}",
                          key=path + exc.args[0]) from None
    except InvalidGeometry as exc:
        known = obj["kind"] in ("circle", "interval")
        raise ConfigError(str(exc), key=path[:-1] if known else path + "kind") from None


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
        try:
            return pf.Sampled(domain, vals, order=STENCIL_ORDER)
        except InvalidGeometry as exc:   # too few rows for the stencil
            raise ConfigError(str(exc), key=key) from None
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
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _flow_objects(c):
    domain = _parse_domain(c["domain"])
    if "n" not in c["domain"]:
        raise ConfigError("flow domain needs a node count n", key="domain.n")
    n = _value("domain.n", Key(int), c["domain"]["n"])
    if n < _MIN_NODES:
        raise ConfigError(f"need at least {_MIN_NODES} nodes", key="domain.n")
    _require_keys(c["initial"], {"h", "theta", "G"}, {"h", "theta", "G"},
                  "initial.")
    fields = {name: _parse_field(c["initial"][name], domain, n,
                                 f"initial.{name}")
              for name in ("h", "theta", "G")}
    structure = _parse_structure(c["structure"])
    mesh = pf.Mesh.from_domain(domain, n)
    initial = {name: np.real(np.asarray(p.value(mesh.nodes)))
               for name, p in fields.items()}
    if structure is StructureKind.CY:
        try:
            cfl.require_constant_h(initial["h"])
        except StructureMismatch as exc:
            raise ConfigError(str(exc), key="initial.h") from None
    return {"state": cfl.FlowState(mesh=mesh, **initial, t=0.0,
                                   structure=structure)}


def _torsion_objects(c):
    domain = _parse_domain(c["domain"])
    structure = _parse_structure(c["structure"])
    n = c["domain"].get("n")
    fields = {name: _parse_field(c[name], domain, n, name)
              for name in ("h", "theta", "G")}
    try:
        return {"g": G2Profile(**fields, structure=structure, domain=domain)}
    except InvalidGeometry as exc:   # h or G not positive on the domain
        raise ConfigError(str(exc)) from None


def _residual_objects(c):
    domain = _parse_domain(c["domain"])
    structure = _parse_structure(c["structure"])
    return {"candidate": so.SolitonCandidate(
        h=parse_expression(c["h"], domain),
        theta=parse_expression(c["theta"], domain),
        kprime=parse_expression(c["kprime"], domain),
        lam=c["lambda"], structure=structure, family=so.Family.CUSTOM,
        domain=domain,
    )}


def _cy_objects(c):
    try:
        domain = pf.domain_from_json({"kind": "interval", "r0": c["r0"],
                                      "r1": c["r1"]})
    except InvalidGeometry as exc:
        raise ConfigError(str(exc), key="r1") from None
    return {"candidate": so.cy_closed_form(c["b"], c["c"], domain)}


def _nk_objects(c):
    try:
        cand = so.nk_special(c["family"], b=c["b"], c=c["c"], lam=c["lambda"])
    except InvalidParams as exc:
        raise ConfigError(str(exc), key=exc.param) from None
    return {"candidate": cand}


_OBJECTS = {"flow": _flow_objects, "torsion": _torsion_objects,
            "residual": _residual_objects, "cy": _cy_objects,
            "nk": _nk_objects}


# values a key's type admits but its subcommand cannot run with: key ->
# (test of the resolved value, message)
_POSITIVE = (lambda x: x > 0, "must be positive")
_FINITE = (lambda x: 0 < x < np.inf, "must be positive and finite")
_SPAN = (lambda s: -np.inf < s[0] < s[1] < np.inf, "must be finite and increasing")
_RANGES = {"verify": {"seed": (lambda x: x >= 0, "must not be negative"),
                      "profiles": (lambda x: x >= 2, "must be at least 2"),
                      "points": _POSITIVE},
           "torsion": {"samples": _POSITIVE}, "residual": {"samples": _POSITIVE},
           "flow": {"t_end": _FINITE, "cfl": _FINITE},
           "reduce": {"span": _SPAN}, "shoot": {"span": _SPAN}}


def parse_config(subcommand, raw, outdir="out"):
    """Resolve a raw config dict for the given subcommand.

    Fills documented defaults, converts and checks values, constructs
    domains, profiles and candidates, and rejects unknown keys with their
    path. Returns a RunConfig.
    """
    keys = _KEYS.get(subcommand)
    if keys is None:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    _require_keys(raw, keys,
                  [k for k, spec in keys.items() if spec.default is _REQUIRED], "")
    resolved = {k: _value(k, spec, raw.get(k, spec.default))
                for k, spec in keys.items()}
    for k, (ok, message) in _RANGES.get(subcommand, {}).items():
        if not ok(resolved[k]):
            raise ConfigError(message, key=k)
    build = _OBJECTS.get(subcommand)
    objects = build(resolved) if build else {}
    return RunConfig(subcommand, resolved, objects, outdir)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run dispatch
# ---------------------------------------------------------------------------

def run(config):
    """Execute a resolved RunConfig; returns the exit code.

    The subcommand's handler writes its artifacts and returns the run
    status; the manifest records it, and only "Completed" exits 0.
    """
    handlers = {"verify": _run_verify, "torsion": _run_torsion,
                "flow": _run_flow, "cy": _run_special, "nk": _run_special,
                "reduce": _run_reduce, "shoot": _run_shoot,
                "residual": _run_residual}
    t0 = time.monotonic()
    os.makedirs(config.outdir, exist_ok=True)
    status = handlers[config.subcommand](config)
    write_json(os.path.join(config.outdir, "manifest.json"), {
        "config": config.resolved,
        "versions": {
            "g2coflow": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": sys.version.split()[0],
        },
        "wall_time": time.monotonic() - t0,
        "status": status,
    })
    return 0 if status == "Completed" else 1


def _run_verify(config):
    c = config.resolved
    report = vf.run_identity_suite(seed=c["seed"], n_profiles=c["profiles"],
                                   n_points=c["points"])
    write_json(os.path.join(config.outdir, "identities.json"), report)
    ok = all(entry["passed"] for entry in report)
    for entry in report:
        flag = "pass" if entry["passed"] else "FAIL"
        print(f"[{flag}] {entry['name']}: max residual "
              f"{entry['max_residual']:.3e} (tol {entry['tolerance']:.0e})")
    return "Completed" if ok else "ToleranceFailure"


def _run_flow(config):
    state = config.objects["state"]
    nodes = state.mesh.nodes
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
    print(f"flow {rundata.status} after {len(rundata.diagnostics)} steps; "
          f"{len(rundata.snapshots)} snapshots in {config.outdir}")
    return rundata.status


def _run_torsion(config):
    g = config.objects["g"]
    samples = config.resolved["samples"]
    rep = ts.torsion_report(g, samples=samples)
    rs = g.sample_points(samples, interior=True)
    tau0 = np.asarray(rep.tau0.value(rs))
    tau1 = np.asarray(rep.tau1_coeff.value(rs))
    payload = {
        "tau0_sup": float(np.max(np.abs(tau0))),
        "tau1_sup": float(np.max(np.abs(tau1))),
        "tau2_norm": rep.tau2_norm,
        "tau3_sup": rep.tau3.sup_norm(rs),
        "coclosed_residual": rep.coclosed_residual,
        "samples": rep.samples,
    }
    write_json(os.path.join(config.outdir, "torsion.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if config.resolved["csv"]:
        write_csv(os.path.join(config.outdir, "torsion.csv"),
                  ["r", "tau0", "tau1_coeff"],
                  [rs, np.real(tau0), np.real(tau1)])
    return "Completed"


def _run_special(config):
    """`soliton cy` and `soliton nk`: the candidate was built by parse_config."""
    return _finish_soliton(config, config.objects["candidate"])


def _run_reduce(config):
    c = config.resolved
    traj = so.integrate_reduced(c["h0"], c["dh0"], c["ddh0"], c["lambda"],
                                c["span"], rtol=c["rtol"])
    write_csv(os.path.join(config.outdir, "trajectory.csv"),
              ["r", "h", "hp", "hpp"], [traj.rs, traj.h, traj.hp, traj.hpp])
    print(f"reduced trajectory {traj.status} on [{traj.rs[0]:.6g}, "
          f"{traj.rs[-1]:.6g}]")
    cand = so.candidate_from_trajectory(traj, c["u_sign0"])
    return _finish_soliton(config, cand, trajectory_status=traj.status)


def _finish_soliton(config, cand, **extra):
    """Write candidate.csv and residuals.json (plus `extra` payload keys)."""
    _write_candidate(config.outdir, cand)
    payload, ok = _residual_payload(cand, 200, config.resolved["tolerance"])
    payload.update(extra)
    write_json(os.path.join(config.outdir, "residuals.json"), payload)
    print(json.dumps(payload["coordinate"], indent=2, sort_keys=True))
    return "Completed" if ok else "ToleranceFailure"


def _run_shoot(config):
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
    return "Completed" if rep.found else "NotFound"


def _run_residual(config):
    cand = config.objects["candidate"]
    payload, ok = _residual_payload(cand, config.resolved["samples"],
                                    config.resolved["tolerance"])
    write_json(os.path.join(config.outdir, "residuals.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return "Completed" if ok else "ToleranceFailure"


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
# command line
# ---------------------------------------------------------------------------

_HELP = {
    "verify": "run a randomized identity suite",
    "torsion": "torsion report for configured data",
    "flow": "run the Laplacian coflow",
    "cy": "Calabi-Yau closed-form soliton",
    "nk": "nearly Kahler special family",
    "reduce": "integrate the reduced third-order ODE",
    "shoot": "shooting over the soliton constant",
    "residual": "residuals of a custom candidate",
}
_SOLITON = ("cy", "nk", "reduce", "shoot")


def build_parser():
    p = argparse.ArgumentParser(
        prog="g2coflow",
        description="Laplacian coflow of coclosed G2-structures: identities, "
                    "torsion, evolution, and solitons.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    soliton = sub.add_parser("soliton", help="soliton families and searches")
    # both levels share one dest, so "soliton cy" leaves the subcommand "cy"
    ssub = soliton.add_subparsers(dest="subcommand", required=True)
    for name, help_text in _HELP.items():
        prefix = "soliton-" if name in _SOLITON else ""
        # flags left out stay out of the namespace, so the config file or
        # the table's default supplies them
        q = (ssub if prefix else sub).add_parser(
            name, help=help_text, argument_default=argparse.SUPPRESS)
        q.add_argument("--config", help="JSON config; flags override its keys")
        q.add_argument("--out", default=f"out/{prefix}{name}")
        for key, spec in _KEYS[name].items():
            flag = "--" + key.replace("_", "-")
            if spec.flag and spec.type is bool:
                q.add_argument(flag, dest=key, action="store_true")
            elif spec.flag:
                q.add_argument(flag, dest=key, type=spec.type,
                               nargs=spec.nargs, choices=spec.choices)
    return p


def main(argv=None):
    flags = vars(build_parser().parse_args(argv))
    subcommand, outdir = flags.pop("subcommand"), flags.pop("out")
    path = flags.pop("config", None)
    try:
        raw = load_config_file(path) if path else {}
        return run(parse_config(subcommand, {**raw, **flags}, outdir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except G2CoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
