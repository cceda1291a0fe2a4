"""Command-line entry point: verify | torsion | flow | soliton | residual.

Every invocation takes one path. `main` builds a raw config dict from the
JSON file given by `--config` (optional on every subcommand), then lays the
flags given on the command line over it: each flag is the config key of the
same name (`--u-sign0` is `u_sign0`), wins over the file, and is converted
and checked exactly like a value from the file. `parse_config` resolves that
dict into a RunConfig with every default filled, rejecting unknown keys and
bad values with their key path, and `run` dispatches it, writing artifacts
and a manifest that echoes the fully resolved configuration plus versions,
wall time, and status, or for a run that raised, the error's class name as
status and its message. Re-running with the manifest's config as `--config`
reproduces the run; CSV output uses 17 significant digits, so identical
config and seed give byte-identical artifacts.

Exit codes: 0 success; 1 tolerance failure, search miss, numerical failure,
or a halted flow (status SingularityDetected, ConstraintBlowup,
StepSizeUnderflow or WorkBudgetExceeded); 2 configuration error, at its key.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import os
import re
import sys
import time
import warnings
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
    SingularityDetected,
    SingularLocus,
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

    def number(node, types):  # a bool is an int, but not a number here
        return (isinstance(node, ast.Constant) and isinstance(node.value, types)
                and not isinstance(node.value, bool))

    def build(node):
        if number(node, (int, float)):
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
                if len(node.args) != 2 or not number(node.args[1], int):
                    raise ConfigError(f"pow needs (expr, integer) in {text!r}")
                return pf.pow_int(build(node.args[0]), node.args[1].value)
            if name in _FUNCS and len(node.args) == 1:
                return _FUNCS[name](build(node.args[0]))
            raise ConfigError(f"unknown function {name!r} in {text!r}")
        raise ConfigError(f"unsupported syntax in expression {text!r}")

    return build(tree)


# ---------------------------------------------------------------------------
# configuration keys, and the one Command record per subcommand (COMMANDS)
# ---------------------------------------------------------------------------

_REQUIRED = object()

# caps on the size keys, far above any real run, so that a mistyped size is
# rejected before an array of that size exists
MAX_COUNT = 10_000   # points, profiles, samples, shooting grid, output times
MAX_NODES = 100_000  # flow mesh nodes, domain.n


class Key(NamedTuple):
    """One configuration key of a subcommand.

    `type` converts the value, or each of `nargs` values ("*": any number);
    None marks a structured value (domain, profile expressions) that the
    subcommand parses itself and the manifest echoes as given. `check` is
    (test, message), failed by a converted value the subcommand cannot run
    with. `flag` keys are also command-line flags, spelled --key with "_" as "-".
    """

    type: object = None
    default: object = _REQUIRED
    nargs: object = None
    choices: tuple = None
    flag: bool = False
    check: tuple = None


def _flag(type, default=_REQUIRED, **kw):
    return Key(type, default, flag=True, **kw)


def _count(lo):
    return (lambda x: lo <= x <= MAX_COUNT, f"must be from {lo} to {MAX_COUNT}")


_FINITE = (lambda x: bool(np.all(np.isfinite(x))), "must be finite")
_POSITIVE = (lambda x: 0 < x < np.inf, "must be positive and finite")
# ends within 1e300 of 0, so that a grid over the interval has finite nodes
_SPAN = (lambda s: -1e300 <= s[0] < s[1] <= 1e300, "must increase, within +-1e300")
_RANGE = (lambda x: -1e300 <= min(x) <= max(x) <= 1e300, "must be within +-1e300")
# DOP853 raises a relative tolerance below 100 eps with a warning, and one of
# 1 or more controls no error and lets the error scale atol + |y| rtol overflow
_RTOL = (lambda x: 100 * np.finfo(float).eps <= x < 1,
         "must be from 100 eps = 2.2e-14 up to 1, 1 excluded")
_NODES = Key(int, check=(lambda n: pf.MIN_NODES <= n <= MAX_NODES,
                         f"need from MIN_NODES = {pf.MIN_NODES} to {MAX_NODES} nodes"))
_NK_FAMILIES = tuple(f.value for f in (so.Family.CONE, so.Family.ANTICONE,
                                       so.Family.CYLINDER, so.Family.SINECONE))
_STRUCTURE = Key(str, choices=tuple(kind.value for kind in StructureKind))
# one admitted value; the key stays so that earlier manifests replay
_STENCIL = Key(int, pf.STENCIL_ORDER, choices=(pf.STENCIL_ORDER,))


class Command(NamedTuple):
    """One subcommand: its help line, its keys, the handler that runs a
    resolved config and returns the run status, the builder of its domains,
    profiles and candidates, and whether it sits under `soliton`."""

    help: str
    keys: dict
    run: object
    build: object = None
    soliton: bool = False


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
    if not isinstance(obj, dict):
        raise ConfigError("must be a JSON object", key=path.rstrip(".") or None)
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown configuration key", key=f"{path}{key}")
    for key in required:
        if key not in obj:
            raise ConfigError("missing configuration key", key=f"{path}{key}")


def _convert(type, x):
    """x converted by type: only a bool is a bool, and an integer takes no
    fractional value."""
    if (type is bool) != isinstance(x, bool):
        raise TypeError
    if type is int and isinstance(x, float) and not x.is_integer():
        raise ValueError
    return type(x)


def _value(key, spec, value):
    """A key's value converted and checked by its spec, whether it came from
    a config file or a flag (a string, or a list of them); structured values
    pass as given."""
    if spec.type is None or (value is None and spec.default is None):
        return value
    try:
        if spec.nargs is None:
            out = _convert(spec.type, value)
        else:
            out = [_convert(spec.type, x) for x in value]
            if spec.nargs != "*" and len(out) != spec.nargs:
                raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value {value!r}", key=key) from None
    if spec.choices is not None and out not in spec.choices:
        raise ConfigError(f"must be one of {list(spec.choices)}", key=key)
    if spec.check is not None and not spec.check[0](out):
        raise ConfigError(spec.check[1], key=key)
    return out


def _parse_domain(obj):
    """`profiles.domain_from_json`, a bad bound a ConfigError at the domain,
    a bound beyond +-1e300 (as for `_SPAN`) one at the bound."""
    _require_keys(obj, {"kind", "r0", "r1", "period", "n"}, {"kind"}, "domain.")
    try:
        domain = pf.domain_from_json(obj)
    except KeyError as exc:
        raise ConfigError(f"{obj['kind']} domain needs {exc.args[0]}",
                          key="domain." + exc.args[0]) from None
    except InvalidGeometry as exc:
        known = obj["kind"] in ("circle", "interval")
        raise ConfigError(str(exc), key="domain" if known else "domain.kind") from None
    for name in ("period", "r0", "r1"):
        if not -1e300 <= getattr(domain, name, 0.0) <= 1e300:
            raise ConfigError("must be within +-1e300", key="domain." + name)
    return domain


def _parse_field(entry, domain, n, key):
    if isinstance(entry, str):
        return parse_expression(entry, domain)
    if isinstance(entry, dict) and set(entry) == {"file"}:
        vals = _load_sample_file(entry["file"], n, key)
        try:
            return pf.Sampled(domain, vals)
        except InvalidGeometry as exc:   # too few rows for the stencil
            raise ConfigError(str(exc), key=key) from None
    raise ConfigError("field must be an expression string or {\"file\": path}",
                      key=key)


def _load_sample_file(path, n, key):
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:   # ValueError: a non-numeric value
        raise ConfigError(f"cannot read sample file: {exc}", key=key) from None
    if rows.size == 0:
        raise ConfigError("sample file has no data rows", key=key)
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


def _nodes(c):
    """domain.n converted and checked, and echoed so; None without one."""
    if "n" in c["domain"]:
        c["domain"] = dict(c["domain"], n=_value("domain.n", _NODES, c["domain"]["n"]))
    return c["domain"].get("n")


def _flow_objects(c):
    domain = _parse_domain(c["domain"])
    n = _nodes(c)
    if n is None:
        raise ConfigError("flow domain needs a node count n", key="domain.n")
    _require_keys(c["initial"], {"h", "theta", "G"}, {"h", "theta", "G"},
                  "initial.")
    fields = {name: _parse_field(c["initial"][name], domain, n,
                                 f"initial.{name}")
              for name in ("h", "theta", "G")}
    structure = StructureKind(c["structure"])
    mesh = pf.Mesh.from_domain(domain, n)
    values = pf.evaluate(mesh.nodes, *fields.values())
    initial = dict(zip(fields, map(np.real, values)))
    return {"state": cfl.FlowState(mesh=mesh, **initial, t=0.0,
                                   structure=structure)}


def _torsion_objects(c):
    domain = _parse_domain(c["domain"])
    structure = StructureKind(c["structure"])
    n = _nodes(c)
    fields = {name: _parse_field(c[name], domain, n, name)
              for name in ("h", "theta", "G")}
    return {"g": G2Profile(**fields, structure=structure, domain=domain)}


def _residual_objects(c):
    domain = _parse_domain(c["domain"])
    structure = StructureKind(c["structure"])
    _nodes(c)   # checked and echoed like torsion's, though no mesh is built
    return {"candidate": so.SolitonCandidate(
        h=parse_expression(c["h"], domain),
        theta=parse_expression(c["theta"], domain),
        kprime=parse_expression(c["kprime"], domain),
        lam=c["lambda"], structure=structure, family=so.Family.CUSTOM,
        domain=domain,
    )}


def _cy_objects(c):
    try:
        domain = pf.Interval(c["r0"], c["r1"])
    except InvalidGeometry as exc:
        raise ConfigError(str(exc), key="r1") from None
    return {"candidate": so.cy_closed_form(c["b"], c["c"], domain)}


def _start_objects(c):
    """No objects: `reduce` and `shoot` only check their start jet, so that
    one on the singular locus is rejected before any output exists."""
    so.require_start(c["h0"], c["dh0"])
    return {}


def _nk_objects(c):
    return {"candidate": so.nk_special(c["family"], b=c["b"], c=c["c"],
                                       lam=c["lambda"])}


def parse_config(subcommand, raw, outdir="out"):
    """Resolve a raw config dict for the given subcommand.

    Fills documented defaults, converts and checks values, constructs
    domains, profiles and candidates, and rejects unknown keys with their
    path; a builder's InvalidParams is a ConfigError at its parameter, its
    InvalidGeometry, a flow state's SingularityDetected or StructureMismatch,
    or a reduce or shoot jet's SingularLocus, one with no key.
    Returns a RunConfig.
    """
    command = COMMANDS.get(subcommand)
    if command is None:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    keys = command.keys
    _require_keys(raw, keys,
                  [k for k, spec in keys.items() if spec.default is _REQUIRED], "")
    resolved = {k: _value(k, spec, raw.get(k, spec.default))
                for k, spec in keys.items()}
    try:
        objects = command.build(resolved) if command.build else {}
    except InvalidParams as exc:
        raise ConfigError(str(exc), key=exc.param) from None
    # a structure's h or G, a default domain, a flow state's h or G, a start jet
    except (InvalidGeometry, SingularityDetected, SingularLocus, StructureMismatch) as exc:
        raise ConfigError(str(exc)) from None
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
    status; the manifest records it, and only "Completed" exits 0. A handler
    that raises a G2CoflowError gets a manifest too, its status the error's
    class name and its `error` the message; the error then propagates.
    """
    t0 = time.monotonic()
    try:
        os.makedirs(config.outdir, exist_ok=True)
    except OSError as exc:   # --out names a file, or a path that cannot be made
        raise ConfigError(f"cannot make the output directory: {exc}",
                          key="out") from None

    def manifest(status, **error):
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
            **error,
        })

    try:
        status = COMMANDS[config.subcommand].run(config)
    except G2CoflowError as exc:
        manifest(type(exc).__name__, error=str(exc))
        raise
    manifest(status)
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
        "steps": rundata.steps,
        "rejected": rundata.rejected,
        "rhs_evals": rundata.rhs_evals,
    })
    print(f"flow {rundata.status} after {rundata.steps} steps "
          f"({rundata.rejected} rejected, {rundata.rhs_evals} RHS evaluations); "
          f"{len(rundata.snapshots)} snapshots in {config.outdir}")
    return rundata.status


def _run_torsion(config):
    rep = ts.torsion_report(config.objects["g"], samples=config.resolved["samples"])
    payload = {
        "tau0_sup": float(np.max(np.abs(rep.tau0))),
        "tau1_sup": float(np.max(np.abs(rep.tau1_coeff))),
        "tau2_norm": rep.tau2_norm,
        "tau3_sup": rep.tau3_sup,
        "coclosed_residual": rep.coclosed_residual,
        "samples": rep.samples,
    }
    write_json(os.path.join(config.outdir, "torsion.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if config.resolved["csv"]:
        write_csv(os.path.join(config.outdir, "torsion.csv"),
                  ["r", "tau0", "tau1_coeff"],
                  [rep.rs, np.real(rep.tau0), np.real(rep.tau1_coeff)])
    return "Completed"


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


def _finish_soliton(config, cand=None, **extra):
    """Write candidate.csv and residuals.json (plus `extra` payload keys) for
    `cand`, by default the candidate parse_config built (`soliton cy|nk`)."""
    cand = config.objects["candidate"] if cand is None else cand
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


def _write_candidate(outdir, cand):
    rs = cand.sample_points(200)
    values = pf.evaluate(rs, cand.h, cand.theta, cand.kprime)
    write_csv(os.path.join(outdir, "candidate.csv"),
              ["r", "h", "theta", "kprime"], [rs, *map(np.real, values)])


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
# the subcommands
# ---------------------------------------------------------------------------

COMMANDS = {
    "verify": Command("run a randomized identity suite", {
        "suite": _flag(str, "identities", choices=("identities",)),
        "seed": _flag(int, 0, check=(lambda x: x >= 0, "must not be negative")),
        "profiles": _flag(int, 20, check=_count(2)),
        "points": _flag(int, 50, check=_count(1))}, _run_verify),
    "torsion": Command("torsion report for configured data", {
        "structure": _STRUCTURE, "domain": Key(), "h": Key(), "theta": Key(), "G": Key(),
        "samples": Key(int, 200, check=_count(1)), "stencil_order": _STENCIL,
        "csv": _flag(bool, False)}, _run_torsion, _torsion_objects),
    "flow": Command("run the Laplacian coflow", {
        "structure": _STRUCTURE, "domain": Key(), "initial": Key(),
        "t_end": Key(float, check=_POSITIVE),
        # each distinct time in (t0, t_end] writes one snapshot file
        "output_times": Key(float, (), nargs="*", check=(
            lambda x: len(x) <= MAX_COUNT, f"must hold at most {MAX_COUNT} times")),
        "cfl": Key(float, 0.2, check=_POSITIVE), "stencil_order": _STENCIL},
        _run_flow, _flow_objects),
    "cy": Command("Calabi-Yau closed-form soliton", {
        "b": _flag(float, check=_FINITE), "c": _flag(float, check=_FINITE),
        "r0": _flag(float, -2.0, check=_FINITE), "r1": _flag(float, 2.0, check=_FINITE),
        "tolerance": _flag(float, 1e-8, check=_POSITIVE)},
        _finish_soliton, _cy_objects, soliton=True),
    "nk": Command("nearly Kahler special family", {
        "family": _flag(str, choices=_NK_FAMILIES),
        "b": _flag(float, 0.0, check=_FINITE), "c": _flag(float, 0.0, check=_FINITE),
        "lambda": _flag(float, None, check=_FINITE),
        "tolerance": _flag(float, 1e-8, check=_POSITIVE)},
        _finish_soliton, _nk_objects, soliton=True),
    "reduce": Command("integrate the reduced third-order ODE", {
        "h0": _flag(float, check=_FINITE), "dh0": _flag(float, check=_FINITE),
        "ddh0": _flag(float, check=_FINITE), "lambda": _flag(float, check=_FINITE),
        "span": _flag(float, nargs=2, check=_SPAN),
        "rtol": _flag(float, 1e-10, check=_RTOL),
        "u_sign0": _flag(float, 1.0, check=_FINITE),
        "tolerance": _flag(float, 1e-6, check=_POSITIVE)},
        _run_reduce, _start_objects, soliton=True),
    "shoot": Command("shooting over the soliton constant", {
        "h0": Key(float, check=_FINITE), "dh0": Key(float, check=_FINITE),
        "ddh0": Key(float, check=_FINITE), "span": Key(float, nargs=2, check=_SPAN),
        "target_dh_end": Key(float, check=_FINITE),
        "lam_range": Key(float, nargs=2, check=_RANGE),
        "u_sign0": Key(float, 1.0, check=_FINITE),
        "rtol": Key(float, 1e-10, check=_RTOL),
        "residual_tol": Key(float, 1e-6, check=_POSITIVE),
        "grid": Key(int, 13, check=_count(2))},
        _run_shoot, _start_objects, soliton=True),
    "residual": Command("residuals of a custom candidate", {
        "structure": _STRUCTURE, "domain": Key(), "h": Key(), "theta": Key(),
        "kprime": Key(), "lambda": Key(float, check=_FINITE),
        "samples": Key(int, 200, check=_count(1)),
        "tolerance": Key(float, 1e-8, check=_POSITIVE)},
        _run_residual, _residual_objects),
}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes a negative number in exponent notation, such
    as -1e-3, for a value. argparse's own pattern admits only forms like -1
    and -0.5, and reads any other word starting with "-" as an option.
    Subparsers are of this class too."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")


@functools.cache
def build_parser():
    """Flags map to raw strings (a list for a list key); `_value` checks them.

    Built on the first call and shared by every later one, which is safe
    because `parse_args` returns a new namespace and leaves the parser as it
    was; callers must not change the parser.
    """
    p = _Parser(
        prog="g2coflow",
        description="Laplacian coflow of coclosed G2-structures: identities, "
                    "torsion, evolution, and solitons.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    soliton = sub.add_parser("soliton", help="soliton families and searches")
    # both levels share one dest, so "soliton cy" leaves the subcommand "cy"
    ssub = soliton.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        prefix = "soliton-" if command.soliton else ""
        # flags left out stay out of the namespace, so the config file or
        # the table's default supplies them
        q = (ssub if command.soliton else sub).add_parser(
            name, help=command.help, argument_default=argparse.SUPPRESS)
        q.add_argument("--config", help="JSON config; flags override its keys")
        q.add_argument("--out", default=f"out/{prefix}{name}")
        for key, spec in command.keys.items():
            flag = "--" + key.replace("_", "-")
            if spec.flag and spec.type is bool:
                q.add_argument(flag, dest=key, action="store_true")
            elif spec.flag:
                q.add_argument(flag, dest=key, nargs="+" if spec.nargs else None,
                               metavar=spec.choices and "{%s}" % ",".join(spec.choices))
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
