"""Seeded workloads of the g2coflow benchmark and the references that check them.

A workload builds a few job sets from its seed. A job set is the list of jobs
that one round runs back to back; rounds cycle through the sets. Every job
runs the program on inputs generated here, then checks the program's output
against a reference that does not come from the code under test, and hashes
the output so that repeated runs of the same inputs can be compared.

Jobs reach the program through `cli.main(argv)` wherever the CLI offers the
operation, and through the library's public functions otherwise. They look
functions up on the module at call time, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import jv

from g2coflow import cli, coflow, forms, profiles, soliton, verify
from g2coflow.forms import StructureKind

TWO_PI = 2.0 * math.pi


class JobFailure(Exception):
    """The program exited nonzero or produced an output the job cannot read."""


@dataclass
class Job:
    """One unit of work: `run(workdir, digest)` returns the reference checks.

    A check is (label, error, tolerance); the job passes when every error is
    below its tolerance.
    """

    name: str
    run: Callable


# ---------------------------------------------------------------------------
# helpers shared by the jobs
# ---------------------------------------------------------------------------

def run_cli(argv):
    """Run `g2coflow <argv>` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
    if rc != 0:
        raise JobFailure(f"g2coflow {argv[0]} exited {rc}: "
                         f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def hash_artifacts(outdir, digest):
    """Add every artifact except the manifest (it records wall time)."""
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":
            digest.update(name.encode())
            with open(os.path.join(outdir, name), "rb") as fh:
                digest.update(fh.read())


def hash_floats(digest, *values):
    for v in values:
        digest.update(float(v).hex().encode())


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_columns(path):
    """CSV artifact as {column name: float array}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.asarray(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def sup_abs(x):
    return float(np.max(np.abs(x)))


def residual_checks(payload):
    """Both residual routes of a residuals.json, each against its tolerance."""
    checks = []
    for route in ("coordinate", "form"):
        rep = payload[route]
        worst = max(rep["residuals"].values())
        checks.append((f"{route} residual", worst, rep["tolerance"]))
        if not rep["passed"]:
            checks.append((f"{route} route reports failure", 1.0, 0.0))
    return checks


def subdir(workdir, name):
    path = os.path.join(workdir, name)
    os.makedirs(path, exist_ok=True)
    return path


def write_json_input(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def trig_poly(rng, mean, amplitude, terms=2):
    """Random a0 + sum_k (a_k sin kr + b_k cos kr) as (a0, [(k, a_k, b_k)])."""
    coeffs = [(k, amplitude * rng.uniform(-1, 1) / k,
               amplitude * rng.uniform(-1, 1) / k) for k in range(1, terms + 1)]
    return float(mean), coeffs


def trig_expr(poly):
    a0, coeffs = poly
    parts = [repr(a0)]
    for k, a, b in coeffs:
        parts.append(f"{a!r}*sin({k}*r)")
        parts.append(f"{b!r}*cos({k}*r)")
    return " + ".join(parts)


def trig_eval(poly, r, order=0):
    """Value (order 0) or first derivative (order 1) of a trig polynomial."""
    a0, coeffs = poly
    out = np.full_like(r, a0 if order == 0 else 0.0)
    for k, a, b in coeffs:
        if order == 0:
            out += a * np.sin(k * r) + b * np.cos(k * r)
        else:
            out += k * (a * np.cos(k * r) - b * np.sin(k * r))
    return out


# ---------------------------------------------------------------------------
# flow: CY and NK coflow ladders through `g2coflow flow`
# ---------------------------------------------------------------------------

LADDER = (128, 256, 512)
CY_T_END = 0.1
CY_CFL = 0.4          # criterion 3's step constant
CY_DECAY_TOL = 0.01   # criterion 3: within 1 % of the exact linear decay
NK_T_END = 0.02       # NK runs use the CLI's default step constant


def near_cylinder_h(r, eps, k, terms=8):
    """h = 1 + int_0^r cos(3 theta) for theta = pi/6 + eps cos(k r).

    cos(3 theta) = -sin(3 eps cos kr); its Jacobi-Anger series integrates
    term by term, so the initial samples satisfy the coclosed constraint
    h' = G cos 3 theta (G = 1) to rounding, independently of the program.
    """
    acc = np.zeros_like(r)
    for m in range(terms):
        q = 2 * m + 1
        acc += 2.0 * (-1) ** m * jv(q, 3.0 * eps) * np.sin(q * k * r) / (q * k)
    return 1.0 - acc


def _ladder_configs(name, structure, domain, initial, extra, inputs, index):
    """Write the flow config of each mesh level; returns {n: path}.

    `initial(n)` gives the config's initial fields at n nodes.
    """
    paths = {}
    for n in LADDER:
        cfg = dict({"structure": structure, "domain": dict(domain, n=n),
                    "initial": initial(n)}, **extra)
        paths[n] = write_json_input(
            os.path.join(inputs, f"{name}{index}_n{n}.json"), cfg)
    return paths


def _ladder_job(name, configs, check):
    """`g2coflow flow` at each mesh level; `check(n, outdir, diagnostics)`
    compares a completed run with the job's reference."""
    def run(workdir, digest):
        checks = []
        for n in LADDER:
            out = subdir(workdir, f"n{n}")
            run_cli(["flow", "--config", configs[n], "--out", out])
            hash_artifacts(out, digest)
            diag = read_json(os.path.join(out, "diagnostics.json"))
            if diag["status"] == "Completed":
                checks.append(check(n, out, diag))
            else:
                checks.append((f"n={n} halted: {diag['status']}", 1.0, 0.0))
        return checks

    return Job(name, run)


def _cy_ladder_job(name, domain, amplitude, wavenumber, inputs, index):
    theta = f"{amplitude!r}*sin({wavenumber!r}*r)"
    configs = _ladder_configs(name, "CY", domain,
                              lambda n: {"h": "1", "theta": theta, "G": "1"},
                              {"t_end": CY_T_END, "cfl": CY_CFL}, inputs, index)

    def check(n, out, diag):
        snap = read_columns(os.path.join(out, "snapshot_000.csv"))
        decay = math.exp(-wavenumber ** 2 * CY_T_END)
        want = amplitude * decay * sup_abs(np.sin(wavenumber * snap["r"]))
        return (f"n={n} sup|theta| vs linear decay",
                abs(sup_abs(snap["theta"]) - want) / want, CY_DECAY_TOL)

    return _ladder_job(name, configs, check)


def _nk_ladder_job(eps, k, inputs, index):
    h_files = {}
    for n in LADDER:
        r = TWO_PI * np.arange(n) / n
        h_files[n] = os.path.join(inputs, f"nk_h{index}_n{n}.csv")
        np.savetxt(h_files[n], np.column_stack([r, near_cylinder_h(r, eps, k)]),
                   delimiter=",", header="r,h", comments="", fmt="%.17g")
    theta = f"{math.pi / 6.0!r} + {eps!r}*cos({k}*r)"
    configs = _ladder_configs(
        "nk", "NK", {"kind": "circle", "period": TWO_PI},
        lambda n: {"h": {"file": h_files[n]}, "theta": theta, "G": "1"},
        {"t_end": NK_T_END}, inputs, index)

    def check(n, out, diag):
        drift = max(row[2] for row in diag["rows"])
        return (f"n={n} constraint drift", drift, coflow.CONSTRAINT_BLOWUP)

    return _ladder_job("flow.nk_near_cylinder", configs, check)


def flow_set(rng, inputs, index):
    """Amplitudes are seeded; modes cycle with the set index, so that every
    seed covers every mode and each run holds the least resolved ones."""
    circle = {"kind": "circle", "period": TWO_PI}
    interval = {"kind": "interval", "r0": 0.0, "r1": TWO_PI}
    return [
        _cy_ladder_job("flow.cy_circle", circle, rng.uniform(0.005, 0.01),
                       1 + index % 2, inputs, index),
        # Dirichlet ends: half-wave modes sin(m r / 2) vanish at 0 and 2 pi
        _cy_ladder_job("flow.cy_interval", interval, rng.uniform(0.005, 0.01),
                       (1 + index % 3) / 2.0, inputs, index),
        _nk_ladder_job(rng.uniform(5e-4, 1e-3), 1 + index % 2, inputs, index),
    ]


# ---------------------------------------------------------------------------
# soliton: reduced-ODE integrations and shooting through `g2coflow soliton`
# ---------------------------------------------------------------------------

SINECONE_LAMBDA = -16.0
SHOOT_LAMBDA_RANGE = (-25.0, -8.0)
SHOOT_LAMBDA_TOL = 1e-6
REDUCE_TOL = 1e-6     # the CLI's default residual tolerance for `reduce`


def _reduced_ode(_r, y, lam):
    """The reduced third-order soliton ODE for h, restated from the theory so
    that shoot targets do not come from the code under test."""
    h, hp, hpp = y
    lead = h ** 3 * hp * (hp ** 2 - 1.0)
    rest = (-2.0 * h ** 3 * hp ** 2 * hpp ** 2 + 3.0 * h ** 2 * hp ** 4 * hpp
            - 6.0 * h * hp ** 2 + h ** 3 * hpp ** 2 - 3.0 * h ** 2 * hpp
            + 12.0 * h * hp ** 4 - 6.0 * h * hp ** 6
            + 0.25 * lam * h ** 4 * hp ** 2 * hpp - 0.25 * lam * h ** 4 * hpp)
    return (hp, hpp, -rest / lead)


def sinecone_jet(r0):
    return float(math.sin(r0)), float(math.cos(r0)), float(-math.sin(r0))


def reference_dh_end(r0, r1, lam):
    """h'(r1) of the reduced ODE from the sine-cone jet at r0 (DOP853)."""
    sol = solve_ivp(_reduced_ode, (r0, r1), sinecone_jet(r0), method="DOP853",
                    rtol=1e-13, atol=1e-13, args=(lam,))
    if sol.status != 0:
        raise JobFailure(f"reference integration failed: {sol.message}")
    return float(sol.y[1, -1])


def _shoot_job(r0, length, lam_star, inputs, index):
    h0, dh0, ddh0 = sinecone_jet(r0)
    cfg = {"h0": h0, "dh0": dh0, "ddh0": ddh0, "span": [r0, r0 + length],
           "target_dh_end": reference_dh_end(r0, r0 + length, lam_star),
           "lam_range": list(SHOOT_LAMBDA_RANGE)}
    path = write_json_input(os.path.join(inputs, f"shoot{index}.json"), cfg)

    def run(workdir, digest):
        run_cli(["soliton", "shoot", "--config", path, "--out", workdir])
        hash_artifacts(workdir, digest)
        rep = read_json(os.path.join(workdir, "shoot.json"))
        if not rep["found"]:
            return [(f"shoot not found: {rep['reason']}", 1.0, 0.0)]
        return [("|lambda - lambda*|", abs(rep["lambda"] - lam_star),
                 SHOOT_LAMBDA_TOL)]

    return Job("soliton.shoot", run)


def _reduce_job(r0, length):
    h0, dh0, ddh0 = sinecone_jet(r0)
    argv = ["soliton", "reduce", "--h0", repr(h0), "--dh0", repr(dh0),
            "--ddh0", repr(ddh0), "--lambda", repr(SINECONE_LAMBDA),
            "--span", repr(r0), repr(r0 + length),
            "--tolerance", repr(REDUCE_TOL)]

    def run(workdir, digest):
        run_cli(argv + ["--out", workdir])
        hash_artifacts(workdir, digest)
        payload = read_json(os.path.join(workdir, "residuals.json"))
        checks = residual_checks(payload)
        if payload["trajectory_status"] != "completed":
            checks.append((f"trajectory {payload['trajectory_status']}", 1.0, 0.0))
        # criterion 5: the sine-cone is h = sin r, theta = r/3, k' = 0
        traj = read_columns(os.path.join(workdir, "trajectory.csv"))
        cand = read_columns(os.path.join(workdir, "candidate.csv"))
        checks += [
            ("|h - sin r|", sup_abs(traj["h"] - np.sin(traj["r"])), 1e-8),
            ("|theta - r/3|", sup_abs(cand["theta"] - cand["r"] / 3.0), 1e-7),
            ("|k'|", sup_abs(cand["kprime"]), 1e-7),
        ]
        return checks

    return Job("soliton.reduce", run)


def soliton_set(rng, inputs, index):
    def span():
        return rng.uniform(0.3, 0.5), rng.uniform(0.7, 0.8)

    r0, length = span()
    shoot = _shoot_job(r0, length, rng.uniform(-20.0, -12.0), inputs, index)
    return [shoot] + [_reduce_job(*span()) for _ in range(3)]


# ---------------------------------------------------------------------------
# calculus: closed-form jobs through the CLI and the library
# ---------------------------------------------------------------------------

SPECIAL_TOL = 1e-10   # criterion 4's residual tolerance
CLOSED_FORM_TOL = 1e-12
TAU2_TOL = 1e-11      # the identity suite's tolerance for tau2 = 0
TORSION_TOL = 1e-10
LEMMA_TOL = 1e-8      # criterion 2
EIGEN_TOL = 1e-8      # criterion 6
COMPACT_TOL = 1e-6    # criterion 6


def _verify_job(seed):
    def run(workdir, digest):
        run_cli(["verify", "--seed", str(seed), "--out", workdir])
        hash_artifacts(workdir, digest)
        report = read_json(os.path.join(workdir, "identities.json"))
        return [(e["name"], e["max_residual"], e["tolerance"]) for e in report] + [
            (f"{e['name']} reports failure", 1.0, 0.0)
            for e in report if not e["passed"]]

    return Job("calculus.verify", run)


def _torsion_job(structure, rng, inputs, index):
    h = trig_poly(rng, 1.6, 0.25)
    theta = trig_poly(rng, rng.uniform(-0.3, 0.3), 0.3)
    G = trig_poly(rng, 1.5, 0.2)
    cfg = {"structure": structure,
           "domain": {"kind": "circle", "period": TWO_PI},
           "h": trig_expr(h), "theta": trig_expr(theta), "G": trig_expr(G)}
    path = write_json_input(
        os.path.join(inputs, f"torsion_{structure}{index}.json"), cfg)

    def run(workdir, digest):
        run_cli(["torsion", "--config", path, "--csv", "--out", workdir])
        hash_artifacts(workdir, digest)
        got = read_json(os.path.join(workdir, "torsion.json"))
        # closed forms evaluated here with numpy on the same interior samples
        rs = TWO_PI * (np.arange(got["samples"]) + 0.5) / got["samples"]
        hv, hp, gv = trig_eval(h, rs), trig_eval(h, rs, 1), trig_eval(G, rs)
        tv, tp = trig_eval(theta, rs), trig_eval(theta, rs, 1)
        if structure == "CY":
            tau0 = 12.0 / 7.0 * tp / gv
            tau1 = hp / hv
        else:
            tau0 = 12.0 / 7.0 * (tp / gv + 2.0 * np.sin(3 * tv) / hv)
            tau1 = (hp - gv * np.cos(3 * tv)) / hv
        checks = [("tau2 norm", got["tau2_norm"], TAU2_TOL)]
        for key, want in (("tau0_sup", sup_abs(tau0)),
                          ("tau1_sup", sup_abs(tau1)),
                          ("coclosed_residual", sup_abs(tau1 / gv))):
            checks.append((key, abs(got[key] - want) / max(1.0, want),
                           TORSION_TOL))
        return checks

    return Job(f"calculus.torsion_{structure.lower()}", run)


def _candidate_checks(workdir, h, theta, kprime):
    cand = read_columns(os.path.join(workdir, "candidate.csv"))
    r = cand["r"]
    return [(f"{name} vs closed form",
             sup_abs(cand[name] - want(r)) / max(1.0, sup_abs(want(r))),
             CLOSED_FORM_TOL)
            for name, want in (("h", h), ("theta", theta), ("kprime", kprime))]


def _soliton_cy_job(b, c):
    def run(workdir, digest):
        run_cli(["soliton", "cy", "--b", repr(b), "--c", repr(c),
                 "--tolerance", repr(SPECIAL_TOL), "--out", workdir])
        hash_artifacts(workdir, digest)
        payload = read_json(os.path.join(workdir, "residuals.json"))

        def e2(r):
            return c * c * np.exp(2.0 * b * r)

        return residual_checks(payload) + _candidate_checks(
            workdir, lambda r: np.ones_like(r),
            lambda r: 2.0 / 3.0 * np.arctan(c * np.exp(b * r)),
            lambda r: b * (1.0 - e2(r)) / (1.0 + e2(r)))

    return Job("calculus.soliton_cy", run)


def _nk_family_job(family, rng):
    """`soliton nk` for one special family with seeded parameters, checked
    against the family's closed forms (h, theta, k') and soliton constant."""
    b = c = 0.0
    lam = None
    if family == "cone":
        b, lam = rng.uniform(0.2, 1.0), rng.uniform(-3.0, 3.0)
        closed = (lambda r: r + b, lambda r: 0.0 * r,
                  lambda r: -lam / 4.0 * (r + b))
        want_lam = lam
    elif family == "anticone":
        b, lam = rng.uniform(2.5, 3.5), rng.uniform(-3.0, 3.0)
        closed = (lambda r: b - r, lambda r: 0.0 * r + math.pi / 3.0,
                  lambda r: lam / 4.0 * (b - r))
        want_lam = lam
    elif family == "cylinder":
        b, c = rng.uniform(0.8, 1.5), rng.uniform(-0.5, 0.5)
        closed = (lambda r: 0.0 * r + b, lambda r: 0.0 * r + math.pi / 6.0,
                  lambda r: 0.0 * r + c)
        want_lam = -12.0 / b ** 2
    else:
        closed = (np.sin, lambda r: r / 3.0, lambda r: 0.0 * r)
        want_lam = SINECONE_LAMBDA
    argv = ["soliton", "nk", "--family", family, "--b", repr(b), "--c", repr(c),
            "--tolerance", repr(SPECIAL_TOL)]
    if lam is not None:
        argv += ["--lambda", repr(lam)]

    def run(workdir, digest):
        run_cli(argv + ["--out", workdir])
        hash_artifacts(workdir, digest)
        payload = read_json(os.path.join(workdir, "residuals.json"))
        return residual_checks(payload) + _candidate_checks(workdir, *closed) + [
            ("lambda", abs(payload["lambda"] - want_lam) / max(1.0, abs(want_lam)),
             CLOSED_FORM_TOL)]

    return Job(f"calculus.nk_{family}", run)


def _lemma_job(structure, seed):
    """Criterion 2: -Delta psi from first principles equals its closed form."""
    rs = profiles.Circle(TWO_PI).sample_points(50, interior=True)

    def run(workdir, digest):
        g = verify.random_g2_profile(np.random.default_rng(seed), structure,
                                     coclosed=True)
        got = forms.hodge_laplacian_psi(g, tol=LEMMA_TOL)
        want = forms.laplacian_psi_closed_form(g)
        got_v, want_v = got.coefficient_values(rs), want.coefficient_values(rs)
        worst = 0.0
        for tag in sorted(set(got_v) | set(want_v)):
            a, b = got_v.get(tag, 0.0), want_v.get(tag, 0.0)
            worst = max(worst, sup_abs(a - b))
            hash_floats(digest, *np.ravel(np.real(a)), *np.ravel(np.imag(a)))
        return [("Laplacian lemma", worst, LEMMA_TOL)]

    return Job(f"calculus.lemma_{structure.value.lower()}", run)


def _sinecone_jobs(a, b):
    """Criterion 6 on a seeded sub-interval of the sine-cone's (0, pi)."""
    def candidate():
        return soliton.nk_special("sinecone", domain=profiles.Interval(a, b))

    def eigen(workdir, digest):
        mu2, resid = soliton.eigenform_check(candidate().g2_profile())
        hash_floats(digest, mu2, resid)
        return [("|mu^2 - 16|", abs(mu2 - 16.0), EIGEN_TOL)]

    def compact(workdir, digest):
        lhs, rhs = soliton.compact_identity_check(candidate())
        hash_floats(digest, lhs, rhs)
        return [("|ratio - 1|", abs(lhs / rhs - 1.0), COMPACT_TOL)]

    return [Job("calculus.eigenform", eigen), Job("calculus.compact_identity", compact)]


def calculus_set(rng, inputs, index):
    def seed():
        return int(rng.integers(0, 2 ** 31))

    jobs = [_verify_job(seed()),
            _torsion_job("CY", rng, inputs, index),
            _torsion_job("NK", rng, inputs, index),
            _soliton_cy_job(rng.uniform(0.3, 1.0), rng.uniform(0.5, 1.5))]
    jobs += [_nk_family_job(f, rng)
             for f in ("cone", "anticone", "cylinder", "sinecone")]
    jobs += [_lemma_job(StructureKind.CY, seed()),
             _lemma_job(StructureKind.NK, seed()),
             _lemma_job(StructureKind.NK, seed())]
    jobs += _sinecone_jobs(rng.uniform(0.1, 0.6), rng.uniform(2.5, 3.0))
    return jobs


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    sets: int            # distinct job sets built from the seed
    build: Callable      # (rng, inputs dir, set index) -> list of Job


WORKLOADS = {
    "flow": Workload("flow", 4, flow_set),
    "soliton": Workload("soliton", 2, soliton_set),
    "calculus": Workload("calculus", 8, calculus_set),
}


def build_sets(workload, seed, inputs):
    """The workload's job sets; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    return [workload.build(rng, inputs, i) for i in range(workload.sets)]


def run_job(job, workdir):
    """Run one job; returns (checks, digest hex) or raises."""
    digest = hashlib.sha256()
    checks = job.run(workdir, digest)
    return checks, digest.hexdigest()
