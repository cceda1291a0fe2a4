import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2coflow import cli, coflow
from g2coflow import profiles as pf
from g2coflow import soliton as so
from g2coflow import torsion as ts
from g2coflow.errors import ConfigError


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def test_parse_expression_sine_roundtrip():
    p = cli.parse_expression("sin(r)")
    j = p.jet(0.3)
    assert abs(j.value - np.sin(0.3)) < 1e-15
    assert abs(j.derivs[0] - np.cos(0.3)) < 1e-15
    assert abs(j.derivs[1] + np.sin(0.3)) < 1e-15


def test_parse_expression_grammar():
    p = cli.parse_expression("1 + 0.01*sin(r) - pow(r, 2)/4 + atan(exp(r))")
    r = 0.7
    want = 1 + 0.01 * np.sin(r) - r ** 2 / 4 + np.arctan(np.exp(r))
    assert abs(p.value(r) - want) < 1e-14


def test_parse_expression_rejects_unknown_names():
    with pytest.raises(ConfigError):
        cli.parse_expression("q + 1")
    with pytest.raises(ConfigError):
        cli.parse_expression("sqrt(r)")
    with pytest.raises(ConfigError):
        cli.parse_expression("__import__('os')")
    with pytest.raises(ConfigError):
        cli.parse_expression("pow(r, 0.5)")


def test_an_unknown_subcommand_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown subcommand"):
        cli.parse_config("bogus", {})


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def flow_config(tmp_path, **overrides):
    cfg = {
        "structure": "CY",
        "domain": {"kind": "circle", "period": 2 * np.pi, "n": 64},
        "initial": {"h": "1", "theta": "0.01*sin(r)", "G": "1"},
        "t_end": 0.05,
    }
    cfg.update(overrides)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_flow_defaults_and_run(tmp_path):
    cfg = flow_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "Completed"
    assert manifest["config"]["t_end"] == 0.05
    # manifest echoes the resolved config: defaults are filled in
    assert manifest["config"]["cfl"] == 0.2
    assert manifest["config"]["stencil_order"] == 4
    diag = json.loads((out / "diagnostics.json").read_text())
    mesh_dr = 2 * np.pi / 64
    assert abs(diag["rows"][0][1] - 0.2 * mesh_dr ** 2) < 1e-12
    snap = (out / "snapshot_000.csv").read_text().splitlines()
    assert snap[0] == "r,h,theta,G,constraint_residual,tau0"
    assert len(snap) == 65


def test_flow_writes_its_work_counters(tmp_path, capsys):
    cfg = flow_config(tmp_path, domain={"kind": "interval", "r0": 0.0,
                                        "r1": 2 * np.pi, "n": 64},
                      initial={"h": "1", "theta": "0.3*sin(r/2)", "G": "1"})
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    config = cli.parse_config("flow", json.loads(open(cfg).read()))
    run = coflow.run_flow(config.objects["state"], 0.05, (), 0.2)
    assert (diag["steps"], diag["rejected"], diag["rhs_evals"]) == (
        run.steps, run.rejected, run.rhs_evals)
    assert diag["steps"] == len(diag["rows"]) and diag["rejected"] > 0
    assert (f"after {run.steps} steps ({run.rejected} rejected, "
            f"{run.rhs_evals} RHS evaluations)") in capsys.readouterr().out


def test_flow_unknown_key_is_config_error(tmp_path):
    cfg = flow_config(tmp_path, cflx=0.3)
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def test_flow_negative_t_end_is_config_error(tmp_path):
    cfg = flow_config(tmp_path, t_end=-1.0)
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def test_flow_determinism(tmp_path):
    cfg = flow_config(tmp_path, output_times=[0.02])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("flow", "--config", cfg, "--out", str(out1)) == 0
    assert run_cli("flow", "--config", cfg, "--out", str(out2)) == 0
    for name in ("snapshot_000.csv", "snapshot_001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flow_sample_file_initial(tmp_path):
    n = 64
    nodes = 2 * np.pi * np.arange(n) / n
    path = tmp_path / "theta.csv"
    path.write_text("r,value\n" + "\n".join(
        f"{r},{0.01 * np.sin(r)}" for r in nodes))
    cfg = flow_config(tmp_path)
    cfg_obj = json.loads(open(cfg).read())
    cfg_obj["initial"]["theta"] = {"file": str(path)}
    cfg2 = tmp_path / "flow2.json"
    cfg2.write_text(json.dumps(cfg_obj))
    assert run_cli("flow", "--config", str(cfg2), "--out", str(tmp_path / "o2")) == 0


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------

def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "v"
    code = run_cli("verify", "--suite", "identities", "--seed", "7",
                   "--profiles", "4", "--points", "12", "--out", str(out))
    assert code == 0
    report = json.loads((out / "identities.json").read_text())
    names = {entry["name"] for entry in report}
    assert "d_squared_zero" in names
    assert all(entry["passed"] for entry in report)
    assert "[pass]" in capsys.readouterr().out


def test_torsion_subcommand(tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({
        "structure": "NK",
        "domain": {"kind": "interval", "r0": 0.4, "r1": 2.4},
        "h": "r", "theta": "0", "G": "1",
        "samples": 64,
    }))
    out = tmp_path / "t"
    assert run_cli("torsion", "--config", str(cfg), "--csv",
                   "--out", str(out)) == 0
    rep = json.loads((out / "torsion.json").read_text())
    assert rep["tau0_sup"] < 1e-12
    assert rep["tau2_norm"] < 1e-12
    header = (out / "torsion.csv").read_text().splitlines()[0]
    assert header == "r,tau0,tau1_coeff"


def test_soliton_nk_subcommand(tmp_path):
    out = tmp_path / "s"
    assert run_cli("soliton", "nk", "--family", "sinecone",
                   "--out", str(out)) == 0
    res = json.loads((out / "residuals.json").read_text())
    assert res["lambda"] == -16.0
    assert res["coordinate"]["passed"] and res["form"]["passed"]
    rows = (out / "candidate.csv").read_text().splitlines()
    assert rows[0] == "r,h,theta,kprime"


def test_soliton_cy_subcommand(tmp_path):
    out = tmp_path / "cy"
    assert run_cli("soliton", "cy", "--b", "1", "--c", "1",
                   "--out", str(out)) == 0
    res = json.loads((out / "residuals.json").read_text())
    assert res["lambda"] == 0.0
    assert res["kind"] == "steady"


def test_soliton_reduce_subcommand(tmp_path):
    out = tmp_path / "rd"
    r0 = np.pi / 8
    code = run_cli(
        "soliton", "reduce",
        "--h0", f"{np.sin(r0)}", "--dh0", f"{np.cos(r0)}",
        "--ddh0", f"{-np.sin(r0)}", "--lambda", "-16",
        "--span", f"{r0}", f"{3 * np.pi / 8}", "--out", str(out),
    )
    assert code == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "r,h,hp,hpp"


def test_soliton_shoot_subcommand(tmp_path):
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    cfg = tmp_path / "shoot.json"
    cfg.write_text(json.dumps({
        "h0": np.sin(r0), "dh0": np.cos(r0), "ddh0": -np.sin(r0),
        "span": [r0, r1], "target_dh_end": np.cos(r1),
        "lam_range": [-25.0, -8.0],
    }))
    out = tmp_path / "sh"
    assert run_cli("soliton", "shoot", "--config", str(cfg),
                   "--out", str(out)) == 0
    rep = json.loads((out / "shoot.json").read_text())
    assert rep["found"]
    assert abs(rep["lambda"] + 16.0) < 1e-6


def test_residual_subcommand(tmp_path):
    cfg = tmp_path / "res.json"
    cfg.write_text(json.dumps({
        "structure": "NK",
        "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1},
        "h": "r + 0.5", "theta": "0", "kprime": "-0.5*(r + 0.5)",
        "lambda": 2.0,
    }))
    out = tmp_path / "res"
    assert run_cli("residual", "--config", str(cfg), "--out", str(out)) == 0
    res = json.loads((out / "residuals.json").read_text())
    assert res["coordinate"]["passed"]


def test_manifest_reproduces_run(tmp_path):
    cfg = flow_config(tmp_path, output_times=[0.02])
    out1 = tmp_path / "m1"
    assert run_cli("flow", "--config", cfg, "--out", str(out1)) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg2 = tmp_path / "from_manifest.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "m2"
    assert run_cli("flow", "--config", str(cfg2), "--out", str(out2)) == 0
    assert ((out1 / "snapshot_001.csv").read_bytes()
            == (out2 / "snapshot_001.csv").read_bytes())


# ---------------------------------------------------------------------------
# one CLI path: config files, flags and manifest replay
# ---------------------------------------------------------------------------

def torsion_config(tmp_path, **overrides):
    cfg = {"structure": "NK",
           "domain": {"kind": "interval", "r0": 0.4, "r1": 2.4},
           "h": "r", "theta": "0", "G": "1", "samples": 64}
    cfg.update(overrides)
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def shoot_config(tmp_path):
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    path = tmp_path / "shoot.json"
    path.write_text(json.dumps({
        "h0": np.sin(r0), "dh0": np.cos(r0), "ddh0": -np.sin(r0),
        "span": [r0, r1], "target_dh_end": np.cos(r1),
        "lam_range": [-25.0, -8.0]}))
    return str(path)


RESIDUAL = {"structure": "NK", "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1},
            "h": "r + 0.5", "theta": "0", "kprime": "-0.5*(r + 0.5)",
            "lambda": 2.0}


def residual_config(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(json.dumps(RESIDUAL))
    return str(path)


R0 = np.pi / 8
INVOCATIONS = {
    "verify": lambda tmp: ["verify", "--seed", "3", "--profiles", "3",
                           "--points", "10"],
    "torsion": lambda tmp: ["torsion", "--config", torsion_config(tmp), "--csv"],
    "flow": lambda tmp: ["flow", "--config",
                         flow_config(tmp, output_times=[0.02])],
    "cy": lambda tmp: ["soliton", "cy", "--b", "0.5", "--c", "2"],
    "nk": lambda tmp: ["soliton", "nk", "--family", "cylinder", "--b", "1.2",
                       "--c", "0.3"],
    "reduce": lambda tmp: ["soliton", "reduce", "--h0", f"{np.sin(R0)}",
                           "--dh0", f"{np.cos(R0)}", "--ddh0",
                           f"{-np.sin(R0)}", "--lambda", "-16", "--span",
                           f"{R0}", f"{3 * R0}"],
    "shoot": lambda tmp: ["soliton", "shoot", "--config", shoot_config(tmp)],
    "residual": lambda tmp: ["residual", "--config", residual_config(tmp)],
}


@pytest.mark.parametrize("sub", list(INVOCATIONS))
def test_manifest_replays_every_invocation(tmp_path, sub):
    argv = INVOCATIONS[sub](tmp_path)
    prefix = argv[:2] if argv[0] == "soliton" else argv[:1]
    out1, out2 = tmp_path / "first", tmp_path / "replay"
    assert run_cli(*argv, "--out", str(out1)) == 0
    resolved = json.loads((out1 / "manifest.json").read_text())["config"]
    assert cli.parse_config(sub, resolved).resolved == resolved
    cfg = tmp_path / "from_manifest.json"
    cfg.write_text(json.dumps(resolved))
    assert run_cli(*prefix, "--config", str(cfg), "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cy.json"
    cfg.write_text(json.dumps({"b": 1.0, "c": 1.0, "tolerance": 1e-9}))
    out = tmp_path / "cy"
    assert run_cli("soliton", "cy", "--config", str(cfg), "--c", "2",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"b": 1.0, "c": 2.0, "r0": -2.0, "r1": 2.0,
                                  "tolerance": 1e-9}


@pytest.mark.parametrize("sub,path", [("torsion", torsion_config),
                                      ("flow", flow_config)])
def test_stencil_order_is_checked(tmp_path, sub, path):
    cfg = path(tmp_path, stencil_order=2)
    assert run_cli(sub, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(sub, json.loads(open(cfg).read()))
    assert exc.value.key == "stencil_order"


@pytest.mark.parametrize("flags,key", [
    (["--family", "cylinder"], "b"),
    (["--family", "cylinder", "--b", "-1"], "b"),
    (["--family", "cylinder", "--b", "1e-200"], "b"),   # b^2 underflows to 0
    (["--family", "cylinder", "--b", "1", "--lambda", "-5"], "lambda"),
    (["--family", "sinecone", "--lambda", "-15"], "lambda"),
])
def test_invalid_nk_parameters_are_config_errors(tmp_path, capsys, flags, key):
    assert run_cli("soliton", "nk", *flags, "--out", str(tmp_path / "o")) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub,cfg", [
    ("torsion", {"structure": "NK", "h": "r - 1", "theta": "0", "G": "1",
                 "domain": {"kind": "interval", "r0": 0.4, "r1": 2.4}}),
    ("residual", {"structure": "NK", "h": 1, "theta": "0", "kprime": "0",
                  "lambda": 2.0,
                  "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": -1, "n": 16},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": "soon",
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("cy", {"b": 1.0, "c": 1.0, "r0": 2.0, "r1": 1.0}),
    ("shoot", {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "span": [0.4, 1.1, 1.2],
               "target_dh_end": 0.4, "lam_range": [-25.0, -8.0]}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "2 + sin(r)", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": "many"},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 0},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "interval", "r0": 0.0, "r1": 6.0, "n": 1},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 3},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("shoot", {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "span": [1.2, 0.4],
               "target_dh_end": 0.4, "lam_range": [-25.0, -8.0]}),
    ("shoot", {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "span": [0.4, 0.4],
               "target_dh_end": 0.4, "lam_range": [-25.0, -8.0]}),
    ("verify", {"points": 0}),
    ("verify", {"seed": -1}),
    ("torsion", {"structure": "CY", "h": "1", "theta": "0", "G": "1",
                 "domain": {"kind": "circle", "period": 6.0}, "samples": 0}),
    ("residual", {"structure": "NK", "h": "r", "theta": "0", "kprime": "0",
                  "lambda": 0.0, "samples": 0,
                  "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1}}),
    ("verify", {"profiles": 4.9}),
    ("verify", {"seed": True}),
    ("flow", {"structure": "CY", "t_end": True,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 64.8},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "True", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": 1.0, "theta": "0", "G": "1"}}),
    ("flow", {"structure": "G2", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY",
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "r +", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "r ** 2", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0, "n": 16},
              "initial": {"h": "1", "theta": "r[0]", "G": "1"}}),
    ("flow", {"structure": "CY", "t_end": 0.1,
              "domain": {"kind": "circle", "period": 6.0},
              "initial": {"h": "1", "theta": "0", "G": "1"}}),
])
def test_bad_config_values_exit_2(tmp_path, sub, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    prefix = ["soliton", sub] if sub in ("cy", "shoot") else [sub]
    assert run_cli(*prefix, "--config", str(path),
                   "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("sub,key,value", [
    ("flow", "domain", ["kind"]),
    ("flow", "domain", "circle"),      # not read letter by letter
    ("flow", "initial", ["h", "theta", "G"]),
    ("flow", "initial", "h"),
    ("torsion", "domain", ["kind", "circle"]),
])
def test_a_structured_value_that_is_not_a_json_object_exits_2_at_its_key(
        tmp_path, capsys, sub, key, value):
    config = flow_config if sub == "flow" else torsion_config
    cfg = dict(json.loads(open(config(tmp_path)).read()), **{key: value})
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(sub, cfg)
    assert exc.value.key == key
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(sub, "--config", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err == f"config error: must be a JSON object (at {key!r})\n"
    assert not (tmp_path / "o").exists()


def test_an_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "o"):   # a file; a path under a file
        assert run_cli("verify", "--profiles", "2", "--points", "1",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot make the output directory")
        assert err.endswith("(at 'out')\n")
    assert taken.read_text() == ""


REDUCE = {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "lambda": -16.0,
          "span": [0.4, 1.0]}
SHOOT = {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "target_dh_end": 0.4,
         "lam_range": [-25.0, -8.0], "span": [0.4, 1.0]}
CY = {"b": 1.0, "c": 1.0}
NK = {"family": "cylinder", "b": 1.0}


@pytest.mark.parametrize("sub,cfg,key", [
    ("flow", {"t_end": float("nan")}, "t_end"),
    ("flow", {"t_end": float("inf")}, "t_end"),
    ("flow", {"cfl": float("nan")}, "cfl"),
    ("flow", {"cfl": float("inf")}, "cfl"),
    ("reduce", dict(REDUCE, span=[0.4, float("nan")]), "span"),
    ("reduce", dict(REDUCE, span=[0.4, float("inf")]), "span"),
    ("reduce", dict(REDUCE, span=[1.2, 0.4]), "span"),
    ("shoot", dict(SHOOT, span=[float("nan"), 1.2]), "span"),
    ("reduce", dict(REDUCE, **{"lambda": float("nan")}), "lambda"),
    ("reduce", dict(REDUCE, **{"lambda": float("inf")}), "lambda"),
    ("reduce", dict(REDUCE, h0=float("nan")), "h0"),
    ("reduce", dict(REDUCE, dh0=float("-inf")), "dh0"),
    ("reduce", dict(REDUCE, ddh0=float("nan")), "ddh0"),
    ("reduce", dict(REDUCE, rtol=-1.0), "rtol"),
    ("reduce", dict(REDUCE, u_sign0=float("nan")), "u_sign0"),
    ("shoot", dict(SHOOT, lam_range=[float("nan"), -10.0]), "lam_range"),
    ("shoot", dict(SHOOT, target_dh_end=float("inf")), "target_dh_end"),
    ("shoot", dict(SHOOT, rtol=float("nan")), "rtol"),
    ("shoot", dict(SHOOT, grid=-1), "grid"),
    ("cy", dict(CY, b=float("nan")), "b"),
    ("cy", dict(CY, c=float("inf")), "c"),
    ("cy", dict(CY, r0=float("nan")), "r0"),
    ("cy", dict(CY, r1=float("inf")), "r1"),
    ("cy", dict(CY, tolerance=float("nan")), "tolerance"),
    ("nk", dict(NK, b=float("nan")), "b"),
    ("nk", dict(NK, c=float("inf")), "c"),
    ("nk", dict(NK, **{"lambda": float("nan")}), "lambda"),
    ("nk", dict(NK, tolerance=0.0), "tolerance"),
    ("reduce", dict(REDUCE, tolerance=float("nan")), "tolerance"),
    ("residual", dict(RESIDUAL, tolerance=float("inf")), "tolerance"),
    ("residual", dict(RESIDUAL, **{"lambda": float("nan")}), "lambda"),
    ("shoot", dict(SHOOT, residual_tol=float("nan")), "residual_tol"),
])
def test_nonfinite_or_empty_ranges_are_rejected_before_running(tmp_path, sub,
                                                              cfg, key):
    if sub == "flow":
        cfg = dict(json.loads(open(flow_config(tmp_path)).read()), **cfg)
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(sub, cfg)
    assert exc.value.key == key


@pytest.mark.parametrize("domain,key", [
    ({"kind": "circle"}, "domain.period"),
    ({"kind": "interval", "r0": 0.0}, "domain.r1"),
    ({"kind": "disk"}, "domain.kind"),
    ({"kind": "circle", "period": -1}, "domain"),
    ({"kind": "interval", "r0": 1.0, "r1": 1.0}, "domain"),
    ({"kind": "circle", "period": None}, "domain"),
    ({"kind": "circle", "period": float("nan")}, "domain"),
    ({"kind": "circle", "period": True}, "domain"),
])
def test_domain_errors_keep_their_key_paths(tmp_path, domain, key):
    cfg = json.loads(open(flow_config(tmp_path, domain=dict(domain, n=16))).read())
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("flow", cfg)
    assert exc.value.key == key


def test_cy_interval_errors_keep_their_key_path():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("cy", {"b": 1.0, "c": 1.0, "r0": 2.0, "r1": 1.0})
    assert exc.value.key == "r1"


def test_domain_bounds_accept_numeric_strings(tmp_path):
    cfg = json.loads(open(flow_config(
        tmp_path, domain={"kind": "circle", "period": "6.0", "n": 16})).read())
    assert cli.parse_config("flow", cfg).objects["state"].mesh.dr == 6.0 / 16


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def csv_module_writer(path, header, columns):
    # the row-by-row csv.writer formatting that write_csv must match byte for byte
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([f"{float(x):.17g}" for x in row])


@pytest.mark.parametrize("n_rows", [0, 1, 300])
def test_write_csv_matches_csv_module_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324,
                        1.2345678901234567e17, 3.0, -42.0, 1e22, 0.1])
    columns = [np.resize(special, n_rows),
               rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
               np.arange(n_rows, dtype=float),
               np.resize(special[::-1], n_rows)]
    header = ["r", "h", "theta", "G"]
    cli.write_csv(tmp_path / "new.csv", header, columns)
    csv_module_writer(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sample_file_too_short_for_the_stencil_is_a_config_error(tmp_path, capsys):
    # 5 rows and no domain.n: the mesh comes from the file, too small to build
    path = tmp_path / "theta.csv"
    path.write_text("r,value\n" + "\n".join(f"{r},0" for r in range(5)))
    cfg = json.loads(open(torsion_config(tmp_path)).read())
    cfg["theta"] = {"file": str(path)}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("torsion", cfg)
    assert exc.value.key == "theta"
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("torsion", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "config error" in capsys.readouterr().err


def test_non_numeric_sample_value_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "theta.csv"
    path.write_text("r,theta\n0,abc\n")
    cfg = json.loads(open(torsion_config(tmp_path)).read())
    cfg["theta"] = {"file": str(path)}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("torsion", cfg)
    assert exc.value.key == "theta"
    bad = tmp_path / "abc.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("torsion", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "(at 'theta')" in err
    assert "Traceback" not in err


def test_sample_file_rows_must_match_the_flow_mesh(tmp_path, capsys):
    path = tmp_path / "theta.csv"
    path.write_text("r,value\n" + "\n".join(f"{r},0" for r in range(10)))
    cfg = json.loads(open(flow_config(tmp_path)).read())   # domain.n = 64
    cfg["initial"]["theta"] = {"file": str(path)}
    bad = tmp_path / "rows.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli("flow", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "10 rows, mesh has 64 (at 'initial.theta')" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["torsion", "flow"])
@pytest.mark.parametrize("n", ["10", 10.0])
def test_domain_n_is_converted_checked_and_echoed_as_an_integer(tmp_path, sub, n):
    # a 10-row sample file on a mesh of "10" or 10.0 nodes: one node count
    path = tmp_path / "theta.csv"
    path.write_text("r,value\n" + "\n".join(f"{r},0.1" for r in range(10)))
    domain = {"kind": "circle", "period": 2 * np.pi, "n": n}
    fields = {"h": "1.5 + 0.1*cos(r)", "theta": {"file": str(path)},
              "G": "1 + 0.1*sin(r)"}
    if sub == "torsion":
        obj = {"structure": "NK", "domain": domain, **fields}
    else:
        obj = {"structure": "CY", "domain": domain, "t_end": 0.01,
               "initial": dict(fields, h="1.5")}
    cfg = tmp_path / "n.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert run_cli(sub, "--config", str(cfg), "--out", str(out)) == 0
    echoed = json.loads((out / "manifest.json").read_text())["config"]["domain"]["n"]
    assert echoed == 10 and type(echoed) is int


@pytest.mark.parametrize("n", ["many", 10.5, 3, cli.MAX_NODES + 1])
def test_a_bad_torsion_domain_n_is_a_config_error_at_its_key(tmp_path, capsys, n):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"structure": "NK", "h": "1.5", "theta": "0",
                               "G": "1", "domain": {"kind": "circle",
                                                    "period": 6.0, "n": n}}))
    assert run_cli("torsion", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "(at 'domain.n')" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", ["many", 10.5, 3, cli.MAX_NODES + 1])
def test_a_bad_residual_domain_n_is_a_config_error_at_its_key(tmp_path, capsys, n):
    # residual builds no mesh, and took any n unchecked
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps(dict(RESIDUAL, domain=dict(RESIDUAL["domain"], n=n))))
    assert run_cli("residual", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "(at 'domain.n')" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_residual_h_that_is_not_positive_exits_2_before_any_output(tmp_path, capsys):
    path = tmp_path / "res.json"
    path.write_text(json.dumps(dict(RESIDUAL, h="r - 1")))
    out = tmp_path / "o"
    assert run_cli("residual", "--config", str(path), "--out", str(out)) == 2
    assert "config error: h must stay positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("structure,initial", [
    ("NK", {"h": "r - 1", "theta": "0", "G": "1"}),
    ("NK", {"h": "r", "theta": "0", "G": "-1"}),
    ("CY", {"h": "2 + sin(r)", "theta": "0", "G": "1"}),
])
def test_a_flow_state_that_cannot_be_built_exits_2_before_any_output(
        tmp_path, capsys, structure, initial):
    # a flow state checks its own h and G, and a CY state's constant h
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({
        "structure": structure, "initial": initial, "t_end": 0.1,
        "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1, "n": 16}}))
    out = tmp_path / "o"
    assert run_cli("flow", "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "(at " not in err
    assert not out.exists()


@pytest.mark.parametrize("family,b", [("anticone", "1e300"), ("cone", "-1e300")])
def test_a_cone_whose_default_domain_collapses_exits_2(tmp_path, capsys, family, b):
    assert run_cli("soliton", "nk", "--family", family, "--b", b,
                   "--out", str(tmp_path / "o")) == 2
    assert "config error: need r1 > r0" in capsys.readouterr().err


def test_a_residual_domain_n_is_echoed_as_an_integer(tmp_path):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps(dict(RESIDUAL, domain=dict(RESIDUAL["domain"], n="64"))))
    out = tmp_path / "o"
    assert run_cli("residual", "--config", str(cfg), "--out", str(out)) == 0
    echoed = json.loads((out / "manifest.json").read_text())["config"]["domain"]["n"]
    assert echoed == 64 and type(echoed) is int


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_a_config_file_that_is_not_a_json_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"   # None: no such file
    if text is not None:
        path.write_text(text)
    assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o").exists()


def test_header_only_sample_file_is_a_config_error_without_a_warning(tmp_path, capsys):
    path = tmp_path / "theta.csv"
    path.write_text("r,theta\n")
    cfg = json.loads(open(torsion_config(tmp_path)).read())
    cfg["theta"] = {"file": str(path)}
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's "input contained no data" too
        with pytest.raises(ConfigError) as exc:
            cli.parse_config("torsion", cfg)
        assert exc.value.key == "theta"
        assert "no data rows" in str(exc.value)
        assert run_cli("torsion", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "no data rows (at 'theta')" in err
    assert "Warning" not in err


def test_verify_draws_every_profile_of_an_odd_count(tmp_path, monkeypatch):
    from g2coflow import verify as vf

    drawn = []
    draw = vf._draw_structure

    def spy(rng, structure, *args, **kwargs):
        drawn.append(structure.value)
        return draw(rng, structure, *args, **kwargs)

    monkeypatch.setattr(vf, "_draw_structure", spy)
    assert run_cli("verify", "--profiles", "3", "--points", "5",
                   "--out", str(tmp_path / "o")) == 0
    assert drawn == ["CY", "CY", "NK"]


@pytest.mark.parametrize("n", [0, 1])
def test_verify_needs_at_least_two_profiles(tmp_path, n):
    # n_profiles // 2 NK structures: below 2 the suite would check no NK one
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("verify", {"profiles": n})
    assert exc.value.key == "profiles"
    assert run_cli("verify", "--profiles", str(n), "--out", str(tmp_path / "o")) == 2
    assert not (tmp_path / "o").exists()
    assert cli.parse_config("verify", {"profiles": 2}).resolved["profiles"] == 2


@pytest.mark.parametrize("h0,dh0,message", [
    ("0.5", "0", "singular locus"),   # h' = 0
    ("1", "1", "singular locus"),     # |h'| = 1
    ("-1", "0.5", "not positive"),
    ("1e-4", "0.5", "leading coefficient"),   # h^3 h'((h')^2 - 1) below LEAD_FLOOR
])
def test_a_reduce_jet_on_the_singular_locus_exits_2_before_any_output(
        tmp_path, capsys, h0, dh0, message):
    code = run_cli("soliton", "reduce", "--h0", h0, "--dh0", dh0, "--ddh0", "0.1",
                   "--lambda", "-16", "--span", "0.4", "1.0",
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_shoot_from_a_jet_on_the_locus_exits_2_before_any_output(tmp_path, capsys):
    # the start check does not depend on lambda, so no lambda is scanned
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h0": 1.0, "dh0": 1.0, "ddh0": 0.0, "span": [0.0, 1.0],
                               "target_dh_end": 0.5, "lam_range": [-20.0, 0.0]}))
    assert run_cli("soliton", "shoot", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
    assert "singular locus" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_run_that_raises_writes_a_manifest_that_replays_the_failure(tmp_path, capsys):
    # h' = cos(r) breaks the CY coclosed constraint h' = 0 when the run
    # computes its residuals, after the output directory exists
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "structure": "CY", "domain": {"kind": "circle", "period": 2 * math.pi},
        "h": "2 + sin(r)", "theta": "0", "kprime": "0", "lambda": 0.0}))
    assert run_cli("residual", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coclosed residual ")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "ConstraintViolated"
    assert err == f"error: {manifest['error']}\n"
    assert set(manifest) == {"config", "versions", "wall_time", "status", "error"}
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["config"]))
    assert run_cli("residual", "--config", str(replay),
                   "--out", str(tmp_path / "o2")) == 1
    assert capsys.readouterr().err == err
    again = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert (again["status"], again["error"]) == (manifest["status"], manifest["error"])


@pytest.mark.parametrize("ddh0", [
    "1e300",   # (h'')^2 = 1e600 is past the float range
    "1e150",   # h''' = 2e300 is finite, but the integrator's norms would overflow
])
def test_overflowing_reduced_ode_exits_1(tmp_path, capsys, ddh0):
    code = run_cli("soliton", "reduce", "--h0", "1", "--dh0", "0.5",
                   "--ddh0", ddh0, "--lambda", "-16", "--span", "0.5", "1.0",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err


@pytest.mark.parametrize("G,code", [("1e-200", 1), ("1e200", 0)])
def test_flow_from_extreme_initial_G_exits_without_raising(tmp_path, capsys, G, code):
    # 1e-200 is below the positivity floor; 1e200 squared is past the float
    # range, and the run must not overflow (RuntimeWarnings are errors here)
    cfg = flow_config(tmp_path, t_end=1e-3,
                      initial={"h": "1", "theta": "0.01*sin(r)", "G": G})
    assert run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o")) == code
    if code:
        assert "positivity floor" in capsys.readouterr().err


@pytest.mark.parametrize("sub,key", [
    ("verify", "points"), ("verify", "profiles"), ("torsion", "samples"),
    ("residual", "samples"), ("shoot", "grid"), ("flow", "domain.n"),
])
def test_size_keys_over_their_caps_are_rejected_at_parse_time(tmp_path, sub, key):
    # one past the cap; a size at the cap itself is never run
    if sub in ("verify", "residual"):
        cfg = {"verify": {}, "residual": dict(RESIDUAL)}[sub]
    else:
        make = {"torsion": torsion_config, "shoot": shoot_config,
                "flow": flow_config}[sub]
        cfg = json.loads(open(make(tmp_path)).read())
    if key == "domain.n":
        cfg["domain"] = dict(cfg["domain"], n=cli.MAX_NODES + 1)
    else:
        cfg[key] = cli.MAX_COUNT + 1
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(sub, cfg)
    assert exc.value.key == key


def test_output_times_over_their_cap_are_rejected_at_parse_time(tmp_path):
    # each distinct time writes one snapshot file; a list at the cap parses,
    # and neither is run
    cfg = json.loads(open(flow_config(tmp_path)).read())
    times = list(np.linspace(0.0, 0.05, cli.MAX_COUNT + 1))
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("flow", dict(cfg, output_times=times))
    assert exc.value.key == "output_times"
    at_cap = cli.parse_config("flow", dict(cfg, output_times=times[1:]))
    assert len(at_cap.resolved["output_times"]) == cli.MAX_COUNT


def bad_flag_values(spec):
    """A value the flag's type cannot convert (one not among its choices),
    and for a list flag the wrong counts too."""
    if spec.choices:
        return [["bogus"]]
    if spec.nargs:
        return [["abc"] * spec.nargs, ["1.0"], ["1.0"] * (spec.nargs + 1)]
    return [["abc"]]


BAD_FLAGS = [(sub, key, values)
             for sub, command in cli.COMMANDS.items()
             for key, spec in command.keys.items()
             if spec.flag and spec.type is not bool
             for values in bad_flag_values(spec)]


@pytest.mark.parametrize("sub,key,values", BAD_FLAGS,
                         ids=[f"{s}-{k}-{'_'.join(v)}" for s, k, v in BAD_FLAGS])
def test_every_bad_flag_value_exits_2_at_its_key(tmp_path, capsys, sub, key, values):
    # the last of a repeated flag wins, so the bad value follows a valid run
    argv = INVOCATIONS[sub](tmp_path) + ["--" + key.replace("_", "-"), *values]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    assert f"(at {key!r})" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,listing", [
    (["verify"], "--suite {identities}"),
    (["soliton", "nk"], "--family {cone,anticone,cylinder,sinecone}"),
])
def test_help_lists_the_values_of_a_choice_flag(capsys, argv, listing):
    with pytest.raises(SystemExit):
        cli.main(argv + ["--help"])
    assert listing in capsys.readouterr().out


def every_flag_argv(sub):
    """`sub` with each of its flags, a value flag taking its first choice or
    a negative number in exponent notation, which the parser's own pattern
    admits."""
    command = cli.COMMANDS[sub]
    argv = ["soliton", sub] if command.soliton else [sub]
    for key, spec in command.keys.items():
        if spec.flag:
            argv.append("--" + key.replace("_", "-"))
            if spec.type is not bool:
                argv += [spec.choices[0] if spec.choices else "-1e-3"] * (spec.nargs or 1)
    return argv + ["--config", "c.json", "--out", "o"]


@pytest.mark.parametrize("sub", list(cli.COMMANDS))
def test_the_shared_parser_parses_as_a_fresh_one(capsys, sub):
    argv = every_flag_argv(sub)
    fresh = vars(cli.build_parser.__wrapped__().parse_args(argv))
    assert cli.build_parser() is cli.build_parser()
    assert vars(cli.build_parser().parse_args(argv)) == fresh
    # a rejected command line leaves the shared parser as it was
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + ["--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert vars(cli.build_parser().parse_args(argv)) == fresh


HALTING_FLOWS = {
    # (D1 h)^2 and h^2 overflow, so every trial step is rejected down to dt = 0
    "StepSizeUnderflow": {"structure": "NK", "t_end": 1e-3,
                          "initial": {"h": "1e200", "theta": "0.5235987755982988",
                                      "G": "1"}},
    # the decayed state takes steps capped by MAX_STAGES, far short of t_end
    "WorkBudgetExceeded": {"structure": "CY", "t_end": 1e300,
                           "initial": {"h": "1", "theta": "0.01*sin(r)", "G": "1"}},
}


@pytest.mark.parametrize("status", list(HALTING_FLOWS))
def test_a_flow_that_cannot_finish_halts_with_exit_1(tmp_path, capsys, monkeypatch,
                                                     status):
    # in process; the budget case under a budget of 50,000 RHS evaluations,
    # which it spends in a second where the shipped budget takes 15 s
    assert coflow.MAX_RHS_EVALS == 1_000_000
    if status == "WorkBudgetExceeded":
        monkeypatch.setattr(coflow, "MAX_RHS_EVALS", 50_000)
    cfg = flow_config(tmp_path, **HALTING_FLOWS[status])
    out = tmp_path / "o"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 1
    assert json.loads((out / "manifest.json").read_text())["status"] == status
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["status"] == status and diag["rhs_evals"] <= coflow.MAX_RHS_EVALS
    assert f"flow {status} after" in capsys.readouterr().out


OVERFLOWS = [
    # h^2 and (D1 h)^2 overflow in the NK rates: every trial step is rejected
    ("flow", {"structure": "NK", "t_end": 1e-3,
              "initial": {"h": "1e200", "theta": "0.5235987755982988", "G": "1"}},
     "StepSizeUnderflow"),
    # (theta')^2 overflows, and G turns negative inside the first step
    ("flow", {"initial": {"h": "1", "theta": "1e200*sin(r)", "G": "1"}},
     "SingularityDetected"),
    ("torsion", {"h": "exp(exp(exp(r)))"}, None),
    ("torsion", {"h": "pow(r, 100000000)"}, None),
    ("residual", {"h": "1e200*sin(r)"}, None),
    ("residual", {"theta": "exp(r*300)"}, None),
]


@pytest.mark.parametrize("sub,overrides,status", OVERFLOWS)
def test_an_overflow_exits_1_without_a_warning(tmp_path, capsys, sub, overrides,
                                                status):
    # in process, where RuntimeWarnings are errors: a halted flow writes its
    # artifacts, and an overflowing profile is a SingularEval
    if sub == "residual":
        cfg = tmp_path / "res.json"
        cfg.write_text(json.dumps(dict(RESIDUAL, **overrides)))
    else:
        cfg = {"flow": flow_config, "torsion": torsion_config}[sub](tmp_path,
                                                                   **overrides)
    out = tmp_path / "o"
    assert run_cli(sub, "--config", str(cfg), "--out", str(out)) == 1
    if status:
        assert json.loads((out / "manifest.json").read_text())["status"] == status
    else:
        assert capsys.readouterr().err.startswith("error: non-finite value")


STOPS_AT_START = [
    # the trajectory stops within ~1e-14 of r0, so the 801 dense nodes repeat
    # and np.gradient divided by zero
    "--h0 1 --dh0 1.0000000001e-4 --ddh0 -1 --lambda -16 --span 0.4 1.0",
    "--h0 1 --dh0 1.000000000000001e-4 --ddh0 -1 --lambda -16 --span 0.4 1.0",
    "--h0 11.54545421247174 --dh0 -0.8316868328542356 --ddh0 -435.8501551722701 "
    "--lambda 484.46831204964633 --span -0.1613001868919004 0.8869680490535845 "
    "--rtol 0.9",
    # a span so short that np.gradient's products of steps underflow to 0
    "--h0 1 --dh0 0.5 --ddh0 0 --lambda 0 --span 0 4.550996573810824e-294 --rtol 0.5",
]


@pytest.mark.parametrize("flags", STOPS_AT_START)
def test_a_trajectory_that_stops_at_its_start_exits_1_without_a_warning(
        tmp_path, capsys, flags):
    argv = ["soliton", "reduce", *flags.split(), "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 1
    assert "is too short for its 801-node grid" in capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg", [
    # the integrator's error scale atol + |y| rtol overflowed
    ("reduce", {"h0": 1.0, "dh0": 3.0, "ddh0": 0.0, "lambda": 0.0,
                "span": [0.0, 1.0], "rtol": 1e300}),
    # no error control: the run completed on an arbitrary trajectory
    ("reduce", dict(REDUCE, rtol=1e300)),
    ("reduce", dict(REDUCE, rtol=1.0)),
    ("shoot", dict(SHOOT, rtol=1.0)),
    # DOP853 raised it to 100 eps with a UserWarning
    ("reduce", dict(REDUCE, rtol=1e-300)),
    ("shoot", dict(SHOOT, rtol=2e-14)),
])
def test_an_rtol_outside_the_integrators_range_exits_2_at_the_key(tmp_path, capsys,
                                                                  sub, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("soliton", sub, "--config", str(path),
                   "--out", str(tmp_path / "o")) == 2
    assert "(at 'rtol')" in capsys.readouterr().err


@pytest.mark.parametrize("sub,cfg,key", [
    ("shoot", dict(SHOOT, lam_range=[-1.7976931348623157e308,
                                     1.7976931348623157e308]), "lam_range"),
    ("shoot", dict(SHOOT, lam_range=[0.0, 1.7976931348623157e308]), "lam_range"),
    ("shoot", dict(SHOOT, lam_range=[-10.0, float("inf")]), "lam_range"),
    ("reduce", dict(REDUCE, span=[-1.7976931348623157e308,
                                  1.7976931348623157e308]), "span"),
    ("shoot", dict(SHOOT, span=[0.4, 1e301]), "span"),
])
def test_a_range_past_1e300_exits_2_at_its_key(tmp_path, capsys, sub, cfg, key):
    # np.linspace over a range as wide as the float range overflowed with a
    # RuntimeWarning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("soliton", sub, "--config", str(path),
                   "--out", str(tmp_path / "o")) == 2
    assert f"(at '{key}')" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["1e300", "1.7976931348623157e308", "-1e300"])
def test_a_cy_soliton_whose_c_squared_overflows_exits_2_at_c(tmp_path, capsys, c):
    # c ** 2 on Python floats raised a bare OverflowError
    out = tmp_path / "o"
    assert run_cli("soliton", "cy", "--b", "2.38", "--c", c, "--r0", "-2.7",
                   "--r1", "16", "--out", str(out)) == 2
    assert "(at 'c')" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("domain,key", [
    ({"kind": "circle", "period": 1.7976931348623157e308}, "domain.period"),
    ({"kind": "circle", "period": 1.0, "r0": -1e301}, "domain.r0"),
    ({"kind": "interval", "r0": 0.0, "r1": 1e301}, "domain.r1"),
])
def test_a_domain_bound_past_1e300_exits_2_at_its_key(tmp_path, capsys, domain, key):
    # the circle's sample points overflowed with a RuntimeWarning
    path = tmp_path / "res.json"
    path.write_text(json.dumps({
        "structure": "NK", "domain": domain, "h": "1", "theta": "r",
        "kprime": "0", "lambda": 1.7, "samples": 50}))
    assert run_cli("residual", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert f"(at '{key}')" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,want", [
    ("soliton reduce --h0 1 --dh0 0.9 --ddh0 -3.826834323650898e-1 --lambda -16 "
     "--span 0.4 1.0", "ddh0", -0.3826834323650898),
    ("soliton reduce --h0 1 --dh0 0.9 --ddh0 -0.38 --lambda -16 --span -1e-3 1",
     "span", [-0.001, 1.0]),
    ("soliton reduce --h0 1 --dh0 0.9 --ddh0 -0.38 --lambda -16 --span -1E-3 -.5e-3",
     "span", [-0.001, -0.0005]),
])
def test_negative_flag_values_in_exponent_notation_are_values(tmp_path, argv, key,
                                                              want):
    # argparse read -3.8e-1 as an option and stopped: "expected one argument"
    out = tmp_path / "o"
    assert run_cli(*argv.split(), "--out", str(out)) in (0, 1)
    assert json.loads((out / "manifest.json").read_text())["config"][key] == want


def test_a_negative_b_in_exponent_notation_reaches_the_cylinder_check(tmp_path,
                                                                      capsys):
    assert run_cli("soliton", "nk", "--family", "cylinder", "--b", "-1e+300",
                   "--out", str(tmp_path / "o")) == 2
    assert "cylinder needs b > 0" in capsys.readouterr().err


EXTREME_FLOATS = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
                  1.7976931348623157e308, math.nan, math.inf, -math.inf]


def key_values(spec):
    """Values of a config key's type and count: one of its choices where it
    has them, integers up to a shooting grid of 13, or floats that are
    moderate, extreme, subnormal or not finite (those in (0, 1) hit the
    narrow `rtol` range)."""
    if spec.choices is not None:
        one = st.sampled_from(spec.choices)
    elif spec.type is int:
        one = st.integers(-1, 13)
    else:
        one = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats(0.0, 1.0),
                        st.floats(-20.0, 20.0), st.floats())
    if spec.nargs is None:
        return one
    return st.lists(one, min_size=spec.nargs, max_size=spec.nargs)


@st.composite
def soliton_configs(draw, sub):
    """A config of `soliton sub` whose keys pass their checks, except at most
    one key drawn unchecked."""
    keys = cli.COMMANDS[sub].keys
    wild = draw(st.sampled_from([None, *keys]))
    cfg = {}
    for key, spec in keys.items():
        values = key_values(spec)
        if key != wild and spec.check is not None:
            values = values.filter(spec.check[0])
        cfg[key] = draw(values)
    return cfg


@pytest.mark.parametrize("sub", ["cy", "nk", "reduce", "shoot"])
def test_soliton_runs_exit_0_1_or_2_on_any_config(tmp_path_factory, monkeypatch,
                                                  sub):
    # in process, where RuntimeWarnings are errors; under a budget of 5,000
    # evaluations per solve, 6 times the most a tier-1 solve takes, so that a
    # stiff shoot (up to grid + 1 solves past the budget) stays short
    monkeypatch.setattr(so, "MAX_RHS_EVALS", 5_000)
    out = tmp_path_factory.mktemp(sub)

    @settings(max_examples=75, derandomize=True, deadline=5_000, database=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(soliton_configs(sub))
    def exits_cleanly(cfg):
        path = out / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["soliton", sub, "--config", str(path),
                         "--out", str(out / "o")]) in (0, 1, 2)

    exits_cleanly()


@st.composite
def one_wild_key(draw, valid, wild):
    """(config, key): a config of valid values, except, half of the time, the
    key drawn from values its checks reject (None for no such key)."""
    key = draw(st.one_of(st.none(), st.sampled_from(list(wild))))
    cfg = {k: draw(values) for k, values in valid.items()}
    if key is not None:
        cfg[key] = draw(wild[key])
    return cfg, key


# the valid sizes drawn stay far below every cap; sizes past a cap are
# rejected at parse time (test_size_keys_over_their_caps_are_rejected_at_parse_time)
SIZE_JUNK = st.sampled_from([0, -1, 2.5, True, "many"])


def verify_configs():
    return one_wild_key(
        {"seed": st.integers(0, 2**64), "profiles": st.integers(2, 4),
         "points": st.integers(1, 13)},
        {"seed": st.sampled_from([-1, False, "seven", 2.5]),
         "profiles": st.one_of(st.just(1), SIZE_JUNK), "points": SIZE_JUNK,
         "suite": st.just("bogus")})


# at most three leaves: sums, products, quotients, functions and powers of them
EXPRESSIONS = st.recursive(
    st.sampled_from(["r", "0", "1", "0.5", "-2", "1e300", "1e-300"]),
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "atan"]), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("pow({}, {})".format, inner, st.sampled_from(["0", "2", "3"]))),
    max_leaves=3)


# an h that is positive wherever it is finite; a non-finite one exits 1
POSITIVE_EXPRESSIONS = st.builds("1 + exp({})".format, EXPRESSIONS)


def residual_domains(n):
    """Small circles and intervals, with a node count drawn from n or none."""
    circle = st.builds(lambda p, r0: {"kind": "circle", "period": p, "r0": r0},
                       st.floats(0.1, 7.0), st.floats(-3.0, 3.0))
    interval = st.builds(lambda r0, w: {"kind": "interval", "r0": r0, "r1": r0 + w},
                         st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
    return st.builds(lambda d, n: d if n is None else dict(d, n=n),
                     st.one_of(circle, interval), n)


BAD_DOMAINS = st.one_of(residual_domains(st.sampled_from([3, "many", 10.5])),
                        st.just({"kind": "interval", "r0": 1.0, "r1": 0.5}),
                        st.just({"kind": "circle", "period": 0.0}),
                        st.sampled_from([["kind"], "circle"]))


def residual_configs():
    return one_wild_key(
        {"structure": st.sampled_from(["CY", "NK"]),
         "domain": residual_domains(st.one_of(st.none(),
                                              st.integers(pf.MIN_NODES, 64))),
         "h": POSITIVE_EXPRESSIONS, "theta": EXPRESSIONS, "kprime": EXPRESSIONS,
         "lambda": st.one_of(st.floats(-20.0, 20.0),
                             st.sampled_from([x for x in EXTREME_FLOATS
                                              if math.isfinite(x)])),
         "samples": st.integers(1, 13), "tolerance": st.floats(1e-12, 1.0)},
        {"structure": st.just("G2"), "domain": BAD_DOMAINS,
         "h": st.sampled_from(["q + 1", "pow(r, 0.5)", "r +", 1, "0", "-exp(r)"]),
         "lambda": st.sampled_from([math.nan, math.inf]), "samples": SIZE_JUNK,
         "tolerance": st.sampled_from([0.0, -1.0, math.inf, math.nan])})


@pytest.mark.parametrize("sub, configs", [("verify", verify_configs),
                                          ("residual", residual_configs)])
def test_verify_and_residual_exit_0_1_or_2_on_any_config(tmp_path_factory, sub, configs):
    # in process, where RuntimeWarnings are errors; a rejected value exits 2
    out = tmp_path_factory.mktemp(sub)

    @settings(max_examples=100, derandomize=True, deadline=2_000, database=None)
    @given(configs())
    def exits_cleanly(drawn):
        cfg, wild = drawn
        path = out / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(path), "--out", str(out / "o")])
        assert code == 2 if wild else code in (0, 1)

    exits_cleanly()


def torsion_configs():
    """Torsion configs; a wild h or G is drawn beside a G or h of 1, since the
    one evaluation that checks both exits 1 on a partner that is not finite."""
    def finite_partner(drawn):
        cfg, wild = drawn
        partner = {"h": "G", "G": "h"}.get(wild)
        return (dict(cfg, **{partner: "1"}) if partner else cfg), wild

    return one_wild_key(
        {"structure": st.sampled_from(["CY", "NK"]),
         "domain": residual_domains(st.one_of(st.none(),
                                              st.integers(pf.MIN_NODES, 64))),
         "h": POSITIVE_EXPRESSIONS, "theta": EXPRESSIONS, "G": POSITIVE_EXPRESSIONS,
         "samples": st.integers(1, 13), "csv": st.booleans()},
        {"structure": st.just("G2"), "domain": BAD_DOMAINS,
         "h": st.sampled_from(["0", "-exp(r)", "r +", 1]),
         "theta": st.sampled_from(["q + 1", "pow(r, 0.5)"]),
         "G": st.sampled_from(["0", "-1 - r*r"]),
         "samples": SIZE_JUNK, "csv": st.sampled_from([1, "yes", None]),
         "stencil_order": st.sampled_from([2, "four"])}).map(finite_partner)


def flow_configs(structure):
    """Flow configs of one structure; a CY h must be constant."""
    h = st.sampled_from(["1", "0.5", "2"]) if structure == "CY" else POSITIVE_EXPRESSIONS
    bad_initial = [["h", "theta", "G"], {"h": "1", "theta": "0"},
                   {"h": "r +", "theta": "0", "G": "1"},
                   {"h": {"file": "missing.csv"}, "theta": "0", "G": "1"}]
    if structure == "CY":
        bad_initial.append({"h": "2 + sin(r)", "theta": "0", "G": "1"})
    return one_wild_key(
        {"structure": st.just(structure),
         "domain": residual_domains(st.integers(pf.MIN_NODES, 32)),
         "initial": st.fixed_dictionaries({"h": h, "theta": EXPRESSIONS,
                                           "G": POSITIVE_EXPRESSIONS}),
         "t_end": st.sampled_from([1e-4, 1e-3]),
         "output_times": st.lists(st.floats(0.0, 1e-3), max_size=3),
         "cfl": st.sampled_from([0.1, 0.2, 1.0])},
        {"structure": st.just("G2"),
         "domain": st.one_of(BAD_DOMAINS, residual_domains(st.none())),  # no n
         "initial": st.sampled_from(bad_initial),
         "t_end": st.sampled_from([0.0, -1.0, math.inf, math.nan, "soon"]),
         "output_times": st.sampled_from([0.5, ["soon"], [True]]),
         "cfl": st.sampled_from([0.0, -0.2, math.inf, math.nan]),
         "stencil_order": st.sampled_from([2, "four"])})


@pytest.mark.parametrize("sub, configs, examples", [
    ("torsion", torsion_configs(), 300),
    ("flow", st.sampled_from(["CY", "NK"]).flatmap(flow_configs), 150)])
def test_torsion_and_flow_exit_0_1_or_2_on_any_config(tmp_path_factory, monkeypatch,
                                                      sub, configs, examples):
    # in process, where RuntimeWarnings are errors; a rejected value exits 2
    out = tmp_path_factory.mktemp(sub)
    monkeypatch.chdir(out)   # where a relative sample-file path is looked up

    @settings(max_examples=examples, derandomize=True, deadline=2_000, database=None)
    @given(configs)
    def exits_cleanly(drawn):
        cfg, wild = drawn
        path = out / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main([sub, "--config", str(path), "--out", str(out / "o")])
        assert code == 2 if wild else code in (0, 1)

    exits_cleanly()


def src_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


LAZY_SCRIPT = """
import sys
from g2coflow import cli
if len(sys.argv) > 1:
    assert cli.main(sys.argv[1:]) == 0
print([m for m in ("scipy.sparse", "scipy.integrate", "scipy.optimize")
       if m in sys.modules])
"""


SINE_CONE_JET = [repr(x) for x in (math.sin(math.pi / 8), math.cos(math.pi / 8),
                                    -math.sin(math.pi / 8))]


@pytest.mark.parametrize("argv,loaded", [
    ([], []),
    (["soliton", "nk", "--family", "cylinder", "--b", "1"], []),
    # the residuals' stencils need scipy.sparse; the integrator needs none
    (["soliton", "reduce", "--h0", SINE_CONE_JET[0], "--dh0", SINE_CONE_JET[1],
      "--ddh0", SINE_CONE_JET[2], "--lambda", "-16",
      "--span", repr(math.pi / 8), repr(3 * math.pi / 8)], ["scipy.sparse"]),
])
def test_scipy_subpackages_load_only_when_a_computation_needs_them(tmp_path,
                                                                  argv, loaded):
    # importing them costs most of a short run's start-up, so the modules
    # import each inside the function that calls it
    if argv:
        argv = argv + ["--out", str(tmp_path / "o")]
    run = subprocess.run([sys.executable, "-c", LAZY_SCRIPT, *argv], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == str(loaded)


def test_importing_the_cli_builds_no_parser():
    # the first cli.main call builds it, so that importing costs nothing more
    script = "from g2coflow import cli; print(cli.build_parser.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", script], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0"]


def test_flow_with_t_end_among_the_output_times_writes_it_once(tmp_path):
    cfg = flow_config(tmp_path, domain={"kind": "circle", "period": 2 * np.pi,
                                        "n": 32},
                      t_end=0.1, output_times=[0.05, 0.1])
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_000.csv", "snapshot_001.csv"]
    times = json.loads((out / "diagnostics.json").read_text())["snapshot_times"]
    assert len(times) == 2 and np.allclose(times, [0.05, 0.1])


def test_flow_with_an_output_time_just_below_t_end_ends_at_t_end(tmp_path):
    cfg = flow_config(tmp_path, domain={"kind": "circle", "period": 2 * np.pi,
                                        "n": 32},
                      t_end=0.1, output_times=[0.1 - 1e-15])
    out = tmp_path / "out"
    assert run_cli("flow", "--config", cfg, "--out", str(out)) == 0
    assert [p.name for p in out.glob("snapshot_*.csv")] == ["snapshot_000.csv"]
    times = json.loads((out / "diagnostics.json").read_text())["snapshot_times"]
    assert times == [0.1]


def test_torsion_outputs_are_the_reports_numbers(tmp_path):
    obj = {"structure": "NK", "domain": {"kind": "circle", "period": 2 * np.pi},
           "h": "1.5 + 0.2*sin(r)", "theta": "0.1*cos(r)",
           "G": "1 + 0.1*sin(2*r)", "samples": 48}
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "t"
    assert run_cli("torsion", "--config", str(cfg), "--csv", "--out", str(out)) == 0
    rep = ts.torsion_report(cli.parse_config("torsion", obj).objects["g"], 48)
    assert json.loads((out / "torsion.json").read_text()) == {
        "tau0_sup": np.max(np.abs(rep.tau0)),
        "tau1_sup": np.max(np.abs(rep.tau1_coeff)),
        "tau2_norm": rep.tau2_norm,
        "tau3_sup": rep.tau3_sup,
        "coclosed_residual": rep.coclosed_residual,
        "samples": 48,
    }
    table = np.loadtxt(out / "torsion.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table.T, [rep.rs, np.real(rep.tau0),
                                    np.real(rep.tau1_coeff)])


def test_a_cy_coefficient_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    assert run_cli("soliton", "cy", "--b", "1", "--c", "1e200",
                   "--out", str(tmp_path / "o")) == 2
    assert "'c'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
