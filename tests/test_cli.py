import csv
import json

import numpy as np
import pytest

from g2coflow import cli
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


def residual_config(tmp_path):
    path = tmp_path / "res.json"
    path.write_text(json.dumps({
        "structure": "NK",
        "domain": {"kind": "interval", "r0": 0.1, "r1": 2.1},
        "h": "r + 0.5", "theta": "0", "kprime": "-0.5*(r + 0.5)",
        "lambda": 2.0}))
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
])
def test_bad_config_values_exit_2(tmp_path, sub, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    prefix = ["soliton", sub] if sub in ("cy", "shoot") else [sub]
    assert run_cli(*prefix, "--config", str(path),
                   "--out", str(tmp_path / "o")) == 2


REDUCE = {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "lambda": -16.0}
SHOOT = {"h0": 0.4, "dh0": 0.9, "ddh0": -0.4, "target_dh_end": 0.4,
         "lam_range": [-25.0, -8.0]}


@pytest.mark.parametrize("sub,cfg,key", [
    ("flow", {"t_end": float("nan")}, "t_end"),
    ("flow", {"t_end": float("inf")}, "t_end"),
    ("flow", {"cfl": float("nan")}, "cfl"),
    ("flow", {"cfl": float("inf")}, "cfl"),
    ("reduce", dict(REDUCE, span=[0.4, float("nan")]), "span"),
    ("reduce", dict(REDUCE, span=[0.4, float("inf")]), "span"),
    ("reduce", dict(REDUCE, span=[1.2, 0.4]), "span"),
    ("shoot", dict(SHOOT, span=[float("nan"), 1.2]), "span"),
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


@pytest.mark.parametrize("n", [0, 1])
def test_verify_needs_at_least_two_profiles(tmp_path, n):
    # n_profiles // 2 per structure: below 2 the suite would check nothing
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("verify", {"profiles": n})
    assert exc.value.key == "profiles"
    assert run_cli("verify", "--profiles", str(n), "--out", str(tmp_path / "o")) == 2
    assert not (tmp_path / "o").exists()
    assert cli.parse_config("verify", {"profiles": 2}).resolved["profiles"] == 2


def test_numerical_failure_during_a_run_exits_1(tmp_path, capsys):
    # h' = 0 at the start sits on the reduced ODE's singular locus
    code = run_cli("soliton", "reduce", "--h0", "0.5", "--dh0", "0", "--ddh0", "0.1",
                   "--lambda", "-16", "--span", "0.4", "1.0",
                   "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "singular locus" in err
