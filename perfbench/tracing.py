"""Span tracing of the g2coflow layers for the benchmark's traced run.

`Tracer.install` replaces public functions of the package's modules, and a
few methods of its classes, with wrappers that record spans; `uninstall`
puts the originals back. Nothing inside `src/` changes, and untraced rounds
run the package untouched.

A span is [name, start, end, parent index, job id, note]. Spans stay in
memory and are written out when the run ends. A span's self time is its
duration minus the durations of its child spans. Cheap functions called
thousands of times (`forms.d`, `star7`, `wedge`) are counted, not spanned,
so their time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from g2coflow import cli, coflow, forms, profiles, soliton, torsion, verify


def _note_run_flow(args, result):
    initial = args[0]
    return {"steps": len(result.diagnostics), "n": initial.mesh.n,
            "structure": initial.structure.value, "status": result.status}


def _note_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _note_rc(args, result):
    return {"rc": result}


def _note_found(args, result):
    return {"found": bool(result.found)}


# (owner, attribute, span name, note taking (positional args, result))
SPANNED = [
    (cli, "main", "cli.main", _note_rc),
    (cli, "parse_config", "cli.parse_config", None),
    (cli, "write_csv", "cli.write", _note_bytes),
    (cli, "write_json", "cli.write", _note_bytes),
    (coflow, "run_flow", "coflow.run_flow", _note_run_flow),
    (coflow.Mesh, "deriv_matrix", "coflow.deriv_matrix", None),
    (soliton, "integrate_reduced", "soliton.integrate_reduced", None),
    (soliton, "shoot", "soliton.shoot", _note_found),
    (soliton, "recover_theta_k", "soliton.recover_theta_k", None),
    (soliton, "residuals_nk", "soliton.residuals_nk", None),
    (soliton, "residuals_cy", "soliton.residuals_cy", None),
    (soliton, "form_residual", "soliton.form_residual", None),
    (soliton, "eigenform_check", "soliton.eigenform_check", None),
    (soliton, "compact_identity_check", "soliton.compact_identity_check", None),
    (profiles.Sampled, "derivative", "profiles.sampled_derivative", None),
    (forms, "hodge_laplacian_psi", "forms.hodge_laplacian_psi", None),
    (forms, "laplacian_psi_closed_form", "forms.laplacian_psi_closed_form", None),
    (forms, "integrate_profile", "forms.integrate_profile", None),
    (torsion, "torsion_report", "torsion.torsion_report", None),
    (torsion, "tau2_tau3", "torsion.tau2_tau3", None),
    (verify, "run_identity_suite", "verify.run_identity_suite", None),
    (verify, "random_g2_profile", "verify.random_g2_profile", None),
]
COUNTED = [(forms, "d", "forms.d"), (forms, "star7", "forms.star7"),
           (forms, "wedge", "forms.wedge")]
# top-level profile evaluations; Profile.__call__ is an alias of value
EVALUATED = [(profiles.Profile, "value"), (profiles.Profile, "jet"),
             (profiles.Profile, "__call__")]
LEAF_KINDS = ("closed", "sampled", "antiderivative")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()     # (job id, name) -> calls
        self.job = None
        self._stack = []
        self._eval_depth = 0
        self._trees = {}            # id(root) -> (root, leaf kind, nodes)
        self._saved = []

    # spans ---------------------------------------------------------------
    def open(self, name, note=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, note])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id):
        self.job = job_id
        self._trees.clear()
        return self.open("job")

    def end_job(self, index):
        self.close(index)
        self.job = None

    # wrappers ------------------------------------------------------------
    def _spanned(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index][5] = {"raised": type(exc).__name__}
                raise
            finally:
                self.close(index)
            if note is not None:
                self.spans[index][5] = note(args, result)
            return result
        return traced

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.job, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def _evaluated(self, fn):
        @functools.wraps(fn)
        def traced(root, r, *args, **kwargs):
            if self._eval_depth:    # nested evaluations belong to the outer one
                return fn(root, r, *args, **kwargs)
            kind, nodes = self._tree(root)
            index = self.open("profiles.eval", {"kind": kind, "nodes": nodes,
                                                "points": int(np.size(r))})
            self._eval_depth += 1
            try:
                return fn(root, r, *args, **kwargs)
            finally:
                self._eval_depth -= 1
                self.close(index)
        return traced

    def _tree(self, root):
        """Leaf kind and distinct node count of a profile tree, once per job.

        The walk is its own span so that its cost counts as tracing overhead,
        not as the caller's self time.
        """
        hit = self._trees.get(id(root))
        if hit is None:
            index = self.open("trace.bookkeeping")
            seen, todo, kinds = set(), [root], set()
            while todo:
                p = todo.pop()
                if id(p) in seen:
                    continue
                seen.add(id(p))
                if isinstance(p, profiles.Sampled):
                    kinds.add("sampled")
                elif isinstance(p, profiles.Antiderivative):
                    kinds.add("antiderivative")
                for attr in ("a", "b", "integrand"):
                    child = getattr(p, attr, None)
                    if isinstance(child, profiles.Profile):
                        todo.append(child)
            kind = next((k for k in ("sampled", "antiderivative") if k in kinds),
                        "closed")
            hit = self._trees[id(root)] = (root, kind, len(seen))
            self.close(index)
        return hit[1], hit[2]

    def install(self):
        for owner, attr, name, note in SPANNED:
            self._replace(owner, attr, self._spanned(name, getattr(owner, attr), note))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(name, getattr(owner, attr)))
        for owner, attr in EVALUATED:
            self._replace(owner, attr, self._evaluated(getattr(owner, attr)))

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, note in self.spans:
                fh.write(json.dumps([name, start, end, parent, job, note]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, rounds):
    """Per-layer metrics as {name: (value, unit)}, per traced round.

    `rounds` is the number of traced rounds the spans cover; busy times are
    self times and every value is a total over the rounds divided by it.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    busy, calls = defaultdict(float), Counter()
    flow_steps, flow_busy = defaultdict(float), defaultdict(float)
    node_steps = halted = write_bytes = main_fail = reduced_fail = 0
    in_shoot = roots = 0
    tree_nodes = []
    for i, (name, _s, _e, _p, _job, note) in enumerate(spans):
        key = name
        if name == "profiles.eval":
            key = f"profiles.eval.{note['kind']}"
            calls[f"profiles.eval.points.{note['kind']}"] += note["points"]
            tree_nodes.append(note["nodes"])
        busy[key] += self_t[i]
        calls[key] += 1
        if name == "coflow.run_flow" and note and "steps" in note:
            flow_steps[note["structure"]] += note["steps"]
            flow_busy[note["structure"]] += self_t[i]
            node_steps += note["steps"] * note["n"]
            halted += note["status"] != "Completed"
        elif name == "cli.write" and note and "bytes" in note:
            write_bytes += note["bytes"]
        elif name == "cli.main":
            main_fail += not note or note.get("rc") != 0
        elif name == "soliton.integrate_reduced":
            reduced_fail += bool(note and "raised" in note)
            in_shoot += _has_ancestor(spans, i, "soliton.shoot")
        elif name == "soliton.shoot":
            roots += bool(note and note.get("found"))
    for (_job, name), count in tracer.counts.items():
        calls[name] += count

    per = 1.0 / max(rounds, 1)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("coflow.run_flow.busy_s", busy["coflow.run_flow"] * per, "s")
    put("coflow.steps", sum(flow_steps.values()) * per, "count")
    for structure in ("CY", "NK"):
        steps = flow_steps[structure]
        put(f"coflow.us_per_step.{structure.lower()}",
            1e6 * flow_busy[structure] / steps if steps else 0.0, "us")
    put("coflow.ns_per_node_step",
        1e9 * busy["coflow.run_flow"] / node_steps if node_steps else 0.0, "ns")
    put("coflow.deriv_matrix.busy_s", busy["coflow.deriv_matrix"] * per, "s")
    put("coflow.halted", halted * per, "count")
    put("cli.write.busy_s", busy["cli.write"] * per, "s")
    put("cli.write.bytes", write_bytes * per, "bytes")
    put("cli.main.busy_s", busy["cli.main"] * per, "s")
    put("cli.parse_config.busy_s", busy["cli.parse_config"] * per, "s")
    put("cli.main.fail", main_fail * per, "count")
    put("soliton.integrate_reduced.calls", calls["soliton.integrate_reduced"] * per,
        "count")
    put("soliton.integrate_reduced.busy_s", busy["soliton.integrate_reduced"] * per,
        "s")
    put("soliton.integrate_reduced.fail", reduced_fail * per, "count")
    put("soliton.shoot.busy_s", busy["soliton.shoot"] * per, "s")
    put("soliton.shoot.closing_calls_per_root", in_shoot / roots if roots else 0.0,
        "count")
    for name in ("recover_theta_k", "residuals_nk", "form_residual", "residuals_cy",
                 "eigenform_check", "compact_identity_check"):
        put(f"soliton.{name}.busy_s", busy[f"soliton.{name}"] * per, "s")
    for kind in LEAF_KINDS:
        put(f"profiles.eval.calls.{kind}", calls[f"profiles.eval.{kind}"] * per,
            "count")
        put(f"profiles.eval.points.{kind}",
            calls[f"profiles.eval.points.{kind}"] * per, "count")
        put(f"profiles.eval.busy_s.{kind}", busy[f"profiles.eval.{kind}"] * per, "s")
    put("profiles.tree_nodes", np.mean(tree_nodes) if tree_nodes else 0.0, "count")
    put("profiles.sampled_derivative.calls",
        calls["profiles.sampled_derivative"] * per, "count")
    put("profiles.sampled_derivative.busy_s",
        busy["profiles.sampled_derivative"] * per, "s")
    for name in ("hodge_laplacian_psi", "laplacian_psi_closed_form"):
        put(f"forms.{name}.busy_s", busy[f"forms.{name}"] * per, "s")
    for name in ("d", "star7", "wedge", "integrate_profile"):
        put(f"forms.{name}.calls", calls[f"forms.{name}"] * per, "count")
    put("forms.integrate_profile.busy_s", busy["forms.integrate_profile"] * per, "s")
    for name in ("torsion.torsion_report", "torsion.tau2_tau3",
                 "verify.run_identity_suite", "verify.random_g2_profile"):
        put(f"{name}.busy_s", busy[name] * per, "s")
    put("trace.unattributed_s", busy["job"] * per, "s")
    return out


def baseline_lines(tracer, workload):
    """The ROADMAP baseline figures this workload can reproduce, with verdicts."""
    spans = tracer.spans
    self_t = _self_times(spans)
    lines = []
    per_n = defaultdict(lambda: [0.0, 0])
    shoots, reduced_in_shoot, form_durations = 0, 0, []
    for i, (name, start, end, _p, _job, note) in enumerate(spans):
        if name == "coflow.run_flow" and note and note.get("structure") == "CY":
            per_n[note["n"]][0] += self_t[i]
            per_n[note["n"]][1] += note["steps"]
        elif name == "soliton.shoot":
            shoots += 1
        elif name == "soliton.integrate_reduced":
            reduced_in_shoot += _has_ancestor(spans, i, "soliton.shoot")
        elif name == "soliton.form_residual" and workload == "soliton":
            form_durations.append(end - start)
    if per_n:
        cost = {n: 1e6 * t / steps for n, (t, steps) in sorted(per_n.items()) if steps}
        spread = max(cost.values()) / min(cost.values())
        verdict = "matches" if spread < 1.5 else "MISMATCH"
        lines.append(
            "CY RK4 step cost by n: "
            + ", ".join(f"n={n}: {c:.0f} us" for n, c in cost.items())
            + f"; max/min {spread:.2f} ({verdict}: ROADMAP says about the same "
            "at every n, ~293 us at n=256)")
    if shoots:
        mean = reduced_in_shoot / shoots
        verdict = "matches" if round(mean) == 46 else "MISMATCH"
        lines.append(f"integrate_reduced calls per shoot: {mean:.1f} "
                     f"({verdict}: ROADMAP says 46 for the sine-cone shoot)")
    if form_durations:
        med = float(np.median(form_durations))
        verdict = "matches" if 0.7 < med / 0.34 < 1.4 else "MISMATCH"
        lines.append(f"form_residual on an 801-node trajectory candidate: "
                     f"{med:.3f} s median of {len(form_durations)}, "
                     f"{med / 0.34:.2f}x the ROADMAP's ~0.34 s ({verdict}; "
                     "host speed varies between runs)")
    return lines
