"""Laplacian coflow over a Calabi-Yau base: heat-like phase decay.

With h frozen at 1, the phase theta obeys a heat equation in the evolving
metric while G only shrinks. Starting from a small single-mode phase
perturbation, sup|theta| should decay like e^{-t} and G should drop by
O(amplitude^2). The run writes one CSV per snapshot.
"""

import numpy as np

from g2coflow import coflow as cf
from g2coflow import profiles as pf
from g2coflow.coflow import FlowState, Mesh
from g2coflow.forms import StructureKind

n, eps = 256, 0.01
mesh = Mesh.from_domain(pf.Circle(2 * np.pi), n)
state = FlowState(mesh=mesh, h=np.ones(n), theta=eps * np.sin(mesh.nodes),
                  G=np.ones(n), t=0.0, structure=StructureKind.CY)

run = cf.run_flow(state, t_end=1.0, output_times=(0.25, 0.5, 0.75))
print(f"status: {run.status}, steps: {run.steps} ({run.rejected} rejected, "
      f"{run.rhs_evals} RHS evaluations)")
print(f"{'t':>6} {'sup|theta|':>12} {'e^-t law':>12} {'sup|G-1|':>10}")
for snap in run.snapshots:
    sup_t = np.max(np.abs(snap.theta))
    print(f"{snap.t:6.2f} {sup_t:12.6e} {eps * np.exp(-snap.t):12.6e} "
          f"{np.max(np.abs(snap.G - 1)):10.3e}")

# G never increases along the flow (dG/dt = -9 |grad theta|^2 G <= 0)
minG = [d[5] for d in run.diagnostics]
print("G monotone non-increasing:", all(b <= a for a, b in zip(minG, minG[1:])))

# snapshots can be exported exactly like the CLI does
import csv

with open("cy_flow_final.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["r", "h", "theta", "G"])
    final = run.snapshots[-1]
    for row in zip(mesh.nodes, final.h, final.theta, final.G):
        w.writerow([f"{x:.17g}" for x in row])
print("wrote cy_flow_final.csv")
