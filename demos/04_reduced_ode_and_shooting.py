"""The general NK soliton problem as a third-order ODE, and shooting.

Away from the loci h' = 0 and |h'| = 1, the soliton system reduces to a
single polynomial third-order ODE for the warping function h; sin(3 theta)
and k' are then recovered algebraically. Integrating from exact sine-cone
jets reproduces h = sin r, and shooting over the soliton constant (a grid
scan for a sign change of the closing functional, then brentq on the first
bracket) recovers lambda = -16 from boundary data alone.
"""

import numpy as np

from g2coflow import soliton as so

r0, r1 = np.pi / 8, 3 * np.pi / 8

# round trip: sine-cone jets -> trajectory -> (theta, k') recovery
traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                            (r0, r1), rtol=1e-10)
print("trajectory status:", traj.status)
print("max |h - sin r|:  ", float(np.max(np.abs(traj.h - np.sin(traj.rs)))))

theta, kprime = so.recover_theta_k(traj, u_sign0=1.0)  # at traj.lam = -16
print("max |theta - r/3|:", float(np.max(np.abs(
    np.asarray(theta.value(traj.rs)) - traj.rs / 3))))
print("max |k'|:         ", float(np.max(np.abs(
    np.asarray(kprime.value(traj.rs))))))

cand = so.candidate_from_trajectory(traj)
print("full-system residuals:", so.residuals_nk(cand).worst)

# integration stops cleanly at the reduction's singular locus
long = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                            (r0, 3.0))
print(f"\nrunning toward h' = 0: stopped '{long.status}' at r = "
      f"{long.rs[-1]:.6f} (pi/2 = {np.pi / 2:.6f})")

# shooting: recover the soliton constant from a boundary condition; the scan
# integrates each of its 13 grid lambdas in turn, then brentq refines the
# first bracket
rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
               target_dh_end=np.cos(r1), lam_range=(-25.0, -8.0))
print(f"\nshooting: found={rep.found}, lambda = {rep.lam:.9f} "
      f"(reason: {rep.reason})")
print("examined", len(rep.closing_values), "closing-functional values "
      "(the scan's 13 and the root's)")

# an infeasible target reports the scan instead of a candidate
bad = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
               target_dh_end=5.0, lam_range=(-18.0, -14.0))
print(f"infeasible target: found={bad.found} ({bad.reason})")
