"""The normalized gradient flow from the large complex limit.

The flow of V = grad(Re s)/|grad(Re s)|^2 moves the level set s = 0 (the
union of coordinate hyperplane sections) onto the smooth member s = 1/(5
psi), conserving Im(s) and advancing Re(s) at unit rate.  Torus fibers of
the limit transport to Lagrangian tori; a point of a codimension-2 fiber
sweeps out a full extra circle on its way.
"""

import numpy as np

from quintfib import flowlab as fl

PSI = 10.0
cfg = fl.FlowConfig(psi=PSI, tol=1e-10)
rng = np.random.default_rng(0)

print(f"flow target time 1/(5 psi) = {cfg.flow_target_time}")
p0 = fl.random_x_infinity_point(rng)
print(f"start: chart {p0.chart}, s = {fl.eval_s(p0):.3e}")
end, diag = fl.flow(p0, cfg.flow_target_time, cfg)
print(f"end:   s = {fl.eval_s(end):.6f} (want {1/(5*PSI):.6f})")
print(f"  Im(s) drift {diag.im_s_drift:.2e}, f-rate drift {diag.f_drift:.2e}")
print(f"  Newton distance to the member: {fl.distance_to_quintic(end, PSI):.2e}")

print("\nclosed form on the divisor slice x4 = 0 (chart 5):")
p = fl.AffinePoint(5, (1.0, 1.0, 1.0, 0.0))
print(f"  V{p.coords} = {fl.grad_V(p, cfg)}")

fiber = fl.TorusFiber(frozenset({5}), {i: 1.0 for i in range(1, 5)})
res = fl.transport_fiber(fiber, PSI, n_samples=128, n_probes=8, seed=1)
print(f"\ntransported a 3-torus fiber: {len(res.points)} samples")
print(f"  max |Im s| {res.im_s_max:.2e}, member distance "
      f"{res.quintic_distance_max:.2e}")
print(f"  Lagrangian defect (ambient Kahler form): {res.lagrangian_defect:.2e}")

w = fl.circle_collapse_winding((4, 5), {1: 1.0, 2: 1.0, 3: 1.0}, psi=PSI)
print(f"\ncodimension-2 fiber point sweeps a circle: winding = {w:.3f}")
