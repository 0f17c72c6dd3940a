"""Gabor systems on a cyclic group: redundancy decides everything.

A window and a time-frequency lattice span the signal space only when the
lattice carries at least one point per sample.  This script sweeps the
redundancy through that boundary and watches the frame bounds, then uses
the canonical dual window for exact reconstruction on the good side.

The critical case is the interesting one: exactly one lattice point per
sample is enough counting-wise, yet the Gaussian system degenerates there,
so spanning genuinely needs a margin, not just a head count.

Next to each (A, B) the script prints the two estimates of the Janssen
representation S = kappa sum_mu c_mu pi(mu) over the adjoint lattice,
kappa (c_0 - sum_{mu != 0} |c_mu|) <= A and B <= kappa sum_mu |c_mu|, and
for one lattice the coefficients c_mu = <g, pi(mu) g> themselves.
"""

import numpy as np

from mildspec import (
    GaborSystem,
    GroupSpec,
    NotAFrame,
    TFLattice,
    finite_gaussian,
    gabor_coefficients,
    gabor_synthesis,
    random_signal,
    reference,
)

G = GroupSpec((48,))
g0 = finite_gaussian(G)
rng = np.random.default_rng(2)

print(f"window: Gaussian on {G}")
print()
print("redundancy sweep (a, b are the lattice steps):")
for a, b in ((2, 2), (2, 4), (4, 4), (6, 8), (8, 8), (12, 16)):
    system = GaborSystem(g0, TFLattice(G, a, b))
    rho = system.lattice.redundancy
    try:
        A, B = system.frame_bounds
        if system.is_frame:
            lower, upper = reference.JanssenFrame(g0, system.lattice).bound_estimates
            print(f"  a={a:2d} b={b:2d}  rho={rho:5.2f}  "
                  f"bounds A={A:8.4f} B={B:8.4f}  B/A={B / A:8.2f}  "
                  f"Janssen {lower:8.4f} <= A, B <= {upper:8.4f}")
        else:
            print(f"  a={a:2d} b={b:2d}  rho={rho:5.2f}  degenerate (A ~ 0)")
    except NotAFrame as exc:
        print(f"  a={a:2d} b={b:2d}  rho={rho:5.2f}  not a frame: {exc}")
print()

# reconstruction through the canonical dual at a comfortable redundancy
system = GaborSystem(g0, TFLattice(G, 4, 4))
janssen = reference.JanssenFrame(g0, system.lattice)
# rows are the times t, columns the frequencies 0, 12, 24, 36; real, because g is even
print(f"c_mu = <g, pi(mu) g> on the adjoint lattice 12Z x 12Z, kappa = {janssen.kappa:g}:")
for t, row in zip((0, 12, 24, 36), janssen.coefficients.real):
    print(f"  t={t:2d}  " + "  ".join(f"{c:9.2e}" for c in row))
print()
worst = 0.0
for _ in range(25):
    f = random_signal(G, rng)
    back = gabor_synthesis(gabor_coefficients(f, system), system)
    worst = max(worst, float(np.max(np.abs(back.values - f.values))) / f.norm2)
print(f"reconstruction from canonical coefficients at rho=3: worst error {worst:.2e}")

# below redundancy one the dual cannot exist, and the failure is loud
starved = GaborSystem(g0, TFLattice(G, 12, 8))
print(f"lattice with rho={starved.lattice.redundancy:.2f}: ", end="")
try:
    _ = starved.canonical_dual
    print("unexpectedly produced a dual window")
except NotAFrame as exc:
    print(f"refused as expected ({exc})")
