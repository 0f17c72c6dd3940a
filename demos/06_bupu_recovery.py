"""Partitions of unity and recovery from lattice samples.

Bump translates that sum to one turn lattice samples back into signals.
With an interpolating bump the samples are reproduced exactly; the error
away from the lattice is controlled by how fine the lattice is, and halving
the gap visibly halves the error for a smooth target.
"""

import numpy as np

from mildspec import (
    BUPU_SHAPES,
    GroupSpec,
    SubgroupSignal,
    finite_gaussian,
    grid_subgroup,
    make_bupu,
    quasi_interpolate,
    random_signal,
    semidiscrete_extension,
)

G = GroupSpec((32,))
lam = grid_subgroup(G, 4)

print(f"{G}, lattice 4Z with {lam.order} points")
for shape in BUPU_SHAPES:
    bupu = make_bupu(G, lam, shape)
    interp = "interpolating" if abs(bupu.mother.values[0] - 1.0) < 1e-12 else "smoothing"
    print(f"  {shape:10s} partition residual {bupu.partition_residual:.2e}  ({interp})")
print()

rng = np.random.default_rng(3)
c = rng.standard_normal(lam.order) + 1j * rng.standard_normal(lam.order)
phi = make_bupu(G, lam, "triangle").mother
ext = semidiscrete_extension(SubgroupSignal(lam, c), phi)
defect = np.max(np.abs(ext.values[lam.indices] - c))
print(f"triangle extension returns its samples exactly: max defect {defect:.1e}")
print()

big = GroupSpec((256,))
target = finite_gaussian(big)
print("quasi-interpolation of the Gaussian on Z256, error vs lattice gap:")
for step in (32, 16, 8, 4, 2):
    res = quasi_interpolate(target, grid_subgroup(big, step))
    print(f"  gap {step:3d}: sup error {res.sup_error:.4e}")
print()

f = random_signal(G, rng)
res = quasi_interpolate(f, lam)
print(f"a rough random signal resists recovery (gap 4): sup error {res.sup_error:.3f}")
print("smoothness is what the lattice gap buys; noise has none to spend.")
