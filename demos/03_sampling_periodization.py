"""Sampling and periodization as a transform pair.

Restricting a signal to a subgroup and summing it over cosets are adjoint
moves, and the transform swaps them: periodizing the spectrum by the
annihilator matches transforming the samples.  Combs make the same point in
distilled form, and Poisson summation is the scalar shadow of all of it.  A
periodic signal is the converse: its spectrum lives on the annihilator of
the period lattice, weighted by the transform of one period.
"""

import numpy as np

from mildspec import (
    GroupSpec,
    Signal,
    all_subgroups,
    annihilator,
    comb_ft,
    dirac_comb,
    dft,
    duality_sampling_periodization,
    finite_gaussian,
    grid_subgroup,
    periodize_analysis,
    poisson_check,
    random_signal,
    restriction,
    weil_map,
)

G = GroupSpec((36,))
rng = np.random.default_rng(1)
f = random_signal(G, rng)

H = grid_subgroup(G, 4)
samples = restriction(f, H)
cosets = weil_map(f, H)
print(f"{G}, subgroup H = 4Z with {H.order} points, quotient with {cosets.quotient.size} cosets")
print(f"periodization preserves total mass: "
      f"defect {abs(cosets.values.sum() - f.values.sum()):.2e}")
print()

print("duality residuals, one per subgroup:")
for sub in all_subgroups(G):
    res = duality_sampling_periodization(f, sub)
    print(f"  |H| = {sub.order:3d}: {res.residual:.2e}")
print()

print("comb transforms, weight |H| on the annihilator:")
for sub in all_subgroups(G):
    comb = comb_ft(sub)
    hat = dft(dirac_comb(sub)).values
    target = sub.order * dirac_comb(annihilator(sub)).values
    print(f"  |H| = {sub.order:3d} -> weights {comb.values[0].real:5.1f} "
          f"on {comb.subgroup.order:3d} points, residual {np.max(np.abs(hat - target)):.2e}")
print()

g = finite_gaussian(G)
res = poisson_check(g, H)
print(f"Poisson summation for the Gaussian window over H: "
      f"lhs {res.lhs.real:.6f}, rhs {res.rhs.real:.6f}, residual {res.residual:.2e}")
print()

print("Poisson summation for the random signal, sum_H f against (|H|/|G|) sum_Hperp fhat:")
for sub in all_subgroups(G):
    res = poisson_check(f, sub)
    print(f"  |H| = {sub.order:3d}: lhs {res.lhs:.6f}, rhs {res.rhs:.6f}, "
          f"residual {res.residual:.2e}")
print()

Z12 = GroupSpec((12,))
periodic = Signal(Z12, np.tile(random_signal(GroupSpec((3,)), rng).values, 4))
rep = periodize_analysis(periodic, 3)
hot = [k for k, v in enumerate(np.abs(dft(periodic).values)) if v > 1e-9]
print(f"period 3 signal on {Z12}: spectrum on the {rep.spectrum.subgroup.order}-point "
      f"annihilator comb, nonzero at frequencies {hot}")
print(f"  leakage off the comb {rep.leakage:.2e}, "
      f"comb weights vs |H| x one-period transform: residual {rep.weight_residual:.2e}")
