"""End-to-end acceptance battery.

Each test covers one numbered guarantee from the project contract and prints
a single verdict line, so running this file with -s gives a checklist.  The
tolerances here are the shipped ones; loosening them is a release decision,
not a test fix.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mildspec import (
    GaborSystem,
    GroupSpec,
    NotAFrame,
    SubgroupSignal,
    TFLattice,
    all_subgroups,
    annihilator,
    convergence_report,
    dft,
    dirac,
    dirac_comb,
    duality_sampling_periodization,
    finite_gaussian,
    gabor_coefficients,
    gabor_synthesis,
    grid_subgroup,
    idft,
    make_bupu,
    mild_deviation_coeff,
    mild_deviation_pairing,
    mild_deviation_stft,
    periodize_analysis,
    poisson_check,
    pure_frequency,
    quasi_interpolate,
    random_signal,
    restriction,
    s0_norm,
    semidiscrete_extension,
    stft,
    tensor_extension,
)
from mildspec import reference


def verdict(label: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


TRANSFORM_MATRIX = [
    (4,), (6,), (9,), (16,), (27,), (60,), (128,), (243,), (512,),
    (2, 2), (4, 6), (8, 8), (12, 16), (16, 32),
]

TEST_GROUPS = [(24,), (36,), (4, 6)]

GABOR_MATRIX = {
    16: {"two": (2, 4), "four": (2, 2), "quarter": (8, 8)},
    24: {"two": (4, 3), "four": (2, 3), "quarter": (8, 12)},
    64: {"two": (8, 4), "four": (4, 4), "quarter": (16, 16)},
}

PERIOD_MATRIX = [(2, 8), (2, 16), (3, 12), (3, 36), (4, 16), (5, 30), (6, 24), (8, 64)]


def test_01_transform_identities_across_sizes():
    worst_naive = worst_round = worst_energy = 0.0
    for moduli in TRANSFORM_MATRIX:
        G = GroupSpec(moduli)
        assert 4 <= G.order <= 512
        rng = np.random.default_rng(G.order)
        f = random_signal(G, rng)
        fast = dft(f).values
        slow = reference.naive_dft(f).values
        worst_naive = max(
            worst_naive, np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
        )
        back = idft(dft(f)).values
        worst_round = max(worst_round, float(np.max(np.abs(back - f.values))))
        lhs = np.sum(np.abs(fast) ** 2)
        rhs = G.order * np.sum(np.abs(f.values) ** 2)
        worst_energy = max(worst_energy, abs(lhs - rhs) / rhs)
    verdict(
        "criterion 1: transform vs direct sum, inversion, energy identity",
        worst_naive <= 1e-12 and worst_round <= 1e-10 and worst_energy <= 1e-12,
        f"naive {worst_naive:.2e}, roundtrip {worst_round:.2e}, energy {worst_energy:.2e}",
    )


def test_02_characters_transform_to_point_masses():
    G = GroupSpec((24,))
    worst = 0.0
    for r in G.elements():
        hat = dft(pure_frequency(G, r)).values
        worst = max(worst, float(np.max(np.abs(hat - 24.0 * dirac(G, r).values))))
    verdict(
        "criterion 2: every character maps to a scaled point mass",
        worst <= 1e-10,
        f"max residual {worst:.2e}",
    )


def test_03_poisson_summation_battery():
    worst = 0.0
    count = 0
    for moduli in TEST_GROUPS:
        G = GroupSpec(moduli)
        subs = all_subgroups(G)
        rng = np.random.default_rng(G.order)
        for _ in range(100):
            f = random_signal(G, rng)
            bound = 1e-10 * (f.norm1 + 1.0)
            for H in subs:
                res = poisson_check(f, H)
                worst = max(worst, res.residual / bound)
                count += 1
    verdict(
        "criterion 3: Poisson summation over the full subgroup battery",
        worst <= 1.0,
        f"{count} checks, worst residual at {worst:.3f} of budget",
    )


def test_04_comb_duality_and_biduality():
    worst = 0.0
    for moduli in TEST_GROUPS:
        G = GroupSpec(moduli)
        for H in all_subgroups(G):
            hat = dft(dirac_comb(H)).values
            expect = H.order * dirac_comb(annihilator(H)).values
            worst = max(worst, float(np.max(np.abs(hat - expect))))
            assert set(annihilator(annihilator(H)).elements) == set(H.elements)
    verdict(
        "criterion 4: comb transforms to scaled dual comb, biduality exact",
        worst <= 1e-10,
        f"max residual {worst:.2e}",
    )


def test_05_sampling_periodization_duality_matrix():
    worst = 0.0
    for moduli in TEST_GROUPS:
        G = GroupSpec(moduli)
        rng = np.random.default_rng(G.order + 1)
        f = random_signal(G, rng)
        for H in all_subgroups(G):
            worst = max(worst, duality_sampling_periodization(f, H).residual)
    verdict(
        "criterion 5: spectral periodization equals sampled-side transform",
        worst <= 1e-10,
        f"max residual {worst:.2e}",
    )


def test_06_gabor_frames_at_fixed_redundancies():
    worst_inv = worst_rec = worst_min = 0.0
    for n, lattices in GABOR_MATRIX.items():
        G = GroupSpec((n,))
        g = finite_gaussian(G)
        for key in ("two", "four"):
            a, b = lattices[key]
            system = GaborSystem(g, TFLattice(G, a, b))
            dual = system.canonical_dual
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(system.apply_frame(dual).values - g.values))),
            )
            rng = np.random.default_rng(n + a + b)
            for _ in range(100):
                f = random_signal(G, rng)
                back = gabor_synthesis(gabor_coefficients(f, system), system)
                worst_rec = max(
                    worst_rec, float(np.max(np.abs(back.values - f.values))) / f.norm2
                )
            sigma = random_signal(G, rng)
            c = gabor_coefficients(sigma, system).ravel()
            D = reference.synthesis_matrix(g, system.lattice)
            c_min, *_ = np.linalg.lstsq(D, sigma.values, rcond=None)
            worst_min = max(worst_min, float(np.max(np.abs(c - c_min))))
        qa, qb = lattices["quarter"]
        starved = GaborSystem(g, TFLattice(G, qa, qb))
        assert starved.lattice.redundancy == pytest.approx(0.25)
        with pytest.raises(NotAFrame):
            _ = starved.canonical_dual
    verdict(
        "criterion 6: frames at redundancy 2 and 4, rejection at 1/4",
        worst_inv <= 1e-9 and worst_rec <= 1e-9 and worst_min <= 1e-8,
        f"dual inversion {worst_inv:.2e}, reconstruction {worst_rec:.2e}, "
        f"minimality {worst_min:.2e}",
    )


def test_07_energy_rotation_and_self_dual_window():
    worst_moyal = worst_rot = 0.0
    for moduli in TEST_GROUPS:
        G = GroupSpec(moduli)
        rng = np.random.default_rng(G.order + 2)
        f, g = random_signal(G, rng), random_signal(G, rng)
        V = stft(f, g)
        lhs = np.sum(np.abs(V.values) ** 2)
        rhs = G.order * (g.norm2**2) * (f.norm2**2)
        worst_moyal = max(worst_moyal, abs(lhs - rhs) / rhs)

        g0 = finite_gaussian(G)
        A = np.abs(stft(f, g0).values)
        fhat = dft(f) * (1.0 / np.sqrt(G.order))
        B = np.abs(stft(fhat, g0).values)
        neg = G.negation_permutation()
        worst_rot = max(worst_rot, float(np.max(np.abs(B - A[neg, :].T))))

    worst_self = 0.0
    for n in (4, 6, 9, 16, 24, 36, 64, 128, 243, 256, 512, 720, 1024):
        G = GroupSpec((n,))
        g0 = finite_gaussian(G)
        resid = np.max(np.abs(dft(g0).values - np.sqrt(n) * g0.values))
        worst_self = max(worst_self, float(resid) / (1e-8 * np.sqrt(n)))
    verdict(
        "criterion 7: STFT energy, transform rotation, self-dual window",
        worst_moyal <= 1e-10 and worst_rot <= 1e-9 and worst_self <= 1.0,
        f"energy {worst_moyal:.2e}, rotation {worst_rot:.2e}, "
        f"self-duality at {worst_self:.3f} of budget",
    )


def test_08_periodic_signals_have_comb_spectra():
    worst_leak = worst_weight = 0.0
    for p, n in PERIOD_MATRIX:
        G = GroupSpec((n,))
        rng = np.random.default_rng(p * n)
        block = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        from mildspec import Signal

        f = Signal(G, np.tile(block, n // p))
        report = periodize_analysis(f, p)
        worst_leak = max(worst_leak, report.leakage)
        worst_weight = max(worst_weight, report.weight_residual)
    verdict(
        "criterion 8: periodic spectrum support and one-period weights",
        worst_leak <= 1e-10 and worst_weight <= 1e-10,
        f"leakage {worst_leak:.2e}, weights {worst_weight:.2e}",
    )


def test_09_extension_interpolates_and_error_refines():
    G = GroupSpec((16,))
    lam = grid_subgroup(G, 4)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    exact = True
    for shape in ("triangle", "indicator"):
        phi = make_bupu(G, lam, shape).mother
        ext = semidiscrete_extension(SubgroupSignal(lam, c), phi)
        exact = exact and np.array_equal(ext.values[lam.indices], c)

    big = GroupSpec((256,))
    g0 = finite_gaussian(big)
    errs = [
        quasi_interpolate(g0, grid_subgroup(big, s)).sup_error for s in (16, 8, 4)
    ]
    refines = errs[0] > errs[1] > errs[2]
    verdict(
        "criterion 9: sampling recovery is exact on the lattice and refines off it",
        exact and refines,
        f"errors {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e}",
    )


def test_10_refining_combs_converge_and_metrics_agree_at_zero():
    G = GroupSpec((256,))
    from mildspec import refining_comb_sequence

    seq = refining_comb_sequence(G)
    system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
    report = convergence_report(seq, system)
    mono = all(report.is_monotone(m) for m in ("pair", "stft", "coeff"))
    collapsed = all(
        series[-1] <= 1e-3 * series[0]
        for series in (report.d_pair, report.d_stft, report.d_coeff)
    )

    rng = np.random.default_rng(10)
    sigma = random_signal(G, rng)
    zeros_agree = (
        mild_deviation_pairing(sigma, sigma) == 0.0
        and mild_deviation_stft(sigma, sigma) == 0.0
        and mild_deviation_coeff(sigma, sigma, system) == 0.0
    )
    other = sigma + dirac(G, G.element(1))
    positives_agree = (
        mild_deviation_pairing(other, sigma) > 0
        and mild_deviation_stft(other, sigma) > 0
        and mild_deviation_coeff(other, sigma, system) > 0
    )
    verdict(
        "criterion 10: comb refinement converges and deviations vanish together",
        mono and collapsed and zeros_agree and positives_agree,
        f"final/initial pair {report.d_pair[-1]:.1e}/{report.d_pair[0]:.1e}",
    )


def test_11_tensor_factorizations():
    A, B = GroupSpec((4,)), GroupSpec((6,))
    rng = np.random.default_rng(11)
    f, g = random_signal(A, rng), random_signal(B, rng)
    prod = tensor_extension(f, g)

    hat = dft(prod).values
    hat_factored = np.outer(dft(f).values, dft(g).values).reshape(-1)
    r_dft = np.max(np.abs(hat - hat_factored)) / np.max(np.abs(hat_factored))

    lat = grid_subgroup(prod.group, (2, 3))
    res = restriction(prod, lat).values
    res_factored = np.outer(
        restriction(f, grid_subgroup(A, 2)).values,
        restriction(g, grid_subgroup(B, 3)).values,
    ).reshape(-1)
    r_res = np.max(np.abs(res - res_factored)) / max(np.max(np.abs(res_factored)), 1.0)

    s_prod = s0_norm(prod)
    r_s0 = abs(s_prod - s0_norm(f) * s0_norm(g)) / s_prod
    verdict(
        "criterion 11: transform, sampling and concentration norm factorize",
        r_dft <= 1e-10 and r_res <= 1e-10 and r_s0 <= 1e-10,
        f"dft {r_dft:.2e}, restriction {r_res:.2e}, s0 {r_s0:.2e}",
    )


def test_12_command_line_reports_are_reproducible(tmp_path):
    outs = []
    codes = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "mildspec", "verify", "all",
                "--group", "24", "--seed", "7", "--report", str(path),
            ],
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
        outs.append(path.read_bytes())
    payload = json.loads(outs[0])
    verdict(
        "criterion 12: repeated seeded verification is byte-identical",
        codes == [0, 0] and outs[0] == outs[1] and payload["passed"],
        f"{len(payload['checks'])} checks in the report",
    )
