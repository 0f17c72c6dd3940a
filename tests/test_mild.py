import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mildspec import (
    ConvergenceReport,
    DistributionSequence,
    DomainError,
    GaborSystem,
    GroupMismatchError,
    GroupSpec,
    NotPeriodic,
    Signal,
    SubgroupSignal,
    SupportViolation,
    TFLattice,
    adjoint_restriction,
    convergence_report,
    default_probes,
    dirac,
    dirac_comb,
    finite_gaussian,
    grid_subgroup,
    mild_deviation_coeff,
    mild_deviation_pairing,
    mild_deviation_stft,
    periodize_analysis,
    pure_frequency,
    random_signal,
    refining_comb_sequence,
    s0prime_norm,
    signal_to_comb,
    support,
    tf_shift,
    translate,
)
from mildspec import reference
from mildspec.mild import _pairing_deviations, _probe_net
from mildspec.signals import _translate_sum


class TestSupport:
    def test_point_mass(self):
        G = GroupSpec((16,))
        x = G.element(5)
        assert support(dirac(G, x)) == frozenset({x})

    def test_comb(self):
        G = GroupSpec((16,))
        lam = grid_subgroup(G, 4)
        assert support(dirac_comb(lam)) == frozenset(lam.elements)

    def test_zero_signal_is_empty(self):
        G = GroupSpec((8,))
        assert support(Signal(G, np.zeros(8))) == frozenset()

    def test_threshold_is_relative_to_peak(self):
        G = GroupSpec((16,))
        vals = np.zeros(16)
        vals[[0, 3, 7]] = [1.0, 2e-10, 5e-11]
        expect = frozenset({G.element(0), G.element(3)})
        for scale in (1e-20, 1.0, 1e20):
            assert support(Signal(G, scale * vals)) == expect


class TestCombCharacterization:
    def test_two_point_measure(self):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 4)
        sigma = dirac(G, G.zero()) * 3.0 - dirac(G, G.element(4)) * 2.0
        comb = signal_to_comb(sigma, lam)
        assert_allclose(comb.values, [3.0, -2.0], atol=1e-14)

    def test_rejects_spread_out_signal(self):
        G = GroupSpec((16,))
        with pytest.raises(SupportViolation):
            signal_to_comb(finite_gaussian(G), grid_subgroup(G, 2))

    def test_roundtrip_preserves_weights(self, rng):
        G = GroupSpec((12,))
        lam = grid_subgroup(G, 3)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sigma = adjoint_restriction(SubgroupSignal(lam, w))
        back = signal_to_comb(sigma, lam)
        assert_allclose(back.values, w, atol=1e-14)


class TestPeriodization:
    def test_annihilator_frequency_gives_single_line(self):
        G = GroupSpec((12,))
        f = pure_frequency(G, G.element(4))
        report = periodize_analysis(f, 3)
        hot = [s for s, w in zip(report.spectrum.subgroup.elements, report.spectrum.values)
               if abs(w) > 1e-9]
        assert hot == [(4,)]
        assert report.leakage <= 1e-10
        assert report.weight_residual <= 1e-10

    def test_tiled_signal_weights_match_one_period_sum(self, rng):
        G = GroupSpec((12,))
        block = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = Signal(G, np.tile(block, 4))
        report = periodize_analysis(f, 3)
        assert report.leakage <= 1e-10
        assert report.weight_residual <= 1e-10
        lattice = report.spectrum.subgroup
        assert lattice.elements == ((0,), (4,), (8,))
        for n, (s, w) in enumerate(zip(lattice.elements, report.spectrum.values)):
            oracle = sum(
                block[t] * np.exp(-2j * np.pi * s[0] * t / 12) for t in range(3)
            )
            assert abs(w - 4.0 * oracle) < 1e-10

    def test_constant_signal_period_one(self):
        G = GroupSpec((8,))
        f = Signal(G, np.full(8, 2.5))
        report = periodize_analysis(f, 1)
        assert report.spectrum.subgroup.order == 1
        assert_allclose(report.spectrum.values, [8 * 2.5], atol=1e-12)

    def test_aperiodic_signal_rejected(self):
        G = GroupSpec((16,))
        with pytest.raises(NotPeriodic, match=r"translating by \(2,\)"):
            periodize_analysis(finite_gaussian(G), 2)

    def test_two_axis_periods(self, rng):
        G = GroupSpec((4, 6))
        block = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        f = Signal(G, np.tile(block, (2, 2)).reshape(-1))
        report = periodize_analysis(f, (2, 3))
        assert report.leakage <= 1e-10
        assert report.weight_residual <= 1e-10
        assert report.period_lattice.order == 4


class TestPeriodizationTolerance:
    """Leakage is held to tol * (1 + max|fhat|), the twin of the periodicity check."""

    def test_scaled_exactly_periodic_signal_passes(self, rng):
        G = GroupSpec((3000,))
        block = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = Signal(G, 1e3 * np.tile(block, 1000))
        report = periodize_analysis(f, 3)
        assert report.period_lattice.order == 1000
        assert report.weight_residual <= 1e-10 * (1 + np.max(np.abs(report.spectrum.values)))

    def test_genuine_off_lattice_component_still_raises(self):
        # 1e-9 chi_1 barely moves under translation by 3 (below the periodicity
        # tolerance) but puts 3e-6 on frequency 1, off the annihilator 1000Z
        G = GroupSpec((3000,))
        f = Signal(G, 1.0 + 1e-9 * pure_frequency(G, G.element(1)).values)
        with pytest.raises(SupportViolation, match="at \\(1,\\)"):
            periodize_analysis(f, 3)

    def test_z4096_periodic_signal_of_verify_mild_passes(self):
        # the period-2 signal verify_mild builds on Z4096 at seed 1
        G = GroupSpec((4096,))
        H = grid_subgroup(G, 2)
        base = random_signal(G, np.random.default_rng(1))
        # summed one translate at a time, its FFT leaks roundoff off the comb,
        # which the relative tolerance admits
        periodize_analysis(Signal(G, reference.translate_sum_direct(base, H)), 2)
        # summed per coset it is exactly periodic and clears the verify thresholds
        report = periodize_analysis(Signal(G, _translate_sum(base, H)), 2)
        assert report.leakage <= 1e-10
        assert report.weight_residual <= 1e-10


class TestDeviations:
    def test_all_vanish_on_equal_pair(self, rng):
        G = GroupSpec((16,))
        sigma = random_signal(G, rng)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        assert mild_deviation_pairing(sigma, sigma) == 0.0
        assert mild_deviation_stft(sigma, sigma) == 0.0
        assert mild_deviation_coeff(sigma, sigma, system) == 0.0

    def test_all_positive_on_distinct_pair(self, rng):
        G = GroupSpec((16,))
        sigma0 = random_signal(G, rng)
        sigma = sigma0 + dirac(G, G.element(3))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        assert mild_deviation_pairing(sigma, sigma0) > 0
        assert mild_deviation_stft(sigma, sigma0) > 0
        assert mild_deviation_coeff(sigma, sigma0, system) > 0

    def test_stft_deviation_of_point_mass_is_window_peak(self, rng):
        G = GroupSpec((16,))
        sigma0 = random_signal(G, rng)
        sigma = sigma0 + dirac(G, G.element(11))
        peak = finite_gaussian(G).values[0].real
        assert abs(mild_deviation_stft(sigma, sigma0) - peak) < 1e-12

    def test_coeff_deviation_matches_atomwise_oracle(self, rng):
        G = GroupSpec((12,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        sigma, sigma0 = random_signal(G, rng), random_signal(G, rng)
        got = mild_deviation_coeff(sigma, sigma0, system)
        dual = system.canonical_dual
        delta = (sigma - sigma0).values
        best = max(
            abs(np.vdot(tf_shift(dual, t, s).values, delta))
            for t, s in system.lattice.points()
        )
        assert abs(got - best) < 1e-10

    def test_pairing_deviation_with_explicit_probes(self, rng):
        from mildspec import pair, s0_norm

        G = GroupSpec((12,))
        sigma, sigma0 = random_signal(G, rng), random_signal(G, rng)
        probes = [dirac(G, x) for x in G.elements()]
        delta = sigma - sigma0
        got = reference.pairing_deviations(delta.values[None, :], probes)[0]
        expect = max(
            abs(pair(delta, p)) / (1.0 + s0_norm(p)) for p in probes
        )
        assert abs(got - expect) < 1e-12

    def test_group_mismatch(self, rng):
        f = random_signal(GroupSpec((8,)), rng)
        g = random_signal(GroupSpec((12,)), rng)
        with pytest.raises(GroupMismatchError):
            mild_deviation_pairing(f, g)


class TestMetricAgreement:
    def test_windows_give_equivalent_stft_deviation(self, rng):
        # any two nonzero windows give comparable deviations; record the
        # spread over a corpus and require it stays two-sided
        G = GroupSpec((16,))
        alt = random_signal(G, rng)
        ratios = []
        for _ in range(20):
            a, b = random_signal(G, rng), random_signal(G, rng)
            d_gauss = mild_deviation_stft(a, b)
            d_alt = mild_deviation_stft(a, b, window=alt)
            ratios.append(d_alt / d_gauss)
        assert min(ratios) > 0
        assert max(ratios) / min(ratios) < 1e3

    def test_coeff_and_stft_deviations_stay_comparable(self, rng):
        G = GroupSpec((24,))
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 3))
        ratios = []
        for _ in range(50):
            a, b = random_signal(G, rng), random_signal(G, rng)
            ratios.append(
                mild_deviation_coeff(a, b, system) / mild_deviation_stft(a, b)
            )
        assert min(ratios) > 1e-6
        assert max(ratios) < 1e6


class TestSequences:
    def test_member_group_mismatch(self, rng):
        G, H = GroupSpec((8,)), GroupSpec((12,))
        with pytest.raises(GroupMismatchError):
            DistributionSequence(
                G, (random_signal(H, rng),), random_signal(G, rng)
            )

    def test_uniform_bound(self, rng):
        G = GroupSpec((12,))
        members = tuple(random_signal(G, rng) for _ in range(3))
        seq = DistributionSequence(G, members, members[0])
        assert seq.uniform_bound == pytest.approx(
            max(s0prime_norm(m) for m in members)
        )
        assert len(seq) == 3

    def test_overflowing_difference_is_a_domain_error(self):
        G = GroupSpec((8,))
        big = Signal(G, np.full(8, 1e308))
        seq = DistributionSequence(G, (big,), -1.0 * big)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflowed"):
            convergence_report(seq, GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2)))

    def test_overflowing_metric_is_a_domain_error(self):
        # the difference is finite; its pairings and STFT sums overflow
        G = GroupSpec((8,))
        seq = DistributionSequence(G, (Signal(G, np.full(8, 1e308)),), Signal(G, np.zeros(8)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="deviation metrics are not finite"):
            convergence_report(seq, GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2)))

    def test_refining_combs_walk_the_divisor_chain(self):
        G = GroupSpec((64,))
        seq = refining_comb_sequence(G)
        assert len(seq) == 7
        assert_allclose(seq.members[0].values, dirac(G, G.zero()).values, atol=1e-15)
        assert_allclose(seq.members[-1].values, seq.limit.values, atol=1e-15)
        for m in seq.members:
            assert abs(m.values.sum() - 1.0) < 1e-12

    def test_refining_combs_converge_in_all_metrics(self):
        G = GroupSpec((64,))
        seq = refining_comb_sequence(G)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        report = convergence_report(seq, system)
        for metric in ("pair", "stft", "coeff"):
            assert report.is_monotone(metric)
        assert report.d_pair[-1] <= 1e-3 * report.d_pair[0]
        assert report.d_stft[-1] <= 1e-3 * report.d_stft[0]
        assert report.d_coeff[-1] <= 1e-3 * report.d_coeff[0]

    def test_equivalence_ratio_keys(self):
        G = GroupSpec((32,))
        seq = refining_comb_sequence(G)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 4, 4))
        report = convergence_report(seq, system)
        for key in (
            "pair_over_stft_max",
            "pair_over_stft_min",
            "coeff_over_stft_max",
            "coeff_over_stft_min",
        ):
            assert key in report.equivalence_ratios
            assert report.equivalence_ratios[key] > 0

    def test_monotone_check_slack(self):
        flat = ConvergenceReport(
            d_pair=(1.0, 1.0 + 1e-12, 0.5),
            d_stft=(1.0, 0.5, 0.25),
            d_coeff=(1.0, 1.2, 0.1),
            equivalence_ratios={},
        )
        assert flat.is_monotone("pair")
        assert flat.is_monotone("d_stft")
        assert not flat.is_monotone("coeff")


class TestStationaryUnderLimitShift:
    def test_translation_of_both_members_preserves_deviation(self, rng):
        # the metrics are built from shift-covariant transforms, so moving
        # sigma and sigma0 together cannot change any deviation value
        G = GroupSpec((16,))
        sigma, sigma0 = random_signal(G, rng), random_signal(G, rng)
        u = G.element(5)
        d0 = mild_deviation_stft(sigma, sigma0)
        d1 = mild_deviation_stft(translate(sigma, u), translate(sigma0, u))
        assert abs(d0 - d1) < 1e-10


# groups whose default probes are normed one STFT each in the tests below
PROBE_GROUPS = [(24,), (4, 6), (2, 4, 8), (12, 18)]
# d_pair against the explicit probes of reference.pairing_deviations: the groups
# above, nets that are not max(N // 4, 1) on some axis, and a square group
ORACLE_GROUPS = [*PROBE_GROUPS, (9,), (14,), (6, 9), (8, 8)]


class TestDefaultProbes:
    def test_atoms_are_shifted_gaussians_in_net_order(self):
        G = GroupSpec((8, 12))
        g0 = finite_gaussian(G)
        probes = default_probes(G)
        net = list(itertools.product(range(0, 8, 2), range(0, 12, 3)))
        atoms = [tf_shift(g0, t, s) for t in net for s in net]
        assert len(probes) == len(atoms) + G.order
        for p, q in zip(probes, atoms):
            assert np.array_equal(p.values, q.values)
        for p, x in zip(probes[len(atoms):], G.elements()):
            assert np.array_equal(p.values, dirac(G, x).values)

    def test_probe_net_is_a_lattice_of_quarter_steps(self):
        for n in range(1, 65):
            net = _probe_net(GroupSpec((n,)))
            quarter = max(n // 4, 1)
            (a,) = net.time_steps
            assert net.freq_steps == (a,) and n % a == 0 and a <= quarter, n
            assert all(n % d for d in range(a + 1, quarter + 1)), n
            if n % quarter == 0:
                assert a == quarter, n
        assert _probe_net(GroupSpec((9, 16))).time_steps == (1, 4)

    @pytest.mark.parametrize("moduli", PROBE_GROUPS, ids=str)
    def test_closed_form_norms_match_explicit_stfts(self, moduli):
        from mildspec import s0_norm
        from mildspec.mild import _default_probe_norms

        G = GroupSpec(moduli)
        atom_norm, point_norm = _default_probe_norms(G)
        probes = default_probes(G)
        n_atoms = len(probes) - G.order
        for p in probes[:n_atoms]:
            assert abs(s0_norm(p) - atom_norm) < 1e-12 * atom_norm
        for p in probes[n_atoms:]:
            assert abs(s0_norm(p) - point_norm) < 1e-12 * point_norm

    @pytest.mark.parametrize("moduli", ORACLE_GROUPS, ids=str)
    def test_report_with_default_probes_matches_explicit_probes(self, moduli, rng):
        G = GroupSpec(moduli)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 1, 1))
        seq = refining_comb_sequence(G)
        # the comb differences peak at (t, s) = (0, 0), on every net; random pairs need not
        pairs = [(random_signal(G, rng), random_signal(G, rng)) for _ in range(2)]
        deltas = np.array([(m - seq.limit).values for m in seq.members]
                          + [(x - y).values for x, y in pairs])
        explicit = reference.pairing_deviations(deltas, default_probes(G))
        report = convergence_report(seq, system)
        assert_allclose(report.d_pair, explicit[:len(seq)], rtol=1e-12, atol=1e-15)
        single = [mild_deviation_pairing(m, seq.limit) for m in seq.members]
        single += [mild_deviation_pairing(x, y) for x, y in pairs]
        assert_allclose(single, explicit, rtol=1e-12, atol=1e-15)

    def test_pairing_deviation_with_default_probes_matches_explicit(self, rng):
        G = GroupSpec((4, 6))
        sigma, sigma0 = random_signal(G, rng), random_signal(G, rng)
        got = mild_deviation_pairing(sigma, sigma0)
        delta = (sigma - sigma0).values[None, :]
        expect = reference.pairing_deviations(delta, default_probes(G))[0]
        assert abs(got - expect) < 1e-12 * expect

    def test_pairing_builds_no_atom_matrix(self):
        # the (atoms, |G|) matrix of the explicit probes on Z64xZ64 is 16 MiB
        G = GroupSpec((64, 64))
        seq = refining_comb_sequence(G)
        deltas = np.array([(m - seq.limit).values for m in seq.members])
        tracemalloc.start()
        try:
            _pairing_deviations(deltas, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_report_never_holds_a_full_grid(self, rng):
        # the Z4096 STFT grid is 256 MiB, the dense frame operator as large
        G = GroupSpec((4096,))
        limit = random_signal(G, rng)
        seq = DistributionSequence(G, (limit + random_signal(G, rng), limit), limit)
        system = GaborSystem(finite_gaussian(G), TFLattice(G, 2, 2))
        tracemalloc.start()
        try:
            report = convergence_report(seq, system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.d_stft[-1] == 0.0
        assert peak < 16 * G.order**2 / 4
