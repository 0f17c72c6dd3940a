import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from mildspec import (
    BUPU_SHAPES,
    GroupMismatchError,
    GroupSpec,
    Signal,
    SubgroupSignal,
    dft,
    dirac,
    finite_gaussian,
    grid_subgroup,
    make_bupu,
    quasi_interpolate,
    random_signal,
    restriction,
    s0_norm,
    sampling_bound,
    semidiscrete_extension,
    subgroup_generated,
    tensor_extension,
)
from mildspec import reference


class TestBUPU:
    def test_triangle_mother_on_even_lattice(self):
        G = GroupSpec((8,))
        bupu = make_bupu(G, grid_subgroup(G, 2), "triangle")
        assert_allclose(bupu.mother.values, [1, 0.5, 0, 0, 0, 0, 0, 0.5], atol=1e-15)
        assert bupu.partition_residual == 0.0

    @pytest.mark.parametrize("shape", BUPU_SHAPES)
    def test_partition_sums_to_one(self, shape):
        G = GroupSpec((24,))
        bupu = make_bupu(G, grid_subgroup(G, 4), shape)
        assert bupu.partition_residual <= 1e-12

    @pytest.mark.parametrize("shape", BUPU_SHAPES)
    def test_partition_on_product_group(self, shape):
        G = GroupSpec((4, 6))
        bupu = make_bupu(G, grid_subgroup(G, (2, 3)), shape)
        assert bupu.partition_residual <= 1e-12

    def test_full_lattice_gives_point_bumps(self):
        G = GroupSpec((6,))
        bupu = make_bupu(G, grid_subgroup(G, 1), "triangle")
        assert_array_equal(bupu.mother.values, dirac(G, G.zero()).values)
        assert len(bupu.bumps) == 6

    def test_single_coset_gives_constant(self):
        G = GroupSpec((6,))
        bupu = make_bupu(G, grid_subgroup(G, 6), "triangle")
        assert_array_equal(bupu.mother.values, np.ones(6))
        assert bupu.partition_residual == 0.0

    @pytest.mark.parametrize("shape", ["triangle", "indicator"])
    def test_interpolating_shapes_vanish_on_lattice(self, shape):
        G = GroupSpec((16,))
        lam = grid_subgroup(G, 4)
        mother = make_bupu(G, lam, shape).mother
        assert mother.values[0] == 1.0
        for e in lam.elements:
            if e.coords != (0,):
                assert mother.values[G.index(e)] == 0.0

    def test_bspline_is_not_interpolating(self):
        G = GroupSpec((8,))
        mother = make_bupu(G, grid_subgroup(G, 2), "bspline2").mother
        assert abs(mother.values[2]) > 0.01

    def test_rejects_non_grid_lattice(self):
        G = GroupSpec((4, 4))
        diag = subgroup_generated(G, [G.element((1, 1))])
        with pytest.raises(GroupMismatchError):
            make_bupu(G, diag)

    def test_unknown_shape(self):
        G = GroupSpec((8,))
        with pytest.raises(ValueError):
            make_bupu(G, grid_subgroup(G, 2), "sinc")


class TestSemidiscreteExtension:
    def test_point_sample_reproduces_window(self):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 2)
        phi = make_bupu(G, lam, "triangle").mother
        samples = SubgroupSignal(lam, [1.0, 0, 0, 0])
        assert_array_equal(semidiscrete_extension(samples, phi).values, phi.values)

    def test_interpolates_exactly_at_lattice_points(self, rng):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 2)
        phi = make_bupu(G, lam, "triangle").mother
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ext = semidiscrete_extension(SubgroupSignal(lam, c), phi)
        # interpolation is exact in floating point, not merely close: the
        # off-center bumps contribute literal zeros at lattice points
        assert_array_equal(ext.values[lam.indices], c)

    def test_fft_route_agrees_with_direct(self, rng):
        G = GroupSpec((4, 6))
        lam = grid_subgroup(G, (2, 3))
        phi = make_bupu(G, lam, "bspline2").mother
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samples = SubgroupSignal(lam, c)
        with pytest.warns(UserWarning):
            direct = semidiscrete_extension(samples, phi)
        fast = reference.extension_by_convolution(samples, phi)
        assert np.max(np.abs(direct.values - fast.values)) < 1e-12

    @pytest.mark.parametrize("shape", BUPU_SHAPES)
    @pytest.mark.parametrize("moduli, steps", [
        ((24,), (2,)),  # 12 lattice points, 2 to 5 bump points: sum over supp(phi)
        ((24,), (8,)),  # 3 lattice points, 8 to 24 bump points: sum over the lattice
        ((8, 6), (2, 3)),  # 8 lattice points, 6 to 30 bump points: either
    ])
    def test_direct_matches_fft_on_either_index_set(self, rng, shape, moduli, steps):
        G = GroupSpec(moduli)
        lam = grid_subgroup(G, steps)
        phi = make_bupu(G, lam, shape).mother
        c = rng.standard_normal(lam.order) + 1j * rng.standard_normal(lam.order)
        samples = SubgroupSignal(lam, c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            direct = semidiscrete_extension(samples, phi)
        fast = reference.extension_by_convolution(samples, phi)
        assert np.max(np.abs(direct.values - fast.values)) < 1e-12 * np.max(np.abs(c))
        if shape != "bspline2":
            # interpolating bumps: lattice samples come back bit for bit
            assert_array_equal(direct.values[lam.indices], c)

    @pytest.mark.parametrize("support_size", [3, 30])
    def test_diagonal_lattice_either_index_set(self, rng, support_size):
        G = GroupSpec((6, 6))
        lam = subgroup_generated(G, [(1, 1)])  # 6 points, not a grid
        vals = np.zeros(36)
        off = np.flatnonzero(~lam.mask)
        vals[0] = 1.0
        vals[rng.choice(off, support_size - 1, replace=False)] = rng.standard_normal(
            support_size - 1)
        phi = Signal(G, vals)
        c = rng.standard_normal(lam.order) + 1j * rng.standard_normal(lam.order)
        samples = SubgroupSignal(lam, c)
        direct = semidiscrete_extension(samples, phi)
        fast = reference.extension_by_convolution(samples, phi)
        assert np.max(np.abs(direct.values - fast.values)) < 1e-12 * np.max(np.abs(c))
        assert_array_equal(direct.values[lam.indices], c)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_convolution_oracle(self, data):
        moduli = data.draw(
            st.lists(st.integers(1, 16), min_size=1, max_size=3).filter(
                lambda m: math.prod(m) <= 64),
            label="moduli",
        )
        steps = tuple(
            data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="step")
            for n in moduli
        )
        G = GroupSpec(tuple(moduli))
        lam = grid_subgroup(G, steps)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        c = rng.standard_normal(lam.order) + 1j * rng.standard_normal(lam.order)
        samples = SubgroupSignal(lam, c)
        for shape in BUPU_SHAPES:
            phi = make_bupu(G, lam, shape).mother
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ext = semidiscrete_extension(samples, phi)
            oracle = reference.extension_by_convolution(samples, phi)
            assert np.max(np.abs(ext.values - oracle.values)) < 1e-12 * np.max(np.abs(c))
            if shape != "bspline2":
                # interpolating bumps: lattice samples come back bit for bit
                assert_array_equal(ext.values[lam.indices], c)

    def test_warns_when_center_value_off(self):
        G = GroupSpec((8,))
        lam = grid_subgroup(G, 2)
        phi = Signal(G, 0.5 * make_bupu(G, lam).mother.values)
        with pytest.warns(UserWarning, match="does not interpolate"):
            semidiscrete_extension(SubgroupSignal(lam, np.ones(4)), phi)

    def test_group_mismatch(self):
        G, H = GroupSpec((8,)), GroupSpec((12,))
        lam = grid_subgroup(G, 2)
        phi = finite_gaussian(H)
        with pytest.raises(GroupMismatchError):
            semidiscrete_extension(SubgroupSignal(lam, np.ones(4)), phi)


class TestTensorExtension:
    def test_restricts_back_to_first_factor(self, rng):
        A, B = GroupSpec((4,)), GroupSpec((6,))
        f = random_signal(A, rng)
        g = Signal(B, np.concatenate([[1.0], np.zeros(5)]))
        prod = tensor_extension(f, g)
        assert prod.group.moduli == (4, 6)
        axis = grid_subgroup(prod.group, (1, 6))
        assert_allclose(restriction(prod, axis).values, f.values, atol=1e-15)

    def test_transform_factorizes(self, rng):
        A, B = GroupSpec((4,)), GroupSpec((6,))
        f, g = random_signal(A, rng), random_signal(B, rng)
        prod = tensor_extension(f, g)
        lhs = dft(prod).values
        rhs = np.outer(dft(f).values, dft(g).values).reshape(-1)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10

    def test_restriction_factorizes(self, rng):
        A, B = GroupSpec((4,)), GroupSpec((6,))
        f, g = random_signal(A, rng), random_signal(B, rng)
        prod = tensor_extension(f, g)
        lat = grid_subgroup(prod.group, (2, 3))
        lhs = restriction(prod, lat).values
        rhs = np.outer(
            restriction(f, grid_subgroup(A, 2)).values,
            restriction(g, grid_subgroup(B, 3)).values,
        ).reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_concentration_norm_factorizes(self, rng):
        A, B = GroupSpec((4,)), GroupSpec((6,))
        f, g = random_signal(A, rng), random_signal(B, rng)
        prod = tensor_extension(f, g)
        lhs = s0_norm(prod)
        rhs = s0_norm(f) * s0_norm(g)
        assert abs(lhs - rhs) / rhs < 1e-10


class TestSamplingBound:
    def test_zero_signal(self):
        G = GroupSpec((24,))
        res = sampling_bound(Signal(G, np.zeros(24)), grid_subgroup(G, 4))
        assert res.lattice_l1 == 0.0
        assert res.ratio == 0.0

    def test_point_mass(self):
        G = GroupSpec((24,))
        f = dirac(G, G.zero())
        res = sampling_bound(f, grid_subgroup(G, 4))
        assert res.lattice_l1 == pytest.approx(1.0)
        assert res.ratio == pytest.approx(1.0 / s0_norm(f))

    def test_corpus_ratio_finite_and_reproducible(self):
        G = GroupSpec((24,))
        lam = grid_subgroup(G, 4)

        def worst(seed):
            gen = np.random.default_rng(seed)
            return max(
                sampling_bound(random_signal(G, gen), lam).ratio for _ in range(100)
            )

        first, second = worst(99), worst(99)
        assert first == second
        assert 0 < first < 10.0

    def test_group_mismatch(self, rng):
        G, H = GroupSpec((8,)), GroupSpec((12,))
        with pytest.raises(GroupMismatchError):
            sampling_bound(random_signal(G, rng), grid_subgroup(H, 2))


class TestQuasiInterpolation:
    def test_constants_are_reproduced(self):
        G = GroupSpec((32,))
        f = Signal(G, np.full(32, 3.0 - 1.0j))
        for shape in BUPU_SHAPES:
            if shape == "bspline2":
                continue  # phi(0) != 1, interpolation contract does not apply
            res = quasi_interpolate(f, grid_subgroup(G, 4), shape)
            assert res.sup_error < 1e-12

    def test_error_shrinks_along_refining_lattices(self):
        G = GroupSpec((256,))
        f = finite_gaussian(G)
        errors = [
            quasi_interpolate(f, grid_subgroup(G, step)).sup_error
            for step in (16, 8, 4)
        ]
        assert errors[0] > errors[1] > errors[2] > 0

    def test_off_lattice_point_mass_is_invisible(self):
        G = GroupSpec((16,))
        f = dirac(G, G.element(3))
        res = quasi_interpolate(f, grid_subgroup(G, 4), "indicator")
        assert res.sup_error == pytest.approx(1.0)
        assert np.max(np.abs(res.approximation.values)) == 0.0

    def test_matches_signal_at_lattice_points(self, rng):
        G = GroupSpec((24,))
        lam = grid_subgroup(G, 4)
        f = random_signal(G, rng)
        res = quasi_interpolate(f, lam, "triangle")
        assert_array_equal(res.approximation.values[lam.indices], f.values[lam.indices])
