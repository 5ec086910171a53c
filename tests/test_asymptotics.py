"""RNG streams, bootstrap, influence/variance integrals, and distances."""

import numpy as np
import pytest

from riskcore import (
    ReferenceDistribution,
    RngSpec,
    Sample,
    asymptotic_variance,
    bootstrap_distribution,
    canonical_weights,
    expected_shortfall_spectrum,
    exponential_spectrum,
    influence_function,
    kolmogorov_distance,
    linear_spectrum,
    truncated_kolmogorov,
    uniform_spectrum,
    wasserstein1,
)
from riskcore.asymptotics import influence_table
from riskcore.errors import DomainError
from riskcore.quadrature import adaptive_simpson


class TestRngSpec:
    def test_deterministic(self):
        a = RngSpec(42, 0).generator().random(8)
        b = RngSpec(42, 0).generator().random(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(42, 0).generator().random(8)
        b = RngSpec(42, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_bounds_checked(self):
        with pytest.raises(DomainError):
            RngSpec(-1)
        with pytest.raises(DomainError):
            RngSpec(0, 2**64)

    DRAWS = {
        "random": lambda g: g.random(9),
        "standard_normal": lambda g: g.standard_normal(9),
        "integers": lambda g: g.integers(0, 250, 250),
    }
    # what the previous stream may leave in the shared Philox: nothing, a
    # buffered uint32, or a half-used block of four words
    LEFTOVERS = {
        "none": lambda g: None,
        "buffered_uint32": lambda g: g.integers(0, 5, size=3),
        "half_used_buffer": lambda g: g.random(3),
    }

    @pytest.mark.parametrize("leftover", sorted(LEFTOVERS))
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_stream_draws_what_a_keyed_philox_draws(self, seed, draw,
                                                    leftover):
        stream = RngSpec(seed).streams()
        for i in (0, 1, (3 << 32) | 9, 2**64 - 1):
            # the key (stream << 64) | seed, as generator() built it
            # before streams were re-keyed
            keyed = np.random.Generator(np.random.Philox(key=(i << 64) | seed))
            expected = self.DRAWS[draw](keyed)
            self.LEFTOVERS[leftover](stream(7))
            assert np.array_equal(self.DRAWS[draw](stream(i)), expected)
            assert np.array_equal(
                self.DRAWS[draw](RngSpec(seed, i).generator()), expected)


class TestBootstrapDistribution:
    def test_constant_sample_gives_zeros(self):
        x = Sample([5.0, 5.0, 5.0])
        out = bootstrap_distribution(x, uniform_spectrum(), 4, RngSpec(3))
        assert np.allclose(out, 0.0, atol=0)

    def test_bounded_by_envelope(self):
        gen = np.random.default_rng(8)
        x = Sample(gen.standard_normal(50))
        phi = linear_spectrum(2.0)
        out = bootstrap_distribution(x, phi, 64, RngSpec(5))
        bound = np.sqrt(50) * 2 * phi.bound * np.abs(x.values).max()
        assert np.all(np.abs(out) <= bound)
        assert np.isfinite(out.mean())

    def test_replicate_b_resamples_from_stream_b_plus_one(self):
        gen = np.random.default_rng(4)
        n = 40
        x = Sample(gen.standard_normal(n))
        phi = linear_spectrum(2.0)
        out = bootstrap_distribution(x, phi, 32, RngSpec(9))
        w = canonical_weights(phi, n).weights
        base = w @ -np.sort(x.values)
        for b in range(32):
            idx = RngSpec(9, b + 1).generator().integers(0, n, n)
            assert out[b] == np.sqrt(n) * (w @ -np.sort(x.values[idx]) - base)


class TestKolmogorov:
    def test_single_point_against_normal(self, std_normal):
        assert kolmogorov_distance(Sample([0.0]), std_normal) == 0.5

    def test_plugin_quantile_bound(self, std_normal):
        n = 100
        xs = std_normal.quantile((np.arange(1, n + 1) - 0.5) / n)
        d = kolmogorov_distance(Sample(xs), std_normal)
        assert d <= 0.005 + 1e-9

    def test_single_point_generic_median(self, uniform01):
        assert kolmogorov_distance(Sample([0.5]), uniform01) == 0.5


def full_grid_kolmogorov(sample, dist, m):
    """Kolmogorov distance over every point of {-m, -m+1/m, ..., m}: the
    reference for truncated_kolmogorov, which evaluates a few of them."""
    t = np.arange(-m * m, m * m + 1, dtype=np.float64) / m
    xs = np.sort(sample.values)
    fn = np.searchsorted(xs, t, side="right") / xs.size
    g = np.asarray(dist.cdf(t), dtype=np.float64)
    return float(np.max(np.abs(fn - g)))


class TestTruncatedKolmogorov:
    LAWS = [
        ReferenceDistribution("normal", mean=0.0, sd=1.0),
        ReferenceDistribution("normal", mean=0.3, sd=2.5),
        ReferenceDistribution("exponential", rate=1.5),
        ReferenceDistribution("uniform", a=-1.0, b=2.0),
        ReferenceDistribution("point_mass", c=0.5),
    ]

    @pytest.mark.parametrize("law", range(len(LAWS)))
    @pytest.mark.parametrize("shape", ["normal", "on_grid", "extreme",
                                       "near_grid"])
    def test_equals_the_full_grid_exactly(self, law, shape):
        dist = self.LAWS[law]
        gen = np.random.default_rng([law, len(shape)])
        for _ in range(40):
            m, n = int(gen.integers(1, 121)), int(gen.integers(1, 301))
            if shape == "normal":
                x = gen.normal(0.0, 3.0, n)
            elif shape == "on_grid":
                x = gen.integers(-m * m - 5, m * m + 5, n) / m
            elif shape == "extreme":
                x = gen.choice([-1e300, 1e300, 0.0, 1.0 / m, -m, m,
                                m + 1e-9], n)
            else:
                x = (np.round(gen.normal(0.0, 1.0, n) * m) / m
                     + gen.choice([0.0, 1e-16, -1e-16], n))
            sample = Sample(x)
            assert (truncated_kolmogorov(sample, dist, m)
                    == full_grid_kolmogorov(sample, dist, m))

    def test_huge_m_builds_no_grid(self, std_normal):
        # the full grid for m = 10^5 holds 2 * 10^10 points
        x = Sample(np.random.default_rng(15).standard_normal(2000))
        d = truncated_kolmogorov(x, std_normal, 100_000)
        assert 0.0 < d <= kolmogorov_distance(x, std_normal) + 1e-15

    def test_hand_example(self, std_normal):
        # grid {-1, 0, 1}; the gap at t=0 is |1 - 0.5|
        assert truncated_kolmogorov(Sample([0.0]), std_normal, 1) == 0.5

    def test_never_exceeds_full_distance(self, std_normal):
        gen = np.random.default_rng(12)
        for _ in range(20):
            x = Sample(gen.standard_normal(int(gen.integers(1, 50))))
            full = kolmogorov_distance(x, std_normal)
            for m in (1, 3, 10):
                assert truncated_kolmogorov(x, std_normal, m) <= full + 1e-15

    def test_grid_nesting_monotone(self, std_normal):
        gen = np.random.default_rng(13)
        x = Sample(gen.standard_normal(30))
        d1 = truncated_kolmogorov(x, std_normal, 5)
        d2 = truncated_kolmogorov(x, std_normal, 10)
        assert d2 >= d1 - 1e-15

    def test_large_m_approaches_full(self, std_normal):
        gen = np.random.default_rng(14)
        x = Sample(np.round(gen.standard_normal(20), 2))
        full = kolmogorov_distance(x, std_normal)
        # sample values sit on the 1/100 grid, so the right-limit branch is
        # evaluated exactly; the left-limit branch is off by at most the
        # CDF increment over one grid step, max density / m
        trunc = truncated_kolmogorov(x, std_normal, 100)
        assert trunc <= full + 1e-15
        assert trunc >= full - 0.399 / 100 - 1e-12

    def test_m_validated(self, std_normal):
        with pytest.raises(DomainError):
            truncated_kolmogorov(Sample([0.0]), std_normal, 0)


class TestWasserstein:
    def test_two_point_uniform(self, uniform01):
        assert wasserstein1(Sample([0.0, 1.0]), uniform01) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_point_mass_exact_match(self):
        dist = ReferenceDistribution("point_mass", c=2.0)
        assert wasserstein1(Sample([2.0]), dist) == 0.0

    def test_point_mass_mean_distance(self):
        dist = ReferenceDistribution("point_mass", c=0.0)
        x = Sample([-1.0, 3.0])
        assert wasserstein1(x, dist) == pytest.approx(2.0, abs=1e-15)

    def test_single_interior_point(self, uniform01):
        assert wasserstein1(Sample([0.5]), uniform01) == pytest.approx(
            0.25, abs=1e-15
        )

    @pytest.mark.parametrize("name", ["uniform01", "std_normal", "exponential1"])
    def test_against_dense_numerical_oracle(self, request, name):
        dist = request.getfixturevalue(name)
        gen = np.random.default_rng(21)
        for _ in range(5):
            n = int(gen.integers(2, 40))
            xs = np.sort(dist.quantile(1.0 - gen.random(n)))
            lo = min(xs[0], float(dist.quantile(1e-9))) - 1.0
            hi = max(xs[-1], float(dist.quantile(1.0 - 1e-9))) + 1.0
            grid = np.linspace(lo, hi, 400_001)
            fn = np.searchsorted(xs, grid, side="right") / n
            oracle = np.trapezoid(np.abs(fn - dist.cdf(grid)), grid)
            assert wasserstein1(Sample(xs), dist) == pytest.approx(
                oracle, abs=5e-4
            )

    def test_shrinks_with_n(self, std_normal):
        gen = np.random.default_rng(22)
        coarse = wasserstein1(Sample(gen.standard_normal(50)), std_normal)
        fine = wasserstein1(Sample(gen.standard_normal(5000)), std_normal)
        assert fine < coarse


class TestInfluenceFunction:
    def test_uniform_uniform_hand_value(self, uniform01):
        phi = uniform_spectrum()
        assert influence_function(phi, uniform01, 0.3) == pytest.approx(
            0.2, abs=1e-8
        )

    def test_mean_point_is_zero(self, uniform01):
        assert influence_function(uniform_spectrum(), uniform01, 0.5) == \
            pytest.approx(0.0, abs=1e-8)

    def test_normal_symmetry_point(self, std_normal):
        assert influence_function(uniform_spectrum(), std_normal, 0.0) == \
            pytest.approx(0.0, abs=1e-8)

    def test_uniform_spectrum_is_mean_minus_x(self, std_normal):
        # for phi = 1 the kernel is E[X] - x
        for x in (-1.3, 0.4, 2.1):
            assert influence_function(uniform_spectrum(), std_normal, x) == \
                pytest.approx(-x, abs=1e-6)

    def test_point_mass_rejected(self, point_mass3):
        with pytest.raises(DomainError):
            influence_function(uniform_spectrum(), point_mass3, 0.0)

    def test_table_matches_direct(self, std_normal, uniform01):
        for phi, dist in [
            (uniform_spectrum(), std_normal),
            (linear_spectrum(2.0), uniform01),
            (exponential_spectrum(2.0), std_normal),
        ]:
            grid, table = influence_table(phi, dist)
            gen = np.random.default_rng(31)
            for u in gen.random(6) * 0.96 + 0.02:
                x = float(dist.quantile(u))
                direct = influence_function(phi, dist, x)
                interp = float(np.interp(u, grid, table))
                assert interp == pytest.approx(direct, abs=1e-5)

    @pytest.mark.parametrize("dist_name,mean", [
        ("std_normal", 0.0), ("exponential1", 1.0),
    ])
    def test_table_is_mean_minus_x(self, request, dist_name, mean):
        # for phi = 1 the kernel is E[X] - x; the truncation at 1e-9 costs
        # about 1e-9 on Exp(1)
        dist = request.getfixturevalue(dist_name)
        grid, table = influence_table(uniform_spectrum(), dist)
        inner = (grid >= 1e-6) & (grid <= 1.0 - 1e-6)
        exact = mean - dist.quantile(grid[inner])
        assert np.max(np.abs(table[inner] - exact)) <= 1e-8

    def test_tail_value_against_scalar_simpson(self, std_normal):
        # phi(F) = 2 (1 - F) is 1 plus an odd function of x on the
        # symmetric quantile range, which one G7K15 panel integrates
        # exactly; a value far in the tail must still meet the tolerance
        phi, dist = linear_spectrum(2.0), std_normal
        lo_x, hi_x = (float(dist.quantile(u)) for u in (1e-9, 1.0 - 1e-9))

        def weight(t):
            return phi.density(float(dist.cdf(t)))

        for u in (0.0001, 0.37, 0.9999):
            x = float(dist.quantile(u))
            below = adaptive_simpson(
                lambda t: float(dist.cdf(t)) * weight(t), lo_x, x, tol=1e-13)
            above = adaptive_simpson(
                lambda t: (1.0 - float(dist.cdf(t))) * weight(t), x, hi_x,
                tol=1e-13)
            assert influence_function(phi, dist, x) == pytest.approx(
                above - below, abs=1e-9)


class TestAsymptoticVariance:
    def test_uniform_uniform_exact(self, uniform01):
        assert asymptotic_variance(uniform_spectrum(), uniform01) == \
            pytest.approx(1 / 12, abs=1e-6)

    def test_linear_uniform_hand_integral(self, uniform01):
        # 2 * int (1-b)^2 * 2 * (b^2 - 2b^3/3) db over (0,1) = 4/45
        assert asymptotic_variance(linear_spectrum(2.0), uniform01) == \
            pytest.approx(4 / 45, abs=1e-6)

    def test_uniform_normal_is_population_variance(self, std_normal):
        assert asymptotic_variance(uniform_spectrum(), std_normal) == \
            pytest.approx(1.0, abs=1e-4)

    def test_uniform_exponential_is_population_variance(self, exponential1):
        assert asymptotic_variance(uniform_spectrum(), exponential1) == \
            pytest.approx(1.0, abs=1e-4)

    def test_a_law_on_one_float_has_zero_variance(self):
        # every quantile the integral reads rounds to 1.0; the variance,
        # sd^2 ~ 5e-495, is 0.0 in floats
        narrow = ReferenceDistribution("normal", mean=1.0, sd=7e-248)
        assert float(narrow.quantile(1e-6)) == float(narrow.quantile(1 - 1e-6))
        assert asymptotic_variance(uniform_spectrum(), narrow) == 0.0

    def test_scale_equivariance(self):
        base = ReferenceDistribution("normal", mean=0.0, sd=1.0)
        scaled = ReferenceDistribution("normal", mean=5.0, sd=3.0)
        phi = linear_spectrum(2.0)
        v1 = asymptotic_variance(phi, base)
        v2 = asymptotic_variance(phi, scaled)
        assert v2 == pytest.approx(9.0 * v1, rel=1e-5)

    def test_nonnegative_for_bundled_pairs(self, uniform01, std_normal,
                                           exponential1):
        for phi in (uniform_spectrum(), linear_spectrum(1.0),
                    exponential_spectrum(2.0)):
            for dist in (uniform01, std_normal, exponential1):
                assert asymptotic_variance(phi, dist) >= 0.0

    def test_point_mass_rejected(self, point_mass3):
        with pytest.raises(DomainError):
            asymptotic_variance(uniform_spectrum(), point_mass3)

    def test_es_spectrum_variance_known_value(self, uniform01):
        # ES_alpha of U(0,1): kernel w = (1/a) on (0, a]; by direct
        # integration sigma^2 = a^(-2) * [a^2/2 - a^3/3 - a^4/4 + ... ]
        # computed symbolically for a = 1/2: 2*int_{s<t<=a} s(1-t)/a^2
        # = (we trust the closed form below, derived by hand)
        alpha = 0.5
        # inner: int_0^t s ds = t^2/2; outer: 2/a^2 int_0^a (1-t) t^2/2 dt
        expect = (2 / alpha**2) * (alpha**3 / 6 - alpha**4 / 8)
        got = asymptotic_variance(expected_shortfall_spectrum(alpha), uniform01)
        assert got == pytest.approx(expect, abs=1e-6)


class TestInfluenceMonteCarlo:
    """Light 1e5-draw version of the acceptance-scale MC agreement."""

    @pytest.mark.parametrize(
        "phi_name,dist_name",
        [
            ("uniform", "uniform01"),
            ("uniform", "std_normal"),
            ("linear", "uniform01"),
        ],
    )
    def test_variance_and_mean(self, request, phi_name, dist_name):
        phi = {"uniform": uniform_spectrum(), "linear": linear_spectrum(2.0)}[
            phi_name
        ]
        dist = request.getfixturevalue(dist_name)
        grid, table = influence_table(phi, dist)
        draws = np.interp(RngSpec(77).generator().random(100_000), grid, table)
        sigma2 = asymptotic_variance(phi, dist)
        var = float(draws.var(ddof=1))
        centered = draws - draws.mean()
        se_var = float(np.sqrt((np.mean(centered**4) - var**2) / draws.size))
        assert abs(var - sigma2) <= 6 * se_var
        se_mean = float(draws.std() / np.sqrt(draws.size))
        assert abs(float(draws.mean())) <= 6 * se_mean
