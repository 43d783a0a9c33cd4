import math

import numpy as np
import pytest
import scipy.optimize

from dense_oracle import same_csr
from revmarkov import (
    BenchmarkConfig,
    EmptyTrajectory,
    LangevinConfig,
    count_matrix,
    gen_random_chain,
    is_irreducible,
    langevin_trajectory,
    run_benchmark,
    stochasticity_residual,
    torsion_potential,
)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BenchmarkConfig(num_cases=math.nan), "num_cases must be at least 1"),
        (lambda: BenchmarkConfig(n_min=math.nan), "n_min must be at least 2"),
        (lambda: BenchmarkConfig(n_min=5, n_max=4), "n_min must not exceed n_max"),
        (lambda: LangevinConfig(dt=0.0), "dt must be positive"),
        (lambda: LangevinConfig(bins=1), "bins must be at least 2"),
        (lambda: LangevinConfig(steps=0), "steps must be at least 1"),
    ],
    ids=["nan cases", "nan n_min", "n_min above n_max", "zero dt", "one bin", "no steps"],
)
def test_config_guards(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestGenRandomChain:
    def test_deterministic(self):
        cfg = BenchmarkConfig(seed=7)
        first = gen_random_chain(cfg, 0)
        second = gen_random_chain(cfg, 0)
        assert same_csr(first.csr, second.csr)  # canonical storage makes equality exact

    def test_cases_differ(self):
        cfg = BenchmarkConfig(seed=7)
        assert not same_csr(gen_random_chain(cfg, 0).csr, gen_random_chain(cfg, 1).csr)

    def test_irreducible_and_stochastic(self):
        cfg = BenchmarkConfig(num_cases=10, n_min=40, n_max=80, seed=3)
        for case in range(10):
            P = gen_random_chain(cfg, case)
            assert is_irreducible(P)
            assert stochasticity_residual(P) <= 1e-12

    def test_all_default_cases_are_irreducible(self):
        cfg = BenchmarkConfig()
        for case in range(cfg.num_cases):
            P = gen_random_chain(cfg, case)
            assert is_irreducible(P)
            assert stochasticity_residual(P) <= 1e-12

    def test_size_and_sparsity_bounds(self):
        cfg = BenchmarkConfig(n_min=50, n_max=120, alpha=5.0, seed=11)
        for case in range(8):
            P = gen_random_chain(cfg, case)
            assert 2 <= P.n <= 120
            assert P.nnz <= 5 * 120

    def test_attempt_changes_stream(self):
        cfg = BenchmarkConfig(seed=13)
        first, other = (gen_random_chain(cfg, 0, attempt=k).csr for k in (0, 1))
        assert not same_csr(first, other)


class TestTorsionPotential:
    BUTANE = (2.0567, -4.0567, 0.3133, 6.4267)

    def test_periodic(self):
        xs = np.linspace(0.0, 2.0 * np.pi, 7)
        u = torsion_potential(xs, self.BUTANE)
        assert u[0] == pytest.approx(u[-1])

    def test_global_minimum_at_pi(self):
        assert torsion_potential(np.pi, self.BUTANE) == pytest.approx(0.0, abs=1e-12)


def zero_noise_bins(x, nbins, steps):
    """The bins of ``steps`` noiseless butane steps from ``x`` (dt = 1e-3),
    which every Langevin kernel must give bit for bit, as the end position."""
    import revmarkov.experiments as exp

    _, b, c, d = TestTorsionPotential.BUTANE
    runs = []
    for kernel in (exp._walk_chunk, exp._walk_chunk_python, exp._get_walk_kernel()):
        bins = np.empty(steps, dtype=np.int16)
        end = kernel(x, np.zeros(steps), b, 2 * c, 3 * d, 1e-3, 0.0, nbins / exp.TWO_PI, nbins, bins, 0)
        runs.append((bins, end))
    for bins, end in runs[1:]:
        assert np.array_equal(bins, runs[0][0]) and end == runs[0][1]
    return runs[0][0]


class TestLangevinTrajectory:
    def test_reproducible(self):
        cfg = LangevinConfig(steps=20_000, seed=5)
        assert np.array_equal(langevin_trajectory(cfg), langevin_trajectory(cfg))

    def test_seed_changes_path(self):
        a = langevin_trajectory(LangevinConfig(steps=20_000, seed=5))
        b = langevin_trajectory(LangevinConfig(steps=20_000, seed=6))
        assert not np.array_equal(a, b)

    def test_zero_noise_fixes_stationary_point(self):
        # gradient root inside a bin: cos x = (-2c + sqrt(4c^2 - 12 d b)) / (6 d)
        _, b, c, d = TestTorsionPotential.BUTANE
        x_star = scipy.optimize.brentq(
            lambda x: b + 2.0 * c * math.cos(x) + 3.0 * d * math.cos(x) ** 2,
            0.5,
            2.0,
        )
        bins = zero_noise_bins(x_star, 30, 10_000)
        assert np.all(bins == int(x_star * 30 / (2.0 * np.pi)))

    def test_kernels_clamp_the_last_bin(self):
        # x * bins / 2 pi rounds to 7.0, so every bin must clamp to 6
        assert np.all(zero_noise_bins(float(np.nextafter(2.0 * np.pi, 0.0)), 7, 5_000) == 6)

    def test_length_and_range(self):
        cfg = LangevinConfig(steps=5_000, bins=12, seed=2)
        bins = langevin_trajectory(cfg)
        assert bins.shape == (5_001,)
        assert bins.min() >= 0 and bins.max() < 12

    @pytest.mark.parametrize(
        "cfg",
        [
            LangevinConfig(steps=1, seed=12),
            # not a multiple of the sub-chunk, and crosses a noise block
            LangevinConfig(steps=(1 << 20) + 4_097, seed=12),
        ],
        ids=["one-step", "block-crossing"],
    )
    def test_kernels_match_reference_loop(self, monkeypatch, cfg):
        # the pure-Python fallback and, when numba is importable, the jitted
        # kernel must reproduce the plain step loop of _walk_chunk bit for
        # bit: the bins, and the exact position at the end of each noise block
        import revmarkov.experiments as exp

        def run(kernel):
            ends = []

            def recording(*args):
                ends.append(kernel(*args))
                return ends[-1]

            monkeypatch.setattr(exp, "_compiled_walk", recording)
            return langevin_trajectory(cfg), ends

        reference, reference_ends = run(exp._walk_chunk)
        monkeypatch.setattr(exp, "_compiled_walk", None)
        for kernel in {exp._walk_chunk_python, exp._get_walk_kernel()}:
            bins, ends = run(kernel)
            assert np.array_equal(bins, reference), kernel
            assert ends == reference_ends, kernel

    def test_occupancy_tracks_gibbs_weights(self, butane):
        # desk-scale run vs quadrature of exp(-2 U / sigma^2) per bin
        cfg = butane.cfg
        xs = np.linspace(0.0, 2.0 * np.pi, 600_001)
        a, b, c, d = cfg.coefficients
        u = a + b * np.cos(xs) + c * np.cos(xs) ** 2 + d * np.cos(xs) ** 3
        weights = np.exp(-2.0 * u / cfg.sigma**2)
        which = np.minimum((xs * cfg.bins / (2.0 * np.pi)).astype(int), cfg.bins - 1)
        gibbs = np.bincount(which, weights=weights, minlength=cfg.bins)
        gibbs /= gibbs.sum()
        occupancy = np.bincount(butane.bins.astype(np.int64), minlength=cfg.bins)
        occupancy = occupancy / occupancy.sum()
        tv = 0.5 * np.abs(occupancy - gibbs).sum()
        assert tv <= 0.1


class TestCountMatrix:
    def test_constant_sequence(self):
        C = count_matrix(np.full(11, 3, dtype=int), 5)
        dense = C.toarray()
        assert dense[3, 3] == 10
        assert dense.sum() == 10

    def test_alternating_sequence(self):
        bins = np.array([0, 1] * 6)
        C = count_matrix(bins, 2).toarray()
        assert C[0, 1] == 6
        assert C[1, 0] == 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrajectory):
            count_matrix(np.array([4]), 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            count_matrix(np.array([0, 7]), 5)

    def test_int16_codes_do_not_overflow(self):
        # 299 * 300 + 299 overflows int16, so the codes must be built wider
        rng = np.random.default_rng(4)
        bins = rng.integers(0, 300, size=20_000).astype(np.int16)
        expected = np.zeros((300, 300))
        for i, j in zip(bins[:-1].tolist(), bins[1:].tolist()):
            expected[i, j] += 1
        C = count_matrix(bins, 300)
        assert np.array_equal(C.toarray(), expected)

    def test_butane_counts_support(self, butane):
        # one-step moves only reach adjacent bins (plus the periodic corner),
        # so the support is tridiagonal with corners: 90 positions
        assert butane.counts.nnz == 90
        dense = butane.counts.toarray()
        n = 30
        for i in range(n):
            js = np.nonzero(dense[i])[0]
            assert set(js) <= {i, (i - 1) % n, (i + 1) % n}


class TestRunBenchmark:
    def test_small_run_properties(self, tmp_path):
        cfg = BenchmarkConfig(num_cases=5, n_min=40, n_max=90, seed=17)
        out = tmp_path / "report.csv"
        rows = run_benchmark(cfg, output_path=out)
        assert len(rows) == 5
        for row in rows:
            assert "error" not in row, row
            assert row["distance"] <= row["mh_distance"] + 1e-10
            assert row["nnz_r"] >= row["nnz_p"] - 2
            assert (
                max(
                    row["residual_stochasticity"],
                    row["residual_detailed_balance"],
                    row["residual_stationarity"],
                )
                <= 1e-10
            )
        header = out.read_text().splitlines()[0]
        assert header.startswith("case,n,nnz_p")

    def test_json_report(self, tmp_path):
        import json

        cfg = BenchmarkConfig(num_cases=2, n_min=30, n_max=40, seed=19)
        out = tmp_path / "report.json"
        rows = run_benchmark(cfg, output_path=out)
        assert json.loads(out.read_text()) == rows
