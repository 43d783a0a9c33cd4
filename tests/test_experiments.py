import logging
import math
import os
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import revmarkov.experiments as experiments
from dense_oracle import reference_random_chain, same_csr
from revmarkov import (
    BenchmarkConfig,
    DegenerateInstance,
    EmptyTrajectory,
    LangevinConfig,
    RevMarkovError,
    ZeroRow,
    count_matrix,
    gen_random_chain,
    is_irreducible,
    langevin_trajectory,
    run_benchmark,
    stochasticity_residual,
    strongly_connected_components,
    torsion_potential,
)
from revmarkov.experiments import _NOISE_BLOCK, _SUB_CHUNK


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


def same_outcome(cfg, case, attempt=0):
    """Whether ``gen_random_chain`` and its SciPy reference give byte-equal
    buffers, or raise the same error; the outcome, for the caller to check
    what it covered."""
    outcomes = []
    for generate in (gen_random_chain, reference_random_chain):
        try:
            csr = generate(cfg, case, attempt).csr
        except RevMarkovError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(
                tuple((buf.dtype, buf.tobytes()) for buf in (csr.indptr, csr.indices, csr.data))
            )
    assert outcomes[0] == outcomes[1], (cfg, case, attempt)
    return outcomes[0]


class TestGeneratorMatchesReference:
    def test_bench_ensemble_keys(self):
        # the benchmark's ensemble is BenchmarkConfig() over keys 0-399
        cfg = BenchmarkConfig()
        for case in range(400):
            same_outcome(cfg, case)

    def test_attempts_and_other_sizes(self):
        for cfg in (
            BenchmarkConfig(),
            BenchmarkConfig(n_min=800, n_max=800),
            BenchmarkConfig(n_min=3, n_max=40, alpha=1.5, seed=3),
        ):
            for case in range(4):
                for attempt in range(1, 4):
                    same_outcome(cfg, case, attempt)

    def test_tiny_configs_degenerate_alike(self):
        cfg = BenchmarkConfig(n_min=2, n_max=2, alpha=1.0, seed=1)
        outcomes = [same_outcome(cfg, case, attempt) for case in range(20) for attempt in range(3)]
        errors = [outcome for outcome in outcomes if outcome[0] is DegenerateInstance]
        assert errors and len(errors) < len(outcomes)

    def test_tie_between_largest_components(self):
        # two components of two states tie, and SciPy labels {1, 3} before
        # {0, 2}; the chain is the restriction to {0, 2}, which holds state 0
        cfg, case = BenchmarkConfig(n_min=4, n_max=4, alpha=2.0, seed=1), 8
        rng = experiments._case_rng(cfg.seed, case)
        n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        flat = np.unique(rng.integers(0, n * n, size=int(cfg.alpha * n)))
        support = sp.coo_matrix((np.ones(flat.size), (flat // n, flat % n)), shape=(n, n))
        components = [c.tolist() for c in strongly_connected_components(support)]
        assert components[:2] == [[1, 3], [0, 2]] and all(len(c) == 1 for c in components[2:])
        same_outcome(cfg, case)
        assert gen_random_chain(cfg, case).n == 2

    def test_a_drawn_zero_is_handled_alike(self, monkeypatch):
        # a value drawn as exactly 0.0 stays an edge of the support for the
        # components and is dropped when the restriction is normalized
        draw = experiments._case_rng

        class ZeroingStream:
            def __init__(self, *key):
                self._rng = draw(*key)

            def integers(self, *args, **kwargs):
                return self._rng.integers(*args, **kwargs)

            def random(self, size):
                values = self._rng.random(size)
                values[::2] = 0.0
                return values

        monkeypatch.setattr(experiments, "_case_rng", ZeroingStream)
        cfg = BenchmarkConfig(n_min=3, n_max=12, alpha=2.0, seed=5)
        firsts = [same_outcome(cfg, case)[0] for case in range(40)]
        errors = [first for first in firsts if isinstance(first, type)]
        assert set(errors) == {ZeroRow, DegenerateInstance} and len(errors) < len(firsts)


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
            LangevinConfig(steps=_NOISE_BLOCK + 4_097, seed=12),
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

    def test_memory_is_bounded_by_the_output(self, monkeypatch):
        # besides the int8 trajectory, the walk holds one noise buffer and
        # the counts one slice of codes, whatever the step count; a noise
        # block or a code array per step would exceed the bound.  The same
        # holds in one process and split with a helper (threshold patched).
        cfg = LangevinConfig(steps=1_000_000, seed=3)
        langevin_trajectory(LangevinConfig(steps=1))  # compile a numba kernel untraced
        for threshold in (cfg.steps + 1, 1):
            monkeypatch.setattr(experiments, "_SPLIT_STEPS", threshold)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bins = langevin_trajectory(cfg)
                count_matrix(bins, cfg.bins)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak - bins.nbytes <= 2 << 20, f"{(peak - bins.nbytes) / 2**20:.1f} MB"

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


def int64_walk(cfg):
    """The trajectory of ``cfg`` walked in one process into int64 bins."""
    key = np.array([cfg.seed, 1 << 63], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    bin_scale = cfg.bins / experiments.TWO_PI
    amp = cfg.sigma * math.sqrt(cfg.dt)
    args = (cfg.b, 2.0 * cfg.c, 3.0 * cfg.d, cfg.dt, amp, bin_scale, cfg.bins)
    out = np.empty(cfg.steps + 1, dtype=np.int64)
    experiments._walk(experiments._get_walk_kernel(), rng, math.pi, args, out, 0, cfg.steps)
    out[0] = int(math.pi * bin_scale)
    return out


splitting = pytest.mark.parametrize(
    "split",
    [
        False,
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                not experiments._splits(1 << 62), reason="needs os.fork and two CPUs"
            ),
        ),
    ],
    ids=["one-process", "split"],
)


@splitting
@pytest.mark.parametrize(
    "bins, dtype",
    [(127, np.int8), (128, np.int16), (32_767, np.int16), (32_768, np.int64)],
)
def test_the_narrowest_dtype_holds_the_bins(monkeypatch, split, bins, dtype):
    # sigma = 30 moves about 1 rad a step, so the walk spreads over every bin
    monkeypatch.setattr(experiments, "_SPLIT_STEPS", 1 if split else 1 << 62)
    cfg = LangevinConfig(steps=3 * _SUB_CHUNK + 5, bins=bins, sigma=30.0, seed=12)
    trajectory = langevin_trajectory(cfg)
    expected = int64_walk(cfg)
    assert trajectory.dtype == dtype and np.array_equal(trajectory, expected)
    assert expected.max() >= min(bins - 1, 32_000)


@splitting
def test_a_torsion_trajectory_takes_a_byte_a_step(monkeypatch, split):
    monkeypatch.setattr(experiments, "_SPLIT_STEPS", 1 if split else 1 << 62)
    cfg = LangevinConfig(steps=10_000, seed=3)
    assert langevin_trajectory(cfg).nbytes == cfg.steps + 1


def one_process_walk(monkeypatch, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_SPLIT_STEPS", cfg.steps + 1)
        return langevin_trajectory(cfg)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_record(caplog):
    """``(split step, steps re-walked, helper exit status)`` of the one split
    record."""
    [record] = [r for r in caplog.records if r.name == "revmarkov.experiments"]
    assert record.levelno == logging.DEBUG
    match = re.search(
        r"split at step (\d+): (\d+) steps re-walked, helper exit status (\S+)",
        record.getMessage(),
    )
    return int(match.group(1)), int(match.group(2)), match.group(3)


@pytest.mark.skipif(not experiments._splits(1 << 62), reason="needs os.fork and two CPUs")
class TestSplitWalk:
    """Walks split with a forked helper, the threshold patched low."""

    @pytest.fixture(autouse=True)
    def low_threshold(self, monkeypatch, caplog):
        monkeypatch.setattr(experiments, "_SPLIT_STEPS", 1)
        caplog.set_level(logging.DEBUG, logger="revmarkov.experiments")

    @pytest.mark.parametrize(
        "steps, seed, early",
        [
            (1, 12, False),  # the helper starts where the walk does
            (3 * _SUB_CHUNK + 5, 12, True),  # not a multiple of the sub-chunk
            (_NOISE_BLOCK + 4_097, 12, True),  # crosses a noise block
            (200_001, 7, False),  # the paths never meet: all walked again
        ],
    )
    def test_matches_the_one_process_walk(self, monkeypatch, caplog, steps, seed, early):
        # early: the paths meet before the last sub-chunk, so the helper's
        # later bins are kept
        cfg = LangevinConfig(steps=steps, seed=seed)
        bins = langevin_trajectory(cfg)
        assert_no_child_left()
        split, rewalked, status = split_record(caplog)
        # the helper's share leaves room for its discarded draws
        assert split == steps * 250 // 481
        assert status == "0" and (rewalked < steps - split) == early
        expected = one_process_walk(monkeypatch, cfg)
        assert bins.dtype == expected.dtype and np.array_equal(bins, expected)

    def test_wide_bins(self, monkeypatch):
        cfg = LangevinConfig(steps=20_000, bins=40_000, seed=2)
        bins = langevin_trajectory(cfg)
        assert bins.dtype == np.int64 and np.array_equal(bins, one_process_walk(monkeypatch, cfg))

    @pytest.mark.parametrize("exit_status", [1, 3, -signal.SIGKILL])
    def test_a_failed_helper_changes_no_bin(self, monkeypatch, caplog, exit_status):
        # the helper walks, then scribbles over its bins and fails: its
        # checkpoints hold the right positions, but none may be used
        helper = experiments._helper_walk

        def failing(kernel, key, args, out, checkpoints, split, steps):
            helper(kernel, key, args, out, checkpoints, split, steps)
            out[split + 1 :] = -1
            if exit_status < 0:
                os.kill(os.getpid(), -exit_status)
            os._exit(exit_status)

        monkeypatch.setattr(experiments, "_helper_walk", failing)
        cfg = LangevinConfig(steps=_NOISE_BLOCK + 4_097, seed=12)
        bins = langevin_trajectory(cfg)
        assert_no_child_left()
        split, rewalked, status = split_record(caplog)
        assert (rewalked, status) == (cfg.steps - split, str(exit_status))
        assert np.array_equal(bins, one_process_walk(monkeypatch, cfg))

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_raising_walk_ends_the_helper(self, monkeypatch, error):
        # the helper would sleep for a minute: it is killed and reaped
        parent, kernel = os.getpid(), experiments._get_walk_kernel()

        def raising(x, noise, *args):
            if os.getpid() == parent and noise.size:
                raise error("stop")
            return kernel(x, noise, *args)

        monkeypatch.setattr(experiments, "_compiled_walk", raising)
        monkeypatch.setattr(experiments, "_helper_walk", lambda *args: time.sleep(60))
        start = time.perf_counter()
        with pytest.raises(error, match="stop"):
            langevin_trajectory(LangevinConfig(steps=10_000, seed=1))
        assert_no_child_left()
        assert time.perf_counter() - start < 30


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
        # 299 * 300 + 299 overflows int16, so the codes must be built wider;
        # 300**2 codes exceed a slice, so the run's four whole slices and
        # remainder are counted by distinct codes and merged
        rng = np.random.default_rng(4)
        size = 3 * max(_NOISE_BLOCK, 300 * 300) + 1_235
        bins = rng.integers(0, 300, size=size).astype(np.int16)
        expected = np.zeros((300, 300))
        for i, j in zip(bins[:-1].tolist(), bins[1:].tolist()):
            expected[i, j] += 1
        C = count_matrix(bins, 300)
        assert np.array_equal(C.toarray(), expected)

    def test_int8_codes_do_not_overflow(self):
        # 126 * 127 + 126 overflows int8; two whole slices and a remainder
        bins = np.random.default_rng(6).integers(0, 127, size=2 * _NOISE_BLOCK + 1_235)
        C = count_matrix(bins.astype(np.int8), 127)
        assert same_csr(C, count_matrix(bins, 127)) and C.sum() == bins.size - 1

    def test_one_code_slice_is_alive(self):
        # the int64 codes of one slice of transitions, 8 * _NOISE_BLOCK bytes,
        # plus the 30**2 counts and NumPy's int8-to-int64 cast buffer (64 KB);
        # a second slice alive would add another 8 * _NOISE_BLOCK
        bins = np.random.default_rng(7).integers(0, 30, size=1_000_001).astype(np.int8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count_matrix(bins, 30)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _NOISE_BLOCK + (128 << 10), f"{peak / 2**10:.0f} KB"

    def test_memory_follows_the_codes_seen(self):
        # 3,000 bins have 9e6 codes: a count vector over all of them would
        # take 72 MB, where this trajectory has 10 transitions
        bins = np.random.default_rng(5).integers(0, 3_000, size=11).astype(np.int16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            C = count_matrix(bins, 3_000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"{peak / 2**20:.1f} MB"
        pairs = (bins[:-1].astype(np.int64), bins[1:].astype(np.int64))
        expected = sp.coo_matrix((np.ones(10), pairs), shape=(3_000, 3_000)).tocsr()
        assert C.has_sorted_indices and (C != expected).nnz == 0 and C.nnz == expected.nnz

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
