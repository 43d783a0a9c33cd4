"""Desk-scale experiment drivers: random sparse chain generation, overdamped
Langevin simulation with count-matrix estimation, and the benchmark loop.

Randomness comes from counter-based Philox streams so every artifact is a
pure function of ``(seed, case_index)``:

* benchmark case ``i``, attempt ``a``: key ``(seed, a * 2**32 + i)``
* Langevin trajectories:              key ``(seed, 2**63)``

Streams never overlap and are reproducible across platforms (trajectory
values additionally depend on the platform's libm rounding of sin/cos).
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import math
import mmap
import os
import signal
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .exceptions import DegenerateInstance, EmptyTrajectory
from .pipeline import nearest_sparse_reversible
from .sparse_core import _row_major, _scipy, row_normalize

__all__ = [
    "BenchmarkConfig",
    "LangevinConfig",
    "gen_random_chain",
    "langevin_trajectory",
    "count_matrix",
    "run_benchmark",
    "torsion_potential",
]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

#: Langevin noise is drawn into one reused buffer of this many draws, and
#: transitions are counted in slices of this many.  Changing it changes only
#: the batching, not the values: the Philox normal stream does not depend on
#: how it is drawn, and integer counts add up exactly.
_NOISE_BLOCK = 1 << 16

_LANGEVIN_STREAM = np.uint64(1) << np.uint64(63)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Random sparse chain ensemble: sizes, sparsity, and seed."""

    num_cases: int = 100
    n_min: int = 100
    n_max: int = 300
    alpha: float = 5.0
    seed: int = 20250807

    def __post_init__(self):
        if not self.num_cases >= 1:
            raise ValueError("num_cases must be at least 1")
        if not self.n_min >= 2:
            raise ValueError("n_min must be at least 2")
        if not self.n_min <= self.n_max:
            raise ValueError("n_min must not exceed n_max")
        if not self.alpha >= 1.0:
            raise ValueError("alpha must be at least 1")


_SEED_MASK = (1 << 64) - 1


def _case_rng(seed: int, case_index: int, attempt: int = 0) -> np.random.Generator:
    stream = np.uint64(attempt) * np.uint64(2**32) + np.uint64(case_index)
    key = np.array([np.uint64(seed & _SEED_MASK), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gen_random_chain(cfg: BenchmarkConfig, case_index: int, attempt: int = 0):
    """One random sparse irreducible chain.

    Draws ``n`` uniformly from ``[n_min, n_max]``, places ``floor(alpha n)``
    uniform(0,1) values at uniform positions (duplicates collapse, so the
    count is an upper bound), restricts to the largest strongly connected
    component of the support, and row-normalizes.  A tie between largest
    components goes to the one holding the smallest state.

    The positions are drawn as keys ``i * n + j``.  Sorted, the distinct keys
    are the row-major order of canonical CSR storage, so the support and its
    restriction are built as CSR arrays directly.

    Raises
    ------
    DegenerateInstance
        If the largest component has fewer than two states; retry with the
        next attempt substream.
    """
    rng = _case_rng(cfg.seed, case_index, attempt)
    n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
    nnz = int(cfg.alpha * n)
    keys = np.sort(rng.integers(0, n * n, size=nnz))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    values = rng.random(keys.size)
    rows, cols = np.divmod(keys, n)
    support = _scipy(_row_major(values, rows, cols, n))

    _, labels = connected_components(support, directed=True, connection="strong")
    component_size = np.bincount(labels)[labels]  # of each state's component
    largest = int(component_size.max())
    if largest < 2:
        raise DegenerateInstance(
            f"largest strongly connected component has {largest} state(s)"
        )
    # the first state in a largest component picks it, so a tie goes to the
    # component holding the smallest state
    keep = labels == labels[np.argmax(component_size == largest)]
    local = np.cumsum(keep) - 1  # monotone, so the entries stay row-major
    inside = keep[rows] & keep[cols]
    restricted = _row_major(values[inside], local[rows[inside]], local[cols[inside]], largest)
    return row_normalize(_scipy(restricted))


@dataclass(frozen=True)
class LangevinConfig:
    """Overdamped Langevin run on a periodic torsion potential.

    The potential is ``U(x) = a + b cos x + c cos^2 x + d cos^3 x`` on
    ``[0, 2 pi)``; the defaults are the butane torsion coefficients.  Every
    trajectory starts at ``x = pi``, the deepest well; set ``sigma = 0`` for
    plain gradient descent.
    """

    a: float = 2.0567
    b: float = -4.0567
    c: float = 0.3133
    d: float = 6.4267
    dt: float = 1e-3
    sigma: float = 1.0
    steps: int = 50_000_000
    bins: int = 30
    seed: int = 20250807

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d, self.dt, self.sigma))):
            raise ValueError("a, b, c, d, dt and sigma must be finite")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.bins >= 2:
            raise ValueError("bins must be at least 2")
        if not self.steps >= 1:
            raise ValueError("steps must be at least 1")

    @property
    def coefficients(self):
        return (self.a, self.b, self.c, self.d)


def torsion_potential(x, coefficients) -> np.ndarray:
    """``U(x) = a + b cos x + c cos^2 x + d cos^3 x`` (vectorized)."""
    a, b, c, d = coefficients
    cx = np.cos(x)
    return a + b * cx + c * cx**2 + d * cx**3


def _walk_chunk(x, noise, b1, c2, d3, dt, amp, bin_scale, nbins, out, offset):
    # Euler-Maruyama steps; drift is -dU/dx = sin(x) (b + 2c cos x + 3d cos^2 x).
    # numba compiles this loop, and tests hold the other kernels to it.
    for t in range(noise.shape[0]):
        s = math.sin(x)
        co = math.cos(x)
        x = x + (s * (b1 + c2 * co + d3 * co * co)) * dt + amp * noise[t]
        x = x % TWO_PI
        k = int(x * bin_scale)
        if k >= nbins:
            k = nbins - 1
        out[offset + t] = k
    return x


#: Steps per inner batch of the pure-Python kernel: one list of this many
#: floats is live at a time, not one per noise block.
_SUB_CHUNK = 4096


def _walk_chunk_python(x, noise, b1, c2, d3, dt, amp, bin_scale, nbins, out, offset):
    # _walk_chunk's arithmetic in the same order on Python floats, which step
    # about 3x faster than NumPy scalars; noise scaling and binning are
    # vectorized per sub-chunk, so trajectories are bit-identical
    sin, cos, two_pi = math.sin, math.cos, TWO_PI
    n = noise.shape[0]
    for lo in range(0, n, _SUB_CHUNK):
        hi = min(lo + _SUB_CHUNK, n)
        xs = []
        append = xs.append
        for e in (amp * noise[lo:hi]).tolist():
            co = cos(x)
            x = (x + (sin(x) * (b1 + c2 * co + d3 * co * co)) * dt + e) % two_pi
            append(x)
        k = (np.array(xs) * bin_scale).astype(np.int64)
        np.minimum(k, nbins - 1, out=k)
        out[offset + lo : offset + hi] = k
    return x


_compiled_walk = None


def _get_walk_kernel():
    """The Langevin step kernel for this platform.

    With numba importable, ``_walk_chunk`` JIT-compiled.  Without it,
    ``_walk_chunk_python``: the same Euler-Maruyama arithmetic in the same
    order on Python floats, 2.3 to 3.3 million steps/s in one process on a
    2-core Intel Xeon VM (Python 3.11, 2e6-step trajectories, medians of
    rounds under different load), against 0.8 million for ``_walk_chunk``
    run uncompiled.  Both give trajectories
    bit-identical to ``_walk_chunk``.  :func:`langevin_trajectory` runs the
    kernel in one process, or in two when it splits a long walk; the
    helper process calls the kernel the parent got here.
    """
    global _compiled_walk
    if _compiled_walk is None:
        try:
            from numba import njit

            _compiled_walk = njit(cache=True)(_walk_chunk)
        except ImportError:
            _compiled_walk = _walk_chunk_python
    return _compiled_walk


#: Fewest steps at which :func:`langevin_trajectory` splits its walk with a
#: forked helper.  On a 2-core Intel Xeon VM (Python 3.11, numba absent, 12
#: seeds a size) the split's median speedup over one process was 0.70, 0.79
#: and 0.88 at 2**16, 2**17 and 2**18 steps, where the two paths seldom meet
#: within the second half, and 1.64 and 1.77 at 2**19 and 2**20 (worst 1.04
#: and 1.07).
_SPLIT_STEPS = 1 << 20


def _walk(kernel, rng, x, args, out, start, stop):
    """Walk the steps ``start`` to ``stop`` from ``x`` with noise drawn from
    ``rng`` one block at a time, binning step ``t`` into ``out[1 + t]``;
    return the end position."""
    buffer = np.empty(min(_NOISE_BLOCK, stop - start))
    while start < stop:
        noise = buffer[: min(_NOISE_BLOCK, stop - start)]
        rng.standard_normal(out=noise)
        x = kernel(x, noise, *args, out, 1 + start)
        start += noise.size
    return x


def _splits(steps: int) -> bool:
    return (
        steps >= _SPLIT_STEPS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def _helper_walk(kernel, key, args, out, checkpoints, half, steps):
    # the forked helper: the steps from half on, walked from x = pi, with its
    # x at the end of every sub-chunk; it only draws, steps and writes into
    # the shared mapping (the one lock it takes is its own generator's)
    rng = np.random.Generator(np.random.Philox(key=key))
    buffer = np.empty(min(_NOISE_BLOCK, half))
    for start in range(0, half, _NOISE_BLOCK):
        rng.standard_normal(out=buffer[: min(_NOISE_BLOCK, half - start)])
    x = math.pi
    for k, start in enumerate(range(half, steps, _SUB_CHUNK)):
        x = _walk(kernel, rng, x, args, out, start, min(start + _SUB_CHUNK, steps))
        checkpoints[k] = x


def _split_walk(kernel, key, args, dtype, steps):
    """The binned walk of ``steps`` steps from ``x = pi`` on two processes.

    A forked helper walks the second half from a guessed start, ``x = pi``,
    with the noise of those steps, while this process walks the first half.
    Driven by the same noise, the two Euler-Maruyama paths come to hold the
    same double, and from then on every step is the same.  So this process
    walks on, one sub-chunk at a time, until its ``x`` equals the helper's
    at the sub-chunk's end: every later bin the helper wrote is the one this
    process would write.  If the helper failed, or the paths never meet,
    this process walks the whole second half itself.  Either way the result
    is the one-process walk bit for bit.

    The result and the helper's checkpoints live in one anonymous shared
    mapping, which the returned array keeps alive.  The helper is reaped
    before this returns or raises.
    """
    half = steps // 2
    count = -(-(steps - half) // _SUB_CHUNK)
    mapping = mmap.mmap(-1, 8 * count + np.dtype(dtype).itemsize * (steps + 1))
    checkpoints = np.frombuffer(mapping, np.float64, count)
    out = np.frombuffer(mapping, dtype, steps + 1, offset=checkpoints.nbytes)
    # a numba kernel compiles for these argument types here, not in the helper
    kernel(math.pi, np.empty(0), *args, out, 1)
    try:
        pid = os.fork()
    except OSError:  # no helper: this process walks every step
        pid = None
    if pid == 0:
        status = 1
        try:
            gc.disable()  # no finalizer of the parent's garbage runs here too
            _helper_walk(kernel, key, args, out, checkpoints, half, steps)
            status = 0
        finally:
            os._exit(status)
    status, rng = None, np.random.Generator(np.random.Philox(key=key))
    try:
        x = _walk(kernel, rng, math.pi, args, out, 0, half)
        if pid is not None:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
    finally:
        if pid is not None:  # the walk here raised: end the helper too
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0:  # no checkpoint of a failed helper can match: all is walked again
        checkpoints.fill(np.nan)
    start = half
    while start < steps:
        stop = min(start + _SUB_CHUNK, steps)
        x = _walk(kernel, rng, x, args, out, start, stop)
        met = x == checkpoints[(start - half) // _SUB_CHUNK]
        start = stop
        if met:
            break
    logger.debug(
        "Langevin walk of %d steps split at step %d: %d steps re-walked, helper exit status %s",
        steps,
        half,
        start - half,
        status,
    )
    return out


def langevin_trajectory(cfg: LangevinConfig) -> np.ndarray:
    """Bin indices visited by one Euler-Maruyama trajectory.

    Positions are wrapped into ``[0, 2 pi)`` (the potential is periodic) and
    mapped to ``floor(x * bins / 2 pi)``.  The result has ``steps + 1``
    entries including the start ``x = pi``.

    The steps run in the kernel ``_get_walk_kernel`` picks: numba-compiled
    when numba is importable, a pure-Python loop otherwise.  A walk of at
    least ``_SPLIT_STEPS`` steps, where ``os.fork`` exists and the process
    may run on two CPUs or more, is split with one forked helper process
    (:func:`_split_walk`); every other walk runs in this process.  Either
    way the trajectory is the same bit for bit.  On a 2-core Intel Xeon VM
    (Python 3.11, numba absent), 2e6-step walks of the pure-Python loop ran
    at a median 2.7 to 3.3 million steps/s in one process and 4.6 to 4.9
    million split (three rounds of 10 interleaved pairs).

    Besides the result, memory holds one noise buffer of ``_NOISE_BLOCK``
    draws (512 KB) whatever the step count.  A split walk's result lives in
    an anonymous shared mapping (with 8 bytes per ``_SUB_CHUNK`` steps of
    checkpoints), which a process forked later shares too; the helper draws
    into its own noise buffer.
    """
    kernel = _get_walk_kernel()
    key = np.array([np.uint64(cfg.seed & _SEED_MASK), _LANGEVIN_STREAM], dtype=np.uint64)
    dtype = np.int16 if cfg.bins <= np.iinfo(np.int16).max else np.int64
    bin_scale = cfg.bins / TWO_PI
    amp = cfg.sigma * math.sqrt(cfg.dt)
    args = (cfg.b, 2.0 * cfg.c, 3.0 * cfg.d, cfg.dt, amp, bin_scale, cfg.bins)
    if _splits(cfg.steps):
        out = _split_walk(kernel, key, args, dtype, cfg.steps)
    else:
        out = np.empty(cfg.steps + 1, dtype=dtype)
        rng = np.random.Generator(np.random.Philox(key=key))
        _walk(kernel, rng, math.pi, args, out, 0, cfg.steps)
    out[0] = int(math.pi * bin_scale)
    return out


def count_matrix(bins, num_bins: int) -> sp.csr_matrix:
    """Transition counts ``C_ij = #{t : s_t = i, s_{t+1} = j}``.

    Raises
    ------
    EmptyTrajectory
        If the sequence holds fewer than two entries (no transition).
    ValueError
        If some index falls outside ``[0, num_bins)``.
    """
    bins = np.asarray(bins)
    if bins.size < 2:
        raise EmptyTrajectory("need at least two visited bins to count a transition")
    lo, hi = int(bins.min()), int(bins.max())
    if lo < 0 or hi >= num_bins:
        raise ValueError(f"bin indices must lie in [0, {num_bins}), got [{lo}, {hi}]")
    # codes i * num_bins + j are built in int64 one slice of transitions at a
    # time, so no array spans the trajectory (one would take 400 MB at 5e7
    # steps).  While the num_bins**2 codes fit a slice, one count vector
    # over all of them adds up each slice's bincount; past that, each slice's
    # distinct codes are counted by np.unique and merged, so memory follows
    # the codes seen, not num_bins**2 (72 MB per vector at 3,000 bins)
    size = num_bins * num_bins
    dense = np.zeros(size, dtype=np.int64) if size <= _NOISE_BLOCK else None
    merged, pending, waiting = (np.empty(0, dtype=np.int64),) * 2, [], 0
    for start in range(0, bins.size - 1, _NOISE_BLOCK):
        stop = min(start + _NOISE_BLOCK, bins.size - 1)
        codes = bins[start:stop].astype(np.int64)
        codes *= num_bins
        codes += bins[start + 1 : stop + 1]
        if dense is not None:
            dense += np.bincount(codes, minlength=size)
            continue
        pending.append(np.unique(codes, return_counts=True))
        waiting += pending[-1][0].size
        if waiting >= merged[0].size:  # so each code is merged O(log) times
            merged, pending, waiting = _merge_counts([merged, *pending]), [], 0
    if dense is not None:
        codes = np.flatnonzero(dense)
        counts = dense[codes]
    else:
        codes, counts = _merge_counts([merged, *pending])
    rows, cols = np.divmod(codes, num_bins)
    return _scipy(_row_major(counts.astype(float), rows, cols, num_bins))


def _merge_counts(parts):
    """The distinct codes of ``parts``, ascending, and their summed counts;
    ``parts`` holds pairs of distinct codes and their counts."""
    codes = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[first], np.add.reduceat(counts, first)


def run_benchmark(cfg: BenchmarkConfig, output_path=None) -> list:
    """Run the random-chain ensemble through the pipeline, one row per case.

    Rows carry size, nonzero counts before and after, the optimal and
    Metropolis-Hastings distances, the residual triple, and the solve time.
    A case whose instance degenerates is drawn again, up to eight attempts.
    Per-case failures are recorded in the row and the run continues.  When
    ``output_path`` ends in ``.json`` the report is JSON, otherwise CSV.
    """
    rows = []
    for case in range(cfg.num_cases):
        row = {"case": case}
        try:
            for attempt in range(8):
                try:
                    P = gen_random_chain(cfg, case, attempt)
                    break
                except DegenerateInstance:
                    continue
            else:
                raise DegenerateInstance("no usable instance in 8 attempts")
            t0 = time.perf_counter()
            R, diag = nearest_sparse_reversible(P)
            elapsed = time.perf_counter() - t0
            row.update(
                n=P.n,
                nnz_p=P.nnz,
                nnz_r=R.nnz,
                distance=diag.distance,
                mh_distance=diag.mh_distance,
                residual_stochasticity=diag.residuals[0],
                residual_detailed_balance=diag.residuals[1],
                residual_stationarity=diag.residuals[2],
                solve_seconds=elapsed,
            )
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    if output_path is not None:
        path = str(output_path)
        if path.endswith(".json"):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=2)
        else:
            fields = [
                "case",
                "n",
                "nnz_p",
                "nnz_r",
                "distance",
                "mh_distance",
                "residual_stochasticity",
                "residual_detailed_balance",
                "residual_stationarity",
                "solve_seconds",
                "error",
            ]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
    return rows
