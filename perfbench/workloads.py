"""Workloads of the revmarkov benchmark and the correctness gate.

One *operation* turns one workload input into one verified reversible chain.
Each workload draws its inputs from a fixed bank of cases whose fingerprints
and optimal distances are stored in ``reference.json``; the run seed chooses
which cases of the bank run and in which order.  The optimum is unique, so
any correct solver reproduces the stored distance.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from revmarkov import (
    BenchmarkConfig,
    DegenerateInstance,
    LangevinConfig,
    count_matrix,
    frobenius_distance,
    gen_random_chain,
    langevin_trajectory,
    nearest_sparse_reversible,
    row_normalize,
    stochasticity_residual,
)

#: Seed of every bank; the run seed only picks cases out of a bank.
BANK_SEED = 20250807

RESIDUAL_LIMIT = 1e-10
DISTANCE_RTOL = 1e-9
CHECKSUM_RTOL = 1e-12

#: A torsion case enters the bank only if its chain is measurably
#: irreversible (the trajectory wound around the circle); below this the
#: optimum is zero up to rounding and a relative reference is meaningless.
TORSION_MIN_DISTANCE = 1e-4


def no_span(name, **counts):
    return nullcontext()


@dataclass(frozen=True)
class Workload:
    """A bank of inputs and the stages that turn one input into a chain.

    ``make_input`` maps a bank key to an input; ``to_chain`` turns the input
    into the stochastic matrix handed to the pipeline (identity for inputs
    that already are chains) and opens a span around each program call.
    A run goes through the whole bank in an order set by its seed, so every
    run times the same mix of cases; ``bank_size`` is about the number of
    operations one run completes.
    """

    name: str
    params: dict
    make_input: Callable
    to_chain: Callable
    bank_size: int
    #: When positive, the bank holds the first keys whose input yields a chain
    #: at least this far from reversible; otherwise it holds keys 0, 1, ...
    min_distance: float = 0.0


def _is_chain(P, span=no_span):
    return P


def random_chain_workload(name, n_min, n_max, bank_size, alpha=5.0):
    cfg = BenchmarkConfig(n_min=n_min, n_max=n_max, alpha=alpha, seed=BANK_SEED)

    def make_input(key):
        # same retry rule as revmarkov.run_benchmark
        for attempt in range(8):
            try:
                return gen_random_chain(cfg, key, attempt)
            except DegenerateInstance:
                continue
        raise DegenerateInstance(f"case {key}: no usable instance")

    params = {"n_min": n_min, "n_max": n_max, "alpha": alpha}
    return Workload(name, params, make_input, _is_chain, bank_size)


def ring_workload(name, n, bank_size):
    """Periodic nearest-neighbour ring with rates ``1 + 0.1 U(0,1)``."""
    i = np.arange(n)
    rows = np.concatenate([i, i, i])
    cols = np.concatenate([i, (i + 1) % n, (i - 1) % n])

    def make_input(key):
        rng = np.random.Generator(np.random.Philox(key=[BANK_SEED, key]))
        rates = 1.0 + 0.1 * rng.random(3 * n)
        return row_normalize(sp.coo_matrix((rates, (rows, cols)), shape=(n, n)))

    return Workload(name, {"n": n}, make_input, _is_chain, bank_size)


def torsion_workload(name, steps, bank_size):
    """Butane Langevin trajectory -> count matrix -> chain; the key is the
    trajectory seed."""

    def make_input(key):
        return LangevinConfig(steps=steps, seed=key)

    def to_chain(cfg, span=no_span):
        with span("experiments.langevin_trajectory", steps=cfg.steps):
            bins = langevin_trajectory(cfg)
        with span("experiments.count_matrix"):
            counts = count_matrix(bins, cfg.bins)
        with span("sparse_core.row_normalize"):
            return row_normalize(counts)

    return Workload(
        name,
        {"steps": steps},
        make_input,
        to_chain,
        bank_size,
        min_distance=TORSION_MIN_DISTANCE,
    )


WORKLOADS = {
    w.name: w
    for w in (
        random_chain_workload("ensemble", 100, 300, bank_size=400),
        random_chain_workload("expander", 800, 800, bank_size=16),
        ring_workload("ring", 1000, bank_size=18),
        torsion_workload("torsion", 2_000_000, bank_size=12),
    )
}


def run_keys(bank_keys: list, seed: int) -> list:
    """The bank keys in the order one run uses them; a pure function of
    ``seed``."""
    order = np.random.default_rng(seed % 2**64).permutation(len(bank_keys))
    return [bank_keys[i] for i in order]


def operate(workload: Workload, inp):
    """One untraced operation: input -> (P, R, diagnostics)."""
    P = workload.to_chain(inp)
    R, diag = nearest_sparse_reversible(P)
    return P, R, diag


# -- correctness gate ----------------------------------------------------------

_WEIGHT_MOD = 1_000_003


def fingerprint(P) -> dict:
    """Size, structure hash and a weighted checksum of the entries of ``P``.

    The structure must match exactly; the checksum is compared with a relative
    tolerance so that a reordered floating-point sum in the program does not
    read as a different input.
    """
    csr = P.csr
    structure = hashlib.sha256()
    structure.update(np.asarray(csr.indptr, dtype=np.int64).tobytes())
    structure.update(np.asarray(csr.indices, dtype=np.int64).tobytes())
    k = np.arange(csr.nnz, dtype=np.int64)
    weights = ((k * 2654435761) % _WEIGHT_MOD + 1) / _WEIGHT_MOD
    return {
        "n": int(P.n),
        "nnz": int(P.nnz),
        "structure": structure.hexdigest(),
        "checksum": float(csr.data @ weights),
    }


def check(P, R, diag, ref: dict) -> list:
    """Problems with one operation's result; an empty list means verified.

    ``ref`` holds the stored fingerprint of the input and the optimal
    distance of that case.
    """
    problems = []
    fp = fingerprint(P)
    for key in ("n", "nnz", "structure"):
        if fp[key] != ref[key]:
            problems.append(f"input {key} {fp[key]} != reference {ref[key]}")
    if not math.isclose(fp["checksum"], ref["checksum"], rel_tol=CHECKSUM_RTOL):
        problems.append(
            f"input checksum {fp['checksum']!r} != reference {ref['checksum']!r}"
        )
    if problems:
        return problems

    residuals = (stochasticity_residual(R), *diag.residuals)
    if not max(residuals) <= RESIDUAL_LIMIT:
        problems.append(f"residuals {residuals} exceed {RESIDUAL_LIMIT}")
    distance = frobenius_distance(R, P)
    if not distance <= diag.mh_distance:
        problems.append(f"distance {distance!r} > MH distance {diag.mh_distance!r}")
    if not math.isclose(distance, ref["distance"], rel_tol=DISTANCE_RTOL):
        problems.append(f"distance {distance!r} != reference {ref['distance']!r}")
    return problems
