"""Print one JSON object that identifies the results of this checkout.

    python3 tools/results_identity.py > identity.json

Run from any directory; the program is imported from ``src/``.  The object
holds:

* for every case of the benchmark's bank (``perfbench/reference.json``, all
  four workloads), the SHA-256 of the CSR buffers of the input chain ``P``
  and of ``R``, the hex of the pipeline's ``distance`` and the hex of each
  of its three ``residuals``;
* the totals of Newton steps and conjugate-gradient iterations over the bank;
* for every ``torsion`` bank case, the SHA-256 of the Langevin trajectory's
  values, widened to int64 so that the digest does not depend on the dtype
  that stores them, that dtype, and the SHA-256 of the CSR buffers of its
  count matrix;
* over those cases, the Langevin walks split with a forked helper
  (``splits``) and the steps they walked again past the split
  (``rewalked_steps``), read off the ``DEBUG`` records of
  ``revmarkov.experiments`` (no walk splits on a single CPU);
* over ``wide_span_chain`` seeds 0-999 (``tests/chains.py``): the failed
  calls, the Newton systems handed to the sparse factor, the Newton steps
  and the CG iterations;
* for every ``two_blocks_with_transients`` seed 0-99 (``tests/chains.py``),
  the only reducible inputs here, so the only ones with a transient solve:
  the SHA-256 of the bytes of ``stationary_mixture``'s pi, that of the CSR
  buffers of ``R``, and the hex of the pipeline's ``distance``;
* for the same seeds, two seeded pattern overrides each (``pattern``): one
  that covers the symmetrized support plus random symmetric positions
  linking the two classes (``wide``), and one that keeps a random symmetric
  part of that support and the diagonal (``part``); each is solved with
  ``recurse_ergodic`` on and off, giving the SHA-256 of the CSR buffers of
  ``R`` and the hex of the ``distance``, or the name of the exception;
* the stationary solves of each bank workload and of each section of
  seeds, counted by the method kept (``sweep``, ``lu`` or ``elimination``),
  as the ``DEBUG`` records of ``revmarkov.chain_analysis`` name it, and the
  steps the jump-chain sweeps took, kept or declined (``sweep_steps``),
  read off the same records.

Two commits whose outputs are equal compute the same bits on every bank
case.  The digests depend on the BLAS and the machine, so compare two
commits on one machine, and never store a digest as a gate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from chains import two_blocks_with_transients, wide_span_chain  # noqa: E402
from revmarkov import (  # noqa: E402
    PipelineOptions,
    RevMarkovError,
    SparsityPattern,
    count_matrix,
    langevin_trajectory,
    nearest_sparse_reversible,
    stationary_mixture,
)
from workloads import WORKLOADS, operate  # noqa: E402

WIDE_SPAN_SEEDS = range(1000)
REDUCIBLE_SEEDS = range(100)
#: The phrase of each stationary method in the ``DEBUG`` record of a solve.
METHODS = {
    "by the jump-chain sweep": "sweep",
    "by sparse LU": "lu",
    "by GTH elimination": "elimination",
}
#: The steps of a sweep, kept or declined, in the same record.
SWEEP_STEPS = re.compile(r"(?:by the jump-chain sweep: |sweep declined at step )(\d+)")
#: The steps a split Langevin walk walked again, in the record of the walk.
REWALKED = re.compile(r"split at step \d+: (\d+) steps re-walked")


def digest(csr) -> str:
    """SHA-256 of the buffers of a CSR matrix, indices widened to int64."""
    h = hashlib.sha256()
    h.update(np.asarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.data, dtype=np.float64).tobytes())
    return h.hexdigest()


class _SolveCounter(logging.Handler):
    """Counts the stationary solves in the records it sees, by method, and
    the steps of their sweeps; and the split Langevin walks and the steps
    they walked again."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = Counter()

    def emit(self, record):
        message = record.getMessage()
        self.counts.update(method for phrase, method in METHODS.items() if phrase in message)
        steps = SWEEP_STEPS.search(message)
        if steps:
            self.counts["sweep_steps"] += int(steps.group(1))
        rewalked = REWALKED.search(message)
        if rewalked:
            self.counts["splits"] += 1
            self.counts["rewalked_steps"] += int(rewalked.group(1))


@contextmanager
def counting_solves(name="revmarkov.chain_analysis"):
    """Yield a ``Counter`` of the records of logger ``name`` inside the
    block, as :class:`_SolveCounter` counts them."""
    logger = logging.getLogger(name)
    counter, level = _SolveCounter(), logger.level
    logger.addHandler(counter)
    logger.setLevel(logging.DEBUG)
    try:
        yield counter.counts
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)


def bank_identity() -> dict:
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    cases, solves, newton, cg = {}, {}, 0, 0
    for name, bank in reference["workloads"].items():
        workload = WORKLOADS[name]
        cases[name] = []
        with counting_solves() as counts:
            for case in bank["cases"]:
                P, R, diag = operate(workload, workload.make_input(case["key"]))
                cases[name].append(
                    [
                        case["key"],
                        digest(P.csr),
                        digest(R.csr),
                        diag.distance.hex(),
                        [r.hex() for r in diag.residuals],
                    ]
                )
                newton += sum(c.iterations for c in diag.per_class)
                cg += sum(c.cg_iterations for c in diag.per_class)
        solves[name] = dict(sorted(counts.items()))
    return {"cases": cases, "solves": solves, "newton_steps": newton, "cg_iterations": cg}


def torsion_data_identity():
    """``[key, trajectory SHA-256, trajectory dtype, count matrix SHA-256]``
    per torsion case, and the totals of the split walks' records."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    workload, rows = WORKLOADS["torsion"], []
    with counting_solves("revmarkov.experiments") as walks:
        for case in reference["workloads"]["torsion"]["cases"]:
            cfg = workload.make_input(case["key"])
            bins = langevin_trajectory(cfg)
            counts = count_matrix(bins, cfg.bins)
            values = hashlib.sha256(bins.astype(np.int64).tobytes()).hexdigest()
            rows.append([case["key"], values, str(bins.dtype), digest(counts)])
    return rows, dict(sorted(walks.items()))


def wide_span_identity() -> dict:
    failures = factor_steps = newton = cg = 0
    with counting_solves() as counts:
        for seed in WIDE_SPAN_SEEDS:
            try:
                _, diag = nearest_sparse_reversible(wide_span_chain(seed))
            except RevMarkovError:
                failures += 1
                continue
            factor_steps += sum(c.factor_steps for c in diag.per_class)
            newton += sum(c.iterations for c in diag.per_class)
            cg += sum(c.cg_iterations for c in diag.per_class)
    return {
        "seeds": [WIDE_SPAN_SEEDS.start, WIDE_SPAN_SEEDS.stop - 1],
        "failures": failures,
        "factor_steps": factor_steps,
        "newton_steps": newton,
        "cg_iterations": cg,
        "solves": dict(sorted(counts.items())),
    }


def reducible_identity() -> dict:
    """``[seed, pi SHA-256, R SHA-256, distance hex]`` per seed of
    ``two_blocks_with_transients``, and the section's stationary solves."""
    rows = []
    with counting_solves() as counts:
        for seed in REDUCIBLE_SEEDS:
            P = two_blocks_with_transients(seed=seed)
            pi = stationary_mixture(P).values
            R, diag = nearest_sparse_reversible(P)
            rows.append(
                [seed, hashlib.sha256(pi.tobytes()).hexdigest(), digest(R.csr), diag.distance.hex()]
            )
    return {"cases": rows, "solves": dict(sorted(counts.items()))}


def seeded_patterns(P, seed) -> dict:
    """The ``wide`` and ``part`` pattern overrides of ``P`` for ``seed``,
    both symmetric with the full diagonal."""
    rng = np.random.default_rng(seed)
    support = P.toarray() > 0.0
    support |= support.T | np.eye(P.n, dtype=bool)
    extra = np.triu(rng.random(support.shape) < 0.3, k=1)
    keep = np.triu(rng.random(support.shape) < 0.6, k=1)
    return {
        "wide": support | extra | extra.T,
        "part": support & (keep | keep.T | np.eye(P.n, dtype=bool)),
    }


def pattern_identity() -> list:
    """``[seed, pattern, recurse, R SHA-256, distance hex]`` per seed of
    ``two_blocks_with_transients``, pattern and ``recurse_ergodic`` flag, or
    ``[seed, pattern, recurse, exception name]`` where the call raises."""
    rows = []
    for seed in REDUCIBLE_SEEDS:
        P = two_blocks_with_transients(seed=seed)
        for kind, mask in seeded_patterns(P, seed).items():
            pattern = SparsityPattern(mask.astype(float))
            for recurse in (True, False):
                options = PipelineOptions(pattern=pattern, recurse_ergodic=recurse)
                try:
                    R, diag = nearest_sparse_reversible(P, options)
                except RevMarkovError as exc:
                    rows.append([seed, kind, recurse, type(exc).__name__])
                    continue
                rows.append([seed, kind, recurse, digest(R.csr), diag.distance.hex()])
    return rows


def main() -> int:
    torsion_data, torsion_walks = torsion_data_identity()
    identity = {
        "bank": bank_identity(),
        "torsion_data": torsion_data,
        "torsion_walks": torsion_walks,
        "wide_span_chain": wide_span_identity(),
        "reducible": reducible_identity(),
        "pattern": pattern_identity(),
    }
    print(json.dumps(identity))
    return 0


if __name__ == "__main__":
    sys.exit(main())
