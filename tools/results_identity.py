"""Print one JSON object that identifies the results of this checkout.

    python3 tools/results_identity.py > identity.json

Run from any directory; the program is imported from ``src/``.  The object
holds:

* for every case of the benchmark's bank (``perfbench/reference.json``, all
  four workloads), the SHA-256 of the CSR buffers of ``R`` and the hex of the
  pipeline's ``distance``;
* the totals of Newton steps and conjugate-gradient iterations over the bank;
* for every ``torsion`` bank case, the SHA-256 of the Langevin trajectory's
  bytes and of the CSR buffers of its count matrix;
* over ``wide_span_chain`` seeds 0-999 (``tests/chains.py``): the failed
  calls, the Newton systems handed to the sparse factor, the Newton steps
  and the CG iterations;
* the stationary solves of each bank workload and of the seeds, counted by
  the method kept (``sweep``, ``lu`` or ``elimination``), as the ``DEBUG``
  records of ``revmarkov.chain_analysis`` name it.

Two commits whose outputs are equal compute the same bits on every bank
case.  The digests depend on the BLAS and the machine, so compare two
commits on one machine, and never store a digest as a gate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from chains import wide_span_chain  # noqa: E402
from revmarkov import (  # noqa: E402
    RevMarkovError,
    count_matrix,
    langevin_trajectory,
    nearest_sparse_reversible,
)
from workloads import WORKLOADS, operate  # noqa: E402

WIDE_SPAN_SEEDS = range(1000)
#: The phrase of each stationary method in the ``DEBUG`` record of a solve.
METHODS = {
    "by the jump-chain sweep": "sweep",
    "by sparse LU": "lu",
    "by GTH elimination": "elimination",
}


def digest(csr) -> str:
    """SHA-256 of the buffers of a CSR matrix, indices widened to int64."""
    h = hashlib.sha256()
    h.update(np.asarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(csr.data, dtype=np.float64).tobytes())
    return h.hexdigest()


class _SolveCounter(logging.Handler):
    """Counts the stationary solves in the records it sees, by method."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = Counter()

    def emit(self, record):
        message = record.getMessage()
        self.counts.update(method for phrase, method in METHODS.items() if phrase in message)


@contextmanager
def counting_solves():
    """Yield a ``Counter`` of the stationary solves made inside the block."""
    logger = logging.getLogger("revmarkov.chain_analysis")
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
                _, R, diag = operate(workload, workload.make_input(case["key"]))
                cases[name].append([case["key"], digest(R.csr), diag.distance.hex()])
                newton += sum(c.iterations for c in diag.per_class)
                cg += sum(c.cg_iterations for c in diag.per_class)
        solves[name] = dict(sorted(counts.items()))
    return {"cases": cases, "solves": solves, "newton_steps": newton, "cg_iterations": cg}


def torsion_data_identity() -> list:
    """``[key, trajectory SHA-256, count matrix SHA-256]`` per torsion case."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    workload, rows = WORKLOADS["torsion"], []
    for case in reference["workloads"]["torsion"]["cases"]:
        cfg = workload.make_input(case["key"])
        bins = langevin_trajectory(cfg)
        counts = count_matrix(bins, cfg.bins)
        rows.append([case["key"], hashlib.sha256(bins.tobytes()).hexdigest(), digest(counts)])
    return rows


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


def main() -> int:
    identity = {
        "bank": bank_identity(),
        "torsion_data": torsion_data_identity(),
        "wide_span_chain": wide_span_identity(),
    }
    print(json.dumps(identity))
    return 0


if __name__ == "__main__":
    sys.exit(main())
