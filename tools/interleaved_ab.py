"""Time a base revision against the working tree, case by case, in one process.

    python3 tools/interleaved_ab.py --workload ensemble --base HEAD~1

Run from any directory inside the repository.  The ``src/revmarkov`` of
``--base`` (extracted with ``git archive``) and that of the working tree are
copied into a temporary directory as the packages ``revmarkov_base`` and
``revmarkov_work``.  The inputs of one bench bank (``perfbench/reference.json``)
are built once, by the working tree's generators, and each package runs
``nearest_sparse_reversible`` on every case once untimed, which warms it and
records its results.  Then each round runs every case on both packages,
alternating which goes first from case to case and from round to round.

It prints the mean time per call of each side, the quartiles of the
per-round ratio (working tree over base, linear interpolation), and on how
many cases the two sides agree on the digest of ``R``'s CSR buffers, the
bits of the distance and the bits of the three residuals.

Both sides share one process, one machine state and one set of inputs, so
the per-round ratio resolves differences of a few percent where separate
benchmark runs, each under its own drift of the machine, do not.  It
complements the benchmark's records and gates nothing; no digest is stored.
Only the chain workloads run here: ``torsion``'s time is the Langevin walk.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

from results_identity import digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Rounds per workload: about 15 s of calls on a 2-core machine.
ROUNDS = {"ensemble": 6, "expander": 60, "ring": 60}


def load_packages(base: str, directory: Path):
    """Import the base's and the working tree's ``src/revmarkov`` from
    ``directory`` as ``revmarkov_base`` and ``revmarkov_work``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", base, "src/revmarkov"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory / "base", filter="data")
    shutil.move(directory / "base" / "src" / "revmarkov", directory / "revmarkov_base")
    shutil.copytree(
        ROOT / "src" / "revmarkov",
        directory / "revmarkov_work",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    sys.path.insert(0, str(directory))
    return importlib.import_module("revmarkov_base"), importlib.import_module("revmarkov_work")


def result_digest(R, diag) -> str:
    """SHA-256 of ``results_identity.digest`` of ``R`` with the hex of the
    distance and of the residuals."""
    fields = [digest(R.csr), diag.distance.hex(), [r.hex() for r in diag.residuals]]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--base", default="HEAD", help="git revision to compare with (default HEAD)")
    args = parser.parse_args(argv)
    rounds = ROUNDS[args.workload]

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    chains = [workload.make_input(case["key"]) for case in reference["workloads"][args.workload]["cases"]]

    with tempfile.TemporaryDirectory() as directory:
        packages = load_packages(args.base, Path(directory))
        inputs = [[package.SparseStochasticMatrix(P.csr) for P in chains] for package in packages]
        digests = [
            [result_digest(*package.nearest_sparse_reversible(P)) for P in side]
            for package, side in zip(packages, inputs)
        ]
        totals = np.zeros((rounds, 2))
        clock = time.perf_counter
        for r in range(rounds):
            for k in range(len(chains)):
                for side in (0, 1) if (r + k) % 2 == 0 else (1, 0):
                    call, P = packages[side].nearest_sparse_reversible, inputs[side][k]
                    start = clock()
                    call(P)
                    totals[r, side] += clock() - start

    ratios = totals[:, 1] / totals[:, 0]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    per_call = totals.sum(axis=0) / (rounds * len(chains)) * 1e3
    agree = sum(a == b for a, b in zip(*digests))
    print(f"workload {args.workload}: {len(chains)} cases x {rounds} rounds, base {args.base}")
    print(f"per call: base {per_call[0]:.3f} ms, working tree {per_call[1]:.3f} ms")
    print(f"per-round ratio (working tree / base): median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}")
    print(f"digests of R, distance and residuals equal on {agree} of {len(chains)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
