"""Rebuild ``reference.json``: the bank of every workload, with each case's
input fingerprint and optimal distance.

    python3 perfbench/make_reference.py [workload ...]

Run it on a commit whose results are trusted; the benchmark then fails any
operation whose input or distance differs from what is stored here.  Named
workloads are rebuilt, the others are kept as they are.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from revmarkov import ZeroRow, frobenius_distance, nearest_sparse_reversible  # noqa: E402
from workloads import BANK_SEED, WORKLOADS, fingerprint  # noqa: E402

#: Keys tried for a screened bank before giving up.
MAX_KEYS = 1000


def reference_case(workload, key):
    """The stored entry of one bank key, or None if the key is screened out."""
    inp = workload.make_input(key)
    try:
        P = workload.to_chain(inp)
    except ZeroRow:
        if workload.min_distance > 0:
            return None  # a trajectory that missed a bin is no torsion input
        raise
    R, diag = nearest_sparse_reversible(P)
    distance = frobenius_distance(R, P)
    if distance < workload.min_distance:
        return None
    return {"key": key, **fingerprint(P), "distance": distance}


def build_bank(workload) -> dict:
    cases = []
    for key in range(MAX_KEYS if workload.min_distance > 0 else workload.bank_size):
        case = reference_case(workload, key)
        if case is not None:
            cases.append(case)
            print(workload.name, case["key"], case["n"], case["distance"], flush=True)
        if len(cases) == workload.bank_size:
            break
    if len(cases) < workload.bank_size:
        raise RuntimeError(f"{workload.name}: only {len(cases)} usable keys")
    return {"params": workload.params, "cases": cases}


def main(names):
    path = HERE / "reference.json"
    reference = (
        json.loads(path.read_text())
        if path.is_file()
        else {"bank_seed": BANK_SEED, "workloads": {}}
    )
    for name in names or list(WORKLOADS):
        reference["workloads"][name] = build_bank(WORKLOADS[name])
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
