"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import make_reference  # noqa: E402
import workloads as wl  # noqa: E402
from revmarkov import SparseStochasticMatrix  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    w.name: w
    for w in (
        wl.random_chain_workload("ensemble", 10, 30, bank_size=6),
        wl.random_chain_workload("expander", 60, 60, bank_size=3),
        wl.ring_workload("ring", 30, bank_size=3),
        wl.torsion_workload("torsion", 400_000, bank_size=1),
    )
}


@pytest.fixture(scope="module")
def reference():
    return {
        "bank_seed": wl.BANK_SEED,
        "workloads": {name: make_reference.build_bank(w) for name, w in TINY.items()},
    }


def tiny_inputs(name, reference, seed=1):
    workload = TINY[name]
    return bench.prepare(workload, bench.bank(workload, reference), seed)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_emits_every_metric_with_its_unit(name, reference):
    workload, inputs = TINY[name], tiny_inputs(name, reference)

    timed = bench.timed_run(workload, inputs, seconds=0)
    assert timed["failed"] == 0
    metrics = bench.end_to_end_metrics(timed, setup_s=1.0)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v > 0 for v, _ in metrics.values())

    traced = bench.traced_run(workload, inputs, seconds=0)
    assert traced["failed"] == 0
    layers = bench.per_layer_metrics(traced)
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert layers["trace.replay_mismatches"][0] == 0
    assert layers["chain_analysis.stationary_s"][0] > 0
    assert layers["qp_solve.iterations"][0] >= 1
    assert (layers["experiments.langevin_s"][0] > 0) == (name == "torsion")


def _verified_ensemble_case(reference):
    (inp, ref), *_ = tiny_inputs("ensemble", reference)
    P, R, diag = wl.operate(TINY["ensemble"], inp)
    assert wl.check(P, R, diag, ref) == []
    return P, R, diag, ref


def test_gate_rejects_an_entry_nudged_by_1e6(reference):
    P, R, diag, ref = _verified_ensemble_case(reference)
    csr = R.csr.copy()
    csr.data = csr.data.copy()
    csr.data[len(csr.data) // 2] += 1e-6
    nudged = SparseStochasticMatrix(csr, stochastic=False)
    assert wl.check(P, nudged, diag, ref)


def test_gate_rejects_a_wrong_reference(reference):
    P, R, diag, ref = _verified_ensemble_case(reference)
    assert wl.check(P, R, diag, {**ref, "distance": ref["distance"] * (1 + 1e-6)})
    assert wl.check(P, R, diag, {**ref, "checksum": ref["checksum"] * (1 + 1e-9)})
    assert wl.check(P, R, diag, {**ref, "nnz": ref["nnz"] + 1})


def _chains(name, reference, seed):
    workload = TINY[name]
    return [workload.to_chain(inp).csr for inp, _ in tiny_inputs(name, reference, seed)]


@pytest.mark.parametrize("name", ["ensemble", "ring"])
def test_same_seed_reproduces_inputs_and_another_seed_changes_them(name, reference):
    first = _chains(name, reference, seed=3)
    again = _chains(name, reference, seed=3)
    for a, b in zip(first, again, strict=True):
        for field in ("indptr", "indices", "data"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    other = _chains(name, reference, seed=4)
    assert any(
        a.shape != b.shape or not np.array_equal(a.data, b.data)
        for a, b in zip(first, other)
    )


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
