import json

import numpy as np
import pytest
import scipy.io

from revmarkov import (
    BenchmarkConfig,
    LangevinConfig,
    RevMarkovError,
    SolverOptions,
    cli,
    gen_random_chain,
    kolmogorov_cycle_check,
    stationary_mixture,
)
from revmarkov import io as rmio
from revmarkov.cli import main


@pytest.fixture
def chain_files(tmp_path, chain_factory):
    P = chain_factory(8, 2)
    matrix = tmp_path / "P.mtx"
    rmio.write_matrix(matrix, P)
    pi = stationary_mixture(P)
    pi_file = tmp_path / "pi.txt"
    np.savetxt(pi_file, pi.values, fmt="%.17e")
    return tmp_path, matrix, pi_file, P, pi


def test_nearest_writes_output_and_diagnostics(chain_files, capsys):
    tmp, matrix, pi_file, P, pi = chain_files
    out = tmp / "R.mtx"
    diag = tmp / "diag.json"
    code = main(["nearest", str(matrix), "--out", str(out), "--diag", str(diag)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "|Delta|_F" in printed
    R = rmio.read_matrix(out)
    payload = json.loads(diag.read_text())
    assert payload["num_classes"] == 1
    assert max(payload["residuals"].values()) <= 1e-10
    from revmarkov import detailed_balance_residual

    assert detailed_balance_residual(R, stationary_mixture(P)) <= 1e-10


def test_nearest_on_a_transient_self_loop_that_rounds_to_one(tmp_path, capsys):
    # p_22 == 1.0 while the row still leaks 4e-17 into the two classes
    matrix = tmp_path / "P.mtx"
    rmio.write_matrix(matrix, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3e-17, 1e-17, 1.0]]))
    assert main(["nearest", str(matrix)]) == 0
    assert "classes: 2   transient: 1" in capsys.readouterr().out


def test_commands_without_flags_use_the_config_defaults(chain_files, monkeypatch):
    # the parser takes its defaults from the dataclasses, so each command run
    # without flags hands the library the default configuration
    built = []

    def capture(*args, **kwargs):
        built.append(args[-1])
        raise RevMarkovError("captured")

    for name in ("nearest_sparse_reversible", "run_benchmark", "langevin_trajectory"):
        monkeypatch.setattr(cli, name, capture)
    matrix = chain_files[1]
    assert [main(["nearest", str(matrix)]), main(["bench"]), main(["langevin"])] == [1, 1, 1]
    options, bench, langevin = built
    assert options.solver == SolverOptions()
    assert (bench, langevin) == (BenchmarkConfig(), LangevinConfig())


def test_nearest_with_explicit_pi(chain_files):
    tmp, matrix, pi_file, *_ = chain_files
    code = main(["nearest", str(matrix), "--pi", str(pi_file), "--max-iterations", "5000"])
    assert code == 0


def test_nearest_missing_file_is_io_error(tmp_path):
    assert main(["nearest", str(tmp_path / "absent.mtx")]) == 1


def test_nearest_rejects_nan_pi(tmp_path, capsys):
    from revmarkov import row_normalize

    matrix = tmp_path / "P.mtx"
    rmio.write_matrix(
        matrix,
        row_normalize(np.array([[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2], [0, 2, 0, 1]])),
    )
    pi_file = tmp_path / "pi.txt"
    pi_file.write_text("nan\n" + "0.3333333333333333\n" * 3)
    assert main(["nearest", str(matrix), "--pi", str(pi_file)]) == 1
    assert "error:" in capsys.readouterr().err


def test_mh_exit_codes(chain_files, capsys):
    tmp, matrix, pi_file, *_ = chain_files
    out = tmp / "T.mtx"
    assert main(["mh", str(matrix), "--out", str(out)]) == 0
    assert "distance" in capsys.readouterr().out
    assert out.exists()


def test_check_reversible_vs_not(tmp_path, reversible_factory, chain_factory, capsys):
    P, pi = reversible_factory(6, 1)
    matrix = tmp_path / "rev.mtx"
    pi_file = tmp_path / "pi.txt"
    rmio.write_matrix(matrix, P)
    np.savetxt(pi_file, pi.values, fmt="%.17e")
    assert main(["check", str(matrix), "--pi", str(pi_file)]) == 0
    assert "cycle condition: holds on every cycle" in capsys.readouterr().out

    Q = chain_factory(6, 5)
    matrix2 = tmp_path / "chain.mtx"
    pi2 = stationary_mixture(Q)
    pi2_file = tmp_path / "pi2.txt"
    rmio.write_matrix(matrix2, Q)
    np.savetxt(pi2_file, pi2.values, fmt="%.17e")
    assert main(["check", str(matrix2), "--pi", str(pi2_file)]) == 2
    result = kolmogorov_cycle_check(Q)
    path = " -> ".join(str(v + 1) for v in result.cycle + result.cycle[:1])
    out = capsys.readouterr().out
    assert f"cycle condition VIOLATED on {path}: forward" in out
    assert f"log-sum {result.log_sum:.6g}" in out


def test_bench_small(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--n", "3", "--nmin", "30", "--nmax", "50", "--seed", "9",
         "--out", str(out)]
    )
    assert code == 0
    assert "dominance holds: True" in capsys.readouterr().out
    assert out.exists()


@pytest.mark.parametrize("excess, holds", [(1e-12, True), (1e-9, False)])
def test_bench_dominance_allows_the_verification_slack(monkeypatch, capsys, excess, holds):
    # a row sum that overshoots 1 by 9e-13 stays in the MH baseline and not
    # in R: [[0, 1+9e-13, 0], [0.5, 0, 0.5], [0, 1, 0]] gives a distance of
    # 1.10e-12 against 5.2e-16 on a correct solve
    row = dict(
        case=0, n=3, nnz_p=4, nnz_r=4, distance=5.2e-16 + excess, mh_distance=5.2e-16,
        residual_stochasticity=0.0, residual_detailed_balance=0.0,
        residual_stationarity=0.0, solve_seconds=0.0,
    )
    monkeypatch.setattr(cli, "run_benchmark", lambda cfg, output_path: [row])
    assert main(["bench", "--n", "1"]) == 0
    assert f"dominance holds: {holds}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (
            ["--n", "1", "--nmin", "2", "--nmax", "2", "--alpha", "1"],
            "cases: 0 ok, 1 failed\n",
            "case 0: DegenerateInstance: no usable instance in 8 attempts\n",
        ),
        (["--n", "0"], "", "error: num_cases must be at least 1\n"),
        (["--n", "-3"], "", "error: num_cases must be at least 1\n"),
        (["--nmin", "1"], "", "error: n_min must be at least 2\n"),
    ],
)
def test_bench_says_why_it_failed(capsys, argv, out, err):
    assert main(["bench", *argv]) == 1
    assert tuple(capsys.readouterr()) == (out, err)


def test_langevin_writes_counts(tmp_path, capsys):
    out = tmp_path / "counts.mtx"
    code = main(
        ["langevin", "--steps", "20000", "--bins", "12", "--seed", "4",
         "--out", str(out)]
    )
    assert code == 0
    counts = rmio.read_matrix(out, stochastic=False)
    assert counts.n == 12
    assert counts.csr.sum() == 20000


def test_langevin_to_nearest_composition(tmp_path, capsys):
    # sigma high enough that every bin is visited in a short run
    counts = tmp_path / "counts.mtx"
    assert main(["langevin", "--steps", "200000", "--bins", "15", "--seed", "3",
                 "--sigma", "1.8", "--out", str(counts)]) == 0
    out = tmp_path / "R.mtx"
    assert main(["nearest", str(counts), "--normalize", "--out", str(out)]) == 0
    assert "|Delta|_F" in capsys.readouterr().out
    R = rmio.read_matrix(out)
    assert R.n == 15


def test_nearest_rejects_counts_with_unvisited_state(tmp_path, capsys):
    # an unvisited bin leaves a zero row: that is an input error, reported
    # cleanly rather than silently dropped
    counts = tmp_path / "counts.mtx"
    assert main(["langevin", "--steps", "50000", "--bins", "15", "--seed", "3",
                 "--out", str(counts)]) == 0
    assert main(["nearest", str(counts), "--normalize"]) == 1
    assert "no positive entries" in capsys.readouterr().err


def test_pattern_override_via_cli(chain_files):
    tmp, matrix, pi_file, P, pi = chain_files
    pattern_file = tmp / "pattern.mtx"
    scipy.io.mmwrite(pattern_file, np.ones((8, 8)))
    assert main(["nearest", str(matrix), "--pattern", str(pattern_file)]) == 0


@pytest.mark.parametrize("size", [7, 9])
def test_pattern_of_wrong_size_exits_1(chain_files, capsys, size):
    tmp, matrix, *_ = chain_files
    pattern_file = tmp / "pattern.mtx"
    scipy.io.mmwrite(pattern_file, np.ones((size, size)))
    assert main(["nearest", str(matrix), "--pattern", str(pattern_file)]) == 1
    assert "dimensions of P and pattern disagree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["langevin", "--steps", "1000", "--dt", "nan"], "must be finite"),
        (["langevin", "--steps", "1000", "--sigma", "nan"], "must be finite"),
        (["langevin", "--steps", "1000", "--a", "nan"], "must be finite"),
        (["langevin", "--steps", "1000", "--b", "inf"], "must be finite"),
        (["langevin", "--steps", "1000", "--c=-inf"], "must be finite"),
        (["langevin", "--steps", "1000", "--d", "nan"], "must be finite"),
        (["bench", "--n", "1", "--alpha", "nan"], "alpha must be at least 1"),
        (["nearest", "{matrix}", "--tol", "nan"], "kkt_tolerance must be positive"),
    ],
)
def test_non_finite_settings_exit_1(chain_files, capsys, argv, message):
    # every setting check is written so that NaN fails it
    matrix = str(chain_files[1])
    assert main([arg.format(matrix=matrix) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command", ["nearest", "mh"])
def test_empty_chain_exits_1(tmp_path, capsys, command):
    matrix = tmp_path / "empty.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    assert main([command, str(matrix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nonempty" in err


def test_failed_verification_exits_2(tmp_path, capsys):
    # one Newton step at a loose tolerance leaves residuals above 1e-10; its
    # unscaled rows miss 1 by 0.103, which a class solve refuses at any
    # tolerance below that, so the tolerance is looser still
    matrix = tmp_path / "P.mtx"
    rmio.write_matrix(matrix, gen_random_chain(BenchmarkConfig(n_min=30, n_max=30, seed=3), 0))
    assert main(["nearest", str(matrix), "--tol", "0.2", "--max-iterations", "1"]) == 2
    assert "verification FAILED" in capsys.readouterr().err
