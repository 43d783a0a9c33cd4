"""Print one JSON object that counts the outcomes of the pipeline.

    python3 tools/outcome_census.py > census.json

Run from any directory; the program is imported from ``src/``.  Each call of
``nearest_sparse_reversible`` on three input families ends in one outcome:
``solved``, or the type of the exception it raised and the class of its
message, the message with every number replaced by ``#``.  A
``ClassSolveFailed`` is classed by the distinct classes of its failing
classes' exceptions, joined by `` | ``, so a refusal in which every failing
class misses only stationarity has its own outcome.  The families are:

* ``edge_of_range_chain`` seeds 0-2,999 (``tests/chains.py``): chains with
  entries down to 1e-330, which the pipeline solves or refuses;
* ``wide_span_chain`` seeds 0-999 (``tests/chains.py``);
* the 400 cases of the benchmark's ``ensemble`` bank
  (``perfbench/reference.json``).

Each family also counts the Newton systems handed to the sparse factor and
the regularized factorizations, those the factor retries with a diagonal
shift after it failed unshifted.  Outcomes are counted under the default
warning filters.  Compare two commits on one machine.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from chains import edge_of_range_chain, wide_span_chain  # noqa: E402
from revmarkov import ClassSolveFailed, nearest_sparse_reversible, qp_solve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EDGE_SEEDS = range(3000)
WIDE_SPAN_SEEDS = range(1000)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def message_class(exc: BaseException) -> str:
    """``Type: message`` with every number in the message replaced by ``#``."""
    return f"{type(exc).__name__}: {NUMBER.sub('#', str(exc))}"


def outcome(make_chain) -> str:
    """The outcome of one pipeline call on the chain ``make_chain()``."""
    try:
        nearest_sparse_reversible(make_chain())
    except ClassSolveFailed as exc:
        classes = sorted({message_class(failure) for _, failure in exc.failures})
        return f"ClassSolveFailed: {' | '.join(classes)}"
    except Exception as exc:  # counted by type, including faults outside RevMarkovError
        return message_class(exc)
    return "solved"


@contextmanager
def counting_factorizations():
    """Yield a ``Counter`` of the factor hand-overs (``factor_steps``) and the
    factorizations (``factorizations``) made inside the block."""
    counts = Counter()
    normal_solve, symmetric_lu = qp_solve._normal_solve, qp_solve._symmetric_lu

    def counted(name, function):
        def call(*args):
            counts[name] += 1
            return function(*args)

        return call

    qp_solve._normal_solve = counted("factor_steps", normal_solve)
    qp_solve._symmetric_lu = counted("factorizations", symmetric_lu)
    try:
        yield counts
    finally:
        qp_solve._normal_solve, qp_solve._symmetric_lu = normal_solve, symmetric_lu


def census(label, keys, make_chain) -> dict:
    outcomes = Counter()
    with counting_factorizations() as counts:
        for key in keys:
            outcomes[outcome(lambda: make_chain(key))] += 1
    return {
        "inputs": label,
        "outcomes": dict(outcomes.most_common()),
        "factor_steps": counts["factor_steps"],
        # every hand-over factors once unshifted; each further factorization
        # is one step of the regularization ladder
        "regularizations": counts["factorizations"] - counts["factor_steps"],
    }


def main() -> int:
    bank = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ensemble = WORKLOADS["ensemble"]
    keys = [case["key"] for case in bank["workloads"]["ensemble"]["cases"]]
    result = {
        "edge_of_range_chain": census(
            f"seeds {EDGE_SEEDS.start}-{EDGE_SEEDS.stop - 1}", EDGE_SEEDS, edge_of_range_chain
        ),
        "wide_span_chain": census(
            f"seeds {WIDE_SPAN_SEEDS.start}-{WIDE_SPAN_SEEDS.stop - 1}",
            WIDE_SPAN_SEEDS,
            wide_span_chain,
        ),
        "ensemble": census(f"{len(keys)} bank cases", keys, ensemble.make_input),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
