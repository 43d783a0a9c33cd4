"""Exception hierarchy shared by all revmarkov modules."""


class RevMarkovError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(RevMarkovError):
    """Operands have incompatible shapes or lengths."""


class LengthMismatch(DimensionMismatch):
    """A vector does not have the length required by an index map."""


class ZeroRow(RevMarkovError):
    """A row that must contain at least one positive entry is entirely zero."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has no positive entries")


class InconsistentSupport(RevMarkovError):
    """``pi`` puts mass off the ergodic classes or none on some class state."""

    def __init__(self, state: int, outflow: float):
        self.state = state
        self.outflow = outflow
        super().__init__(
            f"state {state} carries stationary mass but sends {outflow:.3e} "
            "outside the classes' positive set; the stationary vector is suspect"
        )


class NonPositivePi(RevMarkovError):
    """A state with outgoing transitions has zero (or negative) stationary mass."""

    problem = "must be strictly positive"

    def __init__(self, state: int):
        self.state = state
        super().__init__(f"pi[{state}] {self.problem}")


class StationaryUnderflow(NonPositivePi):
    """A computed stationary mass of a class state underflowed to zero."""

    problem = "underflowed to 0: the class's masses span more than double precision holds"


class PatternNotSymmetric(RevMarkovError):
    """A sparsity pattern that must be symmetric is not."""


class MissingDiagonal(RevMarkovError):
    """A sparsity pattern that must contain every diagonal position does not."""


class NegativeEntry(RevMarkovError):
    """A solution vector entry is negative beyond the solver tolerance."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"entry {index} is negative ({value:.3e}) beyond tolerance")


class MaxIterations(RevMarkovError):
    """The QP solver hit its iteration cap; ``result`` holds the best iterate."""

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"iteration limit reached with kkt residuals {result.kkt_residuals}"
        )


class EmptyTrajectory(RevMarkovError):
    """A trajectory too short to contain a single transition."""


class DegenerateInstance(RevMarkovError):
    """A generated random chain collapsed to fewer than two states."""


class ClassSolveFailed(RevMarkovError):
    """One or more per-class solves failed; other classes were still attempted.

    ``failures`` is a list of ``(class_indices, exception)`` pairs.
    """

    def __init__(self, failures):
        self.failures = failures
        labels = ", ".join(f"{idx.tolist()}: {exc!r}" for idx, exc in failures)
        super().__init__(f"{len(failures)} ergodic class solve(s) failed ({labels})")
