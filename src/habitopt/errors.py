"""Exception and warning types shared across the package."""

from __future__ import annotations


class HabitOptError(Exception):
    """Base class for all errors raised by this package."""


class NonNested(HabitOptError):
    """A partition at level k+1 does not refine the partition at level k."""


class BadProbability(HabitOptError):
    """Leaf probabilities are negative, non-finite, or do not sum to one."""


class LevelMismatch(HabitOptError):
    """An operation combined quantities attached to incompatible tree levels."""


class ArbitrageDetected(HabitOptError):
    """No strictly positive state-price deflator exists for the market."""


class VanishingAggregateSPD(HabitOptError):
    """The projected deflator hits zero on some atom, so deflated budgets degenerate."""


class NotInPayoffSpace(HabitOptError):
    """A claim was required to be replicable at a level where it is not."""


class InvalidWitness(HabitOptError):
    """A proposed market-structure witness fails one of its defining clauses."""


class DomainViolation(HabitOptError):
    """A consumption plan leaves the utility domain (habit-adjusted value not positive).

    Carries the period and atom index where the violation occurred.
    """

    def __init__(self, message: str, period: int | None = None, atom: int | None = None):
        super().__init__(message)
        self.period = period
        self.atom = atom


class DivisionByZeroSPD(HabitOptError):
    """A deflator ratio M_k / M_j was requested where the denominator vanishes."""


class PreconditionViolated(HabitOptError):
    """Inputs do not satisfy the structural preconditions of a specialized solver."""


class Infeasible(HabitOptError):
    """No strictly admissible consumption plan exists for the given endowments."""


class NonConvergence(HabitOptError):
    """An iterative solver stopped without meeting its tolerance.

    The best iterate and diagnostics are attached so callers can inspect them.
    """

    def __init__(self, message: str, best=None, diagnostics: dict | None = None):
        super().__init__(message)
        self.best = best
        self.diagnostics = diagnostics or {}


class InstanceTooLarge(HabitOptError):
    """An instance exceeds a fixed size cap of the method asked to handle it:
    the brute-force oracle's dimension cap, or the memory budget for a node's
    state-price vertices."""


class BracketFailure(HabitOptError):
    """A scalar root-find could not bracket a sign change."""


class GenerationExhausted(HabitOptError):
    """The instance generator ran out of retry budget for the requested family."""


class WrongMarketClass(UserWarning):
    """A probe was invoked outside the market class its guarantee covers."""


class WrongUtilityFamily(UserWarning):
    """A specialized routine was invoked with a utility family outside its scope."""
