"""Exception types shared across the package."""

from __future__ import annotations


class FactorpackError(Exception):
    """Base class for all package errors."""


class UsageError(FactorpackError):
    """Bad arguments at the API or CLI boundary."""


class InternalInvariantError(FactorpackError):
    """An invariant the algorithms guarantee was violated: a bug, not bad input."""


# --- coloring / data model ---

class MissingEdge(FactorpackError):
    pass


class DuplicateEdge(FactorpackError):
    pass


class RegularityViolation(FactorpackError):
    def __init__(self, vertex, color, expected, actual):
        self.vertex, self.color, self.expected, self.actual = vertex, color, expected, actual
        super().__init__(
            f"class {color} not regular at vertex {vertex}: expected {expected}, got {actual}"
        )


class ConservationViolation(InternalInvariantError):
    def __init__(self, vertex, color, delta):
        self.vertex, self.color, self.delta = vertex, color, delta
        super().__init__(f"degree of color {color} at vertex {vertex} changed by {delta:+d}")


# --- realization ---

class NotGraphic(FactorpackError):
    pass


class NotGraphicMinusK(FactorpackError):
    pass


# --- switching engine ---

class PreconditionViolated(UsageError):
    pass


class ChainStuck(InternalInvariantError):
    pass


# --- matching ---

class NotAlternating(FactorpackError):
    pass


class OddLengthPath(FactorpackError):
    pass


class InvalidInitial(FactorpackError):
    pass


class NotRegular(FactorpackError):
    pass


# --- factorization pipelines ---

class EvenCycle(FactorpackError):
    pass


class CaseAnalysisExhausted(InternalInvariantError):
    pass


class TooManyOneFactors(FactorpackError):
    pass


class NoResidual(FactorpackError):
    pass


class OddVertexCount(FactorpackError):
    pass


class NotEvenRegular(FactorpackError):
    pass


class KTooSmall(UsageError):
    pass


# --- brute-force oracles ---

class BudgetExceeded(FactorpackError):
    def __init__(self, nodes, budget):
        self.nodes, self.budget = nodes, budget
        super().__init__(f"search budget exceeded: {nodes} nodes explored, limit {budget}")
