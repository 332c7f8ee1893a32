"""The three function-to-function operators applied before thresholding.

Identity leaves f alone; Integral maps f to I(f)(x) = integral of f from
the origin a to x; Averaging maps f to mu(f)(x) = I(f)(x) / (x - a) with
the continuity value mu(f)(a) = f(a).  The origin a is always the left
end of f's support, so an operator is fully described by its
``OperatorKind``, and ``apply(kind, f)`` is the one way to build T(f).
For piecewise-linear sources all three are exactly evaluable: Identity
stays piecewise-linear, Integral is piecewise-quadratic, Averaging is
the quadratic divided by (x - a).

mu preserves the decreasing shape of its input while I increases; that
difference decides which branch of every monotonicity result downstream
applies, so each transformed function reports its monotonicity, which
follows from the operator kind alone (see ``MONOTONICITY``).  The
contract every operator honours (non-negative, zero exactly for the zero
function, strictly order-preserving on prefixes) is checked by
``verify.check_operator_contract``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .funcspace import RankFrequencyFunction

# Relative width of the left-edge band where Averaging switches to its
# continuity value f(a) instead of evaluating the 0/0-prone quotient.
_AVERAGING_EDGE = 1e-9


class OperatorKind(Enum):
    IDENTITY = "identity"
    AVERAGING = "averaging"
    INTEGRAL = "integral"


class Monotonicity(Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    NON_MONOTONE = "non_monotone"


# Sources are non-increasing, so the identity is too.  For such f,
# N(x) = f(x)(x - a) - I(f)(x) <= 0, because f(x) is a lower bound of f on
# [a, x]; mu(f)' = N / (x - a)^2 makes mu(f) non-increasing, and
# I(f)' = f >= 0 makes I(f) non-decreasing -- strictly unless f == 0,
# whose constant integral counts as decreasing like any constant.
MONOTONICITY = {
    OperatorKind.IDENTITY: Monotonicity.DECREASING,
    OperatorKind.AVERAGING: Monotonicity.DECREASING,
    OperatorKind.INTEGRAL: Monotonicity.INCREASING,
}


@dataclass(frozen=True)
class TransformedFunction:
    """Exactly evaluable T(f); build it with :func:`apply`."""

    source: RankFrequencyFunction
    kind: OperatorKind

    @property
    def monotonicity(self) -> Monotonicity:
        if self.kind is OperatorKind.INTEGRAL and self.source.is_zero():
            return Monotonicity.DECREASING
        return MONOTONICITY[self.kind]

    @property
    def origin(self) -> float:
        return self.source.support_start

    @property
    def support_end(self) -> float:
        return self.source.support_end

    @property
    def _span(self) -> float:
        f = self.source
        return f.support_end - f.support_start

    @property
    def breakpoint_values(self) -> np.ndarray:
        """T(f) at every breakpoint of f (read-only); equal to ``eval_many(source.xs)``.

        At a breakpoint I(f) is the running integral ``cumulative``, and
        mu(f) is that over (x - a), or f(a) in the left-edge band.
        """
        f = self.source
        if self.kind is OperatorKind.IDENTITY:
            return f.ys
        if self.kind is OperatorKind.INTEGRAL:
            return f.cumulative
        rel = f.xs - self.origin
        edge = rel < _AVERAGING_EDGE * self._span
        values = np.where(edge, f.ys[0], f.cumulative / np.where(edge, 1.0, rel))
        values.flags.writeable = False
        return values

    def eval(self, x: float) -> float:
        """Scalar :meth:`eval_many`: the same arithmetic, without array set-up."""
        if x < self.origin or x > self.support_end:
            raise DomainError(f"x={x} outside [{self.origin}, {self.support_end}]")
        f = self.source
        if self.kind is OperatorKind.IDENTITY:
            return f.eval(x)
        if self.kind is OperatorKind.INTEGRAL:
            return f.antiderivative(x)
        rel = x - self.origin
        if rel < _AVERAGING_EDGE * self._span:
            return f.ys.item(0)
        return f.antiderivative(x) / rel

    def eval_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; callers guarantee x lies in [a, S]."""
        f = self.source
        if self.kind is OperatorKind.IDENTITY:
            return f.eval_many(x)
        idx = np.clip(np.searchsorted(f.xs, x, side="right") - 1, 0, len(f.xs) - 2)
        dx = x - f.xs[idx]
        integ = f.cumulative[idx] + f.ys[idx] * dx + f.slopes[idx] * dx * dx / 2.0
        integ = np.where(x == self.support_end, f.cumulative[-1], integ)
        if self.kind is OperatorKind.INTEGRAL:
            return integ
        rel = x - self.origin
        edge = rel < _AVERAGING_EDGE * self._span
        safe = np.where(edge, 1.0, rel)
        return np.where(edge, f.ys[0], integ / safe)


def apply(kind: OperatorKind, f: RankFrequencyFunction) -> TransformedFunction:
    """Build the exactly evaluable T(f), anchored at f's support start."""
    return TransformedFunction(source=f, kind=kind)
