"""Pass/fail/vacuous reports produced by every executable property check."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Iterable


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class Counterexample:
    """One violated assertion, with enough payload to replay it."""

    inputs: str
    lhs: float
    rhs: float
    slack: float
    seed: int | None = None
    theta: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one property over a batch of trials.

    ``trials`` counts attempted instances, ``satisfied`` those whose
    hypothesis actually held (and whose conclusion was therefore
    asserted).  A report with failures is a Fail; one where no trial ever
    satisfied the hypothesis is Vacuous, never a Pass.
    """

    name: str
    trials: int
    satisfied: int
    failures: tuple[Counterexample, ...] = field(default_factory=tuple)

    @property
    def verdict(self) -> Verdict:
        if self.failures:
            return Verdict.FAIL
        if self.satisfied == 0:
            return Verdict.VACUOUS
        return Verdict.PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict.value,
            "trials": self.trials,
            "satisfied": self.satisfied,
            "failures": [c.to_dict() for c in self.failures],
        }

    @classmethod
    def merge(cls, name: str, reports: Iterable["VerificationReport"]) -> "VerificationReport":
        trials = satisfied = 0
        failures: list[Counterexample] = []
        for r in reports:
            trials += r.trials
            satisfied += r.satisfied
            failures.extend(r.failures)
        return cls(name=name, trials=trials, satisfied=satisfied, failures=tuple(failures))
