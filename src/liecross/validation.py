"""Structured validation reports.

Validators never raise on a failed axiom; they return a report listing every
check that ran and, for each failure, the basis tuple that witnessed it plus
the two sides of the identity that disagreed.  Indices in witnesses are
1-based, matching how basis vectors are written everywhere else.

Identities on basis tuples go through ValidationReport.check (antisymmetry,
which visits only i <= j, has its own loop): it records the check, walks the
0-based index tuples of a shape in lexicographic order and fails the check,
with 1-based indices and both sides, at every tuple whose sides differ.  A
report lists all failing tuples of a check in that order; lines() shows the
first.

validate_crossed_morphism and is_f0_derivation, which homotopy_target
calls on every shift, check in two stages.  They first evaluate the Law
compiled from their tensors, the filed form the scans also walk (see
_kernels), at the lifted entries of the maps under test; when every filed
constraint vanishes they return the passing report directly, with the same
subject and the same checks in the same order.  Only an input that fails
runs the checks on vectors through ValidationReport.check, which build the
witnesses, so failing reports are the same whichever stage decided.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product
from typing import Union

from .fields import Scalar
from .linalg import Vector

Witness = Union[Scalar, Vector, str, int]


@dataclass(frozen=True)
class Failure:
    """One counterexample: axiom name, 1-based indices, both sides.

    Indices name basis vectors for algebra axioms and objects or arrows for
    groupoid laws; lhs and rhs are the two evaluated sides.
    """

    check: str
    indices: tuple[int, ...]
    lhs: Witness
    rhs: Witness

    def describe(self) -> str:
        args = ", ".join(str(i) for i in self.indices)
        return f"{self.check} fails at ({args}): {self.lhs} != {self.rhs}"


@dataclass
class ValidationReport:
    """Outcome of validating one object: which checks ran, what failed."""

    subject: str
    checks: list[str] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, check: str):
        if check not in self.checks:
            self.checks.append(check)

    def fail(self, check: str, indices: tuple[int, ...], lhs: Witness, rhs: Witness):
        self.record(check)
        self.failures.append(Failure(check, indices, lhs, rhs))

    def check(self, check: str, shape: tuple[int, ...],
              sides: Callable[..., tuple[Witness, Witness]]):
        """Record check; fail it at each index tuple of shape whose sides differ."""
        self.record(check)
        for indices in product(*map(range, shape)):
            lhs, rhs = sides(*indices)
            if lhs != rhs:
                self.fail(check, tuple([i + 1 for i in indices]), lhs, rhs)

    def failures_for(self, check: str) -> list[Failure]:
        return [f for f in self.failures if f.check == check]

    def merge(self, other: "ValidationReport"):
        for check in other.checks:
            self.record(check)
        self.failures.extend(other.failures)

    def lines(self) -> list[str]:
        """One line per check: '<subject> <check> PASS|FAIL [witness]'."""
        out = []
        for check in self.checks:
            bad = self.failures_for(check)
            if not bad:
                out.append(f"{self.subject} {check} PASS")
            else:
                out.append(f"{self.subject} {check} FAIL {bad[0].describe()}")
        return out

    def summary(self) -> str:
        state = "valid" if self.ok else f"invalid ({len(self.failures)} failures)"
        return f"{self.subject}: {state}"
