"""Cross-validation suite: the invariant registry, reported.

:func:`run_type_checks` builds one diagram type and reports every entry
of :data:`~.invariants.INVARIANTS` that applies to it, in registry
order, one :class:`Check` per entry, all read from one
:class:`~.invariants.Session`; every range check holds for all n, with
no depth to set.  The enforced entries ran when the bundle was built, and
their results (``Branching.enforced``) are the ones reported; if one
failed there, the report is that entry's FAIL line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branching import Branching
from .invariants import Session, registry
from .rootsys import DiagramType

#: Diagram types the verification and acceptance sweeps run over.
ACCEPTED_TYPES: tuple[str, ...] = (
    "A3",
    "A5",
    "A7",
    "A9",
    "A11",
    "A13",
    "D4",
    "D5",
    "D6",
    "D7",
    "D8",
    "D9",
    "D10",
    "D11",
    "D12",
    "E6",
    "E7",
    "E8",
)


@dataclass(frozen=True)
class Check:
    """One report line, with its entry's stage and invariant (for a failed
    construction, the error's)."""

    name: str
    passed: bool
    detail: str
    stage: str | None = None
    invariant: str | None = None

    def record(self) -> dict[str, object]:
        """The JSON record: stage and invariant only on a failure."""
        fields = ("name", "passed", "detail") + (() if self.passed else ("stage", "invariant"))
        return {k: getattr(self, k) for k in fields}


def rotation_group_name(dtype: DiagramType) -> str:
    """Name of the rotation group attached to the diagram family."""
    if dtype.family == "A":
        return f"Z_{(dtype.rank + 1) // 2}"
    if dtype.family == "D":
        return f"Dih_{dtype.rank - 2}"
    return {6: "Alt_4", 7: "Sym_4", 8: "Alt_5"}[dtype.rank]


def run_type_checks(dtype: DiagramType | str) -> list[Check]:
    """All checks for one diagram type.  A failed build is reported, never
    raised; an unknown type is a usage error, raised before any build."""
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    try:
        session = Session(Branching.build(dtype))
    except Exception as exc:  # noqa: BLE001 - report the failed entry or stage
        stage, invariant = getattr(exc, "stage", None), getattr(exc, "invariant", None)
        name = f"{dtype} {invariant or 'construction'}"
        return [Check(name, False, f"exception: {exc}", stage, invariant)]
    checks, enforced = [], session.bundle.enforced
    for inv in registry(dtype):
        passed, detail = enforced[inv.name] if inv.enforced else inv.evaluate(session)
        checks.append(Check(f"{dtype} {inv.name}", passed, detail, inv.stage, inv.name))
    return checks


def run_all(types: tuple[str, ...] = ACCEPTED_TYPES) -> list[Check]:
    return [check for t in types for check in run_type_checks(t)]


def format_report(checks: list[Check]) -> str:
    width = max(len(c.name) for c in checks) if checks else 0
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}" for c in checks
    ]
    passed = sum(c.passed for c in checks)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
