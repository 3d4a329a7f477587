"""Bound reports: per-round traces, certified values, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

__all__ = ["RoundTrace", "BoundReport", "ceil_bound", "CSV_COLUMNS", "csv_header", "csv_row"]

# column order follows the benchmark tables: per-instance metadata, then
# the plain relaxation, the order-n relaxation, its cut-strengthened value,
# and the heuristic upper bound
CSV_COLUMNS = ["instance", "n", "m1", "m2", "basic", "new", "new_cuts", "ub"]


# a certified bound this close above an integer rounds up to that integer
_CEIL_SLACK = 1e-6


def ceil_bound(value: float, integral: bool) -> float | None:
    """Round a certified bound up to the next integer, guarding against
    solver noise just above an integer; only valid for integral weights."""
    if not integral:
        return None
    return float(math.ceil(value - _CEIL_SLACK))


@dataclass
class RoundTrace:
    round: int
    cuts_added: int
    cuts_total: int
    raw_bound: float
    safe_bound: float
    solver_status: str
    wall_time: float
    # IPM iterations over every sifting pass; reports written before this
    # field existed load with 0
    iterations: int = 0


@dataclass
class BoundReport:
    instance: str
    n: int
    m1: int
    m2: int
    relaxation: str
    rounds: list[RoundTrace] = field(default_factory=list)
    certified_lower_bound: float | None = None
    ceiled_lower_bound: float | None = None
    upper_bound: float | None = None
    upper_bound_method: str | None = None
    upper_bound_part1: list[int] | None = None
    integral_weights: bool = False
    values: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    total_wall_time: float = 0.0
    # symmetric cells of the coherent closure the cut loop reduced on; None
    # when it ran the full model, and in reports written before this field
    closure_cells: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "BoundReport":
        rounds = [RoundTrace(**r) for r in d.get("rounds", [])]
        rest = {k: v for k, v in d.items() if k != "rounds"}
        return BoundReport(rounds=rounds, **rest)

    @staticmethod
    def from_json(text: str) -> "BoundReport":
        return BoundReport.from_dict(json.loads(text))


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_row(report: BoundReport) -> str:
    """One benchmark-table row; relaxations that were not run stay blank.

    Lower-bound columns are rounded up on integral-weight instances, the
    way benchmark tables list them; otherwise raw values are printed.
    """
    vals = report.values

    def cell(key):
        v = vals.get(key)
        if v is None:
            return ""
        if report.integral_weights:
            return _fmt(ceil_bound(v, True))
        return _fmt(v)

    cells = [
        report.instance,
        str(report.n),
        str(report.m1),
        str(report.m2),
        cell("basic"),
        cell("new"),
        cell("new_cuts"),
        _fmt(report.upper_bound),
    ]
    return ",".join(_quote(c) for c in cells)


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _fmt(v) -> str:
    if v is None:
        return ""
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.6g}"
