"""Per-request cost ledgers, reset-window reports, and the cost ratio rho.

Each request has one ledger row {hops, adjust, coord, reset}, filled in by
`network.replay_trace`.
Reset events mark window boundaries: window i spans the requests between the
(i-1)-th and i-th reset, with a trailing partial window after the last one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, islice
from typing import IO, Sequence

from .entropy import demand_entropy
from .trace import Trace


@dataclass
class CostLedger:
    hops: list = field(default_factory=list)
    adjust: list = field(default_factory=list)
    coord: list = field(default_factory=list)
    reset: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.hops)

    def slice(self, start: int, stop: int) -> "CostLedger":
        return CostLedger(
            hops=self.hops[start:stop],
            adjust=self.adjust[start:stop],
            coord=self.coord[start:stop],
            reset=self.reset[start:stop],
        )


def average_cost(ledger: CostLedger, include_coord: bool = True) -> float:
    """Mean per-request cost: hops + adjustments, plus control traffic if asked."""
    if ledger.m == 0:
        raise ValueError("empty ledger")
    total = sum(ledger.hops) + sum(ledger.adjust)
    if include_coord:
        total += sum(ledger.coord) + sum(ledger.reset)
    return total / ledger.m


@dataclass(frozen=True)
class WindowRow:
    index: int
    start: int
    length: int
    avg_cost: float
    h_con: float  # max of the two conditional entropies of the window, base Delta


def window_report(
    ledger: CostLedger, trace: Trace, base: float, include_coord: bool = True
) -> list[WindowRow]:
    """One row per reset-delimited window, plus the trailing partial window."""
    if ledger.m != len(trace):
        raise ValueError(f"ledger has {ledger.m} rows but trace has {len(trace)} requests")
    bounds = [0, *compress(count(), ledger.reset), ledger.m]
    rows = []
    for i in range(len(bounds) - 1):
        start, stop = bounds[i], bounds[i + 1]
        if stop <= start:
            continue
        rows.append(
            WindowRow(
                index=i,
                start=start,
                length=stop - start,
                avg_cost=average_cost(ledger.slice(start, stop), include_coord),
                h_con=demand_entropy(trace, base, start, stop),
            )
        )
    return rows


def rho_estimate(renet_avg: float, stat_avg: float) -> float:
    """Static-optimality ratio: online average cost over the static baseline's."""
    if stat_avg <= 0:
        raise ValueError("static baseline average must be positive")
    return renet_avg / stat_avg


LEDGER_CSV_HEADER = "req_idx,hops,adjust,coord,reset"
WINDOWS_CSV_HEADER = "window,start,length,avg_cost,h_con"


LEDGER_SLICE = 8192  # rows formatted and written per `fh.write`


class _RowTails(dict):
    """The text after the index of each distinct ledger row, made on first use:
    a ledger repeats few distinct (hops, adjust, coord, reset) rows."""

    def __missing__(self, row: tuple) -> str:
        hops, adjust, coord, reset = row
        tail = self[row] = f",{hops},{adjust},{coord},{reset}\n"
        return tail


def write_ledger_csv(ledger: CostLedger, fh: IO[str]) -> None:
    fh.write(LEDGER_CSV_HEADER + "\n")
    tails = _RowTails()
    rows = zip(ledger.hops, ledger.adjust, ledger.coord, ledger.reset)
    for start in range(0, ledger.m, LEDGER_SLICE):
        lines = zip(range(start, start + LEDGER_SLICE), islice(rows, LEDGER_SLICE))
        fh.write("".join([f"{i}{tails[row]}" for i, row in lines]))


def write_windows_csv(rows: Sequence[WindowRow], fh: IO[str]) -> None:
    fh.write(WINDOWS_CSV_HEADER + "\n")
    for r in rows:
        fh.write(f"{r.index},{r.start},{r.length},{r.avg_cost:.9f},{r.h_con:.9f}\n")
