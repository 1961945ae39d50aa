import io

import pytest
from hypothesis import given, settings, strategies as st

from renet.metrics import (
    LEDGER_CSV_HEADER,
    LEDGER_SLICE,
    CostLedger,
    average_cost,
    rho_estimate,
    window_report,
    write_ledger_csv,
    write_windows_csv,
)
from renet.trace import Trace


def ledger_from_rows(rows):
    led = CostLedger()
    for hops, adjust, coord, reset in rows:
        led.append(hops, adjust, coord, reset)
    return led


def test_average_cost_basic():
    led = ledger_from_rows([(1, 0, 0, 0), (3, 2, 0, 0)])
    assert average_cost(led, include_coord=True) == pytest.approx(3.0)
    assert average_cost(led, include_coord=False) == pytest.approx(3.0)


def test_average_cost_with_coordinator():
    led = ledger_from_rows([(1, 0, 6, 0)])  # D = 3, one 2D notification
    assert average_cost(led, include_coord=True) == pytest.approx(7.0)
    assert average_cost(led, include_coord=False) == pytest.approx(1.0)


def test_average_cost_unit_hops():
    led = ledger_from_rows([(1, 0, 0, 0)] * 5)
    assert average_cost(led) == pytest.approx(1.0)


def test_average_cost_empty_ledger():
    with pytest.raises(ValueError):
        average_cost(CostLedger())


def test_window_report_no_resets_single_window():
    pairs = [(0, 1), (1, 2), (2, 0), (0, 2)]
    led = ledger_from_rows([(1, 0, 0, 0)] * 4)
    rows = window_report(led, Trace.from_pairs(3, pairs), base=24)
    assert len(rows) == 1
    assert rows[0].start == 0 and rows[0].length == 4


def test_window_report_reset_splits():
    pairs = [(0, 1)] * 3 + [(1, 2)] * 5
    led = CostLedger()
    for i in range(8):
        led.append(1, 0, 0, 3 if i == 3 else 0)
    rows = window_report(led, Trace.from_pairs(3, pairs), base=24)
    assert [r.length for r in rows] == [3, 5]
    assert [r.start for r in rows] == [0, 3]
    assert rows[0].h_con == 0.0  # single repeated pair per window


def test_window_report_misaligned_lengths():
    led = ledger_from_rows([(1, 0, 0, 0)] * 3)
    with pytest.raises(ValueError):
        window_report(led, Trace.from_pairs(3, [(0, 1)]), base=24)


@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(0, 5), st.integers(0, 8), st.integers(0, 1)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_window_decomposition_additivity(rows):
    rows = [(h, a, c, r * 4) for h, a, c, r in rows]
    led = ledger_from_rows(rows)
    pairs = [(i % 3, (i + 1) % 3) for i in range(len(rows))]
    trace = Trace.from_pairs(3, pairs)
    for include in (True, False):
        report = window_report(led, trace, base=24, include_coord=include)
        assert sum(r.length for r in report) == led.m
        weighted = sum(r.avg_cost * r.length for r in report) / led.m
        assert weighted == pytest.approx(average_cost(led, include), abs=1e-9)


def test_rho_estimate():
    assert rho_estimate(3.0, 1.5) == pytest.approx(2.0)
    assert rho_estimate(2.5, 2.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rho_estimate(1.0, 0.0)


def test_csv_writers():
    led = ledger_from_rows([(1, 2, 3, 0), (4, 5, 6, 7)])
    buf = io.StringIO()
    write_ledger_csv(led, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "req_idx,hops,adjust,coord,reset"
    assert lines[1] == "0,1,2,3,0" and lines[2] == "1,4,5,6,7"

    rows = window_report(led, Trace.from_pairs(3, [(0, 1), (1, 2)]), base=24)
    buf = io.StringIO()
    write_windows_csv(rows, buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "window,start,length,avg_cost,h_con"
    assert len(out) == 1 + len(rows)


def per_row_ledger_csv(ledger, fh):
    """The one-f-string-per-row writer that `write_ledger_csv` replaced, kept as its oracle."""
    fh.write(LEDGER_CSV_HEADER + "\n")
    for i in range(ledger.m):
        fh.write(f"{i},{ledger.hops[i]},{ledger.adjust[i]},{ledger.coord[i]},{ledger.reset[i]}\n")


def ledger_text(writer, ledger):
    buf = io.StringIO()
    writer(ledger, buf)
    return buf.getvalue()


def test_streamed_ledger_writer_on_empty_ledger():
    assert ledger_text(write_ledger_csv, CostLedger()) == LEDGER_CSV_HEADER + "\n"


@given(
    st.lists(
        st.tuples(*[st.one_of(st.integers(0, 9), st.integers(0, 10**30)) for _ in range(4)]),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([1, 7, LEDGER_SLICE - 1, LEDGER_SLICE, LEDGER_SLICE + 1, 2 * LEDGER_SLICE + 1]),
)
@settings(max_examples=40, deadline=None)
def test_streamed_ledger_writer_matches_per_row_writer(distinct, m):
    # m rows cycling through a few distinct rows, small and large values alike
    led = CostLedger()
    for i in range(m):
        led.append(*distinct[i % len(distinct)])
    assert ledger_text(write_ledger_csv, led) == ledger_text(per_row_ledger_csv, led)
