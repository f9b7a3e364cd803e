"""Property tests of ``bq_decide`` against brute-force slope enumeration."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import primstab as ps  # noqa: E402
from primstab.markoff import _normalize_slope  # noqa: E402

SLOPES = [(p, q) for p in range(-12, 13) for q in range(0, 13)
          if math.gcd(p, q) == 1 and (q > 0 or p == 1)]

coordinate = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
traces = st.builds(complex, coordinate, coordinate)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(traces, traces, traces)
def test_bq_verdicts_agree_with_brute_force(x, y, z):
    t = ps.MarkoffTriple.from_traces(x, y, z)
    verdict = ps.bq_decide(t, 3000)
    if verdict.kind == ps.BqKind.BQ_CERTIFIED:
        # every slope whose trace is small beyond rounding was recorded
        recorded = {slope for slope, _ in verdict.small_traces}
        for p, q in SLOPES:
            if abs(ps.slope_trace(t, p, q)) <= 2.0 - 1e-9:
                assert _normalize_slope(p, q) in recorded, (p, q)
    elif verdict.kind == ps.BqKind.NOT_BQ_WITNESS and len(verdict.witnesses) == 1:
        # a single witness is a non-loxodromic class: re-derive its trace
        (p, q), trace = verdict.witnesses[0]
        again = ps.slope_trace(t, p, q)
        assert abs(again - trace) <= 1e-9 * max(1.0, abs(again))
        assert abs(trace.imag) <= 1e-9 and abs(trace.real) <= 2.0 + 1e-9
