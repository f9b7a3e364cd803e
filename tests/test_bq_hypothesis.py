"""Property tests of ``bq_decide`` against brute-force slope enumeration."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import primstab as ps  # noqa: E402

from helpers import assert_bq_verdict_agrees_with_slopes  # noqa: E402

coordinate = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
traces = st.builds(complex, coordinate, coordinate)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(traces, traces, traces)
def test_bq_verdicts_agree_with_brute_force(x, y, z):
    t = ps.MarkoffTriple(x, y, z)
    # a small trace is recorded when small beyond rounding
    assert_bq_verdict_agrees_with_slopes(t, ps.bq_decide(t, 3000), 12, margin=1e-9)
