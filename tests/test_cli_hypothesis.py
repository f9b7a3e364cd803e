"""Fuzz tests of the ``bq-decide`` and ``probe`` command lines.

Whatever the flags hold, the CLI exits 0, 1 or 2, writes no traceback, and
on exit 0 or 1 writes exactly one strict JSON object: the result to stdout,
or the error to stderr.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import primstab as ps  # noqa: E402

from helpers import assert_cli_contract, run_cli, schottky_example  # noqa: E402

# NaN, +-inf, floats at every scale from 1e-320 to 1.7e308, and a little text
floats = st.floats() | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.7, 1.7),
                                 st.integers(-320, 308))
numbers = floats.map(repr) | st.integers(-10, 10).map(str) | st.text("0123456789.,-e", max_size=6)
complexes = numbers | st.builds("{},{}".format, floats.map(repr), floats.map(repr))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(complexes, complexes, complexes, st.integers(-1, 60), st.integers(-1, 4))
@example("3", "3", "3", 50, 1)
@example("1e200", "1e200", "3", 50, 64)
@example("3", "-1e5", "3", 10, 1)
def test_bq_decide_argv_keeps_the_contract(x, y, z, budget, bound):
    # a value may be joined to its flag or follow it as its own argument
    argv = ["bq-decide", "--x=" + x, "--y", y, "--z=" + z, "--budget", "%d" % budget,
            "--small-trace-bound=%d" % bound]
    assert_cli_contract(*run_cli(argv))


words = st.text("abAB", max_size=8) | st.text("abcAB!", max_size=3)
basepoints = st.none() | st.builds("{},{},{}".format, floats.map(repr), floats.map(repr),
                                   floats.map(repr))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(words, st.integers(0, 12), basepoints)
@example("a", 3, "0,0,1e-170")
def test_probe_argv_keeps_the_contract(tmp_path_factory, word, periods, basepoint):
    rep, _ = schottky_example()
    path = tmp_path_factory.getbasetemp() / "rep.json"
    path.write_text(json.dumps(ps.representation_to_json(rep)))
    argv = ["probe", "--rep", str(path), "--word", word, "--periods=%d" % periods]
    if basepoint is not None:
        argv.append("--basepoint=" + basepoint)
    assert_cli_contract(*run_cli(argv))
