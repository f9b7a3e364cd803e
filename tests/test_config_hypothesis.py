"""Fuzz test of the slice-config reader, and of rendering what it accepts."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import primstab as ps  # noqa: E402
from primstab.errors import ParseError, PrimstabError  # noqa: E402

VALID = {
    "kappa": [-2, 0], "fixed_x": [3, 0], "window": [[0, -3], [6, 3]],
    "width": 2, "height": 2, "root": "smaller", "budget": 200, "small_trace_bound": 64,
}

# anything json.load can return, NaN and +-inf included (it accepts those
# tokens), with [re, im] pairs and corner pairs drawn often enough to get
# past the shape checks, and numbers at every scale up to past the float
# ceiling
numbers = (st.integers(-10 ** 400, 10 ** 400) | st.floats()
           | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.8, 1.8), st.integers(-300, 308)))
pairs = st.lists(numbers, min_size=2, max_size=2)
json_data = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8,
)
values = json_data | pairs | st.lists(pairs, min_size=2, max_size=2)
keys = st.sampled_from(sorted(VALID) + ["delta", "tol"]) | st.text(max_size=6)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(keys, values)
@example("delta", "x")
@example("root", "larger")
@example("small_trace_bound", -1)
@example("kappa", [10 ** 400, 0])
@example("kappa", [1.5e308, 1.5e308])
def test_reader_returns_a_config_or_raises_parse_error(key, value):
    doc = {**VALID, key: value}
    try:
        cfg = ps.slice_config_from_json(doc)
    except ParseError:
        return
    assert isinstance(cfg, ps.SliceConfig)
    if cfg.width * cfg.height > 4 or cfg.budget > 1000:
        return
    try:
        data = ps.render_slice(cfg, 1)
    except PrimstabError:
        return
    assert isinstance(data, bytes)
    assert data.startswith(b"P6\n%d %d\n255\n" % (cfg.width, cfg.height))
