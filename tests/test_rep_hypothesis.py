"""Fuzz test of the representation reader and of ``rep-info`` and ``ps-scan`` on what it reads."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import primstab as ps  # noqa: E402
from primstab.errors import PrimstabError  # noqa: E402

from helpers import assert_cli_contract, run_cli, strict_json  # noqa: E402

# NaN, +-inf, floats at every scale up to 1.7e308, and integers past the
# float range
floats = st.floats() | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.7, 1.7),
                                 st.integers(-300, 308))
numbers = st.integers(-10 ** 400, 10 ** 400) | floats
entries = st.lists(numbers, min_size=2, max_size=2)


def _det_one(a, b, c):
    """Entries [a, b, c, d] with d chosen so that ad - bc is 1 where it can be."""
    try:
        d = (1 + b * c) / a
    except ZeroDivisionError:
        d = complex(1.0)
    return [[z.real, z.imag] for z in (a, b, c, d)]


def _sl2(lam, x, y):
    """diag(lam, 1/lam) [[1, x], [0, 1]] [[1, 0], [y, 1]], of determinant 1."""
    return [[z.real, z.imag] for z in (lam * (1 + x * y), lam * x, y / lam, 1 / lam)]


complexes = st.builds(complex, floats, floats)
scales = st.builds(lambda m, e: m * 10.0 ** e,
                   st.complex_numbers(min_magnitude=0.5, max_magnitude=2),
                   st.integers(-12, 12))
# most raw draws fail the determinant check, so two thirds of the matrices are
# built to pass it and reach classification, the Fricke traces and the scan
matrices = (st.lists(entries, min_size=4, max_size=4)
            | st.builds(_det_one, complexes, complexes, complexes)
            | st.builds(_sl2, scales, scales, scales))
documents = st.integers(1, 2).flatmap(
    lambda rank: st.fixed_dictionaries(
        {"rank": st.just(rank),
         "generators": st.lists(matrices, min_size=rank, max_size=rank)}))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(documents, st.integers(0, 6))
@example({"rank": 1, "generators": [[[-2, 0], [1, 0], [1.7e308, -1e308], [1, 0]]]}, 2)
@example({"rank": 1, "generators": [[[1.5e308, 1.5e308], [0, 0], [0, 0],
                                     [1 / 1.5e308 / 2, -1 / 1.5e308 / 2]]]}, 6)
def test_reader_and_rep_info_raise_only_domain_errors(tmp_path_factory, doc, max_len):
    try:
        rep = ps.representation_from_json(doc)
    except PrimstabError:
        pass
    else:
        assert isinstance(rep, ps.Representation)
    path = tmp_path_factory.getbasetemp() / "rep.json"
    path.write_text(json.dumps(doc))
    for argv in (["rep-info", "--rep", str(path)],
                 ["ps-scan", "--rep", str(path), "--max-len", str(max_len)]):
        code, out, err = run_cli(argv)
        assert code in (0, 1)
        assert_cli_contract(code, out, err)
        # the scan's own ratio bound must hold on every document it reads
        assert code == 0 or strict_json(err)["error"] != "CheckFailed"
