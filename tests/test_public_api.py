"""The public API: its names, where each is defined, and what it takes.

``primstab`` exports the names below, each resolved on first use from its
home module.  The public API takes no tolerance, margin or cap arguments:
the non-loxodromic tolerance (1e-9), the pruning margin (1e-6) and the
move-search rank cap (``RANK_CAP``) are module constants; no caller needs
another value.
"""

import importlib
import inspect

import pytest

import primstab as ps
from primstab import words

# home module -> the names primstab exports from it, in ``__all__`` order
EXPORTED = {
    "errors": [
        "BadSubset", "CheckFailed", "ClosedOnNonCyclicallyReduced", "DegenerateAction",
        "DegenerateMatrix", "DeterminantError", "FrickeMismatch", "ImageIsLine",
        "InvalidLetter", "NonFiniteValue", "NotCoprime", "ParseError", "PrimstabError",
        "RankMismatch", "RankTooLarge", "WordParseError",
    ],
    "markoff": [
        "BqKind", "BqVerdict", "MarkoffMove", "MarkoffTriple", "bq_decide",
        "bq_verdict_from_json", "bq_verdict_to_json", "edge_escapes", "fan_escapes",
        "markoff_move", "slope_trace", "solve_y_from_fricke",
    ],
    "moebius": [
        "DiskSide", "MoebiusMap", "Representation", "SchottkyVerdict",
        "SphereDisk", "UhsPoint", "act_uhs", "axis_point", "classify", "evaluate",
        "fricke_traces", "image_circle", "orbit_growth_probe", "representation_from_json",
        "representation_to_json", "schottky_check", "translation_length", "uhs_distance",
    ],
    "render": [
        "SliceConfig", "palette_color", "pixel_trace", "pixel_verdict",
        "render_slice", "slice_config_from_json", "slice_config_to_json",
    ],
    "stability": [
        "FAILURE", "NO_OBSTRUCTION", "PsReport", "SpectrumEntry", "precompose",
        "primitive_length_spectrum", "ps_report_from_json", "ps_report_to_json", "ps_scan",
        "restrict",
    ],
    "traces": ["IsometryClass", "fricke_kappa"],
    "whitehead": [
        "RANK_CAP", "BlockingCertificate", "WhiteheadAutomorphism", "WhiteheadGraph",
        "apply_automorphism", "blocking_certificate", "enumerate_primitive_classes",
        "has_cutpoint", "is_connected", "is_primitive",
        "primitive_of_slope", "whitehead_graph", "whitehead_minimize",
    ],
    "words": [
        "CyclicWord", "Word", "cyclic_length", "cyclic_reduce",
        "format_letters", "invert", "letter_key", "parse_word", "power", "reduce",
    ],
}
HOME = {name: module for module, names in EXPORTED.items() for name in names}

RETIRED = {"tol", "delta", "rank_cap"}


def public_callables():
    for name in dir(ps):
        obj = getattr(ps, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):  # the class's own methods, not inherited ones
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield "%s.%s" % (name, attr), member


def test_no_public_callable_takes_a_retired_knob():
    checked = 0
    for name, obj in public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        assert not RETIRED & set(params), name
    assert checked > 50


def test_all_is_the_pinned_name_list():
    assert ps.__all__ == list(HOME)
    assert len(ps.__all__) == 88


def test_each_name_is_the_object_of_its_home_module():
    for name, module in HOME.items():
        home = importlib.import_module("primstab." + module)
        obj = getattr(ps, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name  # defined there, not imported


def test_dir_covers_the_exports():
    assert set(HOME) | set(EXPORTED) <= set(dir(ps))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from primstab import *", namespace)
    for name, module in EXPORTED.items():
        for attr in module:
            assert namespace[attr] is getattr(ps, attr)
    assert not {n for n in namespace if not n.startswith("__")} - set(HOME)


def test_unknown_names_are_attribute_errors():
    assert not hasattr(ps, "no_such_name")
    assert not hasattr(ps, "_walk")  # private names are not exported
    with pytest.raises(AttributeError, match="no_such_name"):
        ps.no_such_name


def test_a_name_rebound_in_its_home_module_is_seen_through_the_package(monkeypatch):
    def stand_in(text, rank=None):
        raise AssertionError("not called")

    before = ps.parse_word
    monkeypatch.setattr(words, "parse_word", stand_in)
    assert ps.parse_word is stand_in
    monkeypatch.undo()
    assert ps.parse_word is before is words.parse_word


def test_trace_rules_still_resolve_through_moebius():
    # the trace rules moved to a leaf module; moebius still re-exports them
    from primstab import moebius

    assert moebius.IsometryClass is ps.IsometryClass
    assert moebius.fricke_kappa is ps.fricke_kappa


def test_orbit_probe_still_resolves_through_stability():
    # the probe moved to moebius; stability still re-exports it
    from primstab import stability

    assert stability.orbit_growth_probe is ps.orbit_growth_probe
