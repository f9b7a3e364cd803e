"""Free-group words and Whitehead graphs, PSL(2,C) trace spectra,
primitive-stability scans, and BQ slice rendering.

``import primstab`` loads no submodule.  Each public name is imported from
its home module on first use (PEP 562), and the value is not kept here, so
``primstab.X`` is always what its home module holds at the time.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "BadSubset", "CheckFailed", "ClosedOnNonCyclicallyReduced", "DegenerateAction",
        "DegenerateMatrix", "DeterminantError", "FrickeMismatch", "ImageIsLine",
        "InvalidLetter", "NonFiniteValue", "NotCoprime", "ParseError", "PrimstabError",
        "RankMismatch", "RankTooLarge", "WordParseError",
    ),
    "markoff": (
        "BqKind", "BqVerdict", "MarkoffMove", "MarkoffTriple", "bq_decide",
        "bq_verdict_from_json", "bq_verdict_to_json", "edge_escapes", "fan_escapes",
        "markoff_move", "slope_trace", "solve_y_from_fricke",
    ),
    "moebius": (
        "DiskSide", "MoebiusMap", "Representation", "SchottkyVerdict",
        "SphereDisk", "UhsPoint", "act_uhs", "axis_point", "classify", "evaluate",
        "fricke_traces", "image_circle", "orbit_growth_probe", "representation_from_json",
        "representation_to_json", "schottky_check", "translation_length",
        "uhs_distance",
    ),
    "render": (
        "SliceConfig", "palette_color", "pixel_trace", "pixel_verdict",
        "render_slice", "slice_config_from_json", "slice_config_to_json",
    ),
    "stability": (
        "FAILURE", "NO_OBSTRUCTION", "PsReport", "SpectrumEntry", "precompose",
        "primitive_length_spectrum", "ps_report_from_json", "ps_report_to_json", "ps_scan",
        "restrict",
    ),
    "traces": ("IsometryClass", "fricke_kappa"),
    "whitehead": (
        "RANK_CAP", "BlockingCertificate", "WhiteheadAutomorphism", "WhiteheadGraph",
        "apply_automorphism", "blocking_certificate", "enumerate_primitive_classes",
        "has_cutpoint", "is_connected", "is_primitive",
        "primitive_of_slope", "whitehead_graph", "whitehead_minimize",
    ),
    "words": (
        "CyclicWord", "Word", "cyclic_length", "cyclic_reduce",
        "format_letters", "invert", "letter_key", "parse_word", "power", "reduce",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module("." + _HOME[name], __name__), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return _import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
