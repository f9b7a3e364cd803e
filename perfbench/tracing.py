"""Spans recorded from outside the library, and the per-layer metrics built from them.

A traced round replaces chosen public functions of primstab with wrappers
that record a span per call: name, start, end, the enclosing span, the
request (operation) it served, and a few attributes taken from the
arguments or the result.  Each function is named once, in the module that
defines it; ``Tracer.install`` rebinds every name under which a loaded
primstab module holds that function, so calls between modules (``cli``
calling ``ps_scan``, ``render`` calling ``bq_decide``) are seen too.  The
library itself is not edited.  A call made through a private helper (for
example ``is_primitive`` reaching ``_minimize_raw``) is invisible.  Spans
stay in memory and are reduced to metrics when the round ends.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

from primstab import markoff, moebius, render, stability, whitehead, words


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_enumerate(args, kwargs, result):
    return {"rank": _arg(args, kwargs, 0, "rank"),
            "max_len": _arg(args, kwargs, 1, "max_len"),
            "classes": len(result)}


def _note_ps_scan(args, kwargs, result):
    return {"rank": _arg(args, kwargs, 0, "rep").rank, "verdict": result.verdict}


def _note_evaluate(args, kwargs, result):
    return {"letters": len(_arg(args, kwargs, 1, "w"))}


def _note_bq_decide(args, kwargs, result):
    return {"kind": result.kind.value, "nodes": result.nodes_explored,
            "depth": result.depth_max}


def _note_blocking(args, kwargs, result):
    return {"certified": result.certified}


def _note_minimize(args, kwargs, result):
    return {"moves": len(result[1])}


# (defining module, function, span name, note)
INTERPOSED = (
    (words, "parse_word", "words.parse", None),
    (words, "cyclic_reduce", "words.cyclic_reduce", None),
    (whitehead, "whitehead_graph", "whitehead.graph", None),
    (whitehead, "is_connected", "whitehead.connectivity", None),
    (whitehead, "has_cutpoint", "whitehead.connectivity", None),
    (whitehead, "blocking_certificate", "whitehead.blocking", _note_blocking),
    (whitehead, "whitehead_minimize", "whitehead.minimize", _note_minimize),
    (whitehead, "enumerate_primitive_classes", "whitehead.enumerate", _note_enumerate),
    (moebius, "representation_from_json", "moebius.rep_load", None),
    (moebius, "evaluate", "moebius.evaluate", _note_evaluate),
    (moebius, "classify", "moebius.classify", None),
    (moebius, "translation_length", "moebius.translation_length", None),
    (stability, "ps_scan", "stability.ps_scan", _note_ps_scan),
    (stability, "orbit_growth_probe", "stability.probe", None),
    (render, "render_slice", "render.render_slice", None),
    (render, "pixel_verdict", "render.pixel_verdict", None),
    (markoff, "solve_y_from_fricke", "markoff.solve_y", None),
    (markoff, "bq_decide", "markoff.bq_decide", _note_bq_decide),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around interposed calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # set by the workload to the operation being served
        self._open: list[Span] = []
        self._saved = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "primstab" or name.startswith("primstab."))]
        for home, attr, name, note in INTERPOSED:
            original = getattr(home, attr, None)
            if original is None:  # the library no longer has this function
                continue
            wrapper = self._wrap(original, name, note)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, alias, original))
                        setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, alias, original = self._saved.pop()
            setattr(module, alias, original)

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), self._open[-1] if self._open else None,
                        self.request)
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)


BQ_KINDS = ("BQ_CERTIFIED", "NOT_BQ_WITNESS", "INCONCLUSIVE")
CLI_SUBCOMMANDS = ("word", "primitive", "blocking", "enumerate", "rep-info", "ps-scan",
                   "probe", "bq-decide", "render")
EXTRA_METRICS = (
    "render.slowest_row_s", "render.row_imbalance", "render.parallel_efficiency",
    "cli.interp_start_ms", "cli.import_ms", "cli.import_networkx_ms", "cli.startup_share",
) + tuple("cli.run_ms." + sub for sub in CLI_SUBCOMMANDS)
PS_VERDICTS = ("NO_OBSTRUCTION", "FAILURE")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extras: dict) -> dict:
    """Every per-layer metric of one traced round; a layer not exercised reads 0.

    ``extras`` carries the values a workload measures itself (render row
    times, CLI start-up); each defaults to 0 for the workloads without them.
    """
    out = dict.fromkeys(EXTRA_METRICS, 0.0)

    decides = tracer.named("markoff.bq_decide")
    for kind in BQ_KINDS:
        mine = [s for s in decides if s.attrs.get("kind") == kind]
        out["markoff.calls." + kind] = len(mine)
        out["markoff.nodes." + kind] = sum(s.attrs["nodes"] for s in mine)
        out["markoff.s." + kind] = sum(s.seconds for s in mine)
        out["markoff.depth_max." + kind] = max((s.attrs["depth"] for s in mine), default=0)
    all_nodes = sum(s.attrs.get("nodes", 0) for s in decides)
    useful = sum(s.attrs["nodes"] for s in decides if s.attrs.get("kind") not in
                 (None, "INCONCLUSIVE"))
    out["markoff.useful_node_frac"] = _ratio(useful, all_nodes)
    out["markoff.solve_y_s"] = tracer.total("markoff.solve_y")

    out["render.render_slice_s"] = tracer.total("render.render_slice")
    out["render.serial_pixel_s"] = tracer.total("render.pixel_verdict")

    enumerations = tracer.named("whitehead.enumerate")
    seen = set()
    cold = {2: 0.0, 3: 0.0}
    warm = []
    classes = 0
    for s in enumerations:
        if not s.attrs:
            continue
        key = (s.attrs["rank"], s.attrs["max_len"])
        if key in seen:
            warm.append(s.seconds)
        else:
            seen.add(key)
            cold[key[0]] = cold.get(key[0], 0.0) + s.seconds
            classes += s.attrs["classes"]
    out["whitehead.enumerate_cold_s.r2"] = cold[2]
    out["whitehead.enumerate_cold_s.r3"] = cold[3]
    out["whitehead.enumerate_warm_s"] = statistics.fmean(warm) if warm else 0.0
    out["whitehead.classes"] = classes
    out["whitehead.minimize_s"] = tracer.total("whitehead.minimize")
    out["whitehead.minimize_moves"] = sum(
        s.attrs.get("moves", 0) for s in tracer.named("whitehead.minimize"))
    out["whitehead.graph_s"] = tracer.total("whitehead.graph")
    out["whitehead.connectivity_s"] = tracer.total("whitehead.connectivity")
    out["whitehead.blocking_certified"] = sum(
        1 for s in tracer.named("whitehead.blocking") if s.attrs.get("certified"))

    evaluate_s = tracer.total("moebius.evaluate")
    letters = sum(s.attrs.get("letters", 0) for s in tracer.named("moebius.evaluate"))
    out["moebius.evaluate_s"] = evaluate_s
    out["moebius.letters"] = letters
    out["moebius.evaluate_us_per_letter"] = _ratio(evaluate_s * 1e6, letters)
    out["moebius.classify_s"] = tracer.total("moebius.classify")
    out["moebius.translation_length_s"] = tracer.total("moebius.translation_length")
    out["moebius.rep_load_s"] = tracer.total("moebius.rep_load")

    scans = tracer.named("stability.ps_scan")
    scan_s = sum(s.seconds for s in scans)
    out["stability.ps_scan_s.r2"] = sum(s.seconds for s in scans if s.attrs.get("rank") == 2)
    out["stability.ps_scan_s.r3"] = sum(s.seconds for s in scans if s.attrs.get("rank") == 3)
    in_scan = sum(s.seconds for s in enumerations
                  if s.parent is not None and s.parent.name == "stability.ps_scan")
    out["stability.enumerate_share"] = _ratio(in_scan, scan_s)
    out["stability.probe_s"] = tracer.total("stability.probe")
    for verdict in PS_VERDICTS:
        out["stability.verdicts." + verdict] = sum(
            1 for s in scans if s.attrs.get("verdict") == verdict)

    out["words.parse_s"] = tracer.total("words.parse")
    out["words.cyclic_reduce_s"] = tracer.total("words.cyclic_reduce")

    out.update(extras)
    return out


def row_times(tracer: Tracer, width: int) -> list[float]:
    """Serial pixel_verdict time per image row; the request id is the pixel index."""
    rows: dict[int, float] = {}
    for s in tracer.named("render.pixel_verdict"):
        rows[s.request // width] = rows.get(s.request // width, 0.0) + s.seconds
    return [rows[k] for k in sorted(rows)]
