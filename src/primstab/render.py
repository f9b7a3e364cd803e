"""Deterministic raster of BQ verdicts over a rectangle in a trace slice.

Each pixel fixes the trace of ab from its position in the window, solves the
level-set quadratic for the trace of b at the configured kappa and fixed
trace of a, takes the root of smaller modulus (the plus root on a tie), runs
the BQ search, and colors by verdict:

    BQ_CERTIFIED   gray (v, v, v) with v = 255 - min(191, nodes // 32)
    NOT_BQ_WITNESS red (min(255, 64 + 16 * witnesses), 0, 0)
    INCONCLUSIVE   dark blue (0, 0, 96)

Output is binary PPM (P6), top row first.  Pixels are independent and each
row is written at its own offset of one buffer, so the byte stream does not
depend on how many forked worker processes computed it, nor on the CPUs
they ran on.  Workers are capped by the CPUs this process may use, and each
child is placed on its own one of them: left to the scheduler, both
children of a two-worker render could share the caller's CPU and take as
long as a serial render.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys

from .errors import ParseError
from .markoff import BqKind, BqVerdict, MarkoffTriple, bq_decide, solve_y_from_fricke
from .traces import _check_keys, _complex_from_json, _complex_to_json, _number
from .words import _check_count, _Frozen


class SliceConfig(_Frozen):
    """Parameters of one rendered slice.

    ``window`` is the (lower-left, upper-right) corner pair of the rectangle
    of ab-traces.  Each pixel draws the root of the level-set quadratic of
    smaller modulus, the plus root on a tie.  The roots y and xz - y are
    related by the Markoff move Y, the same character up to Out(F2), so the
    other root would change node counts, not BQ.
    """

    __slots__ = ("kappa", "fixed_x", "window", "width", "height", "budget", "small_trace_bound")

    def __init__(
        self,
        kappa: complex,
        fixed_x: complex,
        window: tuple[complex, complex],
        width: int,
        height: int,
        budget: int = 20000,
        small_trace_bound: int = 64,
    ):
        kappa, fixed_x = _number("kappa", kappa), _number("fixed_x", fixed_x)
        lo, hi = (_number("window corner", corner) for corner in window)
        _number("window extent", hi - lo)  # may overflow though both corners are finite
        for name, value, low in (("width", width, 1), ("height", height, 1), ("budget", budget, 0),
                                 ("small_trace_bound", small_trace_bound, 0)):
            _check_count(name, value, low)
        for name, value in zip(self.__slots__, (kappa, fixed_x, (lo, hi), width, height,
                                                budget, small_trace_bound)):
            object.__setattr__(self, name, value)


def pixel_trace(cfg: SliceConfig, i: int, j: int) -> complex:
    """The ab-trace at the center of pixel (column i, row j); row 0 is the top."""
    lo, hi = cfg.window
    re = lo.real + (i + 0.5) * (hi.real - lo.real) / cfg.width
    im = hi.imag - (j + 0.5) * (hi.imag - lo.imag) / cfg.height
    return complex(re, im)


def pixel_verdict(cfg: SliceConfig, z: complex) -> BqVerdict:
    plus, minus = solve_y_from_fricke(cfg.fixed_x, z, cfg.kappa)
    y = plus if abs(plus) <= abs(minus) else minus
    return bq_decide(MarkoffTriple(cfg.fixed_x, y, z), cfg.budget, cfg.small_trace_bound)


def palette_color(verdict: BqVerdict) -> tuple[int, int, int]:
    if verdict.kind == BqKind.BQ_CERTIFIED:
        v = 255 - min(191, verdict.nodes_explored // 32)
        return (v, v, v)
    if verdict.kind == BqKind.NOT_BQ_WITNESS:
        return (min(255, 64 + 16 * len(verdict.witnesses)), 0, 0)
    return (0, 0, 96)


def _draw(cfg: SliceConfig, rows: range, buf: mmap.mmap) -> None:
    """Write each row j of ``rows`` at byte ``3 * width * j`` of ``buf``."""
    size = 3 * cfg.width
    for j in rows:
        row = bytearray()
        for i in range(cfg.width):
            row.extend(palette_color(pixel_verdict(cfg, pixel_trace(cfg, i, j))))
        buf[size * j:size * (j + 1)] = row


def _cpus() -> list[int]:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _forked_draw(cfg: SliceConfig, cpus: list[int], buf: mmap.mmap) -> None:
    """Draw the slice into the shared mapping ``buf`` on one forked child per CPU.

    Child k of n = len(cpus) asks to run on ``cpus[k]`` alone, draws the
    rows j with j % n == k and exits 0 only once all of them are in
    ``buf``; any exception, an interrupt included, ends it with status 1
    and never unwinds into the caller's frames, which belong to the
    parent.  The parent only reaps each child and draws the
    rows of a child that did not exit 0 itself, so a pixel that raises
    raises its own exception in the caller.  No child outlives the call.
    """
    children = []  # (pid, its rows), until reaped
    try:
        for k, cpu in enumerate(cpus):
            share = range(k, cfg.height, len(cpus))
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except (AttributeError, OSError):
                        pass  # placement is best effort: draw wherever it runs
                    _draw(cfg, share, buf)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, share))
        while children:
            pid, share = children[0]
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                _draw(cfg, share, buf)
    finally:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def render_slice(cfg: SliceConfig, threads: int | None = 1) -> bytes:
    """Render the slice to PPM bytes; identical output for any thread count.

    ``threads=None`` means one worker per CPU this process may run on (its
    affinity set, else ``os.cpu_count``), which also caps any larger count,
    and there is at most one worker per row.  A count that is not an
    integer, or is below 1, is a ValueError.  Every row is drawn into one
    shared anonymous mapping at its own offset.  Two or more workers are
    forked children, child k placed on the k-th of those CPUs, that draw
    interleaved rows (``_forked_draw``) while this process only waits for
    them; with one worker, or where there is no ``os.fork``, this process
    draws every row.
    """
    if threads is not None:
        _check_count("threads", threads, 1)
    cpus = _cpus()
    workers = min(len(cpus) if threads is None else threads, len(cpus), cfg.height)
    header = b"P6\n%d %d\n255\n" % (cfg.width, cfg.height)
    with mmap.mmap(-1, 3 * cfg.width * cfg.height) as buf:
        if workers > 1 and hasattr(os, "fork"):
            _forked_draw(cfg, cpus[:workers], buf)
        else:
            _draw(cfg, range(cfg.height), buf)
        return header + buf[:]


def slice_config_to_json(cfg: SliceConfig) -> dict:
    return {
        "kappa": _complex_to_json(cfg.kappa),
        "fixed_x": _complex_to_json(cfg.fixed_x),
        "window": [_complex_to_json(cfg.window[0]), _complex_to_json(cfg.window[1])],
        "width": cfg.width,
        "height": cfg.height,
        "budget": cfg.budget,
        "small_trace_bound": cfg.small_trace_bound,
    }


def slice_config_from_json(obj) -> SliceConfig:
    """Read a slice config; a missing required field or an unknown key is a ParseError,
    and so is a raster of more bytes (3 per pixel) than a buffer can hold.  The
    optional ``root`` key names the one root rule, ``"smaller"``; any other
    value is a ParseError."""
    _check_keys(obj, "slice config", ("kappa", "fixed_x", "window", "width", "height"),
                ("root", "budget", "small_trace_bound"))
    window = obj["window"]
    if not isinstance(window, list) or len(window) != 2:
        raise ParseError("'window' must be a pair of [re, im] corners")
    fields = {key: obj[key] for key in ("width", "height", "budget", "small_trace_bound")
              if key in obj}
    if obj.get("root", "smaller") != "smaller":
        raise ParseError("'root' must be \"smaller\", the root of smaller modulus, got %r"
                         % (obj["root"],))
    try:
        cfg = SliceConfig(
            kappa=_complex_from_json(obj["kappa"]),
            fixed_x=_complex_from_json(obj["fixed_x"]),
            window=(_complex_from_json(window[0]), _complex_from_json(window[1])),
            **fields,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if 3 * cfg.width * cfg.height > sys.maxsize:
        raise ParseError("a %d x %d raster passes the largest buffer, %d bytes"
                         % (cfg.width, cfg.height, sys.maxsize))
    return cfg
