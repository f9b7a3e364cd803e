"""Deterministic raster of BQ verdicts over a rectangle in a trace slice.

Each pixel fixes the trace of ab from its position in the window, solves the
level-set quadratic for the trace of b at the configured kappa and fixed
trace of a, runs the BQ search, and colors by verdict:

    BQ_CERTIFIED   gray (v, v, v) with v = 255 - min(191, nodes // 32)
    NOT_BQ_WITNESS red (min(255, 64 + 16 * witnesses), 0, 0)
    INCONCLUSIVE   dark blue (0, 0, 96)

Output is binary PPM (P6), top row first.  Pixels are independent and rows
are assembled by index, so the byte stream does not depend on how many
forked worker processes computed it.
"""

from __future__ import annotations

import cmath
import os
import signal
from enum import Enum
from typing import NoReturn

from .errors import NonFiniteValue, ParseError
from .markoff import BqKind, BqVerdict, MarkoffTriple, bq_decide, solve_y_from_fricke
from .traces import _complex_from_json, _complex_to_json
from .words import _Frozen


class RootChoice(str, Enum):
    SMALLER_ABS = "SMALLER_ABS"
    LARGER_ABS = "LARGER_ABS"


class SliceConfig(_Frozen):
    """Parameters of one rendered slice.

    ``window`` is the (lower-left, upper-right) corner pair of the rectangle
    of ab-traces.  ``root_choice`` picks which root of the level-set
    quadratic is drawn; the two roots are different characters on the same
    level set, so the choice is part of the picture's definition.
    """

    __slots__ = ("kappa", "fixed_x", "window", "width", "height", "root_choice", "budget",
                 "small_trace_bound")

    def __init__(
        self,
        kappa: complex,
        fixed_x: complex,
        window: tuple[complex, complex],
        width: int,
        height: int,
        root_choice: RootChoice = RootChoice.SMALLER_ABS,
        budget: int = 20000,
        small_trace_bound: int = 64,
    ):
        kappa, fixed_x = complex(kappa), complex(fixed_x)
        lo, hi = (complex(corner) for corner in window)
        root_choice = RootChoice(root_choice)
        # the extent hi - lo can overflow although both corners are finite
        for name, value in (("kappa", kappa), ("fixed_x", fixed_x),
                            ("window corner", lo), ("window corner", hi),
                            ("window extent", hi - lo)):
            if not cmath.isfinite(value):
                raise NonFiniteValue("%s = %r is not finite" % (name, value))
        for name, value in (("width", width), ("height", height), ("budget", budget),
                            ("small_trace_bound", small_trace_bound)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("%r must be an integer, got %r" % (name, value))
        if width < 1 or height < 1:
            raise ValueError("image must be at least 1x1")
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        if small_trace_bound < 0:
            raise ValueError("small_trace_bound must be nonnegative")
        for name, value in zip(self.__slots__, (kappa, fixed_x, (lo, hi), width, height,
                                                root_choice, budget, small_trace_bound)):
            object.__setattr__(self, name, value)


def pixel_trace(cfg: SliceConfig, i: int, j: int) -> complex:
    """The ab-trace at the center of pixel (column i, row j); row 0 is the top."""
    lo, hi = cfg.window
    re = lo.real + (i + 0.5) * (hi.real - lo.real) / cfg.width
    im = hi.imag - (j + 0.5) * (hi.imag - lo.imag) / cfg.height
    return complex(re, im)


def pixel_verdict(cfg: SliceConfig, z: complex) -> BqVerdict:
    plus, minus = solve_y_from_fricke(cfg.fixed_x, z, cfg.kappa)
    if cfg.root_choice == RootChoice.SMALLER_ABS:
        y = plus if abs(plus) <= abs(minus) else minus
    else:
        y = plus if abs(plus) >= abs(minus) else minus
    triple = MarkoffTriple(cfg.fixed_x, y, z, cfg.kappa)
    return bq_decide(triple, cfg.budget, cfg.small_trace_bound)


def palette_color(verdict: BqVerdict) -> tuple[int, int, int]:
    if verdict.kind == BqKind.BQ_CERTIFIED:
        v = 255 - min(191, verdict.nodes_explored // 32)
        return (v, v, v)
    if verdict.kind == BqKind.NOT_BQ_WITNESS:
        return (min(255, 64 + 16 * len(verdict.witnesses)), 0, 0)
    return (0, 0, 96)


def _render_row(cfg: SliceConfig, j: int) -> bytes:
    row = bytearray()
    for i in range(cfg.width):
        row.extend(palette_color(pixel_verdict(cfg, pixel_trace(cfg, i, j))))
    return bytes(row)


def _draw_and_exit(cfg: SliceConfig, share: range, fd: int) -> NoReturn:
    """In a forked child: write the rows of ``share``, concatenated, to fd and exit.

    Any exception, an interrupt included, ends the child with status 1 and
    never unwinds into the caller's frames, which belong to the parent.
    """
    status = 1
    try:
        data = b"".join(_render_row(cfg, j) for j in share)
        with os.fdopen(fd, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _forked_rows(cfg: SliceConfig, workers: int) -> list[bytes]:
    """The rows of the slice, drawn by ``workers`` forked children.

    Child k draws the rows j with j % workers == k and sends them down its
    own pipe; the parent only reads each pipe to EOF, reaps each child and
    places the rows by index.  The rows of a child that exits non-zero or
    sends short data are drawn again here, so a pixel that raises raises
    its own exception in the caller.  No child outlives the call.
    """
    children = []  # (pid, read end of its pipe, its rows), until reaped
    rows = [b""] * cfg.height
    failed = []
    try:
        for k in range(workers):
            share = range(k, cfg.height, workers)
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _draw_and_exit(cfg, share, write_end)
            os.close(write_end)
            children.append((pid, read_end, share))
        size = 3 * cfg.width
        while children:
            pid, read_end, share = children[0]
            data = _read_to_eof(read_end)
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read_end)
            if status != 0 or len(data) != size * len(share):
                failed.append(share)
                continue
            for n, j in enumerate(share):
                rows[j] = data[n * size:(n + 1) * size]
    finally:
        for pid, read_end, _ in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for share in failed:
        for j in share:
            rows[j] = _render_row(cfg, j)
    return rows


def render_slice(cfg: SliceConfig, threads: int | None = 1) -> bytes:
    """Render the slice to PPM bytes; identical output for any thread count.

    ``threads=None`` means one worker per CPU (``os.cpu_count``), which also
    caps any larger count, and there is at most one worker per row.  A
    count below 1 is a ValueError.  Two or more workers are forked children
    that draw interleaved rows (``_forked_rows``) while this process only
    collects them; with one worker, or where there is no ``os.fork``, this
    process draws every row.
    """
    if threads is not None and threads < 1:
        raise ValueError("threads must be at least 1")
    cpus = os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, cpus, cfg.height)
    header = b"P6\n%d %d\n255\n" % (cfg.width, cfg.height)
    if workers > 1 and hasattr(os, "fork"):
        rows = _forked_rows(cfg, workers)
    else:
        rows = [_render_row(cfg, j) for j in range(cfg.height)]
    return header + b"".join(rows)


def slice_config_to_json(cfg: SliceConfig) -> dict:
    return {
        "kappa": _complex_to_json(cfg.kappa),
        "fixed_x": _complex_to_json(cfg.fixed_x),
        "window": [_complex_to_json(cfg.window[0]), _complex_to_json(cfg.window[1])],
        "width": cfg.width,
        "height": cfg.height,
        "root": "smaller" if cfg.root_choice == RootChoice.SMALLER_ABS else "larger",
        "budget": cfg.budget,
        "small_trace_bound": cfg.small_trace_bound,
    }


_CONFIG_KEYS = ("kappa", "fixed_x", "window", "width", "height", "root", "budget",
                "small_trace_bound")


def slice_config_from_json(obj) -> SliceConfig:
    """Read a slice config; a missing required field or an unknown key is a ParseError."""
    if not isinstance(obj, dict):
        raise ParseError("slice config must be an object, got %r" % (type(obj).__name__,))
    unknown = [key for key in obj if key not in _CONFIG_KEYS]
    if unknown:
        raise ParseError("slice config has unknown keys %r" % (unknown,))
    for key in ("kappa", "fixed_x", "window", "width", "height"):
        if key not in obj:
            raise ParseError("slice config is missing the %r field" % (key,))
    window = obj["window"]
    if not isinstance(window, list) or len(window) != 2:
        raise ParseError("'window' must be a pair of [re, im] corners")
    fields = {key: obj[key] for key in ("width", "height", "budget", "small_trace_bound")
              if key in obj}
    if "root" in obj:
        root = obj["root"]
        if root not in ("smaller", "larger"):
            raise ParseError("'root' must be \"smaller\" or \"larger\", got %r" % (root,))
        fields["root_choice"] = RootChoice.SMALLER_ABS if root == "smaller" else RootChoice.LARGER_ABS
    try:
        return SliceConfig(
            kappa=_complex_from_json(obj["kappa"]),
            fixed_x=_complex_from_json(obj["fixed_x"]),
            window=(_complex_from_json(window[0]), _complex_from_json(window[1])),
            **fields,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
