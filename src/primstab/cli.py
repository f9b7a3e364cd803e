"""Command-line front end: batch subcommands with JSON output.

Exit codes: 0 on success, 1 on a domain error (a machine-readable error
object goes to stderr), 2 on a usage error (bad flags, or a document that is
not UTF-8 or not JSON).

Each handler imports what it calls, so a subcommand loads only the modules
it runs: ``word`` loads ``words`` alone, not the matrix or BQ layers.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import NonFiniteValue, PrimstabError


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % (text,))
    return value


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (low, text))
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _at_least_two(text: str) -> int:
    return _int_at_least(text, 2)


def _rank(text: str) -> int:
    """A rank the ASCII word format can spell: generators a..z, so 1..26."""
    value = _int_at_least(text, 1)
    if value > 26:
        raise argparse.ArgumentTypeError("expected a rank of at most 26, got %r" % (text,))
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_finite(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_finite(parts[0]), _finite(parts[1]))
    raise ValueError("expected re or re,im, got %r" % (text,))


def _parse_basepoint(text: str):
    from .moebius import UhsPoint

    parts = [_finite(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected re,im,t, got %r" % (text,))
    return UhsPoint(complex(parts[0], parts[1]), parts[2])


def load_representation(path: str):
    """Load and validate a representation JSON file."""
    from .moebius import representation_from_json

    with open(path, "r", encoding="utf-8") as handle:
        return representation_from_json(json.load(handle))


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteValue("the result holds a non-finite number: %s" % (exc,)) from exc
    sys.stdout.write(text + "\n")


def _cmd_word(args) -> int:
    from .words import cyclic_reduce, parse_word

    w = parse_word(args.word, args.rank)
    cyc, conj = cyclic_reduce(w)
    _emit({
        "word": args.word,
        "rank": w.rank,
        "reduced": str(w),
        "length": len(w),
        "cyclic": str(cyc),
        "cyclic_length": len(cyc),
        "conjugator": str(conj),
    })
    return 0


def _cmd_primitive(args) -> int:
    from .whitehead import is_primitive
    from .words import parse_word

    w = parse_word(args.word, args.rank)
    _emit({"word": args.word, "primitive": is_primitive(w)})
    return 0


def _cmd_blocking(args) -> int:
    from .whitehead import blocking_certificate
    from .words import parse_word

    w = parse_word(args.word, args.rank)
    cert = blocking_certificate(w)
    _emit({"word": args.word, "certified": cert.certified, "reason": cert.reason})
    return 0


def _cmd_enumerate(args) -> int:
    from .whitehead import enumerate_primitive_classes

    classes = enumerate_primitive_classes(args.rank, args.max_len)
    _emit({
        "rank": args.rank,
        "max_len": args.max_len,
        "count": len(classes),
        "classes": [str(c) for c in classes],
    })
    return 0


def _cmd_rep_info(args) -> int:
    from .moebius import _complex_to_json, _kinds_and_lengths, fricke_traces

    rep = load_representation(args.rep)
    kinds, lengths = _kinds_and_lengths([(m.a, m.b, m.c, m.d) for m in rep.images])
    generators = [
        {"trace": _complex_to_json(m.trace()), "class": kind.value, "translation_length": trans_len}
        for m, kind, trans_len in zip(rep.images, kinds, lengths)
    ]
    info = {"rank": rep.rank, "generators": generators}
    if rep.rank == 2:
        x, y, z, kappa = fricke_traces(rep)
        info["fricke"] = {
            "x": _complex_to_json(x),
            "y": _complex_to_json(y),
            "z": _complex_to_json(z),
            "kappa": _complex_to_json(kappa),
        }
    _emit(info)
    return 0


def _cmd_ps_scan(args) -> int:
    from .stability import ps_report_to_json, ps_scan

    rep = load_representation(args.rep)
    report = ps_scan(rep, args.max_len)
    _emit(ps_report_to_json(report, rep.rank))
    return 0


def _cmd_probe(args) -> int:
    from .moebius import orbit_growth_probe
    from .words import parse_word

    rep = load_representation(args.rep)
    w = parse_word(args.word, rep.rank)
    slope, residuals = orbit_growth_probe(rep, w, args.periods, args.basepoint)
    _emit({
        "word": args.word,
        "periods": args.periods,
        "slope": slope,
        "residuals": residuals,
    })
    return 0


def _cmd_bq_decide(args) -> int:
    from .markoff import MarkoffTriple, bq_decide, bq_verdict_to_json
    from .traces import _complex_to_json

    triple = MarkoffTriple(args.x, args.y, args.z)
    kappa = triple.kappa  # NonFiniteValue past the float range, before any search
    out = bq_verdict_to_json(bq_decide(triple, args.budget, args.small_trace_bound))
    out["kappa"] = _complex_to_json(kappa)
    _emit(out)
    return 0


def _cmd_render(args) -> int:
    from .render import render_slice, slice_config_from_json

    with open(args.config, "r", encoding="utf-8") as handle:
        cfg = slice_config_from_json(json.load(handle))
    data = render_slice(cfg, args.threads)
    with open(args.out, "wb") as handle:
        handle.write(data)
    _emit({"out": args.out, "width": cfg.width, "height": cfg.height, "bytes": len(data)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primstab",
        description="Free-group words, trace spectra, and BQ slice pictures.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_word_flags(p):
        p.add_argument("word", help="ASCII word, a..z generators and A..Z inverses")
        p.add_argument("--rank", type=_rank, default=None,
                       help="rank of the free group (default: largest letter used)")

    p = sub.add_parser("word", help="reduced and cyclically reduced forms of a word")
    add_word_flags(p)
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("primitive", help="decide whether a word is primitive")
    add_word_flags(p)
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("blocking", help="certificate that a word blocks primitive words")
    add_word_flags(p)
    p.set_defaults(func=_cmd_blocking)

    p = sub.add_parser("enumerate", help="list primitive conjugacy classes up to a length")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--max-len", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("rep-info", help="classify the generator images of a representation")
    p.add_argument("--rep", required=True, help="representation JSON file")
    p.set_defaults(func=_cmd_rep_info)

    p = sub.add_parser("ps-scan", help="primitive spectrum scan of a representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--max-len", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_ps_scan)

    p = sub.add_parser("probe", help="orbit displacement growth of one word")
    p.add_argument("--rep", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--periods", type=_at_least_two, required=True)
    p.add_argument("--basepoint", type=_parse_basepoint, default=None,
                   help="re,im,t upper-half-space basepoint (default 0,0,1)")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bq-decide", help="run the BQ search on a trace triple")
    p.add_argument("--x", type=_parse_complex, required=True, help="trace of a (re or re,im)")
    p.add_argument("--y", type=_parse_complex, required=True, help="trace of b")
    p.add_argument("--z", type=_parse_complex, required=True, help="trace of ab")
    p.add_argument("--budget", type=_nonnegative_int, required=True)
    p.add_argument("--small-trace-bound", type=_nonnegative_int, default=64)
    p.set_defaults(func=_cmd_bq_decide)

    p = sub.add_parser("render", help="render a slice to a PPM image")
    p.add_argument("--config", required=True, help="slice config JSON file")
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="worker count, at most the usable CPUs (default: one per usable CPU)")
    p.set_defaults(func=_cmd_render)

    # read -1e5 or -1,2 as a value, not an option: no option here starts with a digit
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _fail(error: str, exc: Exception, code: int) -> int:
    """Write the error object for ``exc`` to stderr and return the exit code."""
    sys.stderr.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
    return code


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _fail(type(exc).__name__, exc, 2)
    except PrimstabError as exc:
        return _fail(type(exc).__name__, exc, 1)
    except OSError as exc:
        return _fail("OSError", exc, 1)


def main() -> None:
    sys.exit(run())
