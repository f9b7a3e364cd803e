"""Command-line front end: batch subcommands with JSON output.

Exit codes: 0 on success, 1 on a domain error (a machine-readable error
object goes to stderr), 2 on a usage error (bad flags, or a document that is
not UTF-8 or not JSON).

The command line is read from one table, ``COMMANDS``, by ``parse_args``:
a subcommand, at most one positional WORD, and flags whose value is the next
argument or follows ``=``; ``-h``/``--help`` prints help generated from the
table.  No argparse: a one-shot call would spend more time importing it and
building its parsers than the smaller subcommands take.

Each handler imports what it calls, so a subcommand loads only the modules
it runs: ``word`` loads ``words`` alone, not the matrix or BQ layers.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

from .errors import NonFiniteValue, PrimstabError

# The converters of the flag values.  A TypeError or ValueError from one
# (NonFiniteValue included) is a usage error.


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number, got %r" % (text,))
    return value


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise ValueError("expected an integer >= %d, got %r" % (low, text))
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
        raise ValueError("expected a rank of at most 26, got %r" % (text,))
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
    from .moebius import _kinds_and_lengths, fricke_traces
    from .traces import _complex_to_json

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


REQUIRED = object()  # the default of a flag that must be given
_WORD = "ASCII word, a..z generators and A..Z inverses"
_RANK = ("--rank", _rank, None, "rank of the free group (default: largest letter used)")
_REP = ("--rep", str, REQUIRED, "representation JSON file")
_MAX_LEN = ("--max-len", _nonnegative_int, REQUIRED, "largest cyclic length of a class")

# subcommand -> (handler, help line, help of the positional WORD or None,
# flags); a flag is (name, converter, default or REQUIRED, help)
COMMANDS = {
    "word": (_cmd_word, "reduced and cyclically reduced forms of a word", _WORD, (_RANK,)),
    "primitive": (_cmd_primitive, "decide whether a word is primitive", _WORD, (_RANK,)),
    "blocking": (_cmd_blocking, "certificate that a word blocks primitive words", _WORD,
                 (_RANK,)),
    "enumerate": (_cmd_enumerate, "list primitive conjugacy classes up to a length", None, (
        ("--rank", _rank, REQUIRED, "rank of the free group, 1 to 26"),
        _MAX_LEN)),
    "rep-info": (_cmd_rep_info, "classify the generator images of a representation", None,
                 (_REP,)),
    "ps-scan": (_cmd_ps_scan, "primitive spectrum scan of a representation", None,
                (_REP, _MAX_LEN)),
    "probe": (_cmd_probe, "orbit displacement growth of one word", None, (
        _REP,
        ("--word", str, REQUIRED, _WORD),
        ("--periods", _at_least_two, REQUIRED, "largest power of the word, at least 2"),
        ("--basepoint", _parse_basepoint, None,
         "re,im,t upper-half-space basepoint (default 0,0,1)"))),
    "bq-decide": (_cmd_bq_decide, "run the BQ search on a trace triple", None, (
        ("--x", _parse_complex, REQUIRED, "trace of a (re or re,im)"),
        ("--y", _parse_complex, REQUIRED, "trace of b"),
        ("--z", _parse_complex, REQUIRED, "trace of ab"),
        ("--budget", _nonnegative_int, REQUIRED, "most nodes the search visits"),
        ("--small-trace-bound", _nonnegative_int, 64,
         "most slopes of trace modulus at most 2 before NOT_BQ_WITNESS (default 64)"))),
    "render": (_cmd_render, "render a slice to a PPM image", None, (
        ("--config", str, REQUIRED, "slice config JSON file"),
        ("--out", str, REQUIRED, "output PPM path"),
        ("--threads", _positive_int, None,
         "worker count, at most the usable CPUs (default: one per usable CPU)"))),
}

HELP = ("-h", "--help")


class _Exit(Exception):
    """``_Exit(code, text)`` stops parsing: code 0 with help text for stdout,
    or code 2 with usage text for stderr."""


def _dest(flag: str) -> str:
    """The attribute that holds a flag's value: ``--max-len`` -> ``max_len``."""
    return flag[2:].replace("-", "_")


def _usage(name=None) -> str:
    if name is None:
        return "primstab {%s} ..." % ",".join(COMMANDS)
    _, _, word, flags = COMMANDS[name]
    parts = ["primstab", name] + (["WORD"] if word else [])
    for flag, _, default, _ in flags:
        part = "%s %s" % (flag, _dest(flag).upper())
        parts.append(part if default is REQUIRED else "[%s]" % part)
    return " ".join(parts)


def _help(name=None) -> str:
    if name is None:
        lines = ["usage: " + _usage(), "",
                 "Free-group words, trace spectra, and BQ slice pictures.", "", "subcommands:"]
        for sub, (_, text, _, _) in COMMANDS.items():
            lines += ["  " + _usage(sub), "      " + text]
        lines += ["",
                  "A flag's value is the next argument (--rank 2) or follows '=' (--rank=2),",
                  "even where it begins with '-'; of a repeated flag the last value counts.",
                  "Flags are spelt out in full.  primstab SUBCOMMAND --help describes them."]
    else:
        _, text, word, flags = COMMANDS[name]
        rows = ([("WORD", word)] if word else []) + [
            ("%s %s" % (flag, _dest(flag).upper()), flag_help) for flag, _, _, flag_help in flags]
        rows.append(("-h, --help", "show this help and exit"))
        width = max(len(left) for left, _ in rows)
        lines = ["usage: " + _usage(name), "", text, ""]
        lines += ["  %s  %s" % (left.ljust(width), right) for left, right in rows]
    return "\n".join(lines) + "\n"


def _usage_error(name, message: str) -> _Exit:
    prog = "primstab" if name is None else "primstab " + name
    return _Exit(2, "usage: %s\n%s: error: %s\n" % (_usage(name), prog, message))


def parse_args(argv):
    """The namespace of one command line: ``func`` is the subcommand's
    handler, and each flag of it (a default where not given) and the
    positional WORD are attributes.  Raises ``_Exit`` for ``-h``/``--help``
    and at the first usage error."""
    argv = list(argv)
    if not argv:
        raise _usage_error(None, "a subcommand is required")
    name = argv[0]
    if name in HELP:
        raise _Exit(0, _help())
    if name not in COMMANDS:
        raise _usage_error(None, "unknown subcommand %r" % (name,))
    func, _, word, flags = COMMANDS[name]
    spec = {flag[0]: flag for flag in flags}
    values, words = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in HELP:
            raise _Exit(0, _help(name))
        if not arg.startswith("-"):
            words.append(arg)
            continue
        flag, equals, text = arg.partition("=")
        if flag not in spec:
            raise _usage_error(name, "unknown flag %s" % (flag,))
        if not equals:
            text = next(rest, None)
            if text is None:
                raise _usage_error(name, "flag %s needs a value" % (flag,))
        try:
            values[flag] = spec[flag][1](text)
        except (TypeError, ValueError) as exc:
            raise _usage_error(name, "argument %s: %s" % (flag, exc)) from None
    if len(words) > (word is not None):
        raise _usage_error(name, "unexpected argument %r" % (words[-1],))
    missing = (["WORD"] if word is not None and not words else []) + [
        flag for flag, _, default, _ in flags if default is REQUIRED and flag not in values]
    if missing:
        raise _usage_error(name, "missing %s" % (", ".join(missing),))
    args = SimpleNamespace(func=func, **{
        _dest(flag): values.get(flag, default) for flag, _, default, _ in flags})
    if word is not None:
        args.word = words[0]
    return args


def _fail(error: str, exc: Exception, code: int) -> int:
    """Write the error object for ``exc`` to stderr and return the exit code."""
    sys.stderr.write(json.dumps({"error": error, "message": str(exc)}) + "\n")
    return code


def run(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _Exit as stop:
        code, text = stop.args
        (sys.stdout if code == 0 else sys.stderr).write(text)
        return code
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
