"""Finite evidence scans for primitive stability.

The scans tabulate translation length over cyclic length for every primitive
conjugacy class up to a length bound.  A non-loxodromic primitive image is a
genuine obstruction; the absence of one is evidence only, since the true
condition quantifies over all primitive classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadSubset,
    CheckFailed,
    InvalidLetter,
    ParseError,
    RankMismatch,
    WordParseError,
)
from .moebius import (
    IsometryClass,
    MoebiusMap,
    Representation,
    UhsPoint,
    _displacement,
    _kind_and_length,
    _letter_table,
    _orbit_distance,
    _walk,
    evaluate,
)
from .whitehead import WhiteheadAutomorphism, _shared_prefixes, enumerate_primitive_classes
from .words import CyclicWord, Word, parse_word

NO_OBSTRUCTION = "NO_OBSTRUCTION"
FAILURE = "FAILURE"


@dataclass(frozen=True)
class SpectrumEntry:
    cls: CyclicWord
    length: int
    trans_len: float
    ratio: float
    kind: IsometryClass


@dataclass(frozen=True)
class PsReport:
    max_len: int
    entries: tuple[SpectrumEntry, ...]
    min_ratio: float
    max_ratio: float
    failures: tuple[CyclicWord, ...]
    verdict: str


def primitive_length_spectrum(rep: Representation, max_len: int) -> tuple[SpectrumEntry, ...]:
    """One entry per primitive class with cyclic length at most max_len.

    The classes are evaluated along their shared prefixes (``moebius._walk``),
    which gives the matrices of ``evaluate`` to the bit, and each class is
    classified on its raw entries, with no ``MoebiusMap`` built for it.
    """
    classes = enumerate_primitive_classes(rep.rank, max_len)
    products = _walk(_letter_table(rep), (cls.letters for cls in classes),
                     _shared_prefixes(rep.rank, max_len))
    entries = []
    for cls, (a, b, c, d) in zip(classes, products):
        kind, trans_len = _kind_and_length(a, b, c, d)
        n = len(cls)
        entries.append(SpectrumEntry(cls, n, trans_len, trans_len / n, kind))
    return tuple(entries)


def ps_scan(rep: Representation, max_len: int) -> PsReport:
    """Scan the primitive spectrum for obstructions to primitive stability.

    FAILURE lists every primitive class whose image is not loxodromic; such a
    class rules the representation out.  NO_OBSTRUCTION reports the observed
    ratio range and is evidence at this max_len, not a certificate.
    """
    entries = primitive_length_spectrum(rep, max_len)
    failures = tuple(e.cls for e in entries if e.kind != IsometryClass.LOXODROMIC)
    ratios = [e.ratio for e in entries]
    min_ratio = min(ratios) if ratios else 0.0
    max_ratio = max(ratios) if ratios else 0.0
    displacement = max(_displacement(g) for g in rep.images)
    if max_ratio > displacement + 1e-6:
        raise CheckFailed(
            "ratio %r exceeds the basepoint displacement bound %r" % (max_ratio, displacement)
        )
    verdict = FAILURE if failures else NO_OBSTRUCTION
    return PsReport(max_len, entries, min_ratio, max_ratio, failures, verdict)


def restrict(rep: Representation, subset) -> Representation:
    """Restriction to the free factor spanned by the 1-based generator indices."""
    indices = list(subset)
    if not indices:
        raise BadSubset("subset must be nonempty")
    if len(set(indices)) != len(indices):
        raise BadSubset("subset %r has repeated indices" % (indices,))
    if any(not 1 <= i <= rep.rank for i in indices):
        raise BadSubset("subset %r is out of range for rank %d" % (indices, rep.rank))
    if len(indices) >= rep.rank:
        raise BadSubset("subset must be a proper subset of the generators")
    return Representation(len(indices), tuple(rep.images[i - 1] for i in indices))


def precompose(rep: Representation, phi: WhiteheadAutomorphism) -> Representation:
    """The representation with generator images evaluated on phi's images."""
    if rep.rank != phi.rank:
        raise RankMismatch("representation rank %d vs automorphism rank %d" % (rep.rank, phi.rank))
    return Representation(rep.rank, tuple(evaluate(rep, img) for img in phi.images))


def orbit_growth_probe(
    rep: Representation,
    w: Word | CyclicWord,
    periods: int,
    basepoint: UhsPoint | None = None,
) -> tuple[float, list[float]]:
    """Displacement growth of a periodic orbit under powers of a word.

    Computes d(p0, w^m p0) for m = 0..periods and fits distance = slope * m
    by least squares through the origin.  For loxodromic images the slope
    approaches the translation length; sublinear growth flags parabolics.
    Raises DegenerateAction where the image of p0 under a power has a
    coordinate past the float range, and DegenerateMatrix where the entries
    of a power are not finite.  An image height that underflows to 0 is no
    error: the distance is taken without it (``moebius._orbit_distance``).
    """
    if periods < 2:
        raise ValueError("periods must be at least 2")
    base = basepoint if basepoint is not None else UhsPoint(0.0, 1.0)
    step = evaluate(rep, w)
    acc = MoebiusMap.identity()
    dists = [0.0]
    for _ in range(periods):
        acc = acc.mul(step)
        dists.append(_orbit_distance(acc, base))
    num = sum(m * d for m, d in enumerate(dists))
    den = sum(m * m for m in range(periods + 1))
    slope = num / den
    residuals = [d - slope * m for m, d in enumerate(dists)]
    return slope, residuals


def _entry_to_json(e: SpectrumEntry) -> dict:
    return {
        "cls": str(e.cls),
        "length": e.length,
        "trans_len": e.trans_len,
        "ratio": e.ratio,
        "kind": e.kind.value,
    }


def ps_report_to_json(report: PsReport, rank: int) -> dict:
    return {
        "verdict": report.verdict,
        "min_ratio": report.min_ratio,
        "max_ratio": report.max_ratio,
        "failures": [str(w) for w in report.failures],
        "entries": [_entry_to_json(e) for e in report.entries],
        "max_len": report.max_len,
        "rank": rank,
    }


def ps_report_from_json(obj) -> PsReport:
    """Read a report written by ``ps_report_to_json``; a malformed one is a ParseError.

    Each class must be written in its reduced form, each entry's length must
    be the length of its class, and every ratio and length a finite number;
    a non-loxodromic entry has length and ratio 0.  ``max_len`` is a
    non-negative integer, ``failures`` lists the non-loxodromic classes in
    entry order, and the verdict is FAILURE exactly when that list is not
    empty.
    """
    def word_class(text):
        cls = CyclicWord(rank, parse_word(text, rank).letters)
        if str(cls) != text:
            raise ValueError("class %r is not written in its reduced form %r" % (text, str(cls)))
        return cls

    def number(value, what):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ValueError("%s must be a finite number, got %r" % (what, value))
        return float(value)

    def entry(e):
        cls = word_class(e["cls"])
        length = e["length"]
        if not _is_int(length) or length != len(cls):
            raise ValueError("class %s has length %d, got %r" % (cls, len(cls), length))
        kind = IsometryClass(e["kind"])
        trans_len = number(e["trans_len"], "'trans_len' of %s" % (cls,))
        ratio = number(e["ratio"], "'ratio' of %s" % (cls,))
        if kind != IsometryClass.LOXODROMIC and (trans_len or ratio):
            raise ValueError("%s class %s has a non-zero length or ratio" % (kind.value, cls))
        return SpectrumEntry(cls, len(cls), trans_len, ratio, kind)

    try:
        rank = obj["rank"]
        if not _is_int(rank) or rank < 1:
            raise ValueError("'rank' must be a positive integer, got %r" % (rank,))
        max_len = obj["max_len"]
        if not _is_int(max_len) or max_len < 0:
            raise ValueError("'max_len' must be a non-negative integer, got %r" % (max_len,))
        if not isinstance(obj["failures"], list):
            raise ValueError("'failures' must be a list, got %r" % (obj["failures"],))
        verdict = obj["verdict"]
        if verdict not in (NO_OBSTRUCTION, FAILURE):
            raise ValueError("unknown verdict %r" % (verdict,))
        entries = tuple(entry(e) for e in obj["entries"])
        failures = tuple(word_class(s) for s in obj["failures"])
        if failures != tuple(e.cls for e in entries if e.kind != IsometryClass.LOXODROMIC):
            raise ValueError("'failures' must list the non-loxodromic classes in order")
        if (verdict == FAILURE) != bool(failures):
            raise ValueError("verdict %s disagrees with %d failures" % (verdict, len(failures)))
        return PsReport(
            max_len=max_len,
            entries=entries,
            min_ratio=number(obj["min_ratio"], "'min_ratio'"),
            max_ratio=number(obj["max_ratio"], "'max_ratio'"),
            failures=failures,
            verdict=verdict,
        )
    except (KeyError, TypeError, ValueError, OverflowError, InvalidLetter,
            WordParseError) as exc:
        raise ParseError("malformed scan report: %s" % (exc,)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
