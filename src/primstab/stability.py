"""Finite evidence scans for primitive stability.

The scans tabulate translation length over cyclic length for every primitive
conjugacy class up to a length bound.  A non-loxodromic primitive image is a
genuine obstruction; the absence of one is evidence only, since the true
condition quantifies over all primitive classes.
"""

from __future__ import annotations

import math
from operator import truediv

from .errors import (
    BadSubset,
    CheckFailed,
    InvalidLetter,
    ParseError,
    RankMismatch,
    WordParseError,
)
from .moebius import (  # orbit_growth_probe is re-exported
    Representation,
    _classify_walk,
    _displacement,
    evaluate,
    orbit_growth_probe,
)
from .traces import IsometryClass
from .whitehead import WhiteheadAutomorphism, _walk_plan, enumerate_primitive_classes
from .words import CyclicWord, _check_count, _Frozen, parse_word

NO_OBSTRUCTION = "NO_OBSTRUCTION"
FAILURE = "FAILURE"


class SpectrumEntry(_Frozen):
    """A primitive class, the kind of its image and the image's translation
    length (0.0 unless loxodromic); ``length`` and ``ratio`` derive from them."""

    __slots__ = ("cls", "trans_len", "kind")

    def __init__(self, cls: CyclicWord, trans_len: float, kind: IsometryClass):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "trans_len", trans_len)
        object.__setattr__(self, "kind", kind)

    @property
    def length(self) -> int:
        return len(self.cls)

    @property
    def ratio(self) -> float:
        return self.trans_len / len(self.cls)


class PsReport(_Frozen):
    """A scan's entries.  Derived from them: ``failures``, the non-loxodromic
    classes in entry order; ``verdict``, FAILURE exactly when there is one;
    and ``min_ratio`` and ``max_ratio``, the entries' ratio range (0.0 if none)."""

    __slots__ = ("max_len", "entries")

    def __init__(self, max_len: int, entries: tuple[SpectrumEntry, ...]):
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "entries", entries)

    @property
    def failures(self) -> tuple[CyclicWord, ...]:
        return tuple(e.cls for e in self.entries if e.kind != IsometryClass.LOXODROMIC)

    @property
    def verdict(self) -> str:
        return FAILURE if self.failures else NO_OBSTRUCTION

    @property
    def min_ratio(self) -> float:
        return min((e.ratio for e in self.entries), default=0.0)

    @property
    def max_ratio(self) -> float:
        return max((e.ratio for e in self.entries), default=0.0)


def ps_scan(rep: Representation, max_len: int) -> PsReport:
    """Scan the primitive spectrum for obstructions to primitive stability.

    The report has one entry per primitive class of cyclic length at most
    max_len.  FAILURE lists every class whose image is not loxodromic; such a
    class rules the representation out.  NO_OBSTRUCTION reports the observed
    ratio range and is evidence at this max_len, not a certificate.

    A class and its inverse have the same kind and translation length, so
    the scan walks one class of each inverse pair, the one first in scan
    order, and gives its partner the same ``(kind, trans_len)``.  If the
    word w spells a class and rho(w) has entries (a, b, c, d), a rotation of
    w^-1 spells the inverse class, so its product is conjugate to
    rho(w)^-1 = (d, -b, -c, a): its trace is a + d, and it is +-I exactly
    when rho(w) is.  A partner's length is its mate's, which may differ in
    the last bits from evaluating the partner on its own.

    The walked classes are multiplied along their shared prefixes
    (``moebius._classify_walk`` on the cached plan ``whitehead._walk_plan``),
    which gives the matrices of ``evaluate`` to the bit.  Each is checked and
    classified on its raw entries, by the rule of ``classify`` and
    ``translation_length``, with no ``MoebiusMap`` built for it, and the scan
    raises at the first walked class whose product fails the determinant
    check, with that class's message; a partner's own product is never
    formed.  The entries are built column by column
    (``_Frozen._from_columns``), each class's kind and length looked up by
    its walk slot.

    Every ratio is at most the largest basepoint displacement of a
    generator, and CheckFailed is raised where it is not (by more than
    1e-6).  The largest ratio is taken over the walked classes, each
    class's length over its letter count, which the plan also holds.  A
    partner has its mate's kind, length and letter count, so its mate's
    ratio, and the mate comes first in scan order: the largest walked
    ratio, taken in walk order, is the report's ``max_ratio`` to the bit,
    first maximum and all, with no second read of the entries.
    """
    classes = enumerate_primitive_classes(rep.rank, max_len)
    plan, slots, sizes = _walk_plan(rep.rank, max_len)
    kinds, lengths = _classify_walk(rep, plan)
    report = PsReport(max_len, SpectrumEntry._from_columns(
        classes, map(lengths.__getitem__, slots), map(kinds.__getitem__, slots)))
    max_ratio = max(map(truediv, lengths, sizes), default=0.0)
    displacement = max(_displacement(g) for g in rep.images)
    if max_ratio > displacement + 1e-6:
        raise CheckFailed(
            "ratio %r exceeds the basepoint displacement bound %r" % (max_ratio, displacement)
        )
    return report


def restrict(rep: Representation, subset) -> Representation:
    """Restriction to the free factor spanned by the 1-based generator indices."""
    indices = list(subset)
    if not indices:
        raise BadSubset("subset must be nonempty")
    try:
        for i in indices:
            _check_count("subset index", i, 1)
    except ValueError as exc:
        raise BadSubset(str(exc)) from exc
    if len(set(indices)) != len(indices):
        raise BadSubset("subset %r has repeated indices" % (indices,))
    if max(indices) > rep.rank:
        raise BadSubset("subset %r is out of range for rank %d" % (indices, rep.rank))
    if len(indices) >= rep.rank:
        raise BadSubset("subset must be a proper subset of the generators")
    return Representation(rep.images[i - 1] for i in indices)


def precompose(rep: Representation, phi: WhiteheadAutomorphism) -> Representation:
    """The representation with generator images evaluated on phi's images."""
    if rep.rank != phi.rank:
        raise RankMismatch("representation rank %d vs automorphism rank %d" % (rep.rank, phi.rank))
    return Representation(evaluate(rep, img) for img in phi.images)


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

    It reads ``rank`` and ``max_len`` and each entry's ``cls`` (in reduced form),
    ``kind`` and ``trans_len`` (finite, 0 unless LOXODROMIC).  Each field derived
    from those (``SpectrumEntry``, ``PsReport``) must equal its derived value and
    have its JSON type, where an integer may stand for a float.

    The classes must look like a scan's, by checks linear in the document:
    strictly increasing in ``CyclicWord.sort_key`` order, each of 1 to
    ``max_len`` letters, and, for ``max_len`` >= 1, all 2 * rank letters among
    them and, from rank 2 on, some class of exactly ``max_len`` letters (a
    b^(max_len - 1) is primitive).  A class missing from the middle still
    reads back: telling that needs the enumeration itself.
    """
    def agree(stated, derived, keys):
        for key in keys:
            value, want = stated[key], derived[key]
            types = (int, float) if isinstance(want, float) else (type(want),)
            if type(value) not in types or value != want:
                raise ValueError("%r is %r, derived %r" % (key, value, want))

    def entry(e):
        cls = CyclicWord(rank, parse_word(e["cls"], rank).letters)
        if str(cls) != e["cls"]:
            raise ValueError("class %r is not written in its reduced form %s" % (e["cls"], cls))
        if not 1 <= len(cls) <= max_len:
            raise ValueError("class %r is not of 1 to %d letters" % (e["cls"], max_len))
        kind = IsometryClass(e["kind"])
        trans_len = e["trans_len"]
        if type(trans_len) not in (int, float) or not math.isfinite(trans_len):
            raise ValueError("'trans_len' of %s must be a finite number, got %r" % (cls, trans_len))
        if kind != IsometryClass.LOXODROMIC and trans_len:
            raise ValueError("%s class %s has a non-zero length" % (kind.value, cls))
        read = SpectrumEntry(cls, float(trans_len), kind)
        agree(e, _entry_to_json(read), ("length", "ratio"))
        return read

    try:
        rank, max_len = obj["rank"], obj["max_len"]
        _check_count("rank", rank, 1)
        _check_count("max_len", max_len, 0)
        report = PsReport(max_len, tuple(entry(e) for e in obj["entries"]))
        keys = [e.cls.sort_key() for e in report.entries]
        if any(x >= y for x, y in zip(keys, keys[1:])):
            raise ValueError("the classes are not in strictly increasing scan order")
        if max_len and sum(len(k) == 1 for k in keys) != 2 * rank:
            raise ValueError("the %d one-letter classes are not all listed" % (2 * rank))
        if max_len and rank >= 2 and all(len(k) < max_len for k in keys):
            raise ValueError("no class has %d letters" % max_len)
        agree(obj, ps_report_to_json(report, rank),
              ("failures", "verdict", "min_ratio", "max_ratio"))
        return report
    except (KeyError, TypeError, ValueError, OverflowError, InvalidLetter,
            WordParseError) as exc:
        raise ParseError("malformed scan report: %s" % (exc,)) from exc
