"""SL(2,C) lifts of Moebius maps and their hyperbolic geometry.

Maps are stored as determinant-1 complex 2x2 matrices; everything consumed
projectively (classification, translation length, disk hauling) is robust
under the lift sign.  Products are plain 2x2 products of raw entries, neither
checked nor rescaled in between.  One rule, ``_check_entries``, checks each
matrix once, where it becomes a value: in the constructor (so in
``from_matrix``, ``evaluate`` and ``mul``), and on raw entries in a
spectrum scan (``_classify_walk``, by the one classifier,
``_kinds_and_lengths``) and an orbit probe (``_orbit_walk``).
A non-finite entry is a NonFiniteValue (``traces._number``), any other miss a DeterminantError.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegenerateAction,
    DegenerateMatrix,
    DeterminantError,
    ImageIsLine,
    ParseError,
    RankMismatch,
)
from .traces import (  # IsometryClass and fricke_kappa are re-exported
    _TOL,
    IsometryClass,
    _check_fricke,
    _check_keys,
    _complex_from_json,
    _complex_to_json,
    _half_trace_split,
    _number,
    _trace_class,
    fricke_kappa,
    safe_abs,
)
from .words import CyclicWord, Word, _check_count, _Frozen

_DET_TOL = 1e-9


def _scale_sq(a: complex, b: complex, c: complex, d: complex) -> float:
    try:
        return abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    except OverflowError:
        return math.inf


def _check_entries(entries: tuple[complex, ...]) -> tuple[complex, ...]:
    """The entries (a, b, c, d), once they are finite with ad - bc = 1 within
    max(1e-9, 1e-12 S).

    S is the sum of the squared entry moduli.  Raises NonFiniteValue for a
    non-finite entry (``traces._number``) and DeterminantError for any other miss.
    """
    a, b, c, d = entries
    det = a * d - b * c
    try:
        # exact shortcut: a finite det has finite entries, and every branch
        # below accepts |det - 1| <= 1e-9
        if abs(det - 1.0) <= _DET_TOL:
            return entries
    except OverflowError:
        pass
    for name, value in zip("abcd", (a, b, c, d)):
        _number("entry " + name, value)
    # ad - bc cancels catastrophically once entries are large (error grows
    # like eps * |entries|^2), so the tolerance follows the entry scale
    tol = max(_DET_TOL, 1e-12 * _scale_sq(a, b, c, d))
    if safe_abs(det - 1.0) <= tol < math.inf:
        return entries
    if cmath.isfinite(det) and tol < math.inf:
        raise DeterminantError("determinant %r is not 1 within %g" % (det, tol))
    # the check overflowed; make the same check on the entries over m, their
    # largest real or imaginary part (a modulus may itself overflow):
    # |det/m^2 - 1/m^2| <= tol/m^2
    m = max(max(abs(v.real), abs(v.imag)) for v in (a, b, c, d))
    a, b, c, d = (v / m for v in (a, b, c, d))
    inv_sq = 1.0 / m / m
    det = a * d - b * c
    tol = max(_DET_TOL * inv_sq, 1e-12 * _scale_sq(a, b, c, d))
    if abs(det - inv_sq) > tol:
        raise DeterminantError(
            "determinant of the entries over %g is %r, not %g within %g" % (m, det, inv_sq, tol)
        )
    return entries


class MoebiusMap(_Frozen):
    """A determinant-1 lift of a Moebius transformation z -> (az+b)/(cz+d).

    The constructor checks ad - bc = 1 within max(1e-9, 1e-12 S), S the sum
    of the squared entry moduli.  The known limit: past S = 1e12 this cannot
    tell determinant 1 from 0, so ``MoebiusMap(1e6, 1e6, 1e6, 1e6)`` passes;
    ``from_matrix`` and the representation reader reject that matrix.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        a, b, c, d = (_number("entry " + n, v) for n, v in zip("abcd", (a, b, c, d)))
        _check_entries((a, b, c, d))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, a: complex, b: complex, c: complex, d: complex) -> "MoebiusMap":
        """Rescale an arbitrary nonsingular matrix to determinant 1."""
        a, b, c, d = (_number("entry " + n, v) for n, v in zip("abcd", (a, b, c, d)))
        det = a * d - b * c
        if safe_abs(det) < 1e-30:
            raise DegenerateMatrix("matrix with determinant %r cannot be normalized" % (det,))
        s = 1.0 / cmath.sqrt(det)
        return cls(a * s, b * s, c * s, d * s)

    def mul(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(*next(_walk(_letter_table((self, other)), ((0, (1, 2)),))))

    def __neg__(self) -> "MoebiusMap":
        return MoebiusMap(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def trace(self) -> complex:
        return self.a + self.d

    def apply(self, z: complex) -> complex:
        """Action on the complex plane: ``_extend`` at height 0, so the pole and
        a non-finite image raise DegenerateAction."""
        return _extend((self.a, self.b, self.c, self.d), z, 0.0)[0]


class Representation(_Frozen):
    """An assignment of one determinant-1 matrix to each free generator."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[MoebiusMap]):
        images = tuple(images)
        _check_count("rank", len(images), 1)
        for m in images:
            if not isinstance(m, MoebiusMap):
                raise TypeError("generator images must be MoebiusMap, got %r" % (m,))
        object.__setattr__(self, "images", images)

    @property
    def rank(self) -> int:
        """The number of generator images."""
        return len(self.images)


def _walk(table, plan: Iterable[tuple[int, Sequence[int]]]) -> Iterator[tuple[complex, ...]]:
    """The entries (a, b, c, d) of each word's matrix: the plain product, left
    to right, of the entries that ``table[v]`` gives for each letter v, from
    ``table[0]``, the identity, so ints or an exact ring stay exact.

    ``plan`` holds one pair (k, suffix) per word: the word is the first k
    letters of the word before it (k = 0 for the first) followed by
    ``suffix``.  The partial products of the previous word stay on a stack,
    so a word starts from the product of its first k letters and multiplies
    only its suffix; the entries are those of multiplying every word out from
    the identity, to the bit.  A single word is the plan ``((0, letters),)``.
    Nothing is rescaled, checked or classified here: each product is checked
    once, where it becomes a value (see the module docstring).  The known limit:
    determinant drift grows up to linearly with the number of factors (4e-11
    to 1.7e-10 after 10^6 letters over unitary generators, against 0 with a
    rescale per product), so the 1e-9 check can first fire after a few
    million letters.
    """
    stack = [table[0]]
    push = stack.append
    for k, suffix in plan:
        del stack[k + 1:]
        m = stack[k]
        for v in suffix:
            a, b, c, d = m
            p, q, r, s = table[v]
            m = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
            push(m)
        yield m


def _displacement(g: MoebiusMap) -> float:
    """Hyperbolic distance from j = (0, 1) to its image under g.

    cosh d = |g|^2 / 2 and |g|^2 - 2 = |a - conj d|^2 + |b + conj c|^2 when
    ad - bc = 1, so d = 2 asinh(hypot(|a - conj d|, |b + conj c|) / 2), with no
    cancellation.  Halved entries keep the differences finite, so d needs no
    image point and is finite wherever the entries are.
    """
    u = g.a * 0.5 - g.d.conjugate() * 0.5
    v = g.b * 0.5 + g.c.conjugate() * 0.5
    return 2.0 * math.asinh(math.hypot(u.real, u.imag, v.real, v.imag))


def evaluate(rep: Representation, w: Word | CyclicWord) -> MoebiusMap:
    """The matrix of a word: the ordered product of generator images."""
    if rep.rank != w.rank:
        raise RankMismatch("representation rank %d vs word rank %d" % (rep.rank, w.rank))
    return MoebiusMap(*next(_walk(_letter_table(rep.images), ((0, w.letters),))))


def _letter_table(maps: Sequence[MoebiusMap]) -> list[tuple[complex, ...]]:
    """The entries (a, b, c, d) of the identity at 0 and of each map and its
    inverse, by letter: ``table[v]`` for v = +-1, ..., +-n.  A list of 2n + 1
    items, the inverses at the negative indices, looks a letter up faster
    than a dict."""
    table = [(1.0, 0.0, 0.0, 1.0)] * (2 * len(maps) + 1)
    for i, m in enumerate(maps, 1):
        table[i] = (m.a, m.b, m.c, m.d)
        table[-i] = (m.d, -m.b, -m.c, m.a)
    return table


def _trace_length(t: complex) -> float:
    """2 Re acosh(t/2), the translation length of a loxodromic map with trace t.

    The eigenvalues lam, 1/lam have lam + 1/lam = t, so lam = e^zeta with zeta =
    acosh(t/2), and the principal branch has Re zeta >= 0: 2 ln|lam| = 2 Re zeta.
    CPython's acosh (Kahan, 1987) takes Re zeta as the asinh of a sum of two
    non-negative products of the parts of sqrt(t/2 -+ 1): nothing cancels near +-2
    or (-2, 2), and a real t in [-2, 2] gives 0.0 for either sign of zero (one root
    is imaginary, the other real).  Past |t/2| = DBL_MAX/4 it is ln|t/4| + 2 ln 2.
    """
    return 2.0 * cmath.acosh(t * 0.5).real


def _kinds_and_lengths(
    entries: Iterable[tuple[complex, ...]]
) -> tuple[list[IsometryClass], list[float]]:
    """The kinds and translation lengths of the maps whose entries (a, b, c, d)
    ``entries`` yields, by the rule of ``classify``: the package's one
    classifier of a map, which ``rep-info`` and the spectrum scan run too.
    A length is 0.0 where the kind is not LOXODROMIC, whatever small length
    a trace near +-2 gives.  Per map, the only Python-level calls are
    ``_trace_length`` and ``_trace_class``.

    Exact shortcut: a trace t with |Im t| > 2e-9 is loxodromic, with no
    identity test.  PARABOLIC and ELLIPTIC both need |Im t| <= 1e-9
    (``_trace_class``; Im(t -+ 2) is Im t exactly, and a rounded modulus is
    at least the modulus of either part).  IDENTITY needs |a -+ 1| <= 1e-9 and |d -+ 1| <= 1e-9,
    so |Im a| and |Im d| are at most 1e-9 (a modulus is at least the modulus
    of either part, also as rounded), and their rounded sum Im t is at most
    2e-9, a float, since rounding is monotone.
    """
    kinds, lengths = [], []
    add_kind, add_length = kinds.append, lengths.append
    loxodromic, identity, shortcut = IsometryClass.LOXODROMIC, IsometryClass.IDENTITY, 2.0 * _TOL
    for a, b, c, d in entries:
        t = a + d
        if abs(t.imag) > shortcut:
            kind = loxodromic
        else:
            try:
                near_identity = abs(b) <= _TOL and abs(c) <= _TOL and (
                    (abs(a - 1.0) <= _TOL and abs(d - 1.0) <= _TOL)
                    or (abs(a + 1.0) <= _TOL and abs(d + 1.0) <= _TOL)
                )
            except OverflowError:  # an entry modulus past the float range is far from +-1
                near_identity = False
            kind = identity if near_identity else _trace_class(t)
        add_kind(kind)
        add_length(_trace_length(t) if kind is loxodromic else 0.0)
    return kinds, lengths


def _classify_walk(
    rep: Representation, plan: Iterable[tuple[int, Sequence[int]]]
) -> tuple[list[IsometryClass], list[float]]:
    """The kinds and lengths of the words of ``plan`` under ``rep``: each
    product of ``_walk`` goes through ``_check_entries`` as it is formed, so
    the first that fails raises, and then through ``_kinds_and_lengths``."""
    return _kinds_and_lengths(map(_check_entries, _walk(_letter_table(rep.images), plan)))


def classify(m: MoebiusMap) -> IsometryClass:
    """Isometry type of a map, at the fixed tolerance 1e-9 (``_kinds_and_lengths``).

    IDENTITY when some lift sign is entrywise within 1e-9 of the identity;
    otherwise the trace decides (``_trace_class``): parabolic within 1e-9 of
    +-2, elliptic when real within 1e-9 and strictly inside (-2, 2),
    loxodromic otherwise: the trace rule of ``bq_decide``'s witnesses.
    """
    return _kinds_and_lengths(((m.a, m.b, m.c, m.d),))[0][0]


def translation_length(m: MoebiusMap) -> float:
    """Hyperbolic translation length 2 ln|lam|, lam the eigenvalue with |lam| >= 1
    (``_kinds_and_lengths``): 0.0 exactly where ``classify`` is not LOXODROMIC, elsewhere
    within a few ulps of the exact length its trace gives; invariant under the lift
    sign and under conjugation."""
    return _kinds_and_lengths(((m.a, m.b, m.c, m.d),))[1][0]


class UhsPoint(_Frozen):
    """A point (z, t) of the upper-half-space model, t > 0."""

    __slots__ = ("z", "t")

    def __init__(self, z: complex, t: float):
        z, t = _number("z", z), _number("t", t, float)
        if not t > 0:
            raise ValueError("invalid upper-half-space point (%r, %r)" % (z, t))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)


def _extend(m: tuple[complex, ...], z: complex, t: float) -> tuple[complex, float]:
    """(z', n) for the image (z', t / n^2) of (z, t) under the map of entries m.

    With q = c z + d, w = c t and n = hypot(|q|, |w|):
    z' = ((a z + b) conj(q/n) + a t conj(w/n)) / n.  Raises DegenerateAction
    unless n is positive and finite and z' is finite.
    """
    a, b, c, d = m
    q = c * z + d
    w = c * t
    n = math.hypot(q.real, q.imag, w.real, w.imag)
    if not (n > 0 and math.isfinite(n)):
        raise DegenerateAction("degenerate denominator %r acting on %r" % (n, (z, t)))
    image = ((a * z + b) * (q / n).conjugate() + a * (t * (w / n).conjugate())) / n
    if not cmath.isfinite(image):
        raise DegenerateAction("image %r of %r is not a finite point" % (image, (z, t)))
    return image, n


def act_uhs(m: MoebiusMap, p: UhsPoint) -> UhsPoint:
    """Poincare extension of the map to upper half space.

    The image is (z', t / n / n) with z' and n as in ``_extend``.  Dividing
    by n twice keeps t' a float wherever it is one, although n^2 may overflow.
    """
    z, n = _extend((m.a, m.b, m.c, m.d), p.z, p.t)
    t = p.t / n / n
    if not (math.isfinite(t) and t > 0):
        raise DegenerateAction("image (%r, %r) of %r is not a finite point" % (z, t, p))
    return UhsPoint(z, t)


def _orbit_distance(m: tuple[complex, ...], p: UhsPoint) -> float:
    """Hyperbolic distance from p to its image under entries m, without the image height.

    With z' and n as in ``_extend``, t' = t / n^2, so the r of
    ``uhs_distance`` is hypot(|z' - z| n / t, n - 1/n) / 2, finite also where
    t' underflows to 0.  Raises DegenerateAction, as ``act_uhs`` does, where
    z' or t' overflows.  Quarters of the coordinates are subtracted only where
    z' - z overflows.  Where r passes the float range, 2 asinh r = 2 ln 2r to
    the bit, with ln 2r = ln hypot(|z' - z|, t - t/n/n) + ln n - ln t.
    """
    z, n = _extend(m, p.z, p.t)
    if p.t / n / n == math.inf:
        raise DegenerateAction("image height of %r passes the float range" % (p,))
    dz, scale = z - p.z, 1.0
    if cmath.isinf(dz):
        dz, scale = z * 0.25 - p.z * 0.25, 4.0
    r = math.hypot(dz.real / p.t * n, dz.imag / p.t * n, (n - 1.0 / n) / scale) * scale * 0.5
    if r < math.inf:
        return 2.0 * math.asinh(r)
    half = math.hypot(dz.real * 0.5, dz.imag * 0.5, (p.t - p.t / n / n) * 0.5 / scale)
    return 2.0 * (math.log(half) + math.log(2.0 * scale) + math.log(n) - math.log(p.t))


def _orbit_walk(step: MoebiusMap, periods: int, base: UhsPoint) -> Iterator[float]:
    """d(base, step^m base), m = 1..periods: the powers are one ``_walk``, each
    checked and measured before the next is formed.  Its stack keeps all
    periods powers; none is rescaled (the drift limit of ``_walk``)."""
    powers = _walk(_letter_table((step,)), zip(range(periods), repeat((1,))))
    return map(_orbit_distance, map(_check_entries, powers), repeat(base))


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
    The powers are one checked walk (``_orbit_walk``); the first to
    fail raises: DegenerateAction where the image of p0 leaves the float
    range, NonFiniteValue where its entries are not finite.  An image height
    that underflows to 0 is no error: the distance is taken without it
    (``_orbit_distance``).
    ``periods`` is a count of at least 2; anything else is a ValueError.
    """
    _check_count("periods", periods, 2)
    base = basepoint if basepoint is not None else UhsPoint(0.0, 1.0)
    dists = [0.0, *_orbit_walk(evaluate(rep, w), periods, base)]
    num = sum(m * d for m, d in enumerate(dists))
    den = sum(m * m for m in range(periods + 1))
    slope = num / den
    residuals = [d - slope * m for m, d in enumerate(dists)]
    return slope, residuals


def uhs_distance(p: UhsPoint, q: UhsPoint) -> float:
    """Hyperbolic distance 2 asinh(r), r = hypot(|z1 - z2|, t1 - t2) / (2 sqrt(t1) sqrt(t2)).

    Each difference is divided by sqrt(t1) and sqrt(t2) before the hypot, so
    subnormal coordinates keep their digits; quarters of the coordinates are
    subtracted only where z1 - z2 overflows.  Where r passes the float range,
    2 asinh r = 2 ln 2r to the bit, taken term by term on halved differences.
    """
    dz, dt, scale = p.z - q.z, p.t - q.t, 0.5
    if cmath.isinf(dz):
        dz, dt, scale = p.z * 0.25 - q.z * 0.25, p.t * 0.25 - q.t * 0.25, 2.0
    s, u = math.sqrt(p.t), math.sqrt(q.t)
    r = math.hypot(dz.real / s / u, dz.imag / s / u, dt / s / u) * scale
    if r < math.inf:
        return 2.0 * math.asinh(r)
    half = math.hypot(dz.real * 0.5, dz.imag * 0.5, dt * 0.5)
    return 2.0 * (math.log(half) + math.log(4.0 * scale)) - math.log(p.t) - math.log(q.t)


def axis_point(m: MoebiusMap) -> UhsPoint:
    """A point on the axis of a loxodromic map (the summit of the axis).

    On the axis the displacement of every power is exactly the translation
    length, which makes axis points the right basepoints for growth probes.
    A summit past the float range raises NonFiniteValue.
    """
    if classify(m) != IsometryClass.LOXODROMIC:
        raise ValueError("only loxodromic maps have an axis")
    if m.c == 0:
        return UhsPoint(m.b / (m.d - m.a), 1.0)
    # the axis is the half circle over the fixed points (a - d +- 2k) / 2c
    _, k = _half_trace_split(m.trace())
    return UhsPoint((m.a - m.d) / (2.0 * m.c), abs(k / m.c))


class DiskSide(str, Enum):
    INSIDE = "INSIDE"
    OUTSIDE = "OUTSIDE"


class SphereDisk(_Frozen):
    """A round disk on the sphere bounded by a Euclidean circle in C.

    ``interior`` says which side of the circle the disk occupies; OUTSIDE
    disks contain the point at infinity.
    """

    __slots__ = ("center", "radius", "interior")

    def __init__(self, center: complex, radius: float, interior: DiskSide = DiskSide.INSIDE):
        center, radius = _number("center", center), _number("radius", radius, float)
        if not radius > 0:
            raise ValueError("invalid disk (%r, %r)" % (center, radius))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "interior", DiskSide(interior))

    def contains(self, z: complex) -> bool:
        dist = safe_abs(z - self.center)
        return dist <= self.radius if self.interior == DiskSide.INSIDE else dist >= self.radius

    def complement(self) -> "SphereDisk":
        flipped = DiskSide.OUTSIDE if self.interior == DiskSide.INSIDE else DiskSide.INSIDE
        return SphereDisk(self.center, self.radius, flipped)


def image_circle(m: MoebiusMap, disk: SphereDisk) -> SphereDisk:
    """Image of a round disk under a Moebius map, interior side included.

    Raises ImageIsLine when the boundary circle passes within 1e-9 of the pole
    of the map, relative to the disk's farthest distance from it, in which
    case the image is a line, not a circle.  An image past the float range
    raises NonFiniteValue (``SphereDisk``); a radius that underflows to 0,
    or a center that ``apply`` refuses (c = 0), DegenerateAction.
    """
    r, side = disk.radius, disk.interior
    if m.c == 0:
        center = m.apply(disk.center)
        radius = safe_abs(m.a / m.d) * r
    else:
        pole = -m.d / m.c
        u0 = disk.center - pole
        near, far = safe_abs(u0) - r, safe_abs(u0) + r
        if abs(near) <= _TOL * far < math.inf:
            raise ImageIsLine("circle at %r radius %r passes through the pole %r"
                              % (disk.center, r, pole))
        # m(z) = a/c - (1/c^2) / (z - pole); 1/(z - pole) sends the circle to the
        # circle of center conj(u0)/e and radius r/|e|, e = |u0|^2 - r^2 = near far;
        # dividing by one factor at a time keeps a float image finite
        center = m.a / m.c - u0.conjugate() / near / far / m.c / m.c
        radius = r / abs(near) / far / safe_abs(m.c) / safe_abs(m.c)
        pole_inside = (near < 0) == (side == DiskSide.INSIDE)
        side = DiskSide.OUTSIDE if pole_inside else DiskSide.INSIDE
    if not radius > 0:
        raise DegenerateAction("image of %r has radius 0" % (disk,))
    return SphereDisk(center, radius, side)


class SchottkyVerdict(_Frozen):
    """The outcome of ``schottky_check``: valid, or the reason it is not."""

    __slots__ = ("reason", "detail")

    DISJOINTNESS = "DISJOINTNESS"
    PAIRING = "PAIRING"
    DEGENERATE = "DEGENERATE"

    def __init__(self, reason: str | None = None, detail: str = ""):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "detail", detail)

    @property
    def valid(self) -> bool:
        return self.reason is None


def _disks_disjoint(d1: SphereDisk, d2: SphereDisk) -> bool:
    in1 = d1.interior == DiskSide.INSIDE
    in2 = d2.interior == DiskSide.INSIDE
    gap = safe_abs(d1.center - d2.center)
    slack = _TOL * (d1.radius + d2.radius)
    if in1 and in2:
        return gap > d1.radius + d2.radius + slack
    if not in1 and not in2:
        return False  # both contain infinity
    inner, outer = (d1, d2) if in1 else (d2, d1)
    return gap + inner.radius < outer.radius - slack


def schottky_check(
    rep: Representation,
    pairs: Sequence[tuple[SphereDisk, SphereDisk]],
) -> SchottkyVerdict:
    """Verify a ping-pong disk pairing for the generators.

    Valid when the 2n closed disks are pairwise disjoint and each generator
    carries its first disk onto the closed complement of its second, each
    comparison with slack 1e-9 times the sum of the two radii.  A valid
    pairing makes the group free and discrete, hence the representation is
    primitive-stable, in any rank (in rank 2 ``bq_decide`` certifies
    primitive stability as well, and beyond the Schottky set).
    """
    if len(pairs) != rep.rank:
        raise RankMismatch("need %d disk pairs, got %d" % (rep.rank, len(pairs)))
    disks = [d for pair in pairs for d in pair]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            if not _disks_disjoint(disks[i], disks[j]):
                return SchottkyVerdict(
                    SchottkyVerdict.DISJOINTNESS, "disks %d and %d are not disjoint" % (i, j)
                )
    for i, (dom, ran) in enumerate(pairs):
        try:
            img = image_circle(rep.images[i], dom)
        except ImageIsLine as exc:
            return SchottkyVerdict(SchottkyVerdict.DEGENERATE, str(exc))
        want = ran.complement()
        slack = _TOL * (img.radius + want.radius)
        if (
            safe_abs(img.center - want.center) > slack
            or abs(img.radius - want.radius) > slack
            or img.interior != want.interior
        ):
            return SchottkyVerdict(
                SchottkyVerdict.PAIRING,
                "generator %d sends its disk to %r, expected %r" % (i + 1, img, want),
            )
    return SchottkyVerdict()


def fricke_traces(rep: Representation) -> tuple[complex, complex, complex, complex]:
    """Traces (x, y, z, kappa) of (a, b, ab, [a,b]) for a rank-2 representation.

    The commutator trace kappa satisfies x^2 + y^2 + z^2 - xyz - 2 = kappa;
    the computed value is held to that identity by ``_check_fricke``.
    """
    if rep.rank != 2:
        raise RankMismatch("Fricke traces need rank 2, got %d" % (rep.rank,))
    x = rep.images[0].trace()
    y = rep.images[1].trace()
    z = evaluate(rep, Word(2, (1, 2))).trace()
    kappa = evaluate(rep, Word(2, (1, 2, -1, -2))).trace()
    _check_fricke(x, y, z, kappa)
    return x, y, z, kappa


def representation_to_json(rep: Representation) -> dict:
    return {
        "rank": rep.rank,
        "generators": [
            [_complex_to_json(m.a), _complex_to_json(m.b),
             _complex_to_json(m.c), _complex_to_json(m.d)]
            for m in rep.images
        ],
    }


def representation_from_json(obj) -> Representation:
    """Build a representation from {"rank": n, "generators": [[a,b,c,d], ...]}.

    Entries are [re, im] pairs, row-major.  Each matrix must have determinant
    within 1e-6 of 1 and is renormalized to determinant 1 exactly.  Any other
    key is a ParseError.
    """
    _check_keys(obj, "representation document", ("rank", "generators"))
    rank = obj["rank"]
    try:
        _check_count("rank", rank, 1)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    gens = obj["generators"]
    if not isinstance(gens, list) or len(gens) != rank:
        raise ParseError("'generators' must list %d matrices" % (rank,))
    images = []
    for g in gens:
        if not isinstance(g, list) or len(g) != 4:
            raise ParseError("each generator must be four [re, im] entries, got %r" % (g,))
        a, b, c, d = (_complex_from_json(e) for e in g)
        det = a * d - b * c
        if safe_abs(det - 1.0) > 1e-6:
            raise DeterminantError("generator determinant %r is not 1 within 1e-6" % (det,))
        images.append(MoebiusMap.from_matrix(a, b, c, d))
    return Representation(images)
