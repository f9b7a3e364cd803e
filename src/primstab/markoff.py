"""Markoff triples, the Farey trace recursion, and the BQ decision search.

A rank-2 character is coordinatized by the traces (x, y, z) of (a, b, ab),
which pin the commutator trace kappa = x^2 + y^2 + z^2 - xyz - 2.  Primitive
classes correspond to slopes; crossing an edge of the Farey tessellation
replaces one trace of an adjacent triple by trace product minus the third,
so trace values propagate along the tree without any matrix arithmetic.

The Bowditch conditions (BQ) ask that every primitive class be loxodromic
and that only finitely many have trace modulus at most 2.  In rank 2 they
are equivalent to primitive stability (Lee-Xu, Trans. AMS 2020; Series
2019).  ``bq_decide`` walks the tessellation and prunes its edges by the
escape rule (``edge_escapes``) and the fan rule (``fan_escapes``).

Two constants are fixed.  A trace is non-loxodromic by the rule of
``moebius.classify`` (``traces._trace_class``): within 1e-9 of +-2, or
within 1e-9 of the real axis with real part strictly inside (-2, 2).  The
pruning rules hold with the margin 1e-6 (``_DELTA``).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import TYPE_CHECKING

from .errors import CheckFailed, NotCoprime, ParseError
from .traces import (
    _TOL,
    IsometryClass,
    _complex_from_json,
    _complex_to_json,
    _half_trace_split,
    _number,
    _trace_class,
    fricke_kappa,
    safe_abs,
)
from .words import _check_count, _farey_turns, _Frozen, _normalize_slope

if TYPE_CHECKING:
    from .moebius import Representation

# the margin by which both pruning rules must hold
_DELTA = 1e-6


class MarkoffTriple(_Frozen):
    """Traces (x, y, z) of (a, b, ab)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: complex, y: complex, z: complex):
        for name, value in zip(self.__slots__, (x, y, z)):
            object.__setattr__(self, name, _number(name, value))

    @property
    def kappa(self) -> complex:
        """fricke_kappa(x, y, z), the commutator trace; NonFiniteValue past the float range."""
        return _number("kappa", fricke_kappa(self.x, self.y, self.z))

    @classmethod
    def from_representation(cls, rep: Representation) -> "MarkoffTriple":
        from .moebius import fricke_traces  # the only use of matrix code here

        return cls(*fricke_traces(rep)[:3])


def markoff_move(t: MarkoffTriple, which: str) -> MarkoffTriple:
    """Replace the coordinate ``which``, "X", "Y" or "Z", by product-minus-it;
    involutive, kappa-preserving.  Any other ``which`` is a ValueError."""
    if which == "X":
        return MarkoffTriple(t.y * t.z - t.x, t.y, t.z)
    if which == "Y":
        return MarkoffTriple(t.x, t.x * t.z - t.y, t.z)
    if which == "Z":
        return MarkoffTriple(t.x, t.y, t.x * t.y - t.z)
    raise ValueError("which must be 'X', 'Y' or 'Z', got %r" % (which,))


def slope_trace(t0: MarkoffTriple, p: int, q: int) -> complex:
    """Trace of the primitive class of slope p/q, by mediant recursion.

    Matches the matrix trace of the mediant-recursion word of the slope
    whenever t0 comes from the representation's Fricke traces.  A trace past
    the float range raises NonFiniteValue (``traces._number``).
    """
    _check_count("p", p, None)
    _check_count("q", q, None)
    p, q = _normalize_slope(p, q)  # the inverse class has the same trace
    x, y, z = t0.x, t0.y, t0.z
    if p < 0:
        z, p = x * y - z, -p  # replace b by its inverse
    if (p, q) == (0, 1):
        return x
    if (p, q) == (1, 0):
        return y
    tl, tr, tm = x, y, z
    for below in _farey_turns(p, q):
        if below:
            tl, tr, tm = tl, tm, tl * tm - tr
        else:
            tl, tr, tm = tm, tr, tm * tr - tl
    return _number("slope trace", tm)


def edge_escapes(t1: complex, t2: complex, t_far: complex) -> bool:
    """Sound pruning test at a directed tessellation edge, with margin 1e-6.

    The edge has adjacent traces (t1, t2) and far trace t_far = t1*t2 - t_prev.
    With delta = 1e-6 (``_DELTA``): when min(|t1|, |t2|) >= 2 + delta and
    |t_far| >= |t1| + |t2| + delta, both child edges satisfy the same
    condition with a strictly larger far trace:
    |t1*t_far - t2| >= (2+delta)|t_far| - |t2| >= |t_far| + |t1| + delta.  So
    every trace beyond the edge exceeds 4 in modulus and grows without bound,
    and the subtree can hold no small-trace or non-loxodromic class.  A far
    modulus that saturates to inf proves nothing, so the test is then False.
    """
    a1, a2 = safe_abs(t1), safe_abs(t2)
    return min(a1, a2) >= 2.0 + _DELTA and math.inf > safe_abs(t_far) >= a1 + a2 + _DELTA


def fan_escapes(r: complex, y0: complex, y1: complex) -> bool:
    """Sound pruning test for the fan around a region of trace r, with margin 1e-6.

    The neighbours of a region with trace r, in cyclic order, satisfy
    y_{j+1} = r*y_j - y_{j-1}.  For r outside [-2, 2] this gives
    y_j = A lam^j + B lam^-j with lam + 1/lam = r and |lam| > 1, hence
    |y_j| >= m := |A||lam| - |B|/|lam| for every j >= 1.  With delta = 1e-6
    (``_DELTA``), the test holds when m >= 2 + delta and
    (m - 1)^2 >= 1 + |r| + delta.  Then every fan edge
    {y_j, y_{j+1}}, j >= 1, with far trace y_j*y_{j+1} - r, passes
    ``edge_escapes``: both traces are at least m >= 2 + delta, and
    |y_j y_{j+1} - r| - |y_j| - |y_{j+1}| >= (|y_j| - 1)(|y_{j+1}| - 1) - 1 - |r|
    >= (m - 1)^2 - 1 - |r| >= delta.  The escape lemma covers everything
    beyond those edges, and the fan's own regions y_j, j >= 2, have modulus
    at least m > 2.  So at a directed edge with traces (r, y1) and previous
    trace y0, nothing past the edge is small or non-loxodromic.

    False for real r in [-2, 2], where |lam| = 1, or when |y0|, |y1| or m
    is not finite, so a branch that saturates the floats stays unpruned.  Like
    ``edge_escapes``, the test is exact only in exact arithmetic: rounding
    in lam, A, B and the fan traces is not controlled.  lam depends on r
    alone (``_fan_root``): ``bq_decide`` takes it once per distinct small
    trace and runs only ``_fan_bound`` at each edge beside it.
    """
    root = _fan_root(r)
    return root is not None and _fan_bound(root, y0, y1)


def _fan_root(r: complex) -> tuple | None:
    """(lam, |lam|, lam - 1/lam, 1 + |r| + delta) for ``fan_escapes``, |lam| > 1;
    None (no fan escapes) where |lam| = 1 or a modulus overflows."""
    try:
        h, k = _half_trace_split(r)
        lam, other = h + k, h - k
        mod = abs(lam)
        # take the root outside the unit circle: h + k is the inner one for a real
        # r < -2 with a -0.0 imaginary part, whose sign t + 2.0 drops
        if mod < abs(other):
            lam, mod, k = other, abs(other), -k
        if not mod > 1.0 or r.imag == 0.0 and abs(r.real) <= 2.0:
            return None  # on the real segment [-2, 2], |lam| = 1 whatever the rounding
        return lam, mod, k + k, 1.0 + abs(r) + _DELTA
    except OverflowError:  # a modulus past the float range
        return None


def _fan_bound(root: tuple, y0: complex, y1: complex) -> bool:
    """``fan_escapes`` on neighbours y0, y1 of a region with ``_fan_root`` root."""
    lam, mod, s, floor = root
    try:
        if not math.isfinite(abs(y0) + abs(y1)):
            return False
        # solve y0 = A + B, y1 = A lam + B / lam, with s = lam - 1/lam
        m = abs((y1 - y0 / lam) / s) * mod - abs((y0 * lam - y1) / s) / mod
    except OverflowError:
        return False
    return math.isfinite(m) and m >= 2.0 + _DELTA and (m - 1.0) * (m - 1.0) >= floor


class BqKind(str, Enum):
    BQ_CERTIFIED = "BQ_CERTIFIED"
    NOT_BQ_WITNESS = "NOT_BQ_WITNESS"
    INCONCLUSIVE = "INCONCLUSIVE"


class BqVerdict(_Frozen):
    """Outcome of the BQ search.

    ``witnesses`` is nonempty exactly for NOT_BQ_WITNESS: either a single
    non-loxodromic slope or the recorded small-trace slopes once their count
    exceeds the bound.  ``small_traces`` records every slope with trace
    modulus at most 2 met during the search, so certified runs can be
    cross-checked against brute-force slope enumeration.  ``pruned_escape``
    and ``pruned_fan`` count the edges pruned by each rule.
    """

    __slots__ = ("kind", "nodes_explored", "witnesses", "depth_max", "small_traces",
                 "pruned_escape", "pruned_fan")

    def __init__(
        self,
        kind: BqKind,
        nodes_explored: int,
        witnesses: tuple[tuple[tuple[int, int], complex], ...],
        depth_max: int,
        small_traces: tuple[tuple[tuple[int, int], complex], ...],
        pruned_escape: int,
        pruned_fan: int,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nodes_explored", nodes_explored)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "depth_max", depth_max)
        object.__setattr__(self, "small_traces", small_traces)
        object.__setattr__(self, "pruned_escape", pruned_escape)
        object.__setattr__(self, "pruned_fan", pruned_fan)


def bq_decide(t: MarkoffTriple, budget: int, small_trace_bound: int = 64) -> BqVerdict:
    """Decide the Bowditch conditions by depth-first tessellation search.

    Every visited slope is tested twice: a non-loxodromic trace (the rule of
    ``moebius.classify``, tolerance 1e-9) refutes BQ outright, and slopes
    with trace modulus at most 2 are counted against small_trace_bound, since
    finiteness is not refutable by a finite search.  A directed edge is
    pruned, at no node, by ``edge_escapes`` when both of its traces are
    large, or by ``fan_escapes`` when exactly one trace r is below 2 + 1e-6
    and the fan around r past the edge escapes.  Each region's modulus is
    taken once, where it is visited, and its edges carry it; each distinct
    small trace's fan root once per search, at its first fan test.
    BQ_CERTIFIED means the search exhausted with every frontier edge pruned,
    so (up to floating rounding) no unexplored slope has trace modulus <= 2;
    in rank 2 that certifies primitive stability.  Budget exhaustion returns
    INCONCLUSIVE, unavoidable on the boundary where the search does not
    terminate.  ``budget`` and ``small_trace_bound`` are counts (ints, not bools, at
    least 0); anything else is a ValueError.
    """
    _check_count("budget", budget, 0)
    _check_count("small_trace_bound", small_trace_bound, 0)
    x, y, z = t.x, t.y, t.z
    lox_floor = 2.0 + _DELTA
    # every non-loxodromic trace has |t| <= 2 + _TOL and |Im t| <= _TOL, so
    # these two comparisons spare the classifier nearly every node
    real_bound = 2.0 + _TOL
    inf = math.inf
    nodes = 0
    depth_max = 0
    small: list[tuple[tuple[int, int], complex]] = []

    # directed edges (t1, a1, t2, a2, t_prev, p1, q1, p2, q2, depth), whose new vertex
    # is the sum of the endpoints; a trace t travels with its modulus a.  On top, in
    # visit order, the seed regions (depth 0)
    ax, ay, az = safe_abs(x), safe_abs(y), safe_abs(z)
    stack = [
        (x, ax, y, ay, z, 0, 1, -1, 0, 1),
        (z, az, y, ay, x, 1, 1, 1, 0, 1),
        (x, ax, z, az, y, 0, 1, 1, 1, 1),
        (z, az, None, None, None, 1, 1, 0, 0, 0),
        (y, ay, None, None, None, 1, 0, 0, 0, 0),
        (x, ax, None, None, None, 0, 1, 0, 0, 0),
    ]
    roots = {}  # small trace r -> _fan_root(r), taken at the first fan test beside r
    pop = stack.pop
    push = stack.append
    pruned_escape = 0
    pruned_fan = 0
    kind = BqKind.BQ_CERTIFIED
    witnesses = ()
    while stack:
        t1, a1, t2, a2, tp, p1, q1, p2, q2, depth = pop()
        if depth:
            tn = t1 * t2 - tp
            # moduli saturate to inf near the float ceiling; a saturated branch
            # never escapes, never witnesses, and ends in INCONCLUSIVE via budget
            try:
                an = abs(tn)
            except OverflowError:
                an = inf
            # the fan rule runs only beside exactly one small region r: around r,
            # tp and the large side y are consecutive neighbours and tn the next.
            # With both sides small it cannot hold, as m <= |y1| < 2 + _DELTA;
            # with both large, trying it slows the many few-node searches
            if a1 >= lox_floor and a2 >= lox_floor:
                if inf > an >= a1 + a2 + _DELTA:
                    pruned_escape += 1
                    continue
            elif a1 >= lox_floor or a2 >= lox_floor:
                r, y = (t2, t1) if a1 >= lox_floor else (t1, t2)
                root = roots.get(r, False)
                if root is False:
                    root = roots[r] = _fan_root(r)
                if root is not None and _fan_bound(root, tp, y):
                    pruned_fan += 1
                    continue
        else:  # a seed region
            tn, an = t1, a1
        if nodes >= budget:
            kind = BqKind.INCONCLUSIVE
            break
        nodes += 1
        if depth > depth_max:
            depth_max = depth
        # in _normalize_slope's form already: past the seeds qn >= 1, and each
        # edge keeps p1 q2 - p2 q1 = +-1 from the seed edges, so gcd(pn, qn) = 1
        pn = p1 + p2
        qn = q1 + q2
        if (an <= real_bound and abs(tn.imag) <= _TOL
                and _trace_class(tn) is not IsometryClass.LOXODROMIC):
            kind = BqKind.NOT_BQ_WITNESS
            witnesses = (((pn, qn), tn),)
            break
        if an <= 2.0:
            small.append(((pn, qn), tn))
            if len(small) > small_trace_bound:
                kind = BqKind.NOT_BQ_WITNESS
                witnesses = tuple(small)
                break
        if depth:
            child_depth = depth + 1
            push((t1, a1, tn, an, t2, p1, q1, pn, qn, child_depth))
            push((tn, an, t2, a2, t1, pn, qn, p2, q2, child_depth))
    return BqVerdict(
        kind, nodes, witnesses, depth_max, tuple(small), pruned_escape, pruned_fan
    )


def solve_y_from_fricke(x: complex, z: complex, kappa: complex) -> tuple[complex, complex]:
    """The two roots of y^2 - xz y + (x^2 + z^2 - 2 - kappa) = 0.

    Returned as (plus root, minus root) for the principal square root of the
    discriminant; computed the numerically stable way (larger root directly,
    smaller root from the product) and verified against root sum and product.
    An input or root that is not finite raises NonFiniteValue.
    """
    x, z, kappa = _number("x", x), _number("z", z), _number("kappa", kappa)
    b = x * z
    c = x * x + z * z - 2.0 - kappa
    s = cmath.sqrt(b * b - 4.0 * c)
    plus = _number("plus root", (b + s) / 2.0)
    minus = _number("minus root", (b - s) / 2.0)
    if abs(plus) >= abs(minus):
        if abs(plus) > 0:
            minus = c / plus
    elif abs(minus) > 0:
        plus = c / minus
    scale = max(1.0, abs(b), abs(c))
    if abs(plus + minus - b) > 1e-9 * scale or abs(plus * minus - c) > 1e-9 * scale:
        raise CheckFailed("quadratic roots failed the sum/product check")
    return plus, minus


def bq_verdict_to_json(v: BqVerdict) -> dict:
    def pair(entry):
        (p, q), trace = entry
        return {"slope": [p, q], "trace": _complex_to_json(trace)}

    return {
        "kind": v.kind.value,
        "nodes_explored": v.nodes_explored,
        "depth_max": v.depth_max,
        "witnesses": [pair(w) for w in v.witnesses],
        "small_traces": [pair(s) for s in v.small_traces],
        "pruned_escape": v.pruned_escape,
        "pruned_fan": v.pruned_fan,
    }


def bq_verdict_from_json(obj) -> BqVerdict:
    """Read a verdict written by ``bq_verdict_to_json``; a malformed one is a ParseError.

    The four counts are non-negative integers, each slope is a coprime pair
    in the form ``_normalize_slope`` gives, and every small trace has modulus
    at most 2.  The witnesses are nonempty exactly for NOT_BQ_WITNESS, and
    are what ``bq_decide`` writes there: either the small traces themselves
    (the bound overflowed), or one slope outside them whose trace is not
    loxodromic.  Other keys, such as the ``kappa`` that ``bq-decide`` writes,
    are ignored.
    """
    def pair(entry):
        slope = entry["slope"]
        if not (isinstance(slope, list) and len(slope) == 2):
            raise ValueError("slope must be a list of two integers, got %r" % (slope,))
        for v in slope:
            _check_count("slope", v, None)
        if _normalize_slope(*slope) != tuple(slope):
            raise ValueError("slope %r is not in the form _normalize_slope gives" % (slope,))
        return (tuple(slope), _complex_from_json(entry["trace"]))

    def count(key):
        _check_count(key, obj[key], 0)
        return obj[key]

    try:
        kind = BqKind(obj["kind"])
        witnesses = tuple(pair(w) for w in obj["witnesses"])
        if bool(witnesses) != (kind == BqKind.NOT_BQ_WITNESS):
            raise ValueError("%s verdict with %d witnesses" % (kind.value, len(witnesses)))
        small_traces = tuple(pair(s) for s in obj["small_traces"])
        for slope, trace in small_traces:
            if not safe_abs(trace) <= 2.0:
                raise ValueError("small trace %r at %r has modulus over 2" % (trace, slope))
        if witnesses and witnesses != small_traces and not (
                len(witnesses) == 1
                and witnesses[0][0] not in {slope for slope, _ in small_traces}
                and _trace_class(witnesses[0][1]) is not IsometryClass.LOXODROMIC):
            raise ValueError("witnesses are neither the small traces nor one "
                             "non-loxodromic slope outside them")
        return BqVerdict(
            kind=kind,
            nodes_explored=count("nodes_explored"),
            witnesses=witnesses,
            depth_max=count("depth_max"),
            small_traces=small_traces,
            pruned_escape=count("pruned_escape"),
            pruned_fan=count("pruned_fan"),
        )
    except (KeyError, TypeError, ValueError, NotCoprime) as exc:
        raise ParseError("malformed BQ verdict: %s" % (exc,)) from exc
