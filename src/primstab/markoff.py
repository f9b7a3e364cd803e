"""Markoff triples, the Farey trace recursion, and the BQ decision search.

A rank-2 character is coordinatized by the traces (x, y, z) of (a, b, ab),
which pin the commutator trace kappa = x^2 + y^2 + z^2 - xyz - 2.  Primitive
classes correspond to slopes; crossing an edge of the Farey tessellation
replaces one trace of an adjacent triple by trace product minus the third,
so trace values propagate along the tree without any matrix arithmetic.

The Bowditch conditions (BQ) ask that every primitive class be loxodromic
and that only finitely many have trace modulus at most 2.  The search walks
the tessellation and prunes a directed edge once traces provably grow
forever past it; see ``bq_decide``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import CheckFailed, NonFiniteValue
from .moebius import Representation, _check_fricke, fricke_kappa, fricke_traces
from .whitehead import _farey_turns, _normalize_slope


@dataclass(frozen=True)
class MarkoffTriple:
    """Traces (x, y, z) of (a, b, ab) with their commutator trace kappa."""

    x: complex
    y: complex
    z: complex
    kappa: complex

    def __post_init__(self):
        for name in ("x", "y", "z", "kappa"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise NonFiniteValue("%s = %r is not finite" % (name, value))
            object.__setattr__(self, name, value)
        _check_fricke(self.x, self.y, self.z, self.kappa)

    @classmethod
    def from_traces(cls, x: complex, y: complex, z: complex) -> "MarkoffTriple":
        return cls(x, y, z, fricke_kappa(x, y, z))

    @classmethod
    def from_representation(cls, rep: Representation) -> "MarkoffTriple":
        x, y, z, kappa = fricke_traces(rep)
        return cls(x, y, z, kappa)


class MarkoffMove(str, Enum):
    X = "X"
    Y = "Y"
    Z = "Z"


def markoff_move(t: MarkoffTriple, which: MarkoffMove | str) -> MarkoffTriple:
    """Replace one coordinate by product-minus-it; involutive, kappa-preserving."""
    which = MarkoffMove(which)
    if which == MarkoffMove.X:
        return MarkoffTriple(t.y * t.z - t.x, t.y, t.z, t.kappa)
    if which == MarkoffMove.Y:
        return MarkoffTriple(t.x, t.x * t.z - t.y, t.z, t.kappa)
    return MarkoffTriple(t.x, t.y, t.x * t.y - t.z, t.kappa)


def slope_trace(t0: MarkoffTriple, p: int, q: int) -> complex:
    """Trace of the primitive class of slope p/q, by mediant recursion.

    Matches the matrix trace of the mediant-recursion word of the slope
    whenever t0 comes from the representation's Fricke traces.
    """
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
    return tm


def safe_abs(z: complex) -> float:
    """Modulus that saturates to inf instead of overflowing near 1e308."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def edge_escapes(t1: complex, t2: complex, t_far: complex, delta: float = 1e-6) -> bool:
    """Sound pruning test at a directed tessellation edge.

    The edge has adjacent traces (t1, t2) and far trace t_far = t1*t2 - t_prev.
    When min(|t1|, |t2|) >= 2 + delta and |t_far| >= |t1| + |t2| + delta, both
    child edges satisfy the same condition with a strictly larger far trace:
    |t1*t_far - t2| >= (2+delta)|t_far| - |t2| >= |t_far| + |t1| + delta.  So
    every trace beyond the edge exceeds 4 in modulus and grows without bound,
    and the subtree can hold no small-trace or non-loxodromic class.
    """
    a1, a2 = safe_abs(t1), safe_abs(t2)
    return min(a1, a2) >= 2.0 + delta and safe_abs(t_far) >= a1 + a2 + delta


class BqKind(str, Enum):
    BQ_CERTIFIED = "BQ_CERTIFIED"
    NOT_BQ_WITNESS = "NOT_BQ_WITNESS"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class BqVerdict:
    """Outcome of the BQ search.

    ``witnesses`` is nonempty exactly for NOT_BQ_WITNESS: either a single
    non-loxodromic slope or the recorded small-trace slopes once their count
    exceeds the bound.  ``small_traces`` records every slope with trace
    modulus at most 2 met during the search, so certified runs can be
    cross-checked against brute-force slope enumeration.
    """

    kind: BqKind
    nodes_explored: int
    witnesses: tuple[tuple[tuple[int, int], complex], ...]
    depth_max: int
    small_traces: tuple[tuple[tuple[int, int], complex], ...] = ()


def bq_decide(
    t: MarkoffTriple,
    budget: int,
    small_trace_bound: int = 64,
    tol: float = 1e-9,
    delta: float = 1e-6,
) -> BqVerdict:
    """Decide the Bowditch conditions by depth-first tessellation search.

    Every visited slope is tested twice: a real trace in [-2, 2] (within tol)
    witnesses a non-loxodromic primitive and refutes BQ outright, and slopes
    with trace modulus at most 2 are counted against small_trace_bound, since
    finiteness itself is not refutable by a finite search.  A directed edge
    whose traces satisfy the escape criterion is pruned; BQ_CERTIFIED means
    the search exhausted with every frontier edge escaping, so (up to the
    floating tolerances) no unexplored slope can carry trace modulus <= 2.
    Budget exhaustion returns INCONCLUSIVE, which is unavoidable on the
    boundary where the search does not terminate.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    x, y, z = t.x, t.y, t.z
    lox_floor = 2.0 + delta
    real_bound = 2.0 + tol
    nodes = 0
    depth_max = 0
    small: list[tuple[tuple[int, int], complex]] = []

    for slope, trace in (((0, 1), x), ((1, 0), y), ((1, 1), z)):
        if nodes >= budget:
            return BqVerdict(BqKind.INCONCLUSIVE, nodes, (), depth_max, tuple(small))
        nodes += 1
        if abs(trace.imag) <= tol and abs(trace.real) <= real_bound:
            return BqVerdict(
                BqKind.NOT_BQ_WITNESS, nodes, ((slope, trace),), depth_max, tuple(small)
            )
        if abs(trace) <= 2.0:
            small.append((slope, trace))
            if len(small) > small_trace_bound:
                return BqVerdict(
                    BqKind.NOT_BQ_WITNESS, nodes, tuple(small), depth_max, tuple(small)
                )

    # directed edges (t1, t2, t_prev, p1, q1, p2, q2, depth); the new vertex
    # across an edge is the vector sum of its endpoints
    stack = [
        (x, y, z, 0, 1, -1, 0, 1),
        (z, y, x, 1, 1, 1, 0, 1),
        (x, z, y, 0, 1, 1, 1, 1),
    ]
    pop = stack.pop
    push = stack.append
    while stack:
        t1, t2, tp, p1, q1, p2, q2, depth = pop()
        tn = t1 * t2 - tp
        # moduli saturate to inf near the float ceiling; a saturated branch
        # never escapes, never witnesses, and ends in INCONCLUSIVE via budget
        try:
            a1 = abs(t1)
            a2 = abs(t2)
            an = abs(tn)
        except OverflowError:
            a1, a2, an = safe_abs(t1), safe_abs(t2), safe_abs(tn)
        if an >= a1 + a2 + delta and a1 >= lox_floor and a2 >= lox_floor:
            continue
        if nodes >= budget:
            return BqVerdict(BqKind.INCONCLUSIVE, nodes, (), depth_max, tuple(small))
        nodes += 1
        if depth > depth_max:
            depth_max = depth
        pn = p1 + p2
        qn = q1 + q2
        if abs(tn.imag) <= tol and abs(tn.real) <= real_bound:
            witness = ((_normalize_slope(pn, qn), tn),)
            return BqVerdict(BqKind.NOT_BQ_WITNESS, nodes, witness, depth_max, tuple(small))
        if an <= 2.0:
            small.append((_normalize_slope(pn, qn), tn))
            if len(small) > small_trace_bound:
                return BqVerdict(
                    BqKind.NOT_BQ_WITNESS, nodes, tuple(small), depth_max, tuple(small)
                )
        child_depth = depth + 1
        push((t1, tn, t2, p1, q1, pn, qn, child_depth))
        push((tn, t2, t1, pn, qn, p2, q2, child_depth))
    return BqVerdict(BqKind.BQ_CERTIFIED, nodes, (), depth_max, tuple(small))


def solve_y_from_fricke(x: complex, z: complex, kappa: complex) -> tuple[complex, complex]:
    """The two roots of y^2 - xz y + (x^2 + z^2 - 2 - kappa) = 0.

    Returned as (plus root, minus root) for the principal square root of the
    discriminant; computed the numerically stable way (larger root directly,
    smaller root from the product) and verified against root sum and product.
    """
    x = complex(x)
    z = complex(z)
    kappa = complex(kappa)
    b = x * z
    c = x * x + z * z - 2.0 - kappa
    s = cmath.sqrt(b * b - 4.0 * c)
    plus = (b + s) / 2.0
    minus = (b - s) / 2.0
    if abs(plus) >= abs(minus):
        if abs(plus) > 0:
            minus = c / plus
    else:
        if abs(minus) > 0:
            plus = c / minus
    scale = max(1.0, abs(b), abs(c))
    if abs(plus + minus - b) > 1e-9 * scale or abs(plus * minus - c) > 1e-9 * scale:
        raise CheckFailed("quadratic roots failed the sum/product check")
    return plus, minus


def bq_verdict_to_json(v: BqVerdict) -> dict:
    def pair(entry):
        (p, q), trace = entry
        return {"slope": [p, q], "trace": [trace.real, trace.imag]}

    return {
        "kind": v.kind.value,
        "nodes_explored": v.nodes_explored,
        "depth_max": v.depth_max,
        "witnesses": [pair(w) for w in v.witnesses],
        "small_traces": [pair(s) for s in v.small_traces],
    }


def bq_verdict_from_json(obj) -> BqVerdict:
    def pair(entry):
        p, q = entry["slope"]
        re, im = entry["trace"]
        return ((p, q), complex(re, im))

    return BqVerdict(
        kind=BqKind(obj["kind"]),
        nodes_explored=obj["nodes_explored"],
        witnesses=tuple(pair(w) for w in obj["witnesses"]),
        depth_max=obj["depth_max"],
        small_traces=tuple(pair(s) for s in obj["small_traces"]),
    )
