"""Shared builders and oracles for the test suite: seeded random matrices and
words, the reference ping-pong representation, the reference oracles that
restate a library rule plainly, the CLI contract and the brute-force check of
a BQ verdict.  Each rule has one oracle here, which every test of it calls."""

import cmath
import decimal
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import primstab as ps
from primstab import cli
from primstab.errors import DeterminantError, NonFiniteValue
from primstab.whitehead import _changes, _image_table, _pool_moves, all_letters
from primstab.words import _canonical_cycle, _cyclic_core, _reduce_list, letter_key


# representation documents as ``primstab`` reads them: a loxodromic and a
# parabolic generator; REP's and a non-real loxodromic; REP3's and a real
# loxodromic; an elliptic (trace 0) and a loxodromic generator
REP = {"rank": 2, "generators": [
    [[3, 0], [0, 0], [0, 0], [1 / 3, 0]],
    [[1, 0], [1, 0], [0, 0], [1, 0]],
]}
REP3 = {"rank": 3, "generators": REP["generators"] + [[[2, 1], [1, 0], [1, 0], [0.8, -0.4]]]}
REP4 = {"rank": 4, "generators": REP3["generators"] + [[[2, 0], [3, 0], [0.5, 0], [1.25, 0]]]}
REP_ELLIPTIC = {"rank": 2, "generators": [
    [[0, 0], [-1, 0], [1, 0], [0, 0]],
    [[2, 0], [1, 0], [1, 0], [1, 0]],
]}


def run_python(*args):
    """Run a fresh interpreter that imports the primstab under test."""
    env = dict(os.environ)
    home = os.path.dirname(os.path.dirname(os.path.abspath(ps.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [home, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def run_cli(argv):
    """``cli.run(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """``json.loads`` that rejects NaN and +-Infinity."""
    def reject(token):
        raise ValueError("non-strict JSON token %s" % token)
    return json.loads(text, parse_constant=reject)


def assert_cli_contract(code, out, err):
    """The CLI's output contract: exit 0, 1 or 2 and no traceback; on 0 or 1
    exactly one strict JSON object on one line, the result on stdout or the
    error on stderr, and nothing on the other stream; on 2 (a usage error, which
    argparse reports in text) nothing on stdout."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        return
    written, silent = (out, err) if code == 0 else (err, out)
    assert silent == ""
    assert written.count("\n") == 1 and written.endswith("\n")
    assert isinstance(strict_json(written), dict)


def random_complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def random_sl2(rng, scale=1.0):
    """A random determinant-1 matrix with moderate entries."""
    while True:
        a = random_complex(rng, scale)
        if abs(a) > 0.3:
            break
    b = random_complex(rng, scale)
    c = random_complex(rng, scale)
    return ps.MoebiusMap(a, b, c, (1.0 + b * c) / a)


def random_loxodromic(rng, scale=1.0):
    while True:
        m = random_sl2(rng, scale)
        if ps.classify(m) == ps.IsometryClass.LOXODROMIC:
            length = ps.translation_length(m)
            if 0.05 < length < 4.0:
                return m


def random_representation(rng, rank, scale=1.0):
    return ps.Representation(tuple(random_sl2(rng, scale) for _ in range(rank)))


def random_near_identity_representation(rng, rank, eps=0.05):
    """Generators so close to the identity that 50-fold products stay small."""
    images = []
    for _ in range(rank):
        a = 1.0 + random_complex(rng, eps)
        b = random_complex(rng, eps)
        c = random_complex(rng, eps)
        images.append(ps.MoebiusMap(a, b, c, (1.0 + b * c) / a))
    return ps.Representation(tuple(images))


def decimal_translation_length(t):
    """The translation length of a map with trace t, from the standard library
    alone: the oracle for ``moebius._trace_length``.

    It works at 60 digits from Re acosh z = acosh(alpha) with z = t/2 and
    alpha = (|z + 1| + |z - 1|)/2, the half sum of the distances from z to the
    foci +-1 of the ellipses on which Re acosh is constant, so
    2 acosh(alpha) = 2 ln(alpha + sqrt((alpha - 1)(alpha + 1))).  The float
    parts of t are exact decimals, so the result is the exact length rounded
    once, wherever alpha - 1 keeps enough of the 60 digits, which holds for
    |Im t| and |t -+ 2| down to about 1e-20.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, y = decimal.Decimal(t.real) / 2, decimal.Decimal(t.imag) / 2
        alpha = (((x + 1) ** 2 + y * y).sqrt() + ((x - 1) ** 2 + y * y).sqrt()) / 2
        return float(2 * (alpha + ((alpha - 1) * (alpha + 1)).sqrt()).ln())


def decimal_half_trace_k(t):
    """|k| = sqrt|(t/2)^2 - 1| at 60 digits, from the standard library alone:
    the oracle for the k of ``traces._half_trace_split``.  The float parts of
    t are exact decimals, and (t/2)^2 - 1 keeps 60 digits wherever |t -+ 2|
    is past about 1e-20."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, y = decimal.Decimal(t.real) / 2, decimal.Decimal(t.imag) / 2
        re, im = x * x - y * y - 1, 2 * x * y
        return float((re * re + im * im).sqrt().sqrt())


def random_reduced_letters(rng, rank, length):
    alphabet = [v for i in range(1, rank + 1) for v in (i, -i)]
    letters = []
    while len(letters) < length:
        v = rng.choice(alphabet)
        if letters and v == -letters[-1]:
            continue
        letters.append(v)
    return tuple(letters)


def all_reduced_words(rank, length):
    alphabet = [v for i in range(1, rank + 1) for v in (i, -i)]

    def rec(prefix):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for v in alphabet:
            if prefix and v == -prefix[-1]:
                continue
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def all_cyclic_classes(rank, max_len):
    """Independent enumeration of canonical cyclically reduced classes."""
    seen = set()
    for length in range(1, max_len + 1):
        for letters in all_reduced_words(rank, length):
            if length > 1 and letters[0] == -letters[-1]:
                continue
            cls = ps.CyclicWord(rank, letters)
            if cls not in seen:
                seen.add(cls)
                yield cls


def grown_primitive_classes(rank, max_len):
    """Growth from the letters that applies every pool move to every class found.

    It makes no use of symmetry, so it is the reference for the enumeration
    that grows one class per symmetry orbit.
    """
    tables = [table for _, table, _, _ in move_pool(rank)]
    found = {(v,) for i in range(1, rank + 1) for v in (i, -i)} if max_len > 0 else set()
    frontier = list(found)
    while frontier:
        grown = []
        for core in frontier:
            for table in tables:
                image, _ = _cyclic_core(_reduce_list(u for v in core for u in table[v]))
                if len(core) < len(image) <= max_len:
                    canon = _canonical_cycle(image)
                    if canon not in found:
                        found.add(canon)
                        grown.append(canon)
        frontier = grown
    return tuple(sorted((ps.CyclicWord(rank, c) for c in found), key=ps.CyclicWord.sort_key))


@lru_cache(maxsize=None)
def move_pool(rank):
    """(phi, its ``_image_table``, bitmask of A, bit of a) for every move
    phi = (a, A) of ``_pool_moves``, in its order, with phi a
    ``WhiteheadAutomorphism.multiplier_move``."""
    moves = []
    letters = all_letters(rank)  # letter b at bit b
    for _, _, mask, a in _pool_moves(rank):
        members = [letters[b] for b in range(2 * rank) if mask >> b & 1 and b != a]
        phi = ps.WhiteheadAutomorphism.multiplier_move(rank, letters[a], members)
        moves.append((phi, _image_table(phi), mask, a))
    return tuple(moves)


def length_changes(rank, core, low, high):
    """(phi, its image table, |phi(w)| - |w|) for each ``move_pool`` move
    phi whose change, as ``_changes`` counts it on the closed graph, lies in
    [low, high], in pool order, on a non-empty cyclically reduced core w of
    letters."""
    changes = _changes(rank, [letter_key(v) - 1 for v in core])
    return [(phi, table, change) for (phi, table, _, _), change in zip(move_pool(rank), changes)
            if low <= change <= high]


def pool_minimize(rank, core):
    """Apply the first move of the pool that shortens the cyclic core until
    none does: the terminal core, some rotation of its class, and the moves
    taken.

    Each round counts every pool move's length change on the closed graph
    (``length_changes``) up to the first negative one.  It reads no cut
    vertex and no minimum cut, so it is the reference for the terminal
    length of ``whitehead_minimize`` and for the answers of ``is_primitive``
    up to ``RANK_CAP``.
    """
    trace = []
    while core:
        for phi, table, _ in length_changes(rank, core, -math.inf, -1):
            core, _ = _cyclic_core(_reduce_list(u for v in core for u in table[v]))
            trace.append(phi)
            break
        else:
            break
    return core, trace


def set_connectivity(g):
    """(is_connected(g), has_cutpoint(g)) by a flood fill on sets of letters.

    It reads no bitmask, so it is the dependency-free reference for the
    connectivity kernels of ``whitehead``.
    """
    adjacent = {v: set() for v in g.vertices}
    for u, v in g.edge_multiplicity:  # a self-loop makes v its own neighbour
        adjacent[u].add(v)
        adjacent[v].add(u)

    def components(vertices):
        unseen = set(vertices)
        count = 0
        while unseen:
            count += 1
            stack = [unseen.pop()]
            while stack:
                reached = adjacent[stack.pop()] & unseen
                unseen -= reached
                stack.extend(reached)
        return count

    support = {v for v, near in adjacent.items() if near}
    base = components(support)
    return components(adjacent) == 1, any(components(support - {v}) > base for v in support)


def exponent_sums(w):
    """The image of w in Z^rank: each generator's exponent sum, in order."""
    return tuple(sum((v > 0) - (v < 0) for v in w.letters if abs(v) == g)
                 for g in range(1, w.rank + 1))


def random_word(rng, rank, length):
    return ps.Word(rank, random_reduced_letters(rng, rank, length))


def random_automorphism(rng, rank):
    """A random composition-free Whitehead move of either kind."""
    if rng.random() < 0.5:
        perm = list(range(1, rank + 1))
        rng.shuffle(perm)
        mapping = {i: perm[i - 1] * rng.choice([1, -1]) for i in range(1, rank + 1)}
        return ps.WhiteheadAutomorphism.letter_permutation(rank, mapping)
    alphabet = [v for i in range(1, rank + 1) for v in (i, -i)]
    a = rng.choice(alphabet)
    others = [v for v in alphabet if abs(v) != abs(a)]
    members = [v for v in others if rng.random() < 0.5]
    return ps.WhiteheadAutomorphism.multiplier_move(rank, a, members)


def schottky_example():
    """The conjugated ping-pong pair: a scales by 9 about 0/inf, b = S a S^-1.

    Returns (representation, disk pairs) that pass the ping-pong check.
    """
    ga = ps.MoebiusMap(3.0, 0.0, 0.0, 1.0 / 3.0)
    s = ps.MoebiusMap.from_matrix(-1.0, 1.0, 1.0, 1.0)  # 0 -> 1, inf -> -1
    gb = s.mul(ga).mul(s.inverse())
    da = ps.SphereDisk(0.0, 1.0 / 3.0, ps.DiskSide.INSIDE)
    dpa = ps.SphereDisk(0.0, 3.0, ps.DiskSide.OUTSIDE)
    db = ps.image_circle(s, da)
    dpb = ps.image_circle(s, dpa)
    rep = ps.Representation((ga, gb))
    return rep, [(da, dpa), (db, dpb)]


def mat_mul(m1, m2):
    """Plain 2x2 complex multiply on nested lists; the independent oracle."""
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return [[a1 * a2 + b1 * c2, a1 * b2 + b1 * d2],
            [c1 * a2 + d1 * c2, c1 * b2 + d1 * d2]]


def mat_of(m):
    return [[m.a, m.b], [m.c, m.d]]


def mat_inv(m1):
    (a, b), (c, d) = m1
    return [[d, -b], [-c, a]]


def word_matrix(rep, letters):
    """Evaluate a word by bare list arithmetic, bypassing MoebiusMap.mul."""
    out = [[1.0 + 0j, 0j], [0j, 1.0 + 0j]]
    for v in letters:
        g = mat_of(rep.images[abs(v) - 1])
        if v < 0:
            g = mat_inv(g)
        out = mat_mul(out, g)
    return out


def reference_entry_check(a, b, c, d):
    """The constructor's entry rule without the shortcut that accepts
    |ad - bc - 1| <= 1e-9 at once: the reference for ``moebius._check_entries``.

    Returns None where the entries pass and raises NonFiniteValue or
    DeterminantError where they do not.
    """
    def safe_abs(z):
        try:
            return abs(z)
        except OverflowError:
            return math.inf

    def scale_sq(a, b, c, d):
        try:
            return abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
        except OverflowError:
            return math.inf

    entries = []
    for name, value in zip("abcd", (a, b, c, d)):
        value = complex(value)
        if not cmath.isfinite(value):
            raise NonFiniteValue("entry %s = %r is not finite" % (name, value))
        entries.append(value)
    a, b, c, d = entries
    det = a * d - b * c
    tol = max(1e-9, 1e-12 * scale_sq(a, b, c, d))
    if safe_abs(det - 1.0) <= tol < math.inf:
        return
    if cmath.isfinite(det) and tol < math.inf:
        raise DeterminantError("determinant %r is not 1 within %g" % (det, tol))
    m = max(max(abs(v.real), abs(v.imag)) for v in (a, b, c, d))
    a, b, c, d = (v / m for v in (a, b, c, d))
    inv_sq = 1.0 / m / m
    det = a * d - b * c
    tol = max(1e-9 * inv_sq, 1e-12 * scale_sq(a, b, c, d))
    if abs(det - inv_sq) > tol:
        raise DeterminantError(
            "determinant of the entries over %g is %r, not %g within %g" % (m, det, inv_sq, tol)
        )


def reference_kind_and_length(a, b, c, d):
    """The kind and length ``moebius._kinds_and_lengths`` gives the map with
    entries (a, b, c, d), by its rule alone, without the shortcut that calls
    |Im(a + d)| > 2e-9 loxodromic before the identity test: the identity test
    on the entries, then ``traces._trace_class``, and the length of
    ``moebius._trace_length`` where loxodromic.  That loop classifies every
    map, so this is the reference for ``classify``, ``translation_length``,
    ``primstab rep-info`` and the spectrum scan's entries alike."""
    from primstab.moebius import _trace_length
    from primstab.traces import _trace_class

    try:
        if abs(b) <= 1e-9 and abs(c) <= 1e-9 and (
            (abs(a - 1.0) <= 1e-9 and abs(d - 1.0) <= 1e-9)
            or (abs(a + 1.0) <= 1e-9 and abs(d + 1.0) <= 1e-9)
        ):
            return ps.IsometryClass.IDENTITY, 0.0
    except OverflowError:
        pass
    kind = _trace_class(a + d)
    return kind, _trace_length(a + d) if kind is ps.IsometryClass.LOXODROMIC else 0.0


def reference_bq_decide(t, budget, small_trace_bound=64):
    """The search of ``bq_decide`` written plainly, as the reference for its
    verdicts: the same depth-first visit order, budget and counters, but every
    modulus is taken again at every edge, a pruning test is a call of the
    public ``edge_escapes`` or ``fan_escapes``, and a witness is any trace
    that ``traces._trace_class`` does not call loxodromic.  It returns a
    ``BqVerdict`` that must equal the search's in all seven fields, so the
    moduli and fan roots that ``bq_decide`` carries on its edges, and its
    inline escape test, are held to the two public rules.  Each prune also
    asserts its walk, ``escape_walk_holds`` or ``fan_walk_escapes`` on four
    levels or edges: a necessary condition that shares no code with the
    rule, and never a test to prune by."""
    from primstab.markoff import _DELTA
    from primstab.traces import _trace_class, safe_abs
    from primstab.words import _normalize_slope

    large = 2.0 + _DELTA
    nodes = depth_max = pruned_escape = pruned_fan = 0
    small = []
    kind, witnesses = ps.BqKind.BQ_CERTIFIED, ()
    x, y, z = t.x, t.y, t.z
    # directed edges (t1, t2, t_prev, p1, q1, p2, q2, depth) whose new region
    # has slope (p1 + p2)/(q1 + q2); the seeds x, y, z are depth-0 entries
    stack = [(x, y, z, 0, 1, -1, 0, 1), (z, y, x, 1, 1, 1, 0, 1), (x, z, y, 0, 1, 1, 1, 1),
             (z, None, None, 1, 1, 0, 0, 0), (y, None, None, 1, 0, 0, 0, 0),
             (x, None, None, 0, 1, 0, 0, 0)]
    while stack:
        t1, t2, tp, p1, q1, p2, q2, depth = stack.pop()
        if depth:
            tn = t1 * t2 - tp
            a1, a2 = safe_abs(t1), safe_abs(t2)
            if a1 >= large and a2 >= large:
                if ps.edge_escapes(t1, t2, tn):
                    assert escape_walk_holds(t1, t2, tp, 4), (t1, t2, tp)
                    pruned_escape += 1
                    continue
            elif a1 >= large or a2 >= large:
                r, other = (t2, t1) if a1 >= large else (t1, t2)
                if ps.fan_escapes(r, tp, other):
                    assert fan_walk_escapes(r, tp, other, 4), (r, tp, other)
                    pruned_fan += 1
                    continue
        else:
            tn = t1
        if nodes >= budget:
            kind = ps.BqKind.INCONCLUSIVE
            break
        nodes += 1
        depth_max = max(depth_max, depth)
        pn, qn = p1 + p2, q1 + q2
        if _trace_class(tn) is not ps.IsometryClass.LOXODROMIC:
            kind, witnesses = ps.BqKind.NOT_BQ_WITNESS, ((_normalize_slope(pn, qn), tn),)
            break
        if safe_abs(tn) <= 2.0:
            small.append((_normalize_slope(pn, qn), tn))
            if len(small) > small_trace_bound:
                kind, witnesses = ps.BqKind.NOT_BQ_WITNESS, tuple(small)
                break
        if depth:
            stack.append((t1, tn, t2, p1, q1, pn, qn, depth + 1))
            stack.append((tn, t2, t1, pn, qn, p2, q2, depth + 1))
    return ps.BqVerdict(kind, nodes, witnesses, depth_max, tuple(small),
                        pruned_escape, pruned_fan)


def escape_walk_holds(t1, t2, tp, k):
    """The escape rule's conclusion on the first k levels past a pruned edge,
    computed with no margin and sharing no code with ``edge_escapes``: the
    region t1 t2 - tp beyond the edge (t1, t2) and every region below it,
    reached through the child edges (t1, tn) and (tn, t2) with new traces
    t1 tn - t2 and tn t2 - t1, has modulus at least 4.  A branch stops at a
    non-finite modulus, which proves nothing either way.  A necessary
    condition for an escape prune, never a test to prune by."""
    stack = [(t1, t2, tp, k)]
    while stack:
        t1, t2, tp, k = stack.pop()
        tn = t1 * t2 - tp
        modulus = math.hypot(tn.real, tn.imag)
        if not math.isfinite(modulus):
            continue
        if modulus < 4.0:
            return False
        if k > 1:
            stack += [(t1, tn, t2, k - 1), (tn, t2, t1, k - 1)]
    return True


def fan_walk_escapes(r, y0, y1, k):
    """The fan rule's claim on its first k edges, computed with no lam, A, B or
    m, so sharing no code with ``markoff._fan_bound``: the neighbours y0, y1 of
    a region of trace r go on by y_{j+1} = r y_j - y_{j-1}, and each fan edge
    {y_j, y_{j+1}}, j >= 1, with far trace y_j y_{j+1} - r, must pass
    ``edge_escapes``.  A necessary condition for a fan prune, never a test
    to prune by."""
    prev, cur = y0, y1
    for _ in range(k):
        prev, cur = cur, r * cur - prev
        if not ps.edge_escapes(prev, cur, prev * cur - r):
            return False
    return True


def coprime_pairs(n):
    """Every coprime (p, q) with |p|, |q| <= n, so each slope of the box once
    with each sign."""
    return [(p, q) for p in range(-n, n + 1) for q in range(-n, n + 1) if math.gcd(p, q) == 1]


def assert_bq_verdict_agrees_with_slopes(t, verdict, n, margin=0.0):
    """The brute-force check of a ``bq_decide`` verdict on the triple t, which
    shares no code with the search.  A certified verdict has recorded every
    slope of the box |p|, |q| <= n whose trace has modulus at most
    2 - margin; a single witness outside the small traces is a
    non-loxodromic class, whose trace ``slope_trace`` derives again.
    ``slope_trace`` normalizes its slope, so each class is traced once, by
    its normalized pair."""
    from primstab.traces import safe_abs
    from primstab.words import _normalize_slope

    if verdict.kind is ps.BqKind.BQ_CERTIFIED:
        recorded = {slope for slope, _ in verdict.small_traces}
        for p, q in coprime_pairs(n):
            if _normalize_slope(p, q) != (p, q):
                continue  # (-p, -q), the same class
            if safe_abs(ps.slope_trace(t, p, q)) <= 2.0 - margin:
                assert (p, q) in recorded, (p, q)
    elif (verdict.kind is ps.BqKind.NOT_BQ_WITNESS and len(verdict.witnesses) == 1
          and verdict.witnesses[0] not in verdict.small_traces):
        (p, q), trace = verdict.witnesses[0]
        again = ps.slope_trace(t, p, q)
        assert abs(again - trace) <= 1e-9 * max(1.0, abs(again))
        assert abs(trace.imag) <= 1e-9 and abs(trace.real) <= 2.0 + 1e-9


def reference_orbit_growth_probe(rep, w, periods, basepoint=None):
    """``orbit_growth_probe`` with each power built as a ``MoebiusMap`` by
    ``acc = acc.mul(step)`` from the identity, one product and one check per
    period: the reference for the probe's single walk over the powers."""
    from primstab.moebius import _orbit_distance

    base = basepoint if basepoint is not None else ps.UhsPoint(0.0, 1.0)
    step = ps.evaluate(rep, w)
    acc = ps.MoebiusMap.identity()
    dists = [0.0]
    for _ in range(periods):
        acc = acc.mul(step)
        dists.append(_orbit_distance((acc.a, acc.b, acc.c, acc.d), base))
    slope = sum(m * d for m, d in enumerate(dists)) / sum(m * m for m in range(periods + 1))
    return slope, [d - slope * m for m, d in enumerate(dists)]
