import cmath
import math
import random

import pytest

import primstab as ps
from primstab import markoff
from primstab.errors import FrickeMismatch, NonFiniteValue, NotCoprime, ParseError
from primstab.moebius import _TOL
from primstab.traces import _check_fricke

from helpers import (assert_bq_verdict_agrees_with_slopes, fan_walk_escapes, random_complex,
                     random_representation, reference_bq_decide, schottky_example)


def test_move_example():
    t = ps.MarkoffTriple(3, 3, 3)
    assert t.kappa == -2
    moved = ps.markoff_move(t, "Z")
    assert (moved.x, moved.y, moved.z) == (3, 3, 6)
    assert moved.kappa == -2


def test_move_takes_one_of_three_coordinate_names():
    t = ps.MarkoffTriple(3, 3, 3)
    for which in ("W", "x", "", None, 1):
        with pytest.raises(ValueError, match="'X', 'Y' or 'Z'"):
            ps.markoff_move(t, which)


def test_move_fixed_point():
    t = ps.MarkoffTriple(2, 2, 2)
    moved = ps.markoff_move(t, "Z")
    assert (moved.x, moved.y, moved.z) == (2, 2, 2)


def test_moves_are_involutions_and_preserve_kappa():
    rng = random.Random(50)
    for _ in range(200):
        x, y = random_complex(rng, 3), random_complex(rng, 3)
        z = random_complex(rng, 3)
        t = ps.MarkoffTriple(x, y, z)
        for which in ("X", "Y", "Z"):
            once = ps.markoff_move(t, which)
            assert abs(once.kappa - t.kappa) <= 1e-8
            twice = ps.markoff_move(once, which)
            assert abs(twice.x - t.x) <= 1e-12
            assert abs(twice.y - t.y) <= 1e-12
            assert abs(twice.z - t.z) <= 1e-12


def test_fricke_check_scales_with_the_traces():
    # the identity's terms grow like |entries|^4, and so does their rounding
    for scale in (1, 3, 10, 100, 1000):
        rng = random.Random(scale)
        for _ in range(300):
            ps.MarkoffTriple.from_representation(random_representation(rng, 2, scale))
    with pytest.raises(FrickeMismatch):
        _check_fricke(3, 3, 3, 5)


def test_triple_rejects_non_finite_values():
    for bad in ((math.nan, 3, 3), (3, math.inf, 3), (3, 3, complex(3, math.nan))):
        with pytest.raises(NonFiniteValue):
            ps.MarkoffTriple(*bad)
    # kappa of huge traces is inf - inf, a NonFiniteValue where it is read
    t = ps.MarkoffTriple(1e200, 1e200, 3)
    with pytest.raises(NonFiniteValue, match="kappa"):
        t.kappa


def test_triple_from_representation():
    rep = ps.Representation((ps.MoebiusMap(1, 1, 1, 2), ps.MoebiusMap(1, -1, -1, 2)))
    t = ps.MarkoffTriple.from_representation(rep)
    assert (t.x, t.y, t.z, t.kappa) == (3, 3, 3, -2)


def test_slope_trace_base_cases():
    t = ps.MarkoffTriple(3 + 1j, 2 - 0.5j, 1 + 0.25j)
    assert ps.slope_trace(t, 0, 1) == t.x
    assert ps.slope_trace(t, 1, 0) == t.y
    assert ps.slope_trace(t, 1, 1) == t.z


def test_slope_trace_one_mediant_step():
    t = ps.MarkoffTriple(3, 3, 3)
    assert ps.slope_trace(t, 2, 1) == 6
    assert ps.slope_trace(t, 1, 2) == 6
    # the traces of the slopes 1/q grow like 2.618^q: 1/400 is still a float,
    # 1/1000 is not
    assert abs(ps.slope_trace(t, 1, 400)) < math.inf
    with pytest.raises(NonFiniteValue):
        ps.slope_trace(t, 1, 1000)


def test_slope_trace_inverse_class_has_same_trace():
    rng = random.Random(51)
    t = ps.MarkoffTriple(
        random_complex(rng, 2), random_complex(rng, 2), random_complex(rng, 2)
    )
    for (p, q) in ((1, 2), (3, 5), (-2, 3), (1, 0), (0, 1)):
        assert ps.slope_trace(t, p, q) == ps.slope_trace(t, -p, -q)


def test_slope_trace_rejects_non_coprime():
    t = ps.MarkoffTriple(3, 3, 3)
    for bad in ((0, 0), (2, 2), (4, 6)):
        with pytest.raises(NotCoprime):
            ps.slope_trace(t, *bad)
    # slopes are ints, not bools: the package's count rule with no bound
    for bad in ((True, 0), (0, True), (1.0, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            ps.slope_trace(t, *bad)


def test_escape_criterion_examples():
    assert ps.edge_escapes(3, 6, 15)
    assert not ps.edge_escapes(3, 3, 6)       # 6 < 3 + 3 + delta
    assert not ps.edge_escapes(1.5, 40, 100)  # small side never escapes
    # a far modulus saturated to inf proves nothing, however large the sides
    assert not ps.edge_escapes(math.inf, math.inf, math.inf)
    assert not ps.edge_escapes(3, 3, complex(1.5e308, 1.5e308))
    assert ps.edge_escapes(3, 3, 1.7e308)


def test_saturated_traces_never_certify():
    # no search reads kappa, here past the float range; every far trace
    # saturates, so no edge is pruned and the budget runs out
    b = complex(1.5e308, 1.5e308)
    for triple in ((b, b, b), (3, 3, b), (1e200, 1e200, 1e200)):
        verdict = ps.bq_decide(ps.MarkoffTriple(*triple), 1000)
        assert verdict.kind == ps.BqKind.INCONCLUSIVE, triple
        assert verdict.nodes_explored == 1000
        assert verdict.pruned_escape == verdict.pruned_fan == 0
    verdict = ps.bq_decide(ps.MarkoffTriple(3, 3, 3), 1000)
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED and verdict.nodes_explored == 6
    # at node 119 |tn| of a finite product passes the float range: a saturated
    # modulus is never small, so only the seed z is recorded
    x = 4.4404374685236604e153 + 1.2780807798381574e154j
    y = -1.248739599107954e154 + 5.208788175095115e153j
    z = 0.1694801710576046 + 0.035896731090736544j
    verdict = ps.bq_decide(ps.MarkoffTriple(x, y, z), 1000)
    assert verdict.kind == ps.BqKind.INCONCLUSIVE
    assert [slope for slope, _ in verdict.small_traces] == [(1, 1)]


def test_escape_criterion_forward_invariance():
    # once an edge escapes, both child edges escape with larger far traces
    rng = random.Random(53)
    tested = 0
    while tested < 10000:
        t1 = random_complex(rng, 40)
        t2 = random_complex(rng, 40)
        tp = random_complex(rng, 40)
        t_far = t1 * t2 - tp
        if not ps.edge_escapes(t1, t2, t_far):
            continue
        tested += 1
        left_far = t1 * t_far - t2
        right_far = t_far * t2 - t1
        assert ps.edge_escapes(t1, t_far, left_far)
        assert ps.edge_escapes(t_far, t2, right_far)
        assert abs(left_far) > abs(t_far) and abs(right_far) > abs(t_far)


def test_fan_escape_examples():
    # the b-region of (3, -1+i, 3) has trace modulus 1.41; its neighbours
    # 3, 3, -6+3i, -9i, ... grow like |lam|^j with |lam| = 1.70
    assert ps.fan_escapes(-1 + 1j, 3, -6 + 3j)
    assert not ps.fan_escapes(-1 + 1j, 3, 3)    # the bound m = 1.35 is too weak
    assert not ps.fan_escapes(-1 + 1j, 3, 1.5)  # m <= |y1| < 2 + delta
    # r in [-2, 2]: |lam| = 1, and at r = +-2 the closed form degenerates
    rot = complex(0.75, math.sqrt(1.75) / 2)  # lam for r = 1.5
    assert not ps.fan_escapes(1.5, 3, 3 * rot)
    assert not ps.fan_escapes(2.0, 3, 40) and not ps.fan_escapes(-2.0, 3, 40)
    # a saturated modulus, or an overflow on the way to m, prunes nothing
    assert not ps.fan_escapes(-1 + 1j, 3, complex(1.3e308, 1.3e308))
    assert not ps.fan_escapes(-1 + 1j, complex(1.3e308, 1.3e308), 3)
    assert not ps.fan_escapes(2.0001, 1e308, -1e308)
    assert ps.fan_escapes(complex(1.5e308, 1.5e308), 1, 1) is False  # |r| overflows


def test_fan_escape_is_false_on_the_real_segment():
    # |lam| = 1 there, whatever rounding does to the computed root
    rng = random.Random(31)
    for _ in range(20000):
        r = rng.uniform(-2.0, 2.0)
        y0 = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        y1 = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        assert not ps.fan_escapes(complex(r, 0.0), y0, y1), (r, y0, y1)


def test_fan_escape_ignores_the_sign_of_a_zero_imaginary_part():
    # for a real r < -2 with Im r = -0.0, t + 2.0 drops the zero's sign in
    # _half_trace_split, so h + k is the root inside the unit circle and the
    # rule must swap the roots to answer as it does for Im r = +0.0
    from primstab.traces import _half_trace_split

    h, k = _half_trace_split(complex(-2.5, -0.0))
    assert abs(h + k) < 1.0 < abs(h - k)
    assert ps.fan_escapes(complex(-2.5, -0.0), 3, 40) and ps.fan_escapes(complex(-2.5, 0.0), 3, 40)
    rng = random.Random(3203)
    for _ in range(2000):
        r = -10 ** rng.uniform(math.log10(2.0 + 1e-6), 3)
        y0, y1 = random_complex(rng, rng.choice((3, 40, 1e3))), random_complex(rng, 40)
        assert ps.fan_escapes(complex(r, -0.0), y0, y1) == ps.fan_escapes(complex(r, 0.0), y0, y1)


def test_fan_escape_forward_property():
    # when the rule accepts (r, y0, y1), every fan edge {y_j, y_{j+1}} around
    # r, with far trace y_j y_{j+1} - r, passes the escape test.  Half the
    # draws take y0, y1 at random; the other half build them from the closed
    # form y_j = A lam^j + B lam^-j with r near [-2, 2] and |A lam| near the
    # bound, where the fan grows slowly and the rule's second condition binds
    rng = random.Random(58)
    delta = 1e-6
    tested = rejected = 0
    while tested < 4000:
        if rng.random() < 0.5:
            r = random_complex(rng, 2.0 + delta)
            if abs(r) >= 2.0 + delta or r.imag == 0.0:
                continue
            scale = rng.choice((3, 10, 40))
            y0, y1 = random_complex(rng, scale), random_complex(rng, scale)
        else:
            r = complex(rng.uniform(-2, 2), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 0))
            s = cmath.sqrt(r * r - 4)
            lam = max((r + s) / 2, (r - s) / 2, key=abs)
            a = cmath.rect(rng.uniform(1.5, 4.0) / abs(lam), rng.uniform(0, 2 * math.pi))
            b = random_complex(rng, 0.5)
            y0, y1 = a + b, a * lam + b / lam
        if not ps.fan_escapes(r, y0, y1):
            rejected += 1
            continue
        tested += 1
        assert fan_walk_escapes(r, y0, y1, 60)
    assert rejected > 100


def test_every_fan_prune_passes_the_fan_walk(monkeypatch):
    # a spy on _fan_bound keeps each fan the search prunes, with the trace r
    # whose _fan_root it was given, over seeded criterion-9 pixels and seeded
    # triples; the walk shares no code with the bound, so it sees a fault in
    # either of the bound's two conditions (tests/mutants.py)
    roots = {}  # id(root) -> (root, r); holding each root keeps its id unique
    pruned = []
    fan_root, fan_bound = markoff._fan_root, markoff._fan_bound

    def root_spy(r):
        root = fan_root(r)
        roots[id(root)] = (root, r)
        return root

    def bound_spy(root, y0, y1):
        escapes = fan_bound(root, y0, y1)
        if escapes:
            pruned.append((roots[id(root)][1], y0, y1))
        return escapes

    monkeypatch.setattr(markoff, "_fan_root", root_spy)
    monkeypatch.setattr(markoff, "_fan_bound", bound_spy)
    rng = random.Random(35)
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=64, height=64, budget=20000)
    for _ in range(256):
        ps.pixel_verdict(cfg, ps.pixel_trace(cfg, rng.randrange(64), rng.randrange(64)))
    for _ in range(64):
        t = ps.MarkoffTriple(*(random_complex(rng, 3.0) for _ in range(3)))
        ps.bq_decide(t, 2000)
    assert len(pruned) > 1000
    assert [fan for fan in pruned if not fan_walk_escapes(*fan, 16)] == []


def test_fan_pruning_certifies_beside_a_small_generator_trace():
    # without the fan rule, the infinite fan around the small b-region
    # exhausts any budget
    t = ps.MarkoffTriple(3, -1 + 1j, 3)
    verdict = ps.bq_decide(t, 10 ** 5)
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED
    assert verdict.pruned_fan > 0 and verdict.pruned_escape > 0
    assert verdict.nodes_explored <= 10
    assert verdict.small_traces == (((1, 0), -1 + 1j),)


def test_bq_certified_on_commutator_minus_two_triple():
    verdict = ps.bq_decide(ps.MarkoffTriple(3, 3, 3), 10 ** 5)
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED
    assert verdict.nodes_explored <= 100
    assert verdict.witnesses == ()
    assert verdict.small_traces == ()


def test_bq_witness_on_elliptic_generator():
    verdict = ps.bq_decide(ps.MarkoffTriple(1, 3, 3), 10 ** 5)
    assert verdict.kind == ps.BqKind.NOT_BQ_WITNESS
    assert verdict.witnesses[0][0] == (0, 1)
    assert verdict.witnesses[0][1] == 1


def test_bq_witness_rule_is_the_classify_rule():
    # traces on a grid at the tolerance scale around the points where the
    # parabolic discs meet the elliptic segment, and inside and off it
    step = _TOL / 2
    for t0 in (2.0, -2.0, 0.0, 1.9999999999):
        for k in range(-4, 5):
            for j in range(-4, 5):
                t = t0 + complex(k, j) * step
                verdict = ps.bq_decide(ps.MarkoffTriple(t, 5, 5), 10)
                witness = (verdict.kind == ps.BqKind.NOT_BQ_WITNESS
                           and verdict.witnesses == (((0, 1), t),))
                kind = ps.classify(ps.MoebiusMap(t, -1, 1, 0))
                assert witness == (kind != ps.IsometryClass.LOXODROMIC), (t0, k, j)


def test_bq_zero_budget_is_inconclusive():
    verdict = ps.bq_decide(ps.MarkoffTriple(3, 3, 3), 0)
    assert verdict.kind == ps.BqKind.INCONCLUSIVE
    assert verdict.nodes_explored == 0


def test_bq_small_trace_overflow_reports_witnesses():
    # trace 0.5+1.2i is loxodromic but has modulus <= 2, so with bound 0 the
    # count overflows at the very first slope
    t = ps.MarkoffTriple(0.5 + 1.2j, 5, 5)
    verdict = ps.bq_decide(t, 10 ** 6, small_trace_bound=0)
    assert verdict.kind == ps.BqKind.NOT_BQ_WITNESS
    assert verdict.witnesses == (((0, 1), 0.5 + 1.2j),)
    assert verdict.witnesses == verdict.small_traces


def test_bq_verdict_invariant_under_lift_sign_changes():
    rng = random.Random(54)
    for _ in range(20):
        x, y, z = (random_complex(rng, 4) for _ in range(3))
        base = ps.bq_decide(ps.MarkoffTriple(x, y, z), 2000)
        for sx, sy, sz in ((-1, -1, 1), (-1, 1, -1), (1, -1, -1)):
            flipped = ps.bq_decide(
                ps.MarkoffTriple(sx * x, sy * y, sz * z), 2000
            )
            assert flipped.kind == base.kind
            assert flipped.nodes_explored == base.nodes_explored
            assert flipped.depth_max == base.depth_max
            assert [w[0] for w in flipped.witnesses] == [w[0] for w in base.witnesses]


def test_bq_verdict_constant_on_a_move_orbit():
    # the moves re-mark the same character, so the verdict cannot change
    rng = random.Random(56)
    base = ps.MarkoffTriple(3, 3, 3)
    for _ in range(25):
        cur = base
        for _ in range(rng.randint(1, 6)):
            cur = ps.markoff_move(cur, rng.choice(["X", "Y", "Z"]))
        assert ps.bq_decide(cur, 10 ** 5).kind == ps.BqKind.BQ_CERTIFIED


def moved_elliptic_triples():
    """The elliptic triple (1.5, 3+0.2i, 3-0.1i) after each of the float moves
    X, Y, Z, X, Y, with largest moduli 7.5, 19.6, 144, 2822 and 4.1e5.  The
    moves keep the character up to rounding, so each triple stays non-BQ."""
    t = ps.MarkoffTriple(1.5, 3 + 0.2j, 3 - 0.1j)
    moved = []
    for which in "XYZXY":
        t = ps.markoff_move(t, which)
        moved.append(t)
    return moved


def test_moved_elliptic_triples_stay_non_bq():
    # an escape rule without its growth test (|tn| >= 2 + 1e-6 alone) prunes
    # the branch toward the elliptic slope and certifies these two triples
    # in 3 nodes; the sound rule reaches the one witness in 5 and 6 nodes
    _, after_two, after_three, _, _ = moved_elliptic_triples()
    assert max(map(abs, (after_two.x, after_two.y, after_two.z))) < 20
    assert max(map(abs, (after_three.x, after_three.y, after_three.z))) < 150
    for t in (after_two, after_three):
        verdict = ps.bq_decide(t, 20000)
        assert verdict.kind == ps.BqKind.NOT_BQ_WITNESS, t
        assert len(verdict.witnesses) == 1, verdict.witnesses
        (_, trace), = verdict.witnesses
        assert abs(trace - 1.5) < 1e-6


def test_bq_decide_matches_the_reference_search():
    # the search carries each region's modulus on its edges and keeps each small
    # trace's fan root in one table; the reference takes them again at every
    # edge through the public rules, and
    # must give the same verdict in all seven fields
    rng = random.Random(4101)
    cases = []
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0.0, -3.0), complex(6.0, 3.0)),
                         width=64, height=64)
    for k in rng.sample(range(64 * 64), 250):  # criterion 9's pixels, both roots
        z = ps.pixel_trace(cfg, k % 64, k // 64)
        cases += [(ps.MarkoffTriple(3, y, z), 20000, 64) for y in ps.solve_y_from_fricke(3, z, -2)]
    for _ in range(400):
        # a fifth of the traces real, with either sign of zero imaginary part
        scale = rng.choice((2.5, 4, 10))
        traces = [random_complex(rng, scale) if rng.random() < 0.8
                  else complex(rng.uniform(-scale, scale), rng.choice((0.0, -0.0)))
                  for _ in range(3)]
        cases.append((ps.MarkoffTriple(*traces), 2000, 16))
    cases += [(t, 20000, 64) for t in moved_elliptic_triples()]
    b = complex(1.5e308, 1.5e308)
    for triple in ((b, b, b), (3, 3, b), (1e200, 1e200, 1e200), (3, 3, 3)):
        cases.append((ps.MarkoffTriple(*triple), 1000, 64))
    fields = ("kind", "nodes_explored", "witnesses", "depth_max", "small_traces",
              "pruned_escape", "pruned_fan")
    for t, budget, bound in cases:
        got, want = ps.bq_decide(t, budget, bound), reference_bq_decide(t, budget, bound)
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], t


def test_each_distinct_small_trace_gets_one_fan_root_per_search(monkeypatch):
    # the root depends on the trace alone, so a search takes it once per
    # distinct small trace: regions that share a trace share it, and so do
    # traces that differ only in the sign of a zero imaginary part
    fan_root, calls = markoff._fan_root, []

    def spy(r):
        calls.append(r)
        return fan_root(r)

    monkeypatch.setattr(markoff, "_fan_root", spy)
    shared = {(1j, 1j, 3): [1j, 2j], (1.5j, 1.5j, 1.5j): [1.5j],
              (complex(2.0000005, -0.0), complex(2.0000005, 0.0), 40): [2.0000005]}
    rng = random.Random(4801)
    cases = list(shared) + [tuple(random_complex(rng, 2.5) for _ in range(3)) for _ in range(200)]
    for traces in cases:
        t = ps.MarkoffTriple(*traces)
        calls.clear()
        got = ps.bq_decide(t, 2000, 16)
        roots = list(calls)
        assert len(set(roots)) == len(roots), traces
        if traces in shared:
            assert sorted(roots, key=abs) == shared[traces]
            assert got.pruned_fan > len(roots)
        assert repr(got) == repr(reference_bq_decide(t, 2000, 16)), traces


def test_bq_known_character_classes():
    # reducible parabolic triple: witnessed immediately
    assert ps.bq_decide(
        ps.MarkoffTriple(2, 2, 2), 1000
    ).kind == ps.BqKind.NOT_BQ_WITNESS
    # large real triples and a complex perturbation of one: certified
    for triple in ((4, 4, 4), (5, 5, 5), (3 + 0.2j, 3, 3)):
        verdict = ps.bq_decide(ps.MarkoffTriple(*triple), 10 ** 5)
        assert verdict.kind == ps.BqKind.BQ_CERTIFIED, triple


def test_bq_agrees_with_the_matrix_pipeline_on_reference_reps():
    # a verified ping-pong pair is primitive-stable, hence BQ
    rep, _ = schottky_example()
    verdict = ps.bq_decide(ps.MarkoffTriple.from_representation(rep), 10 ** 5)
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED

    # an elliptic generator fails both pipelines at the same class
    theta = 0.8
    rot = ps.MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    broken = ps.Representation((rot, rep.images[1]))
    bq = ps.bq_decide(ps.MarkoffTriple.from_representation(broken), 10 ** 5)
    assert bq.kind == ps.BqKind.NOT_BQ_WITNESS
    assert bq.witnesses[0][0] == (0, 1)  # the class of the first generator
    assert "a" in {str(w) for w in ps.ps_scan(broken, 2).failures}


def test_bq_real_triples_agree_with_brute_force():
    rng = random.Random(57)
    certified = 0
    for _ in range(60):
        t = ps.MarkoffTriple(*(rng.uniform(-6, 6) for _ in range(3)))
        verdict = ps.bq_decide(t, 20000)
        assert verdict.kind != ps.BqKind.INCONCLUSIVE
        certified += verdict.kind == ps.BqKind.BQ_CERTIFIED
        assert_bq_verdict_agrees_with_slopes(t, verdict, 15)
    assert certified >= 5


def test_bq_recorded_slopes_carry_their_recursion_traces():
    # the search's slope bookkeeping must agree with the mediant recursion
    rng = random.Random(99)
    checked = 0
    for _ in range(100):
        t = ps.MarkoffTriple(
            random_complex(rng, 3), random_complex(rng, 3), random_complex(rng, 3)
        )
        v = ps.bq_decide(t, 3000, small_trace_bound=40)
        for (p, q), trace in list(v.small_traces) + list(v.witnesses):
            expected = ps.slope_trace(t, p, q)
            assert abs(trace - expected) <= 1e-9 * max(1.0, abs(expected))
            checked += 1
    assert checked > 50


def test_solve_y_examples():
    assert ps.solve_y_from_fricke(3, 3, -2) == (6, 3)
    assert ps.solve_y_from_fricke(0, 0, 2) == (2, -2)
    assert ps.solve_y_from_fricke(2, 2, 2) == (2, 2)


def test_solve_y_roots_satisfy_quadratic():
    rng = random.Random(55)
    for _ in range(200):
        x = random_complex(rng, 4)
        z = random_complex(rng, 4)
        kappa = random_complex(rng, 4)
        plus, minus = ps.solve_y_from_fricke(x, z, kappa)
        for y in (plus, minus):
            residual = y * y - x * z * y + (x * x + z * z - 2 - kappa)
            assert abs(residual) <= 1e-8


def test_bq_decide_rejects_negative_arguments():
    t = ps.MarkoffTriple(3, 3, 3)
    # a count is an int, not a bool or a float
    for budget, bound in ((-1, 64), (100, -1), (2.5, 64), (True, 64), (10, 1.5)):
        with pytest.raises(ValueError):
            ps.bq_decide(t, budget, bound)
    assert ps.bq_decide(t, 100, 0).kind == ps.BqKind.BQ_CERTIFIED


def test_bq_verdict_json_round_trip():
    pruned = set()
    for triple in ((3, 3, 3), (1, 3, 3), (1.2, 3.7, 2.9), (3, -1 + 1j, 3)):
        verdict = ps.bq_decide(ps.MarkoffTriple(*triple), 5000,
                               small_trace_bound=8)
        obj = ps.bq_verdict_to_json(verdict)
        assert obj["pruned_escape"] == verdict.pruned_escape
        assert obj["pruned_fan"] == verdict.pruned_fan
        back = ps.bq_verdict_from_json(obj)
        assert back == verdict
        pruned.add((verdict.pruned_escape > 0, verdict.pruned_fan > 0))
    assert (True, True) in pruned


def test_bq_verdict_reader_rejects_malformed_documents():
    good = ps.bq_verdict_to_json(ps.bq_decide(ps.MarkoffTriple(1, 3, 3), 100))
    assert good["witnesses"]
    witness = good["witnesses"][0]
    for bad in ({}, [], {**good, "kind": "MAYBE"},
                {**good, "witnesses": [{**witness, "trace": "1+0j"}]},
                {**good, "witnesses": [{**witness, "trace": [1.0]}]},
                {**good, "witnesses": [{"trace": [1.0, 0.0]}]},
                *({**good, "witnesses": [{**witness, "slope": slope}]}
                  for slope in ("ab", [1], [1.5, 2], [True, 1], [2, 4], [0, 0], [1, -2],
                                [-1, 0])),
                {**good, "small_traces": [{**witness, "slope": [2, 4]}]},
                *({**good, key: value}
                  for key in ("nodes_explored", "depth_max", "pruned_escape", "pruned_fan")
                  for value in ("x", True, 1.5, -3)),
                {**good, "witnesses": []},
                # bq_decide writes either the small traces or one non-loxodromic slope
                {**good, "witnesses": [{"slope": [0, 1], "trace": [5.0, 0.0]},
                                       {"slope": [1, 0], "trace": [7.0, 0.0]}]},
                {**good, "witnesses": [witness, {"slope": [1, 0], "trace": [7.0, 0.0]}]},
                {**good, "witnesses": [{**witness, "trace": [5.0, 3.0]}]},
                {**good, "small_traces": [{"slope": [1, 1], "trace": [2.5, 0.0]}]},
                {**good, "kind": "BQ_CERTIFIED"},
                {**good, "kind": "INCONCLUSIVE"},
                # a finite trace whose modulus passes the float range is loxodromic
                {**good, "witnesses": [{**witness, "trace": [1.5e308, 1.5e308]}]},
                {**good, "witnesses": [{**witness, "trace": [math.inf, 0.0]}]}):
        with pytest.raises(ParseError):
            ps.bq_verdict_from_json(bad)
    # bq-decide writes the level set's kappa beside the verdict
    assert ps.bq_verdict_from_json({**good, "kappa": [-2.0, 0.0]}) == \
        ps.bq_verdict_from_json(good)
