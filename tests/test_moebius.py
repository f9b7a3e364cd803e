import cmath
import math
import random
from fractions import Fraction

import pytest

import primstab as ps
from primstab.errors import (
    DegenerateAction,
    DegenerateMatrix,
    DeterminantError,
    ImageIsLine,
    NonFiniteValue,
    ParseError,
    PrimstabError,
    RankMismatch,
)
from primstab.moebius import _check_entries, _displacement, _walk

from helpers import (
    decimal_half_trace_k,
    decimal_translation_length,
    mat_mul,
    mat_of,
    random_loxodromic,
    random_near_identity_representation,
    random_representation,
    random_sl2,
    random_word,
    reference_entry_check,
    schottky_example,
    word_matrix,
)


@pytest.fixture
def entry_checks(monkeypatch):
    """The entries of every ``_check_entries`` call, from the constructor,
    the spectrum scan (``moebius._classify_walk``) and the orbit probe
    (``moebius._orbit_walk``) alike."""
    from primstab import moebius

    calls = []

    def spy(entries):
        calls.append(entries)
        return _check_entries(entries)

    monkeypatch.setattr(moebius, "_check_entries", spy)
    return calls


def test_each_product_is_checked_once(entry_checks):
    rng = random.Random(27)
    rep, _ = schottky_example()
    w = random_word(rng, 2, 7)
    m, n = rep.images
    entry_checks.clear()
    ps.evaluate(rep, w)
    assert len(entry_checks) == 1
    entry_checks.clear()
    m.mul(n)
    assert len(entry_checks) == 1
    entry_checks.clear()
    report = ps.ps_scan(rep, 6)
    # one product per inverse pair of classes: the partner takes its mate's entry
    assert len(entry_checks) == len(report.entries) // 2
    for periods in (2, 10):
        entry_checks.clear()
        ps.orbit_growth_probe(rep, w, periods)
        # the word once and one product per period, all in one walk
        assert len(entry_checks) == periods + 1


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def test_constructor_rejects_non_unit_determinant():
    with pytest.raises(DeterminantError):
        ps.MoebiusMap(1, 0, 0, 2)
    # ad - bc is inf, and the tolerance 1e-12 * |entries|^2 is inf too
    with pytest.raises(DeterminantError):
        ps.MoebiusMap(1e200, 0, 0, 1e200)
    # ad - bc is inf - inf = NaN, where it is 1e400
    with pytest.raises(DeterminantError):
        ps.MoebiusMap(2e200, 1e200, 1e200, 1e200)
    # only the tolerance overflows, and the determinant is 1
    m = ps.MoebiusMap(1e200, 0, 0, 1e-200)
    assert m.a * m.d == 1.0


def _check_outcome(check, entries):
    try:
        check(*entries)
    except (NonFiniteValue, DeterminantError) as exc:
        return type(exc).__name__, str(exc)
    return "accepted", ""


def test_entry_check_agrees_with_the_rule_without_its_shortcut():
    # the shortcut |ad - bc - 1| <= 1e-9 accepts at once; it must accept
    # nothing the full rule rejects, nor change an error's kind or message
    nan, inf = float("nan"), float("inf")
    cases = [
        (1, 0, 0, 2), (1e200, 0, 0, 1e200), (2e200, 1e200, 1e200, 1e200),
        (1e200, 0, 0, 1e-200), (1e300, 0, 1e-300, 1e-300), (1e6, 1e6, 1e6, 1e6),
        (nan, 0, 0, 1), (1, complex(0, inf), 0, 1), (1, 0, 0, complex(nan, 0)), (inf, 0, 0, 0),
    ]
    rng = random.Random(53)

    def entry(decades):
        return cmath.rect(10.0 ** rng.uniform(-decades, decades), rng.uniform(-math.pi, math.pi))

    for k in range(3000):
        decades = (3, 30, 300)[k % 3]
        a, b, c, d = (entry(decades) for _ in range(4))
        if k % 2:  # determinant 1 up to a relative error in d
            eps = rng.choice((0.0, 1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6))
            d = (1.0 + b * c) / a * (1.0 + eps * cmath.rect(1.0, rng.uniform(-math.pi, math.pi)))
        cases.append((a, b, c, d))
    kinds = set()
    for entries in cases:
        want = _check_outcome(reference_entry_check, entries)
        assert _check_outcome(_check_entries, [tuple(complex(v) for v in entries)]) == want, entries
        assert _check_outcome(ps.MoebiusMap, entries) == want, entries
        kinds.add(want[0])
    assert kinds == {"accepted", "NonFiniteValue", "DeterminantError"}


def _same_float(x, y):
    return (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)) or (x != x and y != y)


def _kind_edge_cases():
    """Entries at and beside the edges of the loxodromic shortcut."""
    tol, up, down = 1e-9, math.inf, -math.inf
    nan, inf = float("nan"), float("inf")
    ims = set()
    for edge in (tol, 2 * tol):
        for x in (edge, math.nextafter(edge, up), math.nextafter(edge, down)):
            ims.update((x, -x))
    ims.update((0.0, -0.0, 0.9e-9, 1.5e-9, 3e-9))
    cases = []
    for im in sorted(ims):
        for re_a, re_d in ((1.0, 1.0), (-1.0, -1.0), (1.0, 0.0), (2.0, 0.0), (1.5, 0.0),
                           (1.0 + tol, 1.0), (-2.0, 0.0), (2.5, 0.0), (0.0, 0.0)):
            for b, c in ((0j, 0j), (tol, 0j), (0j, 1.0), (1.0, 1.0)):
                # the imaginary part on one diagonal entry, or split between both
                cases.append((complex(re_a, im), b, c, complex(re_d, 0.0)))
                cases.append((complex(re_a, im / 2), b, c, complex(re_d, im / 2)))
                cases.append((complex(re_a, im - tol), b, c, complex(re_d, tol)))
    for x in (tol, math.nextafter(tol, up), 0.9e-9):
        for sign in (1.0, -1.0):
            # a lift within 1e-9 of +-I, or just past it, with Im t up to 2e-9
            cases.append((complex(sign, x), 0j, 0j, complex(sign, x)))
            cases.append((complex(sign, x), 0j, 0j, complex(sign, -x)))
            cases.append((complex(sign, x), complex(0, x), 0j, complex(sign, x)))
    for t in (2.0, -2.0, 2.0 + 0.5e-9j, -2.0 + 1e-9j, 2.0 + 1.1e-9j, complex(2.0 + 1e-9, 0.0),
              complex(2.0 - 1e-9, 0.0), complex(-2.0 - 1e-9, 1e-12)):
        # traces within 1e-9 of +-2, off the identity
        cases.append((t - 1.0, 1.0, 0j, 1.0 + 0j))
        cases.append((t / 2, 0.5, -0.5, t / 2))
    big = 1.5e308
    cases += [
        (complex(big, big), 0j, 0j, complex(big, big)), (complex(big, 0.0), 0j, 0j, complex(big, 0.0)),
        (complex(0.0, big), 0j, 0j, complex(0.0, big)), (complex(big, 1e-9), 1e-9, 0j, complex(big, 1e-9)),
        (complex(1.0, 3e-9), complex(big, big), 0j, 1.0 + 0j),
        (complex(inf, 0.0), 0j, 0j, 1.0 + 0j), (complex(0.0, inf), 0j, 0j, 1.0 + 0j),
        (complex(1.0, -inf), 0j, 0j, complex(1.0, inf)), (complex(nan, 0.0), 0j, 0j, 1.0 + 0j),
        (complex(0.0, nan), 0j, 0j, 1.0 + 0j), (complex(1.0, nan), 0j, 0j, complex(1.0, 3e-9)),
        (1.0 + 0j, complex(nan, nan), 0j, complex(1.0, 5e-9)), (complex(1.0, inf), 0j, 0j, complex(1.0, nan)),
    ]
    return cases


def test_kind_and_length_agrees_with_the_rule_without_its_shortcut():
    # a trace with |Im t| > 2e-9 is loxodromic with no identity test: the
    # shortcut may change no kind and no length, to the bit
    from primstab.moebius import _kinds_and_lengths

    from helpers import reference_kind_and_length

    cases = _kind_edge_cases()
    rng = random.Random(61)
    for k in range(4000):
        scale = (1e-9, 1e-8, 1.0, 1e3)[k % 4]
        centre = rng.choice((1.0, -1.0, 0.0, 2.0))
        a, d = (complex(centre + rng.gauss(0.0, scale), rng.gauss(0.0, scale)) for _ in range(2))
        b, c = (complex(rng.gauss(0.0, scale), rng.gauss(0.0, scale)) * rng.choice((0.0, 1.0))
                for _ in range(2))
        cases.append((a, b, c, d))
    # all the cases through one loop, so no map's kind or length leaks into the next
    got_kinds, got_lengths = _kinds_and_lengths(iter(cases))
    assert len(got_kinds) == len(got_lengths) == len(cases)
    for (a, b, c, d), kind, trans_len in zip(cases, got_kinds, got_lengths):
        want_kind, want_len = reference_kind_and_length(a, b, c, d)
        assert kind is want_kind and _same_float(trans_len, want_len), (a, b, c, d)
    assert set(got_kinds) == set(ps.IsometryClass)
    # the identity at the widest: Im t = 2e-9 exactly, and 1.8e-9
    for x in (1e-9, 0.9e-9):
        a = complex(1.0, x)
        assert (a + a).imag > 1e-9
        assert _kinds_and_lengths([(a, 0j, 0j, a)]) == ([ps.IsometryClass.IDENTITY], [0.0])


def test_scan_entries_agree_with_the_classifier_at_its_edges():
    # the spectrum scan classifies its products by the loop that classify and
    # translation_length run, shortcut and all: at the shortcut's edges a
    # rank-1 scan gives a and A the kind and length of the generator, and
    # those of the rule without the shortcut.  Trace 2 + 7e-10i is parabolic,
    # though its |Im t| passes half the 2e-9 of the shortcut, and trace
    # 1.5 + 9e-10i is elliptic
    from helpers import reference_kind_and_length

    maps = [ps.MoebiusMap(2 + 7e-10j, -1, 1, 0), ps.MoebiusMap(1.5 + 9e-10j, -1, 1, 0)]
    for entries in _kind_edge_cases():
        try:
            maps.append(ps.MoebiusMap(*entries))
        except (NonFiniteValue, DeterminantError):
            continue
    assert len(maps) > 100
    kinds = set()
    for m in maps:
        report = ps.ps_scan(ps.Representation((m,)), 1)
        want_kind, want_len = reference_kind_and_length(m.a, m.b, m.c, m.d)
        assert [str(e.cls) for e in report.entries] == ["a", "A"]
        for e in report.entries:
            assert e.kind is want_kind is ps.classify(m), m
            assert _same_float(e.trans_len, want_len), m
            assert _same_float(e.trans_len, ps.translation_length(m)), m
        kinds.add(want_kind)
    assert kinds == set(ps.IsometryClass)
    assert [ps.classify(m) for m in maps[:2]] == [
        ps.IsometryClass.PARABOLIC, ps.IsometryClass.ELLIPTIC]


def test_constructor_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        ps.MoebiusMap(float("inf"), 0, 0, 1)


def test_entry_modulus_past_the_float_range_raises_no_overflow():
    # |det - 1| overflows in the shortcut; the full rule decides.  Its
    # determinant is the entry itself, the known limit of the scaled
    # tolerance, so only the kind of outcome is pinned
    huge = complex(1.5e308, 1.5e308)
    try:
        ps.MoebiusMap(huge, 0, 0, 1)
    except ps.PrimstabError:
        pass


def test_from_matrix_normalizes():
    m = ps.MoebiusMap.from_matrix(2, 0, 0, 2)
    assert close(m.a * m.d - m.b * m.c, 1.0)
    with pytest.raises(DegenerateMatrix):
        ps.MoebiusMap.from_matrix(1, 1, 1, 1)


def test_from_matrix_names_the_entry_it_was_given():
    # inf * 1/sqrt(inf) would be a NaN; the error names the inf passed in
    for i, name in enumerate("abcd"):
        entries = [1, 0, 0, 1]
        entries[i] = math.inf
        with pytest.raises(NonFiniteValue, match=r"entry %s = \(inf\+0j\) is not finite" % name):
            ps.MoebiusMap.from_matrix(*entries)
    with pytest.raises(TypeError, match="expected a number"):
        ps.MoebiusMap.from_matrix("2", 0, 0, 2)


def test_evaluate_single_letter_and_identity():
    rng = random.Random(20)
    rep = random_representation(rng, 2)
    assert ps.evaluate(rep, ps.parse_word("a", 2)) == rep.images[0]
    assert ps.evaluate(rep, ps.parse_word("aA", 2)) == ps.MoebiusMap.identity()


def test_evaluate_frozen_product():
    rep = ps.Representation((ps.MoebiusMap(1, 1, 1, 2), ps.MoebiusMap(1, -1, -1, 2)))
    m = ps.evaluate(rep, ps.parse_word("ab"))
    assert (m.a, m.b, m.c, m.d) == (0, 1, -1, 3)


def test_evaluate_rank_mismatch():
    rng = random.Random(21)
    rep = random_representation(rng, 2)
    with pytest.raises(RankMismatch):
        ps.evaluate(rep, ps.parse_word("c"))
    # a representation holds at least one map, its rank their number
    assert ps.Representation(rep.images[:1]).rank == 1
    with pytest.raises(ValueError, match="'rank' must be at least 1"):
        ps.Representation(())
    with pytest.raises(TypeError):
        ps.Representation((rep.images[0], (1, 0, 0, 1)))


def test_evaluate_equals_the_bare_product_exactly():
    rng = random.Random(34)
    for k in range(300):
        rank = 2 + k % 2
        if k % 3 == 0:
            rep = random_near_identity_representation(rng, rank)
        else:
            rep = random_representation(rng, rank)
        w = random_word(rng, rank, rng.randint(0, 30))
        assert mat_of(ps.evaluate(rep, w)) == word_matrix(rep, w.letters)


def test_walk_multiplies_an_integer_table_exactly():
    # the walk starts from table[0], so a table of ints stays in the ints:
    # (ab)^40 has entries near 4e16, past the 2^53 floats hold exactly
    a, b = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    table = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (1, -1, 0, 1)]
    got = next(_walk(table, ((0, (1, 2) * 40),)))
    exact = [[1, 0], [0, 1]]
    for _ in range(40):
        exact = mat_mul(mat_mul(exact, a), b)
    assert all(type(v) is int for v in got)
    assert got == (exact[0][0], exact[0][1], exact[1][0], exact[1][1]) and got[0] > 2 ** 53


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _exact_mul(m1, m2):
    def cmul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    def cadd(u, v):
        return u[0] + v[0], u[1] + v[1]

    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return [[cadd(cmul(a1, a2), cmul(b1, c2)), cadd(cmul(a1, b2), cmul(b1, d2))],
            [cadd(cmul(c1, a2), cmul(d1, c2)), cadd(cmul(c1, b2), cmul(d1, d2))]]


def test_class_traces_match_exact_rational_arithmetic():
    # the float entries are exact rationals; their exact product is the
    # reference the float product should reach to a few ulps
    classes = ps.enumerate_primitive_classes(2, 10)
    rng = random.Random(35)
    for _ in range(5):
        rep = random_representation(rng, 2)
        letters = {}
        for i, m in enumerate(rep.images, 1):
            a, b, c, d = (_exact(v) for v in (m.a, m.b, m.c, m.d))
            letters[i] = [[a, b], [c, d]]
            letters[-i] = [[d, (-b[0], -b[1])], [(-c[0], -c[1]), a]]
        for cls in classes:
            exact = [[(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))],
                     [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]]
            for v in cls.letters:
                exact = _exact_mul(exact, letters[v])
            want = complex(exact[0][0][0] + exact[1][1][0], exact[0][0][1] + exact[1][1][1])
            got = ps.evaluate(rep, cls).trace()
            assert abs(got - want) <= 1e-12 * abs(want), (cls, got, want)


def test_evaluate_determinant_stays_unit_on_long_words():
    # near-identity generators keep 50-fold products at a scale where the
    # computed determinant is actually meaningful
    rng = random.Random(23)
    for _ in range(20):
        rep = random_near_identity_representation(rng, 2)
        w = random_word(rng, 2, 50)
        m = ps.evaluate(rep, w)
        scale = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
        assert scale < 1e3
        assert close(m.a * m.d - m.b * m.c, 1.0, 1e-6)


def test_classify_examples():
    assert ps.classify(ps.MoebiusMap(1, 1, 0, 1)) == ps.IsometryClass.PARABOLIC
    assert ps.classify(ps.MoebiusMap(2, 0, 0, 0.5)) == ps.IsometryClass.LOXODROMIC
    theta = math.acos(0.5)
    rot = ps.MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    assert close(rot.trace(), 1.0)
    assert ps.classify(rot) == ps.IsometryClass.ELLIPTIC
    assert ps.classify(ps.MoebiusMap.identity()) == ps.IsometryClass.IDENTITY
    assert ps.classify(-ps.MoebiusMap.identity()) == ps.IsometryClass.IDENTITY
    # |b| passes the float range, so b is far from 0 and the trace, 2, decides
    huge = complex(1.5e308, 1.5e308)
    assert ps.classify(ps.MoebiusMap(1, huge, 0, 1)) == ps.IsometryClass.PARABOLIC


def test_classify_sign_and_conjugation_robust():
    rng = random.Random(24)
    for _ in range(50):
        m = random_sl2(rng)
        assert ps.classify(m) == ps.classify(-m)
        u = random_sl2(rng)
        assert ps.classify(u.mul(m).mul(u.inverse())) == ps.classify(m)


def test_translation_length_examples():
    assert abs(ps.translation_length(ps.MoebiusMap(2, 0, 0, 0.5)) - 2 * math.log(2)) <= 1e-12
    assert ps.translation_length(ps.MoebiusMap(1, 1, 0, 1)) == 0.0
    assert ps.translation_length(ps.MoebiusMap(0, -1, 1, 0)) == 0.0
    # trace 2 + 5e-10 is parabolic, so its length is 0.0, not the 4.47e-5 of its trace
    near = ps.MoebiusMap(2.0000000005, -1, 1, 0)
    assert ps.classify(near) is ps.IsometryClass.PARABOLIC
    assert repr(ps.translation_length(near)) == "0.0"
    # |t| past 1e154: t^2 overflows, the length does not
    huge = ps.MoebiusMap(2e160, 1e160, 1e-160, 1e-160)
    assert abs(ps.translation_length(huge) - 2 * math.log(2e160)) <= 1e-12 * 738.2
    # |t| past 9e307: t + s overflows, the length does not
    for sign in (1, -1):
        ceiling = ps.MoebiusMap(sign * 1e308, 0, 0, sign * 1e-308)
        assert abs(ps.translation_length(ceiling) - 2 * math.log(1e308)) <= 1e-12 * 1418.4
    # finite entries whose modulus, and the trace's, is past the float range:
    # neither the identity test nor the trace rule nor the length overflows
    big = complex(1.3e308, 1.3e308)
    past = ps.MoebiusMap(big, 0, 0, complex(0.5, -0.5) / 1.3e308)
    assert ps.classify(past) == ps.IsometryClass.LOXODROMIC
    want = 2 * (math.log(1.3e308) + 0.5 * math.log(2))
    assert abs(ps.translation_length(past) - want) <= 1e-12 * want
    # sqrt(t - 2) * sqrt(t + 2) overflows for this trace; the length is finite
    past = ps.MoebiusMap(complex(1.5e308, 1.5e308), 0, 0, complex(0.5, -0.5) / 1.5e308)
    want = 2 * (math.log(1.5e308) + 0.5 * math.log(2))
    assert abs(ps.translation_length(past) - want) <= 1e-12 * want


def test_translation_length_is_within_4_ulps_of_a_decimal_oracle():
    # the small lengths of near-parabolic and near-elliptic loxodromics are
    # the ones that decide a scan's min_ratio: ln(1 + x) for a tiny x must
    # not cancel
    from primstab.moebius import _kinds_and_lengths, _trace_length

    rng = random.Random(2903)
    traces = []
    for _ in range(2000):
        # near +-2, near the elliptic segment, Gaussian, and up to 1e308
        near = 10 ** rng.uniform(math.log10(2e-9), -1)
        traces.append(rng.choice((2.0, -2.0)) + cmath.rect(near, rng.uniform(-math.pi, math.pi)))
        off = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-9, -3)
        traces.append(complex(rng.uniform(-2.0, 2.0), off))
        traces.append(complex(rng.gauss(0.0, 4.0), rng.gauss(0.0, 4.0)))
        traces.append(cmath.rect(10 ** rng.uniform(0, 308), rng.uniform(-math.pi, math.pi)))
    for t in traces:
        got = _trace_length(t)
        want = decimal_translation_length(t)
        assert abs(got - want) <= 4 * math.ulp(want), (t, got, want)
        [kind], [length] = _kinds_and_lengths([(t, -1, 1, 0)])
        if kind is ps.IsometryClass.LOXODROMIC:
            assert 0.0 < length < math.inf, (t, length)
        # the public length is that one where classify says loxodromic, and
        # 0.0 everywhere else, also where the trace gives a small length
        m = ps.MoebiusMap(t, -1, 1, 0)
        loxodromic = ps.classify(m) is ps.IsometryClass.LOXODROMIC
        assert _same_float(ps.translation_length(m), got if loxodromic else 0.0), t
    # a real trace in [-2, 2] has length exactly 0.0, whatever the sign of
    # its zero imaginary part
    for x in [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0] + [rng.uniform(-2.0, 2.0) for _ in range(200)]:
        for zero in (0.0, -0.0):
            assert repr(_trace_length(complex(x, zero))) == "0.0", (x, zero)


def test_half_trace_split_is_within_4_ulps_of_a_decimal_oracle():
    # k, with k^2 = (t/2)^2 - 1, gives the fan rule its roots h +- k and the
    # axis its height; sinh(acosh(t/2)) misses it by up to 1e6 ulps near +-2
    from primstab.traces import _half_trace_split

    rng = random.Random(3201)
    for _ in range(1000):
        angle = rng.uniform(-math.pi, math.pi)
        # near +-2, near 0, Gaussian, 1e3 to 1e50, and 1e150 to 1e307
        for t in (
            rng.choice((2.0, -2.0)) + cmath.rect(10 ** rng.uniform(-12, -1), angle),
            cmath.rect(10 ** rng.uniform(-12, 0), angle),
            complex(rng.gauss(0.0, 4.0), rng.gauss(0.0, 4.0)),
            cmath.rect(10 ** rng.uniform(3, 50), angle),
            cmath.rect(10 ** rng.uniform(150, 307), angle),
        ):
            k = _half_trace_split(t)[1]
            want = decimal_half_trace_k(t)
            assert abs(abs(k) - want) <= 4 * math.ulp(want), (t, k, want)


def test_translation_length_of_negative_trace_does_not_cancel():
    m = ps.MoebiusMap(1e8, 0, 0, 1e-8)
    assert ps.translation_length(-m) == ps.translation_length(m)
    assert abs(ps.translation_length(-m) - 2 * math.log(1e8)) <= 1e-9


def test_translation_length_conjugation_invariant():
    rng = random.Random(25)
    for _ in range(50):
        m = random_sl2(rng)
        u = random_sl2(rng)
        conj = u.mul(m).mul(u.inverse())
        assert close(ps.translation_length(conj), ps.translation_length(m), 1e-9)
        assert close(ps.translation_length(-m), ps.translation_length(m), 1e-12)


def test_trace_identity_against_oracle():
    rng = random.Random(27)
    for _ in range(200):
        m = random_sl2(rng)
        n = random_sl2(rng)
        lhs = m.mul(n).trace() + m.mul(n.inverse()).trace()
        # oracle: bare list arithmetic, no renormalization
        prod = mat_mul(mat_of(m), mat_of(n))
        assert close(lhs, m.trace() * n.trace(), 1e-9)
        assert close(prod[0][0] + prod[1][1], m.mul(n).trace(), 1e-9)


def test_apply_is_the_action_at_height_zero():
    m = ps.MoebiusMap(2, 1, 1, 1)
    assert close(m.apply(1j), (2j + 1) / (1j + 1), 1e-15)
    with pytest.raises(DegenerateAction):
        m.apply(-1)  # the pole
    # a * z = 1e400 leaves the float range
    with pytest.raises(DegenerateAction):
        ps.MoebiusMap(1e200, 0, 0, 1e-200).apply(1e200)


def test_act_uhs_examples():
    p = ps.UhsPoint(0.25 + 0.5j, 1.5)
    assert ps.act_uhs(ps.MoebiusMap.identity(), p) == p
    moved = ps.act_uhs(ps.MoebiusMap(2, 0, 0, 0.5), ps.UhsPoint(0, 1))
    assert close(moved.z, 0) and close(moved.t, 4.0)
    moved = ps.act_uhs(ps.MoebiusMap(1, 1, 0, 1), ps.UhsPoint(0, 1))
    assert close(moved.z, 1.0) and close(moved.t, 1.0)
    # |c|^2 t^2 = 1e310 overflows, but the image t / 1e310 is a float
    moved = ps.act_uhs(ps.MoebiusMap(0, -1e-145, 1e145, 0), ps.UhsPoint(0, 1e10))
    assert moved.z == 0 and close(moved.t, 1e-300, 1e-12 * 1e-300)
    # the image height 1 / 1e400 underflows to 0, which is no point of the space
    with pytest.raises(DegenerateAction):
        ps.act_uhs(ps.MoebiusMap(1e-200, 0, 0, 1e200), ps.UhsPoint(0, 1))


def test_act_uhs_is_isometry():
    rng = random.Random(28)
    for _ in range(100):
        m = random_sl2(rng)
        p = ps.UhsPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 3))
        q = ps.UhsPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 3))
        d_before = ps.uhs_distance(p, q)
        d_after = ps.uhs_distance(ps.act_uhs(m, p), ps.act_uhs(m, q))
        assert close(d_after, d_before, 1e-9)


def test_uhs_distance_examples():
    assert close(ps.uhs_distance(ps.UhsPoint(0, 1), ps.UhsPoint(0, math.e)), 1.0, 1e-12)
    p = ps.UhsPoint(1 + 2j, 0.7)
    assert ps.uhs_distance(p, p) == 0.0
    q = ps.UhsPoint(-1, 2.0)
    assert close(ps.uhs_distance(p, q), ps.uhs_distance(q, p), 1e-15)
    # 2 t1 t2 underflows to 0: arccosh(1 + 1 / 2e-340) = ln(1e340)
    low = ps.UhsPoint(0, 1e-170)
    assert close(ps.uhs_distance(low, ps.UhsPoint(1, 1e-170)), 340 * math.log(10), 1e-9)
    assert ps.uhs_distance(low, low) == 0.0
    assert close(ps.uhs_distance(low, ps.UhsPoint(0, 1e-169)), math.log(10), 1e-12)
    # short distances keep every digit: 1 + x no longer rounds away x
    assert ps.uhs_distance(ps.UhsPoint(0, 1), ps.UhsPoint(1e-10, 1)) == 1e-10
    assert close(ps.uhs_distance(ps.UhsPoint(0, 1), ps.UhsPoint(1e-7, 1)), 1e-7, 1e-12 * 1e-7)
    # z1 - z2 = 2e308 overflows, a quarter of it does not: 2 asinh(1e308 / 1)
    far = ps.uhs_distance(ps.UhsPoint(1e308, 1e-300), ps.UhsPoint(-1e308, 1e300))
    assert close(far, 2 * math.asinh(1e308), 1e-12 * 1419.8)
    # z1 - z2 overflows here too, though r = sqrt 2: its quarters keep r finite
    z = 1.7e308 * (1 + 1j)
    far = ps.uhs_distance(ps.UhsPoint(z, 1.7e308), ps.UhsPoint(-z, 1.7e308))
    assert close(far, 2 * math.asinh(math.sqrt(2)), 1e-12)
    # r = 1e10 / 2e-300 passes the float range: 2 ln 2r = 620 ln 10
    far = ps.uhs_distance(ps.UhsPoint(1e10, 1e-300), ps.UhsPoint(0, 1e-300))
    assert close(far, 620 * math.log(10), 1e-12 * 1427.6)
    # subnormal coordinates keep their digits: r = sqrt 2 / 2, 2 asinh r = 1.31696
    tiny = ps.uhs_distance(ps.UhsPoint(-5e-324 + 5e-324j, 5e-324), ps.UhsPoint(0, 5e-324))
    assert close(tiny, 2 * math.asinh(math.sqrt(0.5)), 1e-12)


def test_displacement_is_the_distance_j_moves():
    rng = random.Random(37)
    j = ps.UhsPoint(0, 1)
    for _ in range(300):
        m = random_sl2(rng, rng.choice([0.5, 1, 3]))
        d = _displacement(m)
        assert close(d, ps.uhs_distance(j, ps.act_uhs(m, j)), 1e-12 * max(1.0, d))
    # near the identity nothing cancels: diag(lam, 1/lam) moves j by 2 ln lam,
    # up to the rounding of 1/lam (5e-8 relative)
    lam = 1 + 1e-9
    assert close(_displacement(ps.MoebiusMap(lam, 0, 0, 1 / lam)), 2 * math.log(lam), 1e-6 * 2e-9)
    # far from the identity: diag(1e300, 1e-300) moves j by 2 ln 1e300
    assert close(_displacement(ps.MoebiusMap(1e300, 0, 0, 1e-300)), 600 * math.log(10), 1e-12 * 1381.6)


def test_axis_point_is_translated_by_exactly_the_length():
    rng = random.Random(29)
    # |c| <= 1e-9 is no affine map: the summit is on the axis, and for
    # a = d there is no affine fixed point at all
    near_affine = [ps.MoebiusMap(3, 8e10, 1e-10, 3),
                   ps.MoebiusMap(3, (3 * 3.0000001 - 1) / 1e-10, 1e-10, 3.0000001)]
    for m in near_affine + [random_loxodromic(rng) for _ in range(30)]:
        base = ps.axis_point(m)
        length = ps.translation_length(m)
        assert close(ps.uhs_distance(base, ps.act_uhs(m, base)), length, 1e-8)


def test_axis_point_of_a_huge_trace():
    # trace 1e200: t^2 overflows, but the axis joins the fixed points
    # about -1e-200 and 1e200
    m = ps.MoebiusMap(1e200, 1, 1, 2e-200)
    base = ps.axis_point(m)
    assert close(base.z, 5e199, 1e188) and close(base.t, 5e199, 1e188)
    assert close(ps.translation_length(m), 2 * 200 * math.log(10), 1e-9)
    # a summit height of 2.8 / 1e-310 passes the float range
    with pytest.raises(NonFiniteValue):
        ps.axis_point(ps.MoebiusMap(3, 8e300, 1e-310, 3))
    # only a loxodromic map has an axis
    for m in (ps.MoebiusMap(1, 1, 0, 1), ps.MoebiusMap(0, -1, 1, 0)):
        with pytest.raises(ValueError, match="axis"):
            ps.axis_point(m)


def test_image_circle_identity_and_translation():
    disk = ps.SphereDisk(0, 1.0)
    same = ps.image_circle(ps.MoebiusMap.identity(), disk)
    assert close(same.center, 0) and close(same.radius, 1.0) and same.interior == ps.DiskSide.INSIDE
    moved = ps.image_circle(ps.MoebiusMap(1, 1, 0, 1), disk)
    assert close(moved.center, 1.0) and close(moved.radius, 1.0)
    assert moved.interior == ps.DiskSide.INSIDE


def test_image_circle_inversion_example():
    # z -> -1/z maps the disk |z-3| <= 1 onto |z+3/8| <= 1/8
    m = ps.MoebiusMap(0, -1, 1, 0)
    img = ps.image_circle(m, ps.SphereDisk(3, 1))
    assert close(img.center, -0.375) and close(img.radius, 0.125)
    assert img.interior == ps.DiskSide.INSIDE


def test_image_circle_pole_inside_flips_side():
    # pole at 0 lies inside |z| <= 2, so the image contains infinity
    m = ps.MoebiusMap(0, -1, 1, 0)
    img = ps.image_circle(m, ps.SphereDisk(0, 2))
    assert img.interior == ps.DiskSide.OUTSIDE
    assert close(img.center, 0) and close(img.radius, 0.5)
    # |u0|^2 - r^2 overflows, its factors do not: the image radius is 1e-200
    img = ps.image_circle(m, ps.SphereDisk(5, 1e200))
    assert img.interior == ps.DiskSide.OUTSIDE
    assert img.center == 0 and close(img.radius, 1e-200, 1e-12 * 1e-200)


def test_image_circle_line_detection():
    m = ps.MoebiusMap(0, -1, 1, 0)  # pole at 0
    with pytest.raises(ImageIsLine):
        ps.image_circle(m, ps.SphereDisk(1, 1))
    # schottky_check reports the line as a degenerate pairing
    verdict = ps.schottky_check(ps.Representation((m,)),
                                [(ps.SphereDisk(1, 1), ps.SphereDisk(5, 1))])
    assert not verdict.valid and verdict.reason == "DEGENERATE"


def test_image_circle_past_the_float_range_is_a_domain_error():
    # |c|^2 underflows to 0, and the image center a/c = 1e400 is no float
    with pytest.raises(PrimstabError):
        ps.image_circle(ps.MoebiusMap(1e200, 0, 1e-200, 1e-200), ps.SphereDisk(5, 1))
    # c = d = 0 passes the constructor (S > 1e12), and apply refuses it too
    with pytest.raises(DegenerateAction):
        ps.image_circle(ps.MoebiusMap(1e6, 1e6, 0, 0), ps.SphereDisk(5, 1))
    # an affine scale |a/d| past the float range, with no OverflowError on the way
    with pytest.raises(NonFiniteValue):
        ps.image_circle(ps.MoebiusMap(1.5e308 + 1.5e308j, 0, 0, 1), ps.SphereDisk(0, 1))
    # |u0| passes the float range, so the image radius underflows to 0;
    # schottky_check finds the disks disjoint, then meets the same image
    m, far = ps.MoebiusMap(0, -1, 1, 0), ps.SphereDisk(1.5e308 + 1.5e308j, 1)
    with pytest.raises(PrimstabError):
        ps.image_circle(m, far)
    with pytest.raises(PrimstabError):
        ps.schottky_check(ps.Representation((m,)), [(far, ps.SphereDisk(0, 1))])


def test_image_circle_sample_points_land_on_image():
    rng = random.Random(30)
    checked = 0
    while checked < 50:
        m = random_sl2(rng)
        center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        radius = rng.uniform(0.2, 1.5)
        disk = ps.SphereDisk(center, radius)
        try:
            img = ps.image_circle(m, disk)
        except ImageIsLine:
            continue
        checked += 1
        for k in range(16):
            z = center + radius * cmath.exp(2j * math.pi * k / 16)
            assert abs(abs(m.apply(z) - img.center) - img.radius) <= 1e-8


def test_schottky_example_is_valid():
    rep, pairs = schottky_example()
    verdict = ps.schottky_check(rep, pairs)
    assert verdict.valid and verdict.reason is None
    with pytest.raises(RankMismatch):
        ps.schottky_check(rep, pairs[:1])


def test_schottky_check_does_not_depend_on_the_scale():
    # the example conjugated by z -> s z, its disks moved along: valid at
    # every scale, and with b's disks replaced by a's never disjoint
    rep, pairs = schottky_example()
    for e in range(-12, 13):
        root = math.sqrt(10.0 ** e)
        s = ps.MoebiusMap(root, 0, 0, 1 / root)
        scaled = ps.Representation(tuple(s.mul(g).mul(s.inverse()) for g in rep.images))
        moved = [tuple(ps.image_circle(s, d) for d in pair) for pair in pairs]
        verdict = ps.schottky_check(scaled, moved)
        assert verdict.valid, (e, verdict.detail)
        verdict = ps.schottky_check(scaled, [moved[0], moved[0]])
        assert verdict.reason == "DISJOINTNESS", e


def test_schottky_overlapping_disks():
    rep, pairs = schottky_example()
    bad = [(ps.SphereDisk(0, 1.0), ps.SphereDisk(1.0, 1.0)), pairs[1]]
    verdict = ps.schottky_check(rep, bad)
    assert not verdict.valid and verdict.reason == "DISJOINTNESS"
    # a disk past the float range from the hole of an outside disk lies in it
    m = ps.MoebiusMap(0, -1, 1, 0)
    bad = [(ps.SphereDisk(1.5e308 + 1.5e308j, 1), ps.SphereDisk(0, 1, ps.DiskSide.OUTSIDE))]
    verdict = ps.schottky_check(ps.Representation((m,)), bad)
    assert not verdict.valid and verdict.reason == "DISJOINTNESS"


def test_schottky_identity_generator_fails_pairing():
    _, pairs = schottky_example()
    rep = ps.Representation((ps.MoebiusMap.identity(), ps.MoebiusMap.identity()))
    verdict = ps.schottky_check(rep, pairs)
    assert not verdict.valid and verdict.reason == "PAIRING"


def test_disk_contains():
    inside, outside = ps.SphereDisk(1j, 2), ps.SphereDisk(1j, 2, ps.DiskSide.OUTSIDE)
    for z, want in ((1j, True), (2 + 1j, True), (3j, True), (3 + 1j, False), (-2j, False)):
        assert inside.contains(z) is want, z
        # the boundary circle belongs to both closed sides
        assert outside.contains(z) is (not want or abs(z - 1j) == 2), z
    # |z - center| passes the float range: far outside, and no OverflowError
    far = ps.SphereDisk(1.5e308 + 1.5e308j, 1)
    assert not far.contains(0) and far.complement().contains(0)
    for radius in (0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match="invalid disk"):
            ps.SphereDisk(0, radius)


def test_schottky_two_outside_disks_never_disjoint():
    rep, pairs = schottky_example()
    bad = [(ps.SphereDisk(0, 1.0, ps.DiskSide.OUTSIDE), ps.SphereDisk(9, 1.0, ps.DiskSide.OUTSIDE)),
           pairs[1]]
    verdict = ps.schottky_check(rep, bad)
    assert not verdict.valid and verdict.reason == "DISJOINTNESS"


def test_fricke_traces_frozen_example():
    rep = ps.Representation((ps.MoebiusMap(1, 1, 1, 2), ps.MoebiusMap(1, -1, -1, 2)))
    x, y, z, kappa = ps.fricke_traces(rep)
    assert (x, y, z, kappa) == (3, 3, 3, -2)


def test_fricke_traces_identity_rep():
    rep = ps.Representation((ps.MoebiusMap.identity(), ps.MoebiusMap.identity()))
    assert ps.fricke_traces(rep) == (2, 2, 2, 2)


def test_fricke_identity_random():
    rng = random.Random(31)
    for _ in range(100):
        rep = random_representation(rng, 2)
        x, y, z, kappa = ps.fricke_traces(rep)
        assert close(x * x + y * y + z * z - x * y * z - 2, kappa, 1e-9)


def test_fricke_requires_rank_2():
    rng = random.Random(32)
    with pytest.raises(RankMismatch):
        ps.fricke_traces(random_representation(rng, 3))


def test_representation_json_round_trip():
    rng = random.Random(33)
    rep = random_representation(rng, 3)
    doc = ps.representation_to_json(rep)
    back = ps.representation_from_json(doc)
    assert back.rank == rep.rank
    for m, n in zip(back.images, rep.images):
        for p, q in zip((m.a, m.b, m.c, m.d), (n.a, n.b, n.c, n.d)):
            assert abs(p - q) <= 1e-12


def test_representation_json_errors():
    with pytest.raises(ParseError):
        ps.representation_from_json({"generators": []})
    with pytest.raises(ParseError):
        ps.representation_from_json({"rank": 1})
    with pytest.raises(ParseError):
        ps.representation_from_json([1, 2, 3])
    one = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(ParseError, match="extra"):
        ps.representation_from_json({"rank": 1, "generators": one, "extra": 5})
    bad_det = {
        "rank": 1,
        "generators": [[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }
    with pytest.raises(DeterminantError):
        ps.representation_from_json(bad_det)
    # json.loads reads Infinity and NaN; the reader's number rule turns them away
    for entry in ([math.inf, 0.0], [0.0, -math.inf], [math.nan, 0.0]):
        doc = {"rank": 1, "generators": [[entry, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}
        with pytest.raises(ParseError, match="not finite"):
            ps.representation_from_json(doc)


def test_representation_json_renormalizes_small_drift():
    drift = 1 + 3e-7
    doc = {
        "rank": 1,
        "generators": [[[drift, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }
    rep = ps.representation_from_json(doc)
    m = rep.images[0]
    assert abs(m.a * m.d - m.b * m.c - 1.0) <= 1e-12
