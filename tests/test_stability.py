import cmath
import json
import math
import random

import pytest

import primstab as ps
from primstab import moebius, stability, whitehead
from primstab.cli import run
from primstab.errors import (
    BadSubset,
    CheckFailed,
    DegenerateAction,
    DeterminantError,
    NonFiniteValue,
    ParseError,
    RankMismatch,
)

from helpers import (
    REP3,
    REP4,
    REP_ELLIPTIC,
    decimal_translation_length,
    random_automorphism,
    random_complex,
    random_near_identity_representation,
    random_representation,
    random_sl2,
    random_word,
    reference_orbit_growth_probe,
    schottky_example,
    word_matrix,
)


def diag_rep():
    return ps.Representation((ps.MoebiusMap(2, 0, 0, 0.5), ps.MoebiusMap(1, -1, -1, 2)))


def entry_for(entries, text):
    for e in entries:
        if str(e.cls) == text:
            return e
    raise AssertionError("no entry for %r" % (text,))


def test_spectrum_entry_for_diagonal_generator():
    entries = ps.primitive_length_spectrum(diag_rep(), 1)
    e = entry_for(entries, "a")
    assert e.length == 1
    assert abs(e.trans_len - 2 * math.log(2)) <= 1e-12
    assert abs(e.ratio - 2 * math.log(2)) <= 1e-12
    assert e.kind == ps.IsometryClass.LOXODROMIC


def test_spectrum_entry_for_parabolic_generator():
    rep = ps.Representation((ps.MoebiusMap(1, 1, 0, 1), ps.MoebiusMap(1, -1, -1, 2)))
    entries = ps.primitive_length_spectrum(rep, 1)
    e = entry_for(entries, "a")
    assert e.ratio == 0.0 and e.trans_len == 0.0
    assert e.kind == ps.IsometryClass.PARABOLIC


def test_spectrum_matches_bare_matrix_recomputation():
    rng = random.Random(40)
    rep = random_representation(rng, 2, scale=0.8)
    entries = ps.primitive_length_spectrum(rep, 3)
    assert len(entries) == len(ps.enumerate_primitive_classes(2, 3))
    for e in entries:
        oracle = word_matrix(rep, e.cls.letters)
        expected = decimal_translation_length(oracle[0][0] + oracle[1][1])
        if e.kind == ps.IsometryClass.LOXODROMIC:
            assert math.isclose(e.trans_len, expected, rel_tol=1e-12)
            assert math.isclose(e.ratio, expected / e.length, rel_tol=1e-12)
        else:
            assert expected <= 1e-6


def test_ps_scan_schottky_has_no_obstruction():
    rep, pairs = schottky_example()
    assert ps.schottky_check(rep, pairs).valid
    report = ps.ps_scan(rep, 6)
    assert report.verdict == ps.NO_OBSTRUCTION
    assert report.failures == ()
    assert report.min_ratio > 0
    assert report.min_ratio == min(e.ratio for e in report.entries)
    assert report.max_ratio == max(e.ratio for e in report.entries)


def inverse_class(cls):
    return ps.CyclicWord(cls.rank, tuple(-v for v in reversed(cls.letters)))


def entry_value(e):
    return e.kind, e.trans_len, math.copysign(1.0, e.trans_len), e.ratio


def assert_inverse_entries_equal(entries):
    by_class = {e.cls: e for e in entries}
    for e in entries:
        assert entry_value(by_class[inverse_class(e.cls)]) == entry_value(e), e.cls


@pytest.mark.parametrize("rank, max_len", [(1, 6), (2, 14), (3, 6), (4, 4)])
def test_spectrum_along_shared_prefixes_equals_per_class_evaluation(rank, max_len):
    # the scan multiplies each shared prefix once, and only for the class of
    # each inverse pair that comes first in scan order: every such entry must
    # still be bit-equal to evaluating its class on its own, and its
    # partner's entry must be the same, within rounding of the partner's own.
    # The scan classifies a trace with |Im t| > 2e-9 in its loop and every
    # other product through classify's rule in full, so the representations
    # include FAILURE ones, whose first generator is elliptic, parabolic or
    # the identity
    rng = random.Random(47 + rank)
    reps = [random_representation(rng, rank, scale=scale) for scale in (0.5, 1.0, 3.0)]
    theta = rng.uniform(0.3, 2.8)
    for first in (ps.MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)),
                  ps.MoebiusMap(1, 1, 0, 1), ps.MoebiusMap(1, 0, 0, 1)):
        reps.append(ps.Representation((first,) + reps[1].images[1:]))
    for rep in reps:
        entries = ps.ps_scan(rep, max_len).entries
        assert [e.cls for e in entries] == list(ps.enumerate_primitive_classes(rank, max_len))
        by_class = {e.cls: e for e in entries}
        walked = 0
        for e in entries:
            mate = by_class[inverse_class(e.cls)]
            m = ps.evaluate(rep, e.cls)
            kind = ps.classify(m)
            assert e.kind == kind
            want = ps.translation_length(m) if kind == ps.IsometryClass.LOXODROMIC else 0.0
            if e.cls.sort_key() < mate.cls.sort_key():
                walked += 1
                assert math.copysign(1.0, e.trans_len) == math.copysign(1.0, want)
                assert e.trans_len == want and e.ratio == want / len(e.cls)
            else:
                assert entry_value(e) == entry_value(mate)
                assert math.isclose(e.trans_len, want, rel_tol=1e-9, abs_tol=1e-9)
        assert walked == len(entries) // 2


@pytest.mark.parametrize("a, b, walked", [
    ((1, 1, 0, 1), (1, 0, 1, 1), {"LOXODROMIC": 21, "PARABOLIC": 10, "ELLIPTIC": 5}),
    ((2, -1, -1, 1), (1, -1, -1, 2), {"LOXODROMIC": 36})])
def test_scan_kernels_are_exact_on_an_integer_table(a, b, walked):
    # the SL(2,Z) pair and the modular torus: walked over a table of ints,
    # every product stays in the ints through the entry check, and the float
    # classifier gives each class, through its slot, the (kind, length) that
    # the float scan gives it; on Z the float rule is the exact kind rule
    plan, slots, _ = whitehead._walk_plan(2, 7)
    table = [(1, 0, 0, 1), a, b, (b[3], -b[1], -b[2], b[0]), (a[3], -a[1], -a[2], a[0])]
    products = list(map(moebius._check_entries, moebius._walk(table, plan)))
    assert all(type(v) is int for m in products for v in m)
    kinds, lengths = moebius._kinds_and_lengths(products)
    assert {kind.name: kinds.count(kind) for kind in set(kinds)} == walked
    rep = ps.Representation((ps.MoebiusMap(*a), ps.MoebiusMap(*b)))
    assert [(kinds[i], lengths[i]) for i in slots] == [
        (e.kind, e.trans_len) for e in ps.primitive_length_spectrum(rep, 7)]


@pytest.mark.parametrize("rank, max_len", [(1, 6), (2, 10), (3, 5), (4, 4)])
def test_every_class_has_its_inverse_entry(rank, max_len):
    # a class and its inverse have the same kind and translation length:
    # their entries are equal to the bit, over several scales and with an
    # elliptic or a parabolic first generator
    rng = random.Random(3100 + rank)
    theta = rng.uniform(0.3, 2.8)
    firsts = (None, ps.MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta)),
              ps.MoebiusMap(1, 1, 0, 1))
    kinds = set()
    for scale in (0.5, 1.0, 3.0):
        for first in firsts:
            images = random_representation(rng, rank, scale=scale).images
            rep = ps.Representation((first or images[0],) + images[1:])
            entries = ps.ps_scan(rep, max_len).entries
            assert_inverse_entries_equal(entries)
            kinds.update(e.kind for e in entries)
    assert {ps.IsometryClass.ELLIPTIC, ps.IsometryClass.PARABOLIC} <= kinds


@pytest.mark.parametrize("doc, max_len", [(REP3, 5), (REP4, 4), (REP_ELLIPTIC, 4)],
                         ids=["rank-3", "rank-4", "elliptic"])
def test_every_printed_class_has_its_inverse_entry(capsys, tmp_path, doc, max_len):
    # primstab ps-scan prints a class and its inverse class with equal entries
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert run(["ps-scan", "--rep", str(path), "--max-len", str(max_len)]) == 0
    report = ps.ps_report_from_json(json.loads(capsys.readouterr().out))
    assert_inverse_entries_equal(report.entries)


def test_inverse_entries_agree_at_the_parabolic_tolerance():
    # (a, b) with ab = p, a conjugate of diag(lam, 1/lam) whose trace is
    # 2 + 1e-9 (1 +- 1e-6), a millionth of the tolerance from its edge: ab
    # and its inverse AB multiply out to traces that round to either side,
    # yet the two classes must get one kind and one length
    rng = random.Random(5)
    kinds = set()
    for trial in range(600):
        a, g = random_sl2(rng, 2.0), random_sl2(rng, 2.0)
        t = 2 + 1e-9 * (1 + (1, -1)[trial % 2] * 1e-6)
        lam = t / 2 + cmath.sqrt(t * t / 4 - 1)
        p = g.mul(ps.MoebiusMap(lam, 0, 0, 1 / lam)).mul(g.inverse())
        rep = ps.Representation((a, a.inverse().mul(p)))
        entries = ps.ps_scan(rep, 4).entries
        assert_inverse_entries_equal(entries)
        kinds.add(entry_for(entries, "ab").kind)
    assert kinds == {ps.IsometryClass.PARABOLIC, ps.IsometryClass.LOXODROMIC}


def test_ps_scan_rejects_products_that_lose_the_determinant():
    # cancellation in aB leaves determinant 1 - 1.9e-9i, past the 1e-9 check,
    # and aaB and aaaB miss by far more: the scan raises as evaluating its
    # first such walked class (aaaB, in scan order, walked for its inverse
    # pair with AAAb) on its own does
    a, b, c = complex(3.37e10, 9.41e9), complex(2.10e6, 9.77e5), complex(9.21, -3.69)
    m = ps.MoebiusMap(a, b, c, (1 + b * c) / a)
    rep = ps.Representation((m, m))
    with pytest.raises(DeterminantError):
        ps.evaluate(rep, ps.parse_word("aB", 2))
    with pytest.raises(DeterminantError) as scanned:
        ps.ps_scan(rep, 4)
    # the scan stops at the first walked class, the one of each inverse pair
    # first in scan order, that fails on its own, and with that class's
    # message
    for cls in ps.enumerate_primitive_classes(2, 4):
        try:
            ps.evaluate(rep, cls)
        except DeterminantError as exc:
            assert str(exc) == str(scanned.value)
            break
    else:
        pytest.fail("no class fails on its own")


def test_ps_scan_ratio_bounded_by_basepoint_displacement():
    rng = random.Random(41)
    base = ps.UhsPoint(0, 1)
    for _ in range(10):
        rep = random_representation(rng, 2)
        report = ps.ps_scan(rep, 4)
        bound = max(ps.uhs_distance(base, ps.act_uhs(g, base)) for g in rep.images)
        assert report.max_ratio <= bound + 1e-6


@pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 4), (4, 3)])
def test_ps_scan_raises_exactly_past_the_displacement_bound(monkeypatch, rank, max_len):
    # ps_scan takes the largest ratio during its walk, not from the report.
    # With the displacement bound one float either side of the smallest that
    # covers report.max_ratio (so that bound + 1e-6 lands on max_ratio, or on
    # the float below it), the scan raises CheckFailed naming max_ratio below
    # and returns the report at it: the walked maximum is max_ratio to the bit
    rep = random_representation(random.Random(43 + rank), rank)
    report = ps.ps_scan(rep, max_len)
    top = report.max_ratio
    covering = top - 1e-6
    while covering + 1e-6 < top:
        covering = math.nextafter(covering, math.inf)
    while math.nextafter(covering, -math.inf) + 1e-6 >= top:
        covering = math.nextafter(covering, -math.inf)
    short = math.nextafter(covering, -math.inf)
    assert covering + 1e-6 == top and short + 1e-6 == math.nextafter(top, -math.inf)
    monkeypatch.setattr(stability, "_displacement", lambda g: short)
    with pytest.raises(CheckFailed) as failed:
        ps.ps_scan(rep, max_len)
    assert str(failed.value) == (
        "ratio %r exceeds the basepoint displacement bound %r" % (top, short))
    monkeypatch.setattr(stability, "_displacement", lambda g: covering)
    assert ps.ps_scan(rep, max_len) == report


def test_ps_scan_conjugation_invariance():
    rng = random.Random(42)
    rep = random_representation(rng, 2)
    u = random_sl2(rng)
    conj = ps.Representation(tuple(u.mul(g).mul(u.inverse()) for g in rep.images))
    r1 = ps.ps_scan(rep, 4)
    r2 = ps.ps_scan(conj, 4)
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.cls == e2.cls
        assert abs(e1.ratio - e2.ratio) <= 1e-8


def test_precomposition_identity():
    # the entry of rep∘phi at class [w] equals the entry of rep at class [phi(w)]
    rng = random.Random(43)
    rep = random_representation(rng, 2)
    with pytest.raises(RankMismatch):
        ps.precompose(rep, ps.WhiteheadAutomorphism.identity(3))
    for _ in range(10):
        phi = random_automorphism(rng, 2)
        pre = ps.precompose(rep, phi)
        spectrum = {e.cls: e for e in ps.primitive_length_spectrum(rep, 8)}
        for e in ps.primitive_length_spectrum(pre, 2):
            image_class, _ = ps.cyclic_reduce(
                ps.apply_automorphism(phi, e.cls.to_word())
            )
            mate = spectrum.get(image_class)
            if mate is not None:
                assert abs(e.trans_len - mate.trans_len) <= 1e-8


@pytest.mark.parametrize("rank, max_len, count", [(2, 10, 20), (3, 4, 40), (4, 3, 30)])
def test_scan_is_out_equivariant(rank, max_len, count):
    # (rho . phi)(w) = rho(phi(w)), so each class w of the scan of rho . phi
    # maps to the class of phi(w), which the enumeration must list, with the
    # kind and translation length that evaluating it under rho gives.  One
    # representation in three sends a to an elliptic and one to a parabolic,
    # so that FAILURE witnesses are mapped too.
    rng = random.Random(2500 + rank)
    enumerated = {}
    witnesses = 0
    for i in range(count):
        images = random_representation(rng, rank).images
        theta = rng.uniform(0.3, 2.8)
        first = (images[0], ps.MoebiusMap(math.cos(theta), -math.sin(theta),
                                          math.sin(theta), math.cos(theta)),
                 ps.MoebiusMap(1, 1, 0, 1))[i % 3]
        rep = ps.Representation((first,) + images[1:])
        phi = random_automorphism(rng, rank)
        for e in ps.ps_scan(ps.precompose(rep, phi), max_len).entries:
            target, _ = ps.cyclic_reduce(ps.apply_automorphism(phi, e.cls.to_word()))
            n = len(target)
            if n not in enumerated:
                enumerated[n] = set(ps.enumerate_primitive_classes(rank, n))
            assert target in enumerated[n], "phi(%s) = %s is not enumerated" % (e.cls, target)
            m = ps.evaluate(rep, target.to_word())
            assert ps.classify(m) == e.kind
            assert math.isclose(ps.translation_length(m), e.trans_len, rel_tol=1e-9, abs_tol=1e-9)
            witnesses += e.kind != ps.IsometryClass.LOXODROMIC
    assert witnesses > 0


def test_restrict_examples():
    rng = random.Random(44)
    rep = random_representation(rng, 3)
    sub = ps.restrict(rep, [1, 2])
    assert sub.rank == 2
    assert sub.images == rep.images[:2]
    single = ps.restrict(rep, [3])
    assert single.images == (rep.images[2],)


def test_restrict_to_one_generator_reproduces_its_classification():
    rep, _ = schottky_example()
    report = ps.ps_scan(ps.restrict(rep, [1]), 3)
    assert report.verdict == ps.NO_OBSTRUCTION
    assert [str(e.cls) for e in report.entries] == ["a", "A"]
    assert {e.kind for e in report.entries} == {ps.classify(rep.images[0])}


def test_restrict_errors():
    rng = random.Random(45)
    rep = random_representation(rng, 3)
    for bad in ([], [1, 2, 3], [0], [4], [1, 1], [1.0], ["1"], [True], [-1], [[1]]):
        with pytest.raises(BadSubset):
            ps.restrict(rep, bad)


def test_probe_identity_rep():
    rep = ps.Representation((ps.MoebiusMap.identity(), ps.MoebiusMap.identity()))
    slope, residuals = ps.orbit_growth_probe(rep, ps.parse_word("ab"), 10)
    assert slope == 0.0
    assert all(r == 0.0 for r in residuals)


def test_probe_diagonal_exact():
    slope, residuals = ps.orbit_growth_probe(diag_rep(), ps.parse_word("a", 2), 50)
    assert abs(slope - 2 * math.log(2)) <= 1e-3
    assert max(abs(r) for r in residuals) <= 1e-9


def test_probe_near_identity_diagonal():
    # lam - 1/lam = 2e-9: the distances must not cancel to a few digits
    lam = 1 + 1e-9
    rep = ps.Representation((ps.MoebiusMap(lam, 0, 0, 1 / lam), ps.MoebiusMap(1, -1, -1, 2)))
    slope, _ = ps.orbit_growth_probe(rep, ps.parse_word("a", 2), 50)
    assert abs(slope - 2 * math.log(lam)) <= 1e-6 * 2 * math.log(lam)


def test_probe_far_basepoints_keep_finite_distances():
    # the images stay finite points, so distances near 1400 are measured
    word = ps.parse_word("a", 2)
    # a parabolic translation by 1 at height 1e-300: d_m = 2 asinh(m / 2e-300)
    rep = ps.Representation((ps.MoebiusMap(1, 1, 0, 1), ps.MoebiusMap(1, -1, -1, 2)))
    slope, residuals = ps.orbit_growth_probe(rep, word, 50, ps.UhsPoint(1e9, 1e-300))
    dists = [2 * math.asinh(m / 2e-300) for m in range(51)]
    expected = sum(m * d for m, d in enumerate(dists)) / sum(m * m for m in range(51))
    assert abs(slope - expected) <= 1e-12 * expected
    assert all(abs(r + slope * m - d) <= 1e-12 * d for m, (r, d) in enumerate(zip(residuals, dists)))
    # diag(2, 1/2) scales (1e300, 1e-20) by 4^m: d_m = 2 ln((4^m - 1) 1e320 / 2^m)
    rep = ps.Representation((ps.MoebiusMap(2, 0, 0, 0.5), ps.MoebiusMap(1, -1, -1, 2)))
    slope, residuals = ps.orbit_growth_probe(rep, word, 2, ps.UhsPoint(1e300, 1e-20))
    dists = [0.0] + [2 * (math.log(4 ** m - 1) - m * math.log(2) + 320 * math.log(10)) for m in (1, 2)]
    assert abs(slope - (dists[1] + 2 * dists[2]) / 5) <= 1e-12 * 885.4
    assert all(abs(r + slope * m - d) <= 1e-12 * 1476.3 for m, (r, d) in enumerate(zip(residuals, dists)))
    # the half-turn z -> -z at (1e308, 1): z' - z overflows, so quarters are subtracted
    base = ps.UhsPoint(1e308, 1)
    far = moebius._orbit_distance((1j, 0, 0, -1j), base)
    assert far == ps.uhs_distance(base, ps.UhsPoint(-1e308, 1)) == 1419.778711645452


def test_probe_distances_outlive_an_underflowing_image_height():
    # the 50th image of (0, 1) has height e^-873, below the smallest float,
    # while its distance 873 is a float: d_m = 17.46 m
    lam = math.exp(8.73)
    rep = ps.Representation((ps.MoebiusMap(1 / lam, 0, 0, lam), ps.MoebiusMap(1, -1, -1, 2)))
    slope, residuals = ps.orbit_growth_probe(rep, ps.parse_word("a", 2), 50)
    assert abs(slope - 17.46) <= 1e-12 * 17.46
    assert abs(residuals[50] + slope * 50 - 873.0) <= 1e-12 * 873.0


def test_probe_parabolic_sublinear():
    rep = ps.Representation((ps.MoebiusMap(1, 1, 0, 1), ps.MoebiusMap(1, -1, -1, 2)))
    word = ps.parse_word("a", 2)
    slope50, _ = ps.orbit_growth_probe(rep, word, 50)
    slope25, _ = ps.orbit_growth_probe(rep, word, 25)
    # oracle: distances along the orbit are arccosh(1 + m^2/2)
    for periods, got in ((25, slope25), (50, slope50)):
        dists = [math.acosh(1 + m * m / 2) for m in range(periods + 1)]
        expected = sum(m * d for m, d in enumerate(dists)) / sum(
            m * m for m in range(periods + 1)
        )
        assert abs(got - expected) <= 1e-9
    assert slope50 < slope25  # sublinear growth: the fitted rate keeps falling
    assert slope50 < 0.21


def test_probe_requires_two_periods():
    for periods in (1, 3.0, True):
        with pytest.raises(ValueError):
            ps.orbit_growth_probe(diag_rep(), ps.parse_word("a", 2), periods)


def _probe_outcome(monkeypatch, probe, *args):
    """The bits of a probe's slope and residuals, or its error's type and
    message, and the entries of each power it measured, the failing one too."""
    measured, distance = [], moebius._orbit_distance

    def spy(m, p):
        measured.append(m)
        return distance(m, p)

    with monkeypatch.context() as patch:
        patch.setattr(moebius, "_orbit_distance", spy)
        try:
            slope, residuals = probe(*args)
            result = [x.hex() for x in (slope, *residuals)]
        except (DegenerateAction, NonFiniteValue, DeterminantError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, measured


def _assert_probe_matches_reference(monkeypatch, *args):
    got = _probe_outcome(monkeypatch, ps.orbit_growth_probe, *args)
    # the reference's powers are I acc step, which may differ from the walk's
    # only in the sign of a zero part, so the entries compare by ==
    assert got == _probe_outcome(monkeypatch, reference_orbit_growth_probe, *args)
    return got[0]


def test_probe_matches_the_reference_to_the_bit(monkeypatch):
    rng = random.Random(61)
    raised = 0
    for trial in range(60):
        rank = rng.choice((1, 2, 3))
        if trial % 3:
            rep = random_representation(rng, rank, rng.choice((0.5, 1.0, 3.0, 30.0)))
        else:
            rep = random_near_identity_representation(rng, rank)
        w = random_word(rng, rank, rng.randint(1, 6))
        m = ps.evaluate(rep, w)
        bases = [None, ps.UhsPoint(random_complex(rng, 5.0), rng.uniform(0.01, 10.0))]
        if ps.classify(m) == ps.IsometryClass.LOXODROMIC:
            bases.append(ps.axis_point(m))
        for base in bases:
            for periods in (2, 7, 50):
                raised += isinstance(_assert_probe_matches_reference(
                    monkeypatch, rep, w, periods, base), tuple)
    assert raised  # some powers of the wider maps leave the float range
    # the far basepoints and the underflowing image height
    word = ps.parse_word("a", 2)
    other = ps.MoebiusMap(1, -1, -1, 2)
    lam = math.exp(8.73)
    for gen, base, periods in ((ps.MoebiusMap(1, 1, 0, 1), ps.UhsPoint(1e9, 1e-300), 50),
                               (ps.MoebiusMap(2, 0, 0, 0.5), ps.UhsPoint(1e300, 1e-20), 2),
                               (ps.MoebiusMap(1 / lam, 0, 0, lam), None, 50)):
        rep = ps.Representation((gen, other))
        for n in (2, periods):
            assert isinstance(_assert_probe_matches_reference(monkeypatch, rep, word, n, base), list)


def test_probe_raises_as_the_reference_at_the_same_power(monkeypatch):
    word = ps.parse_word("a", 2)
    other = ps.MoebiusMap(2, 1, 1, 1)
    cases = [  # (generator a, basepoint, error, the power that fails)
        # tiny_d: the first image of (0, 1) has height 1e320
        (ps.MoebiusMap(1e160, 0, 0, 1e-160), None, "DegenerateAction", 1),
        # huge_d: the second power's entries 1e-320 and 1e320 are not finite
        (ps.MoebiusMap(1e-160, 0, 0, 1e160), None, "NonFiniteValue", 2),
        # the 8th image of (0, 1) has height 1e320; its entries are 1e+-160
        (ps.MoebiusMap(1e20, 0, 0, 1e-20), None, "DegenerateAction", 8),
        # the 14th image of (1e300, 1) is 4^14 1e300; its entries are 2^+-14
        (ps.MoebiusMap(2, 0, 0, 0.5), ps.UhsPoint(1e300, 1.0), "DegenerateAction", 14),
        # the 18th power's entry 1.8e308 and its image point overflow together:
        # the entry check comes first
        (ps.MoebiusMap(1, 1e307, 0, 1), None, "NonFiniteValue", 18),
    ]
    for gen, base, error, power in cases:
        rep = ps.Representation((gen, other))
        for periods in sorted({2, max(2, power - 1), max(2, power), 50}):
            result, powers = _probe_outcome(monkeypatch, ps.orbit_growth_probe,
                                            rep, word, periods, base)
            if periods < power:
                assert isinstance(result, list) and len(powers) == periods
            else:
                assert result[0] == error
                # a power whose entries fail the check is never measured
                assert len(powers) == power - (error == "NonFiniteValue")
            _assert_probe_matches_reference(monkeypatch, rep, word, periods, base)


def test_report_json_round_trip():
    rep, _ = schottky_example()
    report = ps.ps_scan(rep, 4)
    doc = ps.ps_report_to_json(report, rep.rank)
    assert set(doc) >= {"verdict", "min_ratio", "max_ratio", "failures", "entries"}
    back = ps.ps_report_from_json(doc)
    assert back == report


@pytest.mark.parametrize("field, value", [
    ("failures", "ab"),
    ("rank", "2"),
    ("rank", 0),
    ("verdict", "X"),
    ("verdict", "FAILURE"),  # with no failure listed
    ("failures", ["a"]),  # under NO_OBSTRUCTION, and no entry for a
    ("max_len", "x"),
    ("max_len", -1),
    ("max_len", True),
    ("max_len", 0.0),
    ("min_ratio", None),
    ("min_ratio", "0"),
    ("max_ratio", math.inf),
    ("max_ratio", math.nan),
    pytest.param("max_ratio", 10 ** 400, id="max_ratio-huge_int"),
    ("min_ratio", False),
])
def test_report_json_rejects_malformed_fields(field, value):
    # with no entries, nothing else in the report reads the rank
    rep, _ = schottky_example()
    doc = ps.ps_report_to_json(ps.ps_scan(rep, 0), rep.rank)
    doc[field] = value
    with pytest.raises(ParseError):
        ps.ps_report_from_json(doc)


@pytest.mark.parametrize("cls, field, value", [
    ("ab", "cls", "aA"),  # reduces to the empty class
    ("aB", "cls", "Ba"),  # a rotation of the class aB
    ("a", "cls", "a1"),
    ("a", "cls", "c"),  # past rank 2
    ("ab", "length", 5),
    ("ab", "length", "2"),
    ("a", "length", True),
    ("a", "trans_len", None),
    ("a", "trans_len", "1.5"),
    ("a", "trans_len", math.inf),
    ("ab", "ratio", math.nan),
    ("ab", "ratio", True),
    pytest.param("aB", "ratio", -10 ** 400, id="aB-ratio-huge_int"),
    ("a", "kind", "PARABOLIC"),  # with its non-zero length
])
def test_report_json_rejects_malformed_entries(cls, field, value):
    rep, _ = schottky_example()
    doc = ps.ps_report_to_json(ps.ps_scan(rep, 2), rep.rank)
    next(e for e in doc["entries"] if e["cls"] == cls)[field] = value
    with pytest.raises(ParseError):
        ps.ps_report_from_json(doc)


def broken_schottky():
    """The Schottky example with a replaced by an elliptic rotation."""
    theta = 1.0
    rot = ps.MoebiusMap(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    rep, _ = schottky_example()
    return ps.Representation((rot, rep.images[1]))


def test_report_json_round_trip_with_failures():
    report = ps.ps_scan(broken_schottky(), 2)
    back = ps.ps_report_from_json(ps.ps_report_to_json(report, 2))
    assert back == report


def _with_entries(doc, entries):
    """Put these entries in the report, with the derived fields they give."""
    failures = [e["cls"] for e in entries if e["kind"] != "LOXODROMIC"]
    ratios = [e["ratio"] for e in entries]
    doc.update(entries=entries, failures=failures,
               verdict=ps.FAILURE if failures else ps.NO_OBSTRUCTION,
               min_ratio=min(ratios, default=0.0), max_ratio=max(ratios, default=0.0))


CONTRADICTIONS = {
    "verdict_without_failures": lambda doc: doc.update(verdict="NO_OBSTRUCTION"),
    "no_failures": lambda doc: doc.update(failures=[]),
    "failure_missing": lambda doc: doc.update(failures=doc["failures"][1:]),
    "failures_out_of_order": lambda doc: doc.update(failures=doc["failures"][::-1]),
    "loxodromic_failure": lambda doc: doc.update(failures=doc["failures"] + ["b"]),
    "elliptic_length": lambda doc: doc["entries"][0].update(trans_len=2.197),
    "elliptic_ratio": lambda doc: doc["entries"][0].update(ratio=0.5),
    "failure_marked_loxodromic": lambda doc: doc["entries"][0].update(kind="LOXODROMIC"),
    "min_ratio_off": lambda doc: doc.update(min_ratio=doc["min_ratio"] + 0.5),
    "max_ratio_below_min_ratio": lambda doc: doc.update(max_ratio=doc["min_ratio"] - 5.0),
    "loxodromic_ratio_off": lambda doc: next(
        e for e in doc["entries"] if e["kind"] == "LOXODROMIC").update(ratio=123.0),
    "truncated": lambda doc: _with_entries(doc, doc["entries"][:3]),
    "repeated_class": lambda doc: _with_entries(doc, doc["entries"] + doc["entries"][:1]),
    "out_of_scan_order": lambda doc: _with_entries(doc, doc["entries"][::-1]),
    "class_past_max_len": lambda doc: doc.update(max_len=1),
    "letters_missing": lambda doc: doc.update(rank=3),
    "longest_classes_missing": lambda doc: _with_entries(
        doc, [e for e in doc["entries"] if len(e["cls"]) == 1]),
    "empty_class": lambda doc: _with_entries(doc, [
        {"cls": "", "length": 0, "trans_len": 0.0, "ratio": 0.0, "kind": "IDENTITY"},
        *doc["entries"]]),
}


@pytest.mark.parametrize("edit", CONTRADICTIONS.values(), ids=CONTRADICTIONS.keys())
def test_report_json_rejects_reports_that_contradict_themselves(edit):
    doc = ps.ps_report_to_json(ps.ps_scan(broken_schottky(), 2), 2)
    assert doc["entries"][0]["cls"] == "a" and doc["entries"][0]["kind"] == "ELLIPTIC"
    assert len(doc["failures"]) > 1
    edit(doc)
    with pytest.raises(ParseError):
        ps.ps_report_from_json(doc)


def test_report_json_round_trips_seeded_scans():
    rng = random.Random(1818)
    reps = [random_representation(rng, rank) for rank in (1, 2, 2, 3, 3) for _ in range(4)]
    parabolic = ps.MoebiusMap(1, 1, 0, 1)
    elliptic = ps.MoebiusMap(math.cos(0.3), -math.sin(0.3), math.sin(0.3), math.cos(0.3))
    reps += [ps.Representation((parabolic, random_sl2(rng))),
             ps.Representation((random_sl2(rng), elliptic, parabolic)),
             ps.Representation((ps.MoebiusMap.identity(),))]
    verdicts = set()
    for rep in reps:
        for max_len in range(5 if rep.rank < 3 else 4):
            report = ps.ps_scan(rep, max_len)
            verdicts.add(report.verdict)
            doc = json.loads(json.dumps(ps.ps_report_to_json(report, rep.rank)))
            assert ps.ps_report_from_json(doc) == report
    assert verdicts == {ps.NO_OBSTRUCTION, ps.FAILURE}
