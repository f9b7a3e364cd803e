"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time

import primstab as ps

from helpers import (
    all_cyclic_classes,
    all_reduced_words,
    assert_bq_verdict_agrees_with_slopes,
    coprime_pairs,
    mat_mul,
    mat_of,
    mat_inv,
    random_loxodromic,
    random_representation,
    random_sl2,
    random_word,
    schottky_example,
)


def announce(number, label):
    print("criterion %d (%s): PASS" % (number, label))


def occurs_cyclically(needle, cls):
    """Whether the letter tuple occurs in some rotation of the class."""
    period = cls.letters
    if len(needle) > len(period):
        return False
    doubled = period + period
    return any(
        doubled[k:k + len(needle)] == needle for k in range(len(period))
    )


def test_criterion_1_whitehead_suite():
    assert ps.is_primitive(ps.parse_word("a", 2)) is True
    assert ps.is_primitive(ps.parse_word("abAB")) is False
    assert ps.blocking_certificate(ps.parse_word("abABabAB")).certified is True

    open_graph = ps.whitehead_graph(ps.parse_word("abAB"), closed=False)
    assert open_graph.edge_count() == 3
    assert dict(open_graph.edge_multiplicity) == {(1, -2): 1, (1, 2): 1, (-1, 2): 1}
    # a path: connected, two endpoints of degree 1, interior cutpoints
    assert ps.is_connected(open_graph) and ps.has_cutpoint(open_graph)
    assert sorted(open_graph.degree(v) for v in open_graph.vertices) == [1, 1, 2, 2]

    closed_graph = ps.whitehead_graph(ps.CyclicWord(2, (1, 2, -1, -2)), closed=True)
    assert closed_graph.edge_count() == 4
    assert dict(closed_graph.edge_multiplicity) == {
        (1, -2): 1, (1, 2): 1, (-1, 2): 1, (-1, -2): 1,
    }
    # a cycle: connected, every vertex of degree 2, no cutpoint
    assert ps.is_connected(closed_graph) and not ps.has_cutpoint(closed_graph)
    assert [closed_graph.degree(v) for v in closed_graph.vertices] == [2, 2, 2, 2]
    announce(1, "Whitehead suite")


def test_criterion_2_exhaustive_whitehead_soundness():
    started = time.time()
    # (a) no cyclically reduced rank-2 word of length <= 8 with connected,
    # cutpoint-free closed graph is primitive
    flagged = 0
    for cls in all_cyclic_classes(2, 8):
        graph = ps.whitehead_graph(cls, closed=True)
        if ps.is_connected(graph) and not ps.has_cutpoint(graph):
            flagged += 1
            assert not ps.is_primitive(cls), "Whitehead lemma violated on %s" % cls
    assert flagged > 0  # the sweep really exercised the lemma

    # (b) certified blocking words never occur inside primitive words of
    # length <= 10; every reduced word of length <= 4 is checked per the
    # criterion (in rank 2 none can certify: three edges cannot make all four
    # letter vertices 2-connected) and the sweep is extended through length 8
    # where certified words exist
    primitives = ps.enumerate_primitive_classes(2, 10)
    certified = []
    for length in range(1, 9):
        for letters in all_reduced_words(2, length):
            if ps.blocking_certificate(ps.Word(2, letters)).certified:
                certified.append(letters)
                assert length >= 5
    assert certified, "expected certified words by length 8"
    assert (1, 2, -1, -2, 1, 2, -1, -2) in certified
    for needle in certified:
        for cls in primitives:
            assert not occurs_cyclically(needle, cls), (
                "certified word %s occurs in primitive %s"
                % (ps.format_letters(needle), cls)
            )
    elapsed = time.time() - started
    assert elapsed <= 60, "exhaustive sweep took %.1f s" % elapsed
    announce(2, "exhaustive Whitehead soundness, %.1f s" % elapsed)


def test_criterion_3_trace_identities():
    rng = random.Random(101)
    for _ in range(1000):
        m = random_sl2(rng)
        n = random_sl2(rng)
        lhs = m.mul(n).trace() + m.mul(n.inverse()).trace()
        assert abs(lhs - m.trace() * n.trace()) <= 1e-9
    for _ in range(1000):
        rep = random_representation(rng, 2)
        x, y, z, kappa = ps.fricke_traces(rep)
        # oracle: the commutator trace by bare list arithmetic
        a, b = mat_of(rep.images[0]), mat_of(rep.images[1])
        comm = mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))
        kappa_oracle = comm[0][0] + comm[1][1]
        assert abs(kappa - kappa_oracle) <= 1e-9
        assert abs(x * x + y * y + z * z - x * y * z - 2 - kappa_oracle) <= 1e-9
    announce(3, "trace identities, 1000 random pairs")


def test_criterion_4_translation_length():
    assert abs(ps.translation_length(ps.MoebiusMap(2, 0, 0, 0.5)) - 2 * math.log(2)) <= 1e-12
    rng = random.Random(102)
    for _ in range(40):
        m = random_loxodromic(rng)
        length = ps.translation_length(m)
        acc = m
        for k in range(2, 6):
            acc = acc.mul(m)
            assert abs(ps.translation_length(acc) - k * length) <= 1e-6
        u = random_sl2(rng)
        conj = u.mul(m).mul(u.inverse())
        assert abs(ps.translation_length(conj) - length) <= 1e-9
    announce(4, "translation length")


def test_criterion_5_schottky_pipeline():
    rep, pairs = schottky_example()
    assert ps.schottky_check(rep, pairs).valid

    report = ps.ps_scan(rep, 10)
    assert report.verdict == ps.NO_OBSTRUCTION
    assert report.min_ratio > 0
    assert report.failures == ()

    theta = 0.8
    elliptic = ps.MoebiusMap(math.cos(theta), -math.sin(theta),
                             math.sin(theta), math.cos(theta))
    broken = ps.Representation((elliptic, rep.images[1]))
    failing = ps.ps_scan(broken, 4)
    assert failing.verdict == ps.FAILURE
    assert "a" in {str(w) for w in failing.failures}
    announce(5, "Schottky pipeline, min ratio %.4f" % report.min_ratio)


def test_criterion_6_orbit_probe():
    rng = random.Random(103)
    rep, _ = schottky_example()
    probed = 0
    while probed < 20:
        w = random_word(rng, 2, rng.randint(1, 5))
        m = ps.evaluate(rep, w)
        if ps.classify(m) != ps.IsometryClass.LOXODROMIC:
            continue
        probed += 1
        slope, _ = ps.orbit_growth_probe(rep, w, 50, ps.axis_point(m))
        assert abs(slope - ps.translation_length(m)) <= 1e-3
    announce(6, "orbit growth probe, 20 words")


def test_criterion_7_bq_suite():
    triple = ps.MarkoffTriple(3, 3, 3)
    verdict = ps.bq_decide(triple, 10 ** 5)
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED
    assert verdict.nodes_explored <= 10 ** 5

    elliptic = ps.bq_decide(ps.MarkoffTriple(1, 3, 3), 10 ** 5)
    assert elliptic.kind == ps.BqKind.NOT_BQ_WITNESS
    assert elliptic.witnesses[0][0] == (0, 1)

    empty = ps.bq_decide(triple, 0)
    assert empty.kind == ps.BqKind.INCONCLUSIVE and empty.nodes_explored == 0

    # brute-force small-trace cross-check over |p|, |q| <= 30
    assert_bq_verdict_agrees_with_slopes(triple, verdict, 30)
    announce(7, "BQ suite, certified in %d nodes" % verdict.nodes_explored)


def test_criterion_8_markoff_farey_consistency():
    rng = random.Random(104)
    for _ in range(20):
        rep = random_representation(rng, 2, scale=0.9)
        triple = ps.MarkoffTriple.from_representation(rep)
        for p, q in coprime_pairs(8):
            by_matrix = ps.evaluate(rep, ps.primitive_of_slope(p, q)).trace()
            by_recursion = ps.slope_trace(triple, p, q)
            assert abs(by_matrix - by_recursion) <= 1e-6 * max(1.0, abs(by_matrix))
        for which in ("X", "Y", "Z"):
            moved = ps.markoff_move(triple, which)
            assert abs(moved.kappa - triple.kappa) <= 1e-8
            back = ps.markoff_move(moved, which)
            assert abs(back.x - triple.x) <= 1e-12
            assert abs(back.y - triple.y) <= 1e-12
            assert abs(back.z - triple.z) <= 1e-12
    announce(8, "Markoff/Farey consistency, 20 representations")


def test_criterion_9_renderer(tmp_path):
    cfg = ps.SliceConfig(
        kappa=-2,
        fixed_x=3,
        window=(complex(0.0, -3.0), complex(6.0, 3.0)),
        width=64,
        height=64,
        budget=20000,
    )
    started = time.time()
    first = ps.render_slice(cfg, 8)
    elapsed = time.time() - started
    assert elapsed <= 300, "8-thread render took %.1f s" % elapsed

    second = ps.render_slice(cfg, 8)
    serial = ps.render_slice(cfg, 1)
    assert first == second
    assert first == serial

    header = b"P6\n64 64\n255\n"
    assert first.startswith(header)
    body = first[len(header):]
    assert len(body) == 3 * 64 * 64
    colors = {tuple(body[3 * k:3 * k + 3]) for k in range(64 * 64)}
    assert len(colors) >= 2

    # the same image through the command line, for the file contract
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(ps.slice_config_to_json(cfg)))
    out_path = tmp_path / "slice.ppm"
    from primstab.cli import run

    assert run(["render", "--config", str(cfg_path), "--out", str(out_path),
                "--threads", "8"]) == 0
    assert out_path.read_bytes() == first
    announce(9, "renderer, 8-thread run %.1f s, %d colors" % (elapsed, len(colors)))
