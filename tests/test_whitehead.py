import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

import primstab as ps
from primstab import cli, whitehead
from primstab.errors import (
    ClosedOnNonCyclicallyReduced,
    NotCoprime,
    RankMismatch,
    RankTooLarge,
)
from primstab.whitehead import (
    _changes,
    _letter_graph,
    _move_image,
    _neighbours,
    _pool_moves,
    all_letters,
)
from primstab.words import _cyclic_core, _reduce_list, letter_key

from helpers import (
    all_cyclic_classes,
    all_reduced_words,
    coprime_pairs,
    exponent_sums,
    grown_primitive_classes,
    length_changes,
    move_pool,
    pool_minimize,
    random_automorphism,
    random_word,
    set_connectivity,
)


def edges_of(graph):
    return dict(graph.edge_multiplicity)


def test_closed_graph_of_commutator_is_a_cycle():
    g = ps.whitehead_graph(ps.CyclicWord(2, (1, 2, -1, -2)), closed=True)
    assert edges_of(g) == {(1, -2): 1, (1, 2): 1, (-1, 2): 1, (-1, -2): 1}
    assert g.multiplicity(-2, 1) == g.multiplicity(1, -2) == 1 and g.multiplicity(1, -1) == 0
    assert g == ps.WhiteheadGraph(2, [(2, -1), (-2, -1), (2, 1), (-2, 1)])
    assert g != ps.WhiteheadGraph(3, [(2, -1), (-2, -1), (2, 1), (-2, 1)])
    assert g != edges_of(g)
    assert repr(g) == "WhiteheadGraph(rank=2, edges=%r)" % (edges_of(g),)
    assert ps.is_connected(g)
    assert not ps.has_cutpoint(g)


def test_open_graph_of_single_letter_has_no_edges():
    g = ps.whitehead_graph(ps.parse_word("a", 2), closed=False)
    assert g.edge_count() == 0
    assert not ps.is_connected(g)


def test_closed_graph_requires_cyclically_reduced():
    with pytest.raises(ClosedOnNonCyclicallyReduced):
        ps.whitehead_graph(ps.parse_word("abA"), closed=True)


def test_edge_count_invariants():
    rng = random.Random(11)
    for _ in range(100):
        w = random_word(rng, 2, rng.randint(1, 12))
        open_graph = ps.whitehead_graph(w, closed=False)
        assert open_graph.edge_count() == len(w) - 1
        cyc, _ = ps.cyclic_reduce(w)
        if len(cyc) > 0:
            closed_graph = ps.whitehead_graph(cyc, closed=True)
            assert closed_graph.edge_count() == len(cyc)


def test_connectivity_examples():
    assert not ps.is_connected(ps.WhiteheadGraph(2))
    g = ps.whitehead_graph(ps.parse_word("ab"), closed=False)  # one edge a-B
    assert not ps.is_connected(g)


def test_cutpoint_examples():
    cycle = ps.WhiteheadGraph(2, [(1, -2), (-2, -1), (-1, 2), (2, 1)])
    assert not ps.has_cutpoint(cycle)
    path = ps.WhiteheadGraph(2, [(-2, 1), (1, 2), (2, -1)])
    assert ps.has_cutpoint(path)
    single = ps.WhiteheadGraph(2, [(1, -2)])
    assert not ps.has_cutpoint(single)


def _connectivity_cases():
    """The graphs the connectivity references check, one per distinct edge table."""
    graphs = {}

    def add(g):  # words with the same letter graph share one check
        graphs.setdefault((g.rank, tuple(sorted(g.edge_multiplicity.items()))), g)

    # every edge set, self-loops included, on the rank-1 and rank-2 letters
    for rank in (1, 2):
        letters = all_letters(rank)
        pairs = [(u, v) for i, u in enumerate(letters) for v in letters[i:]]
        for mask in range(1 << len(pairs)):
            chosen = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            add(ps.WhiteheadGraph(rank, chosen))
    assert len(graphs) == 8 + 1024
    # open and closed graphs of every reduced rank-3 word of length <= 5
    for length in range(1, 6):
        for letters in itertools.product(all_letters(3), repeat=length):
            if any(u == -v for u, v in zip(letters, letters[1:])):
                continue
            w = ps.Word(3, letters)
            add(ps.whitehead_graph(w, closed=False))
            if length == 1 or letters[0] != -letters[-1]:
                add(ps.whitehead_graph(w, closed=True))
    return graphs.values()


def test_connectivity_and_cutpoints_agree_with_set_flood_fill():
    for g in _connectivity_cases():
        assert (ps.is_connected(g), ps.has_cutpoint(g)) == set_connectivity(g), g


def test_letter_graph_masks_are_those_of_the_edge_table():
    # the masks built from the letters' bits letter_key(v) - 1 are those of
    # whitehead_graph's edges
    for length in range(1, 6):
        for letters in all_reduced_words(3, length):
            w = ps.Word(3, letters)
            bits = [letter_key(v) - 1 for v in letters]
            assert _letter_graph(6, bits, False) == _neighbours(ps.whitehead_graph(w)), w
            if length == 1 or letters[0] != -letters[-1]:
                assert _letter_graph(6, bits, True) == _neighbours(
                    ps.whitehead_graph(w, closed=True)), w
    w = ps.parse_word("azYbq")  # past the cap
    assert _letter_graph(52, [letter_key(v) - 1 for v in w.letters], True) == _neighbours(
        ps.whitehead_graph(w, closed=True))


def test_blocking_certificate_examples():
    square = ps.power(ps.parse_word("abAB"), 2)
    cert = ps.blocking_certificate(square)
    assert cert.certified and cert.reason == "CONNECTED_NO_CUTPOINT"

    cert = ps.blocking_certificate(ps.parse_word("abAB"))
    assert not cert.certified and cert.reason == "HAS_CUTPOINT"

    cert = ps.blocking_certificate(ps.parse_word("a", 2))
    assert not cert.certified and cert.reason == "DISCONNECTED"

    cert = ps.blocking_certificate(ps.parse_word("", 2))
    assert not cert.certified and cert.reason == "TOO_SHORT"


def test_certificate_is_a_string_claim_not_an_element_claim():
    # a certified word that is not cyclically reduced can still be a
    # primitive element: the certificate only says the 11-letter string
    # never occurs inside a cyclically reduced primitive word, and the
    # cyclic representatives of this element are 9 letters long
    w = ps.parse_word("CaBaacaacBc")
    assert ps.blocking_certificate(w).certified
    assert ps.is_primitive(w)
    core, _ = ps.cyclic_reduce(w)
    assert len(core) < len(w)


def _graph_reasons(rng, count, ranks, lengths):
    """The reasons of ``count`` seeded words, each checked to be the one
    that whitehead_graph, is_connected and has_cutpoint give, in that order."""
    reasons = Counter()
    for _ in range(count):
        w = random_word(rng, rng.randint(*ranks), rng.randint(*lengths))
        g = ps.whitehead_graph(w)
        expected = ("DISCONNECTED" if not ps.is_connected(g) else
                    "HAS_CUTPOINT" if ps.has_cutpoint(g) else "CONNECTED_NO_CUTPOINT")
        if len(w) == 0:
            expected = "TOO_SHORT"
        cert = ps.blocking_certificate(w)
        assert (cert.certified, cert.reason) == (expected == "CONNECTED_NO_CUTPOINT", expected), w
        reasons[expected] += 1
    return reasons


def test_blocking_reasons_follow_the_public_graph_tests():
    # seeded words of ranks 1-3, then of ranks 5 and 6, past the rank cap,
    # long enough to use every letter
    rng = random.Random(17)
    reasons = _graph_reasons(rng, 3000, (1, 3), (0, 9))
    assert min(reasons.values()) > 10 and len(reasons) == 4
    reasons = _graph_reasons(rng, 400, (5, 6), (8, 30))
    assert min(reasons.values()) >= 10 and len(reasons) == 3, reasons


def test_certified_cyclically_reduced_words_are_never_primitive():
    # for cyclically reduced words the closed graph dominates the open one,
    # so a certificate forces non-primitivity
    rng = random.Random(17)
    alphabet = [1, -1, 2, -2, 3, -3]
    certified = 0
    for _ in range(4000):
        length = rng.randint(2, 7)
        letters = []
        while len(letters) < length:
            v = rng.choice(alphabet)
            if letters and v == -letters[-1]:
                continue
            letters.append(v)
        if letters[0] == -letters[-1]:
            continue
        w = ps.Word(3, tuple(letters))
        if ps.blocking_certificate(w).certified:
            certified += 1
            assert not ps.is_primitive(w)
    assert certified > 10


def test_letter_permutation_swap():
    phi = ps.WhiteheadAutomorphism.letter_permutation(2, {1: 2, 2: 1})
    assert str(ps.apply_automorphism(phi, ps.parse_word("ab"))) == "ba"
    for mapping in ({1: 2, 2: 2}, {1: -1}, {1: 2, 2: 3}):
        with pytest.raises(ValueError, match="signed permutation"):
            ps.WhiteheadAutomorphism.letter_permutation(2, mapping)


def test_multiplier_move_is_a_nielsen_move():
    phi = ps.WhiteheadAutomorphism.multiplier_move(2, 1, [2])
    assert str(ps.apply_automorphism(phi, ps.parse_word("b", 2))) == "ba"
    for members in ([1], [2, -1]):
        with pytest.raises(ValueError, match="multiplier"):
            ps.WhiteheadAutomorphism.multiplier_move(2, 1, members)


def test_identity_automorphism():
    rng = random.Random(12)
    phi = ps.WhiteheadAutomorphism.identity(3)
    for _ in range(20):
        w = random_word(rng, 3, rng.randint(0, 10))
        assert ps.apply_automorphism(phi, w) == w
    with pytest.raises(RankMismatch):
        ps.apply_automorphism(phi, ps.parse_word("ab"))
    # one image per generator, each of the automorphism's rank
    with pytest.raises(RankMismatch):
        ps.WhiteheadAutomorphism(phi.images[:2])
    with pytest.raises(RankMismatch):
        ps.WhiteheadAutomorphism((*phi.images[:2], ps.parse_word("c", 4)))
    with pytest.raises(ValueError, match="'rank' must be at least 1"):
        ps.WhiteheadAutomorphism(())


def test_automorphism_is_homomorphism():
    rng = random.Random(13)
    for _ in range(100):
        phi = random_automorphism(rng, 2)
        u = random_word(rng, 2, rng.randint(0, 8))
        v = random_word(rng, 2, rng.randint(0, 8))
        image_of_product = ps.apply_automorphism(phi, ps.reduce(u.letters + v.letters, 2))
        product_of_images = ps.reduce(
            ps.apply_automorphism(phi, u).letters + ps.apply_automorphism(phi, v).letters, 2
        )
        assert image_of_product == product_of_images
        assert ps.apply_automorphism(phi, ps.invert(u)) == ps.invert(
            ps.apply_automorphism(phi, u)
        )


def test_multiplier_move_inverse():
    rng = random.Random(14)
    for phi, *_ in move_pool(2):
        inv = phi.inverse_move()
        w = random_word(rng, 2, rng.randint(0, 10))
        assert ps.apply_automorphism(inv, ps.apply_automorphism(phi, w)) == w


def test_equal_automorphisms_have_equal_inverse_moves():
    # inverse_move reads the images alone, however the value was built
    W = ps.WhiteheadAutomorphism
    ab, b = ps.parse_word("ab"), ps.parse_word("b", 2)
    pairs = [(W.identity(2), W.multiplier_move(2, 1, [])),
             (W([ab, b]), W.multiplier_move(2, 2, [1])),
             (W.letter_permutation(2, {1: 2, 2: 1}), W([b, ps.parse_word("a", 2)]))]
    pairs += [(phi, W(phi.images)) for rank in (2, 3) for phi, *_ in move_pool(rank)]
    for phi, twin in pairs:
        assert phi == twin
        try:
            inverse = phi.inverse_move()
        except ValueError:
            with pytest.raises(ValueError):
                twin.inverse_move()
            continue
        assert twin.inverse_move() == inverse
    assert W.identity(3).inverse_move() == W.identity(3)
    with pytest.raises(ValueError):
        W.letter_permutation(2, {1: 2, 2: 1}).inverse_move()


def test_minimize_nielsen_example():
    terminal, trace = ps.whitehead_minimize(ps.parse_word("ba"))
    assert len(terminal) == 1
    assert len(trace) >= 1
    # replay the trace: each recorded move strictly reduced the cyclic length
    current = ps.parse_word("ba")
    lengths = [ps.cyclic_length(current)]
    for phi in trace:
        current = ps.apply_automorphism(phi, current)
        lengths.append(ps.cyclic_length(current))
    assert lengths == sorted(lengths, reverse=True)
    assert lengths[-1] == 1


def test_minimize_commutator_is_stuck():
    # oracle: no rank-2 multiplier move shortens the commutator
    w = ps.parse_word("abAB")
    for phi, *_ in move_pool(2):
        assert ps.cyclic_length(ps.apply_automorphism(phi, w)) >= 4
    terminal, trace = ps.whitehead_minimize(w)
    assert len(terminal) == 4 and trace == []


def test_minimize_single_letter():
    terminal, trace = ps.whitehead_minimize(ps.parse_word("a", 2))
    assert len(terminal) == 1 and trace == []


def test_minimize_empty_word():
    # the edge count needs a wrap-around pair, so the empty core takes no round
    assert ps.whitehead_minimize(ps.Word(2, ())) == (ps.CyclicWord(2, ()), [])
    assert ps.whitehead_minimize(ps.CyclicWord(3, ())) == (ps.CyclicWord(3, ()), [])
    assert ps.whitehead_minimize(ps.parse_word("abBA", 2)) == (ps.CyclicWord(2, ()), [])


def _random_cores(rng, rank, count, min_len, max_len):
    """Seeded cyclically reduced cores of min_len..max_len letters (min_len >= 1)."""
    cores = []
    while len(cores) < count:
        core = ps.cyclic_reduce(random_word(rng, rank, rng.randint(min_len, max_len)))[0].letters
        if len(core) >= min_len:
            cores.append(core)
    return cores


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_length_changes_match_applied_moves(rank):
    # cut(A) - deg(a) is the length change of every move, read off the graph,
    # and the bit-string image of every move is the applied image up to
    # rotation, on single letters, on short cores and on cores of 65-80
    # letters, whose edge-incidence masks are wider than one machine word
    rng = random.Random(30 + rank)
    moves = [(phi, table, pieces, cancel) for (phi, table, _, _), (pieces, cancel, _, _)
             in zip(move_pool(rank), _pool_moves(rank))]
    cores = _random_cores(rng, rank, 300, 1, 14) + _random_cores(rng, rank, 12, 65, 80)
    for core in [(v,) for v in all_letters(rank)] + cores:
        bits = bytes(letter_key(v) - 1 for v in core)
        images = [_cyclic_core(_reduce_list(u for v in core for u in table[v]))[0]
                  for _, table, _, _ in moves]
        assert _changes(rank, bits) == [len(image) - len(core) for image in images]
        for (_, _, pieces, cancel), image in zip(moves, images):
            applied = bytes(letter_key(v) - 1 for v in image)
            got = _move_image(pieces, cancel, bits)
            assert len(got) == len(applied) and got in applied + applied, (core, image)
        applied = [(phi, table, len(image) - len(core)) for (phi, table, _, _), image in zip(moves, images)]
        assert length_changes(rank, core, -2, 1) == [
            (phi, table, change) for phi, table, change in applied if -2 <= change <= 1
        ]


def _replay(w):
    """whitehead_minimize(w), after checking that its trace replays through
    apply_automorphism to the terminal class and that each move strictly
    shortens."""
    terminal, trace = ps.whitehead_minimize(w)
    current = ps.cyclic_reduce(w)[0]
    for phi in trace:
        image = ps.cyclic_reduce(ps.apply_automorphism(phi, ps.Word(w.rank, current.letters)))[0]
        assert len(image) < len(current), (w, phi)
        current = image
    assert current == terminal, w
    return terminal, trace


def _check_against_applied_moves(w):
    """The trace replays to the terminal class, each move shortens, and the
    terminal length is that of the pool's search."""
    terminal, _ = _replay(w)
    assert len(terminal) == len(pool_minimize(w.rank, ps.cyclic_reduce(w)[0].letters)[0]), w
    return terminal


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_minimize_matches_applied_moves_on_random_words(rank):
    rng = random.Random(40 + rank)
    for _ in range(1000):
        _check_against_applied_moves(random_word(rng, rank, rng.randint(1, 14)))


@pytest.mark.parametrize("rank, max_len", [(2, 12), (3, 6), (4, 4)])
def test_minimize_matches_applied_moves_on_primitive_classes(rank, max_len):
    for c in ps.enumerate_primitive_classes(rank, max_len):
        assert len(_check_against_applied_moves(c)) == 1


def test_minimize_shortens_past_a_graph_with_no_cut_vertex():
    # the closed graph of aababb is connected with no cut vertex, so no
    # cut-vertex move applies, yet the move (a, {a, B}), b -> Ab, shortens
    # it to abbAb: the minimum cut between a and A is 2, against deg(a) = 3
    w = ps.parse_word("aababb")
    graph = ps.whitehead_graph(w, closed=True)
    assert ps.is_connected(graph) and not ps.has_cutpoint(graph)
    terminal, trace = _replay(w)
    assert str(terminal) == "abbAb" and len(trace) == 1
    assert len(pool_minimize(2, w.letters)[0]) == 5


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_min_cut_move_is_the_best_pool_move(rank):
    # the least length change over the pool, and on a tie the lowest bit a,
    # on cores whose closed graph gives no cut-vertex move
    rng = random.Random(110 + rank)
    moves = Counter()
    for core in _random_cores(rng, rank, 400, 2, 14):
        bits = [letter_key(v) - 1 for v in core]
        if whitehead._graph_move(bits, 2 * rank) is not None:
            moves["graph"] += 1
            continue
        changes = [(change, a) for (_, _, _, a), (_, _, change)
                   in zip(move_pool(rank), length_changes(rank, core, -math.inf, math.inf))]
        least = min(changes)
        move = whitehead._min_cut_move(bits, 2 * rank)
        if least[0] >= 0:
            assert move is None, core
            moves["none"] += 1
            continue
        a, side = move
        assert a == least[1], core
        image = whitehead._apply_move(bits, a, side)
        assert len(image) - len(bits) == least[0], core
        moves["min_cut"] += 1
    assert min(moves.values()) > 20, moves


@pytest.mark.parametrize("rank", [6, 12])
def test_minimize_past_the_rank_cap(rank):
    # automorphic images of a minimise to one letter, and aabbccddeeff,
    # whose closed graph is one cycle through all twelve letters, is stuck
    rng = random.Random(120 + rank)
    lengths = set()
    for _ in range(60):
        w = ps.Word(rank, (1,))
        for _ in range(rng.randint(1, 20)):
            image = ps.apply_automorphism(random_automorphism(rng, rank), w)
            if len(image) > 120:
                break
            w = image
        assert len(_replay(w)[0]) == 1, w
        lengths.add(len(ps.cyclic_reduce(w)[0]))
    assert max(lengths) >= 8
    w = ps.parse_word("aabbccddeeff")
    assert ps.whitehead_minimize(w) == (ps.CyclicWord(6, w.letters), [])


def test_minimize_and_is_primitive_use_no_move_pool(monkeypatch):
    def pool(*args):
        raise AssertionError("move pool reached")

    for name in ("_pool_moves", "_changes"):
        monkeypatch.setattr(whitehead, name, pool)
    rng = random.Random(130)
    for rank in (1, 2, 3, 4, 5):
        for _ in range(50):
            w = random_word(rng, rank, rng.randint(0, 14))
            ps.whitehead_minimize(w)
            ps.is_primitive(w)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_terminal_length_is_out_invariant(rank):
    # peak reduction: the terminal length is the least length in the orbit
    rng = random.Random(50 + rank)
    for _ in range(60):
        w = random_word(rng, rank, rng.randint(1, 8))
        image = w
        for _ in range(rng.randint(1, 6)):
            image = ps.apply_automorphism(random_automorphism(rng, rank), image)
        assert len(ps.whitehead_minimize(image)[0]) == len(ps.whitehead_minimize(w)[0])


def test_is_primitive_examples():
    assert ps.is_primitive(ps.parse_word("a", 2))
    assert not ps.is_primitive(ps.parse_word("abAB"))
    # abelianization oracle: exponent vector (2, 0) has gcd 2
    assert exponent_sums(ps.parse_word("aa", 2)) == (2, 0)
    assert not ps.is_primitive(ps.parse_word("aa", 2))
    assert not ps.is_primitive(ps.parse_word("", 2))
    # the cut-vertex rule at its edges: the rank-1 letter, a blocked rank-3
    # word, a 30-letter automorphic image of a, and past the move search's
    # rank cap the rank-5 letter e and the rank-6 aabbccddeeff.  The minimiser
    # runs the same shortening loop and ends at one letter exactly when the
    # word is primitive
    for text, rank, primitive in (("a", 1, True), ("AcabaBBBCB", None, False),
                                  ("ABCBcbABCbABCBcbABCABCBcbaaBCb", None, True),
                                  ("e", None, True), ("aabbccddeeff", None, False)):
        w = ps.parse_word(text, rank)
        assert ps.is_primitive(w) is primitive, text
        assert (len(ps.whitehead_minimize(w)[0]) == 1) is primitive, text


def test_single_letters_are_primitive_in_every_rank():
    # in rank 1 the closed graph of a or A is the edge a - A, connected with
    # no cut vertex; the cut-vertex lemma needs rank 2, so it is not applied
    for rank in (1, 2, 3, 4):
        for v in all_letters(rank):
            assert ps.is_primitive(ps.Word(rank, (v,)))
    assert ps.is_primitive(ps.parse_word("A", 1))
    assert not ps.is_primitive(ps.parse_word("aa", 1))


def test_cut_vertex_lemma_answers_past_the_rank_cap():
    # eddcBEDcbaa has exponent gcd 1 and a closed letter graph connected on
    # all ten letters with no cut vertex: not primitive with no move search
    w = ps.parse_word("eddcBEDcbaa")
    assert w.rank == 5 and math.gcd(*exponent_sums(w)) == 1
    assert not ps.is_primitive(w)
    assert not ps.is_primitive(ps.CyclicWord(5, w.letters))
    assert ps.is_primitive(ps.parse_word("e"))
    # a connected graph with a cut vertex: the cut-vertex moves shorten
    # abcde, the first of the basis abcde, b, c, d, e, to one letter
    assert ps.is_primitive(ps.parse_word("abcde"))


def test_an_isolated_letter_disconnects_without_a_flood_fill(monkeypatch):
    # a flood fill on the 2n letters would cost a pass over a 2n-bit mask at
    # each step, and counting components one per isolated letter is
    # quadratic in the rank; is_primitive floods only the letters of the
    # generators its core uses
    component = whitehead._component

    def flood_fill(adjacent, start, vertices):
        assert len(adjacent) <= 4, "flood fill on %d letters" % len(adjacent)
        return component(adjacent, start, vertices)

    monkeypatch.setattr(whitehead, "_component", flood_fill)
    w = ps.Word(10 ** 5, (1, 2, -1, -2))
    assert ps.blocking_certificate(w).reason == "DISCONNECTED"
    assert ps.is_primitive(ps.Word(10 ** 5, (1, 2)))
    # the same answer as in rank 2, on generators 7 and 10^5
    rename = {1: 7, -1: -7, 2: 10 ** 5, -2: -10 ** 5}
    for letters in ((1, 2, -1, -2, 1), (1, 1, 2), (1, 2, 2, 1, 2), (1, 1, 2, 2, -1, 2)):
        high = ps.Word(10 ** 5, tuple(rename[v] for v in letters))
        assert ps.is_primitive(high) == ps.is_primitive(ps.Word(2, letters)), letters


def test_an_isolated_letter_disconnects_the_graph_without_a_flood_fill(monkeypatch):
    def flood_fill(adjacent, start, vertices):
        raise AssertionError("flood fill on %d letters" % len(adjacent))

    monkeypatch.setattr(whitehead, "_component", flood_fill)
    assert not ps.is_connected(ps.whitehead_graph(ps.Word(4 * 10 ** 4, (1, 2))))
    assert not ps.is_connected(ps.WhiteheadGraph(3, [(1, -1), (2, -2)]))


def test_rank_cap_is_checked_before_the_move_count():
    # the move count's XOR table has 2^(2n) entries, 2^24 at rank 12;
    # neither whitehead_minimize nor is_primitive counts a move of the pool
    tracemalloc.start()
    try:
        terminal, trace = ps.whitehead_minimize(ps.Word(12, (1, 2)))
        assert len(terminal) == 1 and len(trace) == 1
        assert ps.is_primitive(ps.Word(12, (1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_is_primitive_counts_exponents_on_the_core():
    # the gcd test counts one exponent sum per generator the core uses, so a
    # query on three generators allocates nothing of the rank's size
    w = ps.Word(10 ** 6, (1, 2, 10 ** 6, 2, 1))
    tracemalloc.start()
    try:
        answer = ps.is_primitive(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5
    assert answer == ps.is_primitive(ps.parse_word("abcba"))
    assert not ps.is_primitive(ps.Word(10 ** 6, (1, 10 ** 6, 1, -10 ** 6)))


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 6)])
def test_is_primitive_matches_the_move_search_alone(rank, max_len):
    # every cyclically reduced word: the gcd and cut-vertex refutations agree
    # with the move search that runs neither
    refuted = 0
    for length in range(1, max_len + 1):
        for letters in all_reduced_words(rank, length):
            if length > 1 and letters[0] == -letters[-1]:
                continue
            searched = len(pool_minimize(rank, letters)[0]) == 1
            assert ps.is_primitive(ps.Word(rank, letters)) == searched, letters
            refuted += not searched
    assert refuted > 1000


def _rounds(monkeypatch, w):
    """is_primitive(w) and the (adjacent, support, verdict) of each of its
    rounds, seen through the cut-vertex helper."""
    verdict = whitehead._cut_vertex_verdict
    rounds = []

    def spy(adjacent, letters):
        # each move shortens the core, so a round past its length is a loop
        assert len(rounds) < len(w), "round %d on %s" % (len(rounds) + 1, w)
        rounds.append((adjacent, letters, verdict(adjacent, letters)))
        return rounds[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(whitehead, "_cut_vertex_verdict", spy)
        return ps.is_primitive(w), rounds


def _bits_of(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _uses_each_generator_twice(rng, rank, kind):
    """A word whose cyclic core holds each generator it uses at least twice,
    so that is_primitive reaches its rounds unless the gcd test refutes it.

    Kind 0 is a random word, kind 1 an automorphic image of a letter, and
    kind 2, in rank 3 or more, the image of a word with exponent gcd 1 on
    the first rank - 1 generators under a multiplier move on the last one.
    Where the last generator c occurs, its closed graph is disconnected:
    the inverse move (c^-1, A) deletes c, so it changes the length by
    cut(A) - deg(c) = -deg(c), and A is a union of components.
    """
    while True:
        if kind == 0:
            w = random_word(rng, rank, rng.randint(1, 14))
        elif kind == 1:
            w = ps.Word(rank, (1,))
            for _ in range(rng.randint(1, 10)):
                w = ps.apply_automorphism(random_automorphism(rng, rank), w)
        else:
            w = random_word(rng, rank - 1, rng.randint(2, 10))
            if math.gcd(*exponent_sums(w)) != 1:
                continue
            w = ps.Word(rank, w.letters)
            others = [v for v in all_letters(rank - 1) if rng.random() < 0.5]
            w = ps.apply_automorphism(ps.WhiteheadAutomorphism.multiplier_move(
                rank, rng.choice((rank, -rank)), others), w)
        core, _ = _cyclic_core(w.letters)
        if 1 not in Counter(map(abs, core)).values():
            return w


@pytest.mark.parametrize("rank", [2, 3, 4, 6])
def test_every_cut_vertex_move_shortens_the_core(monkeypatch, rank):
    # replay each round's move as a WhiteheadAutomorphism on the word: it is
    # a valid move, strictly shortens the core, and leaves the closed graph
    # that the next round reads.  A True answer stops at the first core in
    # which some generator occurs once, from which the pool's move search
    # reaches one letter.  In rank 2 no round sees a disconnected graph: its
    # components would be {a, b} and {A, B}, or {a, B} and {A, b}, so the
    # core would be (aB)^k or (ab)^k with k >= 2, whose exponent gcd is k
    rng = random.Random(80 + rank)
    moves = Counter()
    pooled = 0
    for trial in range(150):
        w = _uses_each_generator_twice(rng, rank, trial % 3 if rank > 2 else trial % 2)
        answer, rounds = _rounds(monkeypatch, w)
        core, _ = _cyclic_core(w.letters)
        if not core or math.gcd(*exponent_sums(w)) != 1:
            assert not answer and rounds == []
            continue
        # is_primitive's bits: letter_key(v) - 1 within the rank cap, and
        # past it those of the generators the core uses, renumbered in order
        generators = sorted({abs(v) for v in core}) if rank > ps.RANK_CAP else range(1, rank + 1)
        number = {g: i for i, g in enumerate(generators, 1)}
        size = len(number)
        word = ps.Word(size, tuple(number[abs(v)] * (1 if v > 0 else -1) for v in core))

        def letter(bit):
            return (bit // 2 + 1) * (-1 if bit & 1 else 1)

        for k, (adjacent, support, (reason, cut, side)) in enumerate(rounds):
            assert adjacent == _letter_graph(
                2 * size, [letter_key(v) - 1 for v in word.letters], True), w
            assert support == sum({1 << letter_key(v) - 1 for x in word.letters for v in (x, -x)})
            if reason == "CONNECTED_NO_CUTPOINT":
                assert k == len(rounds) - 1 and not answer and len(word) > 1
                break
            if reason == "HAS_CUTPOINT":
                a, members = cut, side
            else:
                lone = [b for b in _bits_of(side) if not side >> (b ^ 1) & 1]
                a, members = lone[0], side ^ (1 << lone[0])
            phi = ps.WhiteheadAutomorphism.multiplier_move(
                size, letter(a), [letter(b) for b in _bits_of(members)])
            image, _ = ps.cyclic_reduce(ps.apply_automorphism(phi, word))
            assert len(image) < len(word), (w, reason)
            word = ps.Word(size, image.letters)
            moves[reason] += 1
        else:
            assert answer and 1 in Counter(map(abs, word.letters)).values(), w
            if size <= ps.RANK_CAP:
                assert len(pool_minimize(size, word.letters)[0]) == 1, w
                pooled += 1
    assert moves["HAS_CUTPOINT"] > 10
    assert moves["DISCONNECTED"] > 20 if rank > 2 else not moves["DISCONNECTED"]
    assert pooled > 10


def test_a_generator_occurring_once_answers_before_any_round(monkeypatch):
    # a core x^e u with u free of x is the image of x^e under a Nielsen
    # automorphism, so is_primitive reads no graph for it, within the rank
    # cap and past it; abAB in rank 3, where c does not occur and no other
    # generator occurs once, is still refuted
    verdict = whitehead._cut_vertex_verdict
    rounds = []

    def spy(adjacent, letters):
        rounds.append(letters)
        return verdict(adjacent, letters)

    monkeypatch.setattr(whitehead, "_cut_vertex_verdict", spy)
    rng = random.Random(150)
    for _ in range(200):
        x, rest = rng.choice([(1, (2, 3)), (2, (1, 3)), (3, (1, 2))])
        u = [rest[abs(v) - 1] * (1 if v > 0 else -1)
             for v in random_word(rng, 2, rng.randint(0, 12)).letters]
        u.insert(rng.randint(0, len(u)), rng.choice((x, -x)))
        assert ps.is_primitive(ps.Word(3, tuple(u))), u
    big = 10 ** 5
    for letters in ((big,), (7, 7, big, 3, -7, 3, 3), (-big, 9, 9, 8, 9, 8)):
        assert ps.is_primitive(ps.Word(big, letters)), letters
    assert rounds == []
    assert not ps.is_primitive(ps.parse_word("abAB", 3))
    assert not ps.is_primitive(ps.parse_word("aabAB", 3)) and rounds


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_a_round_changes_only_the_occurrences_of_its_moves_generator(rank):
    # a move (a, A) sends every letter x other than a^+-1 to [a^-1] x [a],
    # and only pairs a a^-1 cancel, so is_primitive updates one count a round
    rng = random.Random(160 + rank)
    rounds = 0
    for trial in range(200):
        w = random_word(rng, rank, rng.randint(2, 16))
        if trial % 2:
            for _ in range(rng.randint(1, 8)):
                w = ps.apply_automorphism(random_automorphism(rng, rank), w)
        core = [letter_key(v) - 1 for v in _cyclic_core(w.letters)[0]]
        while len(core) > 1:
            move = whitehead._graph_move(core, 2 * rank)
            if move is None:
                break
            a, side = move
            image = whitehead._apply_move(core, a, side)
            before, after = Counter(b >> 1 for b in core), Counter(b >> 1 for b in image)
            del before[a >> 1], after[a >> 1]
            assert before == after, (w, move)
            core = image
            rounds += 1
    assert rounds > 80


def _agrees_with_the_pool(rank, letters):
    """is_primitive of the word against the move search of the pool alone;
    returns the answer."""
    core, _ = _cyclic_core(letters)
    searched = bool(core) and len(pool_minimize(rank, core)[0]) == 1
    assert ps.is_primitive(ps.Word(rank, letters)) == searched, letters
    return searched


def test_is_primitive_agrees_with_the_pool_in_rank_4():
    rng = random.Random(71)
    answers = Counter()
    for _ in range(400):
        w = random_word(rng, 4, rng.randint(1, 20))
        answers[_agrees_with_the_pool(4, w.letters)] += 1
        image = ps.apply_automorphism(random_automorphism(rng, 4), ps.Word(4, (1,)))
        for _ in range(rng.randint(0, 8)):
            image = ps.apply_automorphism(random_automorphism(rng, 4), image)
        answers[_agrees_with_the_pool(4, image.letters)] += 1
    assert answers[True] > 400 and answers[False] > 100


@pytest.mark.parametrize("rank", [3, 4])
def test_is_primitive_agrees_with_the_pool_on_fewer_generators(rank):
    # words over 1-3 of the generators, which leave the other letters of the
    # rank without an edge
    rng = random.Random(72 + rank)
    answers = Counter()
    for _ in range(500):
        used = rng.sample(range(1, rank + 1), rng.randint(1, 3))
        w = random_word(rng, len(used), rng.randint(1, 14))
        letters = tuple(used[abs(v) - 1] * (1 if v > 0 else -1) for v in w.letters)
        answers[_agrees_with_the_pool(rank, letters)] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_cut_vertex_witnesses():
    # DISCONNECTED names a component; HAS_CUTPOINT a letter whose removal
    # disconnects the rest, and a union of the rest's components that
    # leaves out the cut's inverse
    def closed(adjacent, side, letters):
        return all(not adjacent[k] & letters & ~side for k in _bits_of(side))

    verdicts = Counter()
    for g in _connectivity_cases():
        adjacent = _neighbours(g)
        letters = (1 << len(adjacent)) - 1
        reason, cut, side = whitehead._cut_vertex_verdict(adjacent, letters)
        connected, cutpoint = set_connectivity(g)
        if reason == "DISCONNECTED":
            assert not connected
            assert side and side != letters and closed(adjacent, side, letters)
        elif reason == "HAS_CUTPOINT":
            assert connected and cutpoint
            rest = letters ^ 1 << cut
            assert side and side | rest == rest and side != rest
            assert not side >> (cut ^ 1) & 1 and closed(adjacent, side, rest)
        else:
            assert connected and not cutpoint and (cut, side) == (-1, 0)
        verdicts[reason] += 1
    assert min(verdicts.values()) > 20


@pytest.mark.parametrize("rank", [5, 6, 8])
def test_is_primitive_past_the_rank_cap(rank):
    # a^2 b^2 c^2 ... has gcd 2; a^3 b^2 c^2 ... has gcd 1 and a closed graph
    # that is one cycle through all 2n letters
    squares = ps.Word(rank, tuple(i for i in range(1, rank + 1) for _ in range(2)))
    cubes = ps.Word(rank, (1,) + squares.letters)
    assert not ps.is_primitive(squares) and not ps.is_primitive(cubes)
    rng = random.Random(90 + rank)
    lengths = set()
    for _ in range(100):
        letter, word = ps.Word(rank, (1,)), cubes
        for _ in range(rng.randint(1, 20)):
            phi = random_automorphism(rng, rank)
            if len(ps.apply_automorphism(phi, word)) > 120:
                break
            letter, word = ps.apply_automorphism(phi, letter), ps.apply_automorphism(phi, word)
        assert ps.is_primitive(letter), letter
        assert not ps.is_primitive(word), word
        lengths.add(len(ps.cyclic_reduce(letter)[0]))
    assert max(lengths) >= 8


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_automorphic_images_of_a_letter_are_primitive(rank):
    rng = random.Random(60 + rank)
    lengths = set()
    for _ in range(200):
        w = ps.Word(rank, (1,))
        for _ in range(rng.randint(1, 20)):
            w = ps.apply_automorphism(random_automorphism(rng, rank), w)
        assert ps.is_primitive(w), w
        lengths.add(len(ps.cyclic_reduce(w)[0]))
    assert max(lengths) >= 8


def test_is_primitive_invariances():
    rng = random.Random(15)
    for _ in range(60):
        w = random_word(rng, 2, rng.randint(1, 7))
        value = ps.is_primitive(w)
        assert ps.is_primitive(ps.invert(w)) == value
        u = random_word(rng, 2, rng.randint(0, 5))
        assert ps.is_primitive(ps.reduce(u.letters + w.letters + ps.invert(u).letters, 2)) == value
        phi = random_automorphism(rng, 2)
        assert ps.is_primitive(ps.apply_automorphism(phi, w)) == value


def test_rank_cap():
    assert ps.RANK_CAP == 4
    assert ps.is_primitive(ps.Word(4, (1,)))
    w = ps.Word(5, (1,))
    # is_primitive and whitehead_minimize answer in any rank
    assert ps.is_primitive(w)
    assert ps.whitehead_minimize(w) == (ps.CyclicWord(5, (1,)), [])
    with pytest.raises(RankTooLarge):
        ps.enumerate_primitive_classes(5, 1)
    assert not ps.is_primitive(ps.Word(5, (1, 1)))


@pytest.mark.parametrize("rank, max_len", [
    (0, 3), (-1, 2), (2, -1), (2, 2.5), (True, 3), (2, True), (2.0, 3), ("2", 3)])
def test_enumerate_rejects_bad_rank_and_length(rank, max_len):
    with pytest.raises(ValueError):
        ps.enumerate_primitive_classes(rank, max_len)
    # a rejected call leaves no cache entry for an equal valid call to return
    assert all(type(c.rank) is int for c in ps.enumerate_primitive_classes(1, 3))


def test_rank_cap_is_checked_before_symmetry_tables(monkeypatch, capsys):
    built = whitehead._symmetry_tables

    def spy(rank):
        assert rank <= ps.RANK_CAP, "symmetry tables built at rank %d" % rank
        return built(rank)

    monkeypatch.setattr(whitehead, "_symmetry_tables", spy)
    for rank in (5, 7, 8):
        with pytest.raises(RankTooLarge):
            ps.enumerate_primitive_classes(rank, 1)
        assert ps.enumerate_primitive_classes(rank, 0) == ()
    rep = ps.Representation((ps.MoebiusMap(1, 1, 0, 1),) * 8)
    with pytest.raises(RankTooLarge):
        ps.ps_scan(rep, 1)
    assert cli.run(["enumerate", "--rank", "8", "--max-len", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "RankTooLarge"


def test_enumerate_rank2_length1():
    classes = ps.enumerate_primitive_classes(2, 1)
    assert [str(c) for c in classes] == ["a", "A", "b", "B"]


def test_enumerate_rank2_length2():
    classes = ps.enumerate_primitive_classes(2, 2)
    assert len(classes) == 8
    assert [str(c) for c in classes] == ["a", "ab", "aB", "A", "Ab", "AB", "b", "B"]
    assert "aa" not in {str(c) for c in classes}


@pytest.mark.parametrize("rank, max_len", [(2, 8), (3, 5), (4, 3)])
def test_enumerate_complete_and_duplicate_free(rank, max_len):
    # oracle: every cyclically reduced class up to max_len, filtered by the
    # move search of is_primitive rather than grown by moves from the letters
    expected = {c for c in all_cyclic_classes(rank, max_len) if ps.is_primitive(c)}
    classes = ps.enumerate_primitive_classes(rank, max_len)
    assert classes == tuple(sorted(expected, key=ps.CyclicWord.sort_key))


def _signed_permutation_generators(rank):
    """A swap, a cyclic shift and one sign change, as maps on the letters.

    The swap and the shift generate every permutation, and with one sign
    change they generate all 2^n n! signed permutations.
    """
    images = ([2, 1] + list(range(3, rank + 1)), list(range(2, rank + 1)) + [1],
              [-1] + list(range(2, rank + 1)))
    for image in images:
        mapping = {}
        for i, j in zip(range(1, rank + 1), image):
            mapping[i], mapping[-i] = j, -j
        yield mapping


@pytest.mark.parametrize("rank, max_len", [(2, 10), (3, 5), (4, 4)])
def test_enumerate_is_closed_under_symmetries(rank, max_len):
    # a finite set closed under generators of a group is closed under the group
    classes = ps.enumerate_primitive_classes(rank, max_len)
    members = set(classes)
    for c in classes:
        assert ps.CyclicWord(rank, tuple(-v for v in reversed(c.letters))) in members
        for mapping in _signed_permutation_generators(rank):
            assert ps.CyclicWord(rank, tuple(mapping[v] for v in c.letters)) in members


@pytest.mark.parametrize("rank, max_len, count", [
    (2, 12, 184), (3, 6, 2458), (3, 7, 9970), (4, 4, 672), (4, 5, 3840)])
def test_enumerate_counts(rank, max_len, count):
    assert len(ps.enumerate_primitive_classes(rank, max_len)) == count


@pytest.mark.parametrize("rank, max_len", [(2, 12), (3, 6), (4, 4)])
def test_enumerate_matches_growth_without_symmetry(rank, max_len):
    assert ps.enumerate_primitive_classes(rank, max_len) == grown_primitive_classes(rank, max_len)


@pytest.mark.parametrize("rank, max_len", [(1, 3), (2, 12), (3, 6), (4, 5)])
def test_inverse_index_pairs_each_class_with_its_inverse(rank, max_len):
    # an involution with no fixed point, sending each class to the class of
    # its reversed, negated letters
    classes, inverses = whitehead._primitive_classes(rank, max_len)
    assert len(inverses) == len(classes)
    for i, j in enumerate(inverses):
        assert j != i and inverses[j] == i
        assert classes[j] == ps.CyclicWord(rank, tuple(-v for v in reversed(classes[i].letters)))


def _orbit_reference(rank, letters):
    """Each image of a class under the 2^n n! signed permutations and
    inversion, mapped to its inverse, built one CyclicWord at a time."""
    out = {}
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            mapping = {}
            for i, j, sign in zip(range(1, rank + 1), perm, signs):
                mapping[i], mapping[-i] = sign * j, -sign * j
            image = ps.CyclicWord(rank, tuple(mapping[v] for v in letters))
            inverse = ps.CyclicWord(rank, tuple(-v for v in reversed(image.letters)))
            out[image], out[inverse] = inverse, image
    return out


@pytest.mark.parametrize("rank, words", [
    (1, ["a"]),
    (2, ["a", "ab", "aB", "aab", "abAB", "aabb", "aabAB"]),
    (3, ["a", "ab", "abc", "abAB", "aabb", "abcABC", "aabbcc", "abCaBc"]),
    (4, ["a", "abc", "abcd", "abAB", "aabb", "abcdABCD", "aabbccdd"])])
def test_orbit_matches_the_symmetries_one_by_one(rank, words):
    # classes with non-trivial stabilisers repeat their images, and seeded
    # cores of up to 9 letters mostly do not; every class is given in a
    # rotation other than its least one too
    rng = random.Random(150 + rank)
    cores = [ps.parse_word(text, rank).letters for text in words]
    cores += _random_cores(rng, rank, 12, 2, 9)
    table = all_letters(rank)  # the letter of bit k at index k
    sizes = set()
    for core in cores:
        expected = _orbit_reference(rank, core)
        for rotation in (core, core[1:] + core[:1]):
            orbit = dict(whitehead._orbit(rank, bytes(letter_key(v) - 1 for v in rotation)))
            got = {ps.CyclicWord(rank, tuple(table[k] for k in image)):
                   ps.CyclicWord(rank, tuple(table[k] for k in inverse))
                   for image, inverse in orbit.items()}
            assert got == expected, core
        sizes.add(len(expected))
    assert min(sizes) < 2 * 2 ** rank * math.factorial(rank)



def test_enumerate_matches_slope_construction():
    # primitive classes of length <= 6 are exactly the slope words with |p|+|q| <= 6
    classes = set(ps.enumerate_primitive_classes(2, 6))
    from_slopes = set()
    for p, q in coprime_pairs(6):
        if abs(p) + abs(q) <= 6:
            from_slopes.add(ps.primitive_of_slope(p, q))
    assert classes == from_slopes


def test_primitive_of_slope_examples():
    assert str(ps.primitive_of_slope(0, 1)) == "a"
    assert str(ps.primitive_of_slope(1, 0)) == "b"
    assert str(ps.primitive_of_slope(1, 1)) == "ab"
    assert str(ps.primitive_of_slope(1, 2)) == "aab"
    assert ps.is_primitive(ps.primitive_of_slope(1, 2))


def test_primitive_of_slope_errors():
    with pytest.raises(NotCoprime):
        ps.primitive_of_slope(0, 0)
    with pytest.raises(NotCoprime):
        ps.primitive_of_slope(2, 2)
    with pytest.raises(NotCoprime):
        ps.primitive_of_slope(2, 4)
    # slopes are ints, not bools: the package's count rule with no bound
    for bad in ((True, 0), (0, True), (1.0, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            ps.primitive_of_slope(*bad)


def test_primitive_of_slope_abelianization():
    for p, q in coprime_pairs(5):
        w = ps.primitive_of_slope(p, q)
        assert exponent_sums(w) == (q, p)
        assert ps.is_primitive(w)
