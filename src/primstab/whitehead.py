"""Whitehead graphs, Whitehead moves, primitivity, and blocking certificates.

The letter graph of a word has the 2n letters as vertices and one edge
{x, y^-1} for every adjacent pair xy; the closed variant also counts the
wrap-around pair of the cyclic word.  A word whose closed graph is connected
and cutpoint-free is never primitive (Whitehead's cut-vertex lemma), and a
word whose open graph is connected and cutpoint-free occurs in no cyclically
reduced primitive word, which is the certificate computed here.

A move (a, A) changes the length of a cyclically reduced word by
cut(A) - deg(a), the edges with exactly one end in A minus the edges at a
(the Higgins-Lyndon count; Lyndon-Schupp, Combinatorial Group Theory, Prop.
I.4.16).  ``is_primitive`` and ``whitehead_minimize`` shorten a cyclic core
in any rank by the move that ``_graph_move`` reads straight off a closed
graph that is disconnected or has a cut vertex.  ``is_primitive`` stops at
the first core in which some generator occurs once, or at a graph with
neither; the minimiser goes on past such a graph by the move of least count,
found as a minimum cut between a and a^-1.  Only the enumeration of
primitive classes searches the pool of moves, up to ``RANK_CAP``, counting
each move's change before taking it.  Every kernel codes letter v as the bit
``letter_key(v) - 1``, so that the inverse of bit b is bit b ^ 1: the graph
kernels work on int bitmasks over these bits, the count XORs edge-incidence
masks and takes a bit count, the connectivity tests flood-fill letter sets,
and the enumeration holds a class as the byte string of its letters' bits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    ClosedOnNonCyclicallyReduced,
    RankMismatch,
    RankTooLarge,
)
from .words import (
    CyclicWord,
    Word,
    _ascii_form,
    _check_count,
    _check_letters,
    _cyclic_core,
    _farey_turns,
    _Frozen,
    _normalize_slope,
    _reduce_list,
    letter_key,
)

# the largest rank the enumeration of primitive classes runs in; its move
# pool has 2n(2^(2n-2) - 1) moves, 504 at rank 4 and 2550 at rank 5
RANK_CAP = 4

CONNECTED_NO_CUTPOINT = "CONNECTED_NO_CUTPOINT"
DISCONNECTED = "DISCONNECTED"
HAS_CUTPOINT = "HAS_CUTPOINT"
TOO_SHORT = "TOO_SHORT"


def all_letters(rank: int) -> list[int]:
    """The 2n letters in canonical order 1, -1, 2, -2, ..."""
    return [v for i in range(1, rank + 1) for v in (i, -i)]


# translate tables on bit strings, from the bit of v to the bit of v^-1 and
# to v as a signed byte; bits sort in the letter order of CyclicWord.sort_key
_INVERSE = bytes(b ^ 1 for b in range(256))
_SIGNED = bytes(v % 256 for v in all_letters(128))


def _bits(letters: Iterable[int]) -> list[int]:
    """The bit ``letter_key(v) - 1`` of each letter v."""
    return [2 * v - 2 if v > 0 else -2 * v - 1 for v in letters]


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if letter_key(u) <= letter_key(v) else (v, u)


class WhiteheadGraph(_Frozen):
    """Multigraph on the 2n letters: ``edges`` holds each unordered edge once
    per occurrence, as ``_edge(u, v)``, in the letter order of its ends."""

    __slots__ = ("rank", "edges")

    def __init__(self, rank: int, edges: Iterable[tuple[int, int]] = ()):
        edges = tuple(edges)
        _check_letters(rank, itertools.chain.from_iterable(edges))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "edges", tuple(sorted(
            (_edge(u, v) for u, v in edges), key=lambda e: (letter_key(e[0]), letter_key(e[1])))))

    @property
    def vertices(self) -> list[int]:
        return all_letters(self.rank)

    @property
    def edge_multiplicity(self) -> dict[tuple[int, int], int]:
        """The number of occurrences of each edge, in a new dict."""
        return dict(Counter(self.edges))

    def edge_count(self) -> int:
        return len(self.edges)

    def multiplicity(self, u: int, v: int) -> int:
        return self.edges.count(_edge(u, v))

    def degree(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b in self.edges)


def whitehead_graph(w: Word | CyclicWord, closed: bool = False) -> WhiteheadGraph:
    """Letter graph of w: an edge {x, y^-1} for each adjacent pair xy, and
    with ``closed`` the wrap-around pair too.

    The closed graph is only defined for cyclically reduced words.
    """
    letters = w.letters
    if closed:
        core, _ = _cyclic_core(letters)
        if len(core) != len(letters):
            raise ClosedOnNonCyclicallyReduced(
                "closed graph requested for non-cyclically-reduced word %r" % (w,)
            )
    pairs = zip(letters, letters[1:] + letters[:1] if closed else letters[1:])
    return WhiteheadGraph(w.rank, ((x, -y) for x, y in pairs))


def _neighbours(g: WhiteheadGraph) -> list[int]:
    """The adjacency mask of each of the 2n letters, indexed by its bit
    ``letter_key(v) - 1``; a self-loop makes a vertex its own neighbour."""
    adjacent = [0] * (2 * g.rank)
    for x, y in g.edges:
        u, v = letter_key(x) - 1, letter_key(y) - 1
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    return adjacent


def _letter_graph(size: int, bits: Sequence[int], closed: bool) -> list[int]:
    """The adjacency masks of the letter graph of a word given as letter
    bits, on bits 0 to ``size - 1`` with the inverse of bit b on bit b ^ 1.
    On the bits ``letter_key(v) - 1`` they are the masks that ``_neighbours``
    reads off ``whitehead_graph``'s edge table, built without the table."""
    adjacent = [0] * size
    for x, y in zip(bits, bits[1:] + bits[:1] if closed else bits[1:]):
        y ^= 1
        adjacent[x] |= 1 << y
        adjacent[y] |= 1 << x
    return adjacent


def _component(adjacent: list[int], start: int, vertices: int) -> int:
    """The component of the letter ``start`` (a one-bit mask) in the subgraph
    induced on the letter mask ``vertices`` that holds it, by one flood fill."""
    stack = start
    unseen = vertices ^ stack
    while stack:
        low = stack & -stack
        reached = adjacent[low.bit_length() - 1] & unseen
        unseen ^= reached
        stack ^= low | reached
    return vertices ^ unseen


def is_connected(g: WhiteheadGraph) -> bool:
    """Connectivity on all 2n vertices; isolated vertices disconnect, and
    answer before any flood fill."""
    adjacent = _neighbours(g)
    letters = (1 << len(adjacent)) - 1
    return all(adjacent) and _component(adjacent, 1, letters) == letters


def has_cutpoint(g: WhiteheadGraph) -> bool:
    """Whether removing some vertex increases the number of components.

    Tested on the subgraph spanned by vertices with at least one edge, so
    isolated vertices never count as (or create) cutpoints: a vertex is a
    cutpoint exactly when it is one of its own component.
    """
    adjacent = _neighbours(g)
    support = sum(1 << k for k, near in enumerate(adjacent) if near)
    while support:
        component = _component(adjacent, support & -support, support)
        if _cut_vertex_verdict(adjacent, component)[0] == HAS_CUTPOINT:
            return True
        support ^= component
    return False


def _cut_vertex_verdict(adjacent: list[int], letters: int) -> tuple[str, int, int]:
    """(reason, cut, side) for the letter graph with these masks, on the
    subgraph induced on the non-empty letter mask ``letters``; the inverse of
    letter k is letter k ^ 1.

    - DISCONNECTED unless that subgraph is connected, with ``side`` the
      component of its lowest letter;
    - then HAS_CUTPOINT if removing a letter ``cut`` disconnects the rest,
      with ``side`` one side of the cut: the rest less the component that
      holds ``cut ^ 1``, or one component of the rest if it lacks ``cut ^ 1``.
      Either way ``side`` is a non-empty union of the rest's components;
    - else CONNECTED_NO_CUTPOINT, the graph to which Whitehead's cut-vertex
      lemma applies, with no witness (``cut`` -1 and ``side`` 0).
    """
    side = _component(adjacent, letters & -letters, letters)
    if side != letters:
        return DISCONNECTED, -1, side
    remaining = letters
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        rest = letters ^ low
        side = _component(adjacent, rest & -rest, rest) if rest else rest
        if side != rest:
            cut = low.bit_length() - 1
            inverse = 1 << (cut ^ 1)
            if rest & inverse:
                side = rest ^ (side if side & inverse else _component(adjacent, inverse, rest))
            return HAS_CUTPOINT, cut, side
    return CONNECTED_NO_CUTPOINT, -1, 0


class BlockingCertificate(_Frozen):
    __slots__ = ("word", "reason")

    def __init__(self, word: Word, reason: str):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "reason", reason)

    @property
    def certified(self) -> bool:
        return self.reason == CONNECTED_NO_CUTPOINT


def blocking_certificate(w: Word) -> BlockingCertificate:
    """Certify that w occurs in no cyclically reduced primitive word.

    Certified exactly when the open letter graph of w is connected on all 2n
    vertices and has no cutpoint.  A failed certificate says nothing: some
    power of w may still certify.
    """
    if len(w) == 0:
        return BlockingCertificate(w, TOO_SHORT)
    adjacent = _letter_graph(2 * w.rank, _bits(w.letters), False)
    # an isolated letter disconnects before any flood fill, which would
    # otherwise cost a pass over a 2n-bit mask
    reason = (_cut_vertex_verdict(adjacent, (1 << len(adjacent)) - 1)[0] if all(adjacent)
              else DISCONNECTED)
    return BlockingCertificate(w, reason)


class WhiteheadAutomorphism(_Frozen):
    """An automorphism of the free group given by its generator images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[Word]):
        images = tuple(images)
        rank = len(images)
        _check_count("rank", rank, 1)
        for img in images:
            if img.rank != rank:
                raise RankMismatch("image %r has rank %d, expected %d" % (img, img.rank, rank))
        object.__setattr__(self, "images", images)

    @property
    def rank(self) -> int:
        """The number of generator images."""
        return len(self.images)

    @_ascii_form
    def __repr__(self) -> str:
        return "WhiteheadAutomorphism(%s)" % ", ".join(
            "%s->%s" % (Word(self.rank, (i + 1,)), img) for i, img in enumerate(self.images)
        )

    @classmethod
    def identity(cls, rank: int) -> "WhiteheadAutomorphism":
        _check_count("rank", rank, 1)
        return cls(Word(rank, (i,)) for i in range(1, rank + 1))

    @classmethod
    def letter_permutation(cls, rank: int, mapping: dict[int, int]) -> "WhiteheadAutomorphism":
        """First-kind move: a signed permutation of the letters.

        ``mapping`` sends each generator index 1..rank, an int and not a
        bool, and no other key, to a letter; the absolute values must form a
        permutation of 1..rank.  Any other mapping raises ValueError.
        """
        _check_count("rank", rank, 1)
        indices = list(range(1, rank + 1))
        if (set(mapping) != set(indices) or any(type(i) is not int for i in mapping)
                or sorted(abs(mapping[i]) for i in indices) != indices):
            raise ValueError("mapping %r is not a signed permutation of 1..%d" % (mapping, rank))
        return cls(Word(rank, (mapping[i],)) for i in indices)

    @classmethod
    def multiplier_move(cls, rank: int, multiplier: int, members: Iterable[int]) -> "WhiteheadAutomorphism":
        """Second-kind move with multiplier letter a and letter set A.

        A is {a} together with ``members``; the inverse of a may not belong.
        A generator x outside {a, a^-1} maps to x*a if only x is in A, to
        a^-1*x if only x^-1 is in A, to a^-1*x*a if both are, and is fixed
        otherwise; a itself is fixed.
        """
        members = tuple(members)
        _check_letters(rank, (multiplier, *members))
        members = set(members)
        if multiplier in members or -multiplier in members:
            raise ValueError("members may not contain the multiplier or its inverse")
        a = multiplier
        # the images are reduced, as x != a^+-1, and built without a check
        letters = list(zip(range(1, rank + 1)))
        for i in {abs(v) for v in members}:
            letters[i - 1] = (-a,) * (-i in members) + (i,) + (a,) * (i in members)
        return cls(Word._from_columns((rank,) * rank, letters))


def _image_table(phi: WhiteheadAutomorphism) -> tuple[tuple[int, ...], ...]:
    """The image of every letter v of phi's rank, as a letter tuple at index
    v: the inverses' images sit at the negative indices."""
    images = [img.letters for img in phi.images]
    return ((), *images, *(tuple(-v for v in reversed(w)) for w in reversed(images)))


def apply_automorphism(phi: WhiteheadAutomorphism, w: Word) -> Word:
    if phi.rank != w.rank:
        raise RankMismatch("automorphism rank %d vs word rank %d" % (phi.rank, w.rank))
    table = _image_table(phi)
    return Word(w.rank, tuple(_reduce_list(u for v in w.letters for u in table[v])))


@lru_cache(maxsize=None)
def _pool_moves(rank: int) -> tuple[tuple[tuple[bytes, ...], bytes, int, int], ...]:
    """(the bit strings of the letters' images, at their bits; the bit string
    of a a^-1; bitmask of A; bit of a) for every non-identity second-kind
    move (a, A); RankTooLarge past the cap.

    A letter x other than a^+-1 maps to [a^-1] x [a], with a^-1 when x^-1 is
    in A and a when x is.  In the join of a cyclically reduced word's letter
    images the only pairs that cancel are a a^-1 (a trailing a or the letter
    a, then a leading a^-1 or the letter a^-1).  They do not overlap, and
    removing them joins no new pair: it joins neighbours of the word, or an
    x in A to a leading a^-1 or to a y with y^-1 not in A, or a trailing a
    or a w not in A to a y other than a^-1 with y^-1 in A.  So the cyclic
    image is the join less each a a^-1 in it and one more across its ends.
    """
    if rank > RANK_CAP:
        raise RankTooLarge("rank %d exceeds the move-search cap %d" % (rank, RANK_CAP))
    letters = [bytes((b,)) for b in range(2 * rank)]
    moves = []
    for a in range(2 * rank):
        others = [b for b in range(2 * rank) if b >> 1 != a >> 1]
        lead, trail = letters[a ^ 1], letters[a]
        for mask in range(1, 1 << len(others)):
            side = sum(1 << b for k, b in enumerate(others) if mask >> k & 1)
            pieces = tuple(x if b >> 1 == a >> 1 else
                           lead * (side >> (b ^ 1) & 1) + x + trail * (side >> b & 1)
                           for b, x in enumerate(letters))
            moves.append((pieces, trail + lead, side | 1 << a, a))
    return tuple(moves)


def _move_image(pieces: tuple[bytes, ...], cancel: bytes, bits: bytes) -> bytes:
    """The cyclic image (in some rotation) of a cyclically reduced bit string
    under a ``_pool_moves`` move, given as its pieces and its a a^-1."""
    image = b"".join(map(pieces.__getitem__, bits)).replace(cancel, b"")
    return image[1:-1] if image[-1] == cancel[0] and image[0] == cancel[1] else image


def _changes(rank: int, core: Sequence[int]) -> list[int]:
    """|phi(w)| - |w| = cut(A) - deg(a) for every move phi = (a, A) of
    ``_pool_moves``, in its order, on a non-empty cyclically reduced core w of
    letter bits, counted on its closed graph, whose edge i joins ``core[i]``
    and ``core[i + 1] ^ 1``.  Bit i of ``incident[u]`` marks edge i at letter
    u.  An edge crosses A exactly when one of its ends is in A, so the edges
    crossing A are the XOR of ``incident`` over A, and cut(A) is its bit
    count.  That needs a core with no self-loop edge (an edge that XORs away
    at its own letter), which a cyclically reduced core has: xy with
    x = y^-1 would cancel.  So deg(a) is cut({a}).
    """
    moves = _pool_moves(rank)  # RankTooLarge past the cap, before the 2^(2n) XORs
    incident = [0] * (2 * rank)
    for i, (x, y) in enumerate(zip(core, core[1:] + core[:1])):
        incident[x] |= 1 << i
        incident[y ^ 1] |= 1 << i
    cut = [0]  # the edges crossing S for every letter set S, one XOR each
    for edges in incident:
        cut += [c ^ edges for c in cut]
    cut = list(map(int.bit_count, cut))
    return [cut[mask] - cut[1 << a] for _, _, mask, a in moves]


def _core_bits(w: Word | CyclicWord) -> tuple[Sequence[int], list[int]]:
    """The generators of w's letter bits, and the cyclic core of w as letter
    bits: the i-th generator on bits 2i and 2i + 1, so the inverse of bit b
    is bit b ^ 1.

    Within ``RANK_CAP`` the generators are 1 to n and letter v has bit
    ``letter_key(v) - 1``.  Past it they are the generators the core uses,
    in increasing order, so that a round costs time in the core's length and
    in their number, not in the rank.
    """
    core, _ = _cyclic_core(w.letters)
    if w.rank <= RANK_CAP:
        return range(1, w.rank + 1), _bits(core)
    generators = sorted({abs(v) for v in core})
    index = {g: 2 * i for i, g in enumerate(generators)}
    return generators, [index[abs(v)] + (v < 0) for v in core]


def _graph_move(core: list[int], size: int) -> tuple[int, int] | None:
    """A move (a, {a} + side) that shortens the cyclic core of letter bits
    on bits 0 to ``size - 1``, read off its closed letter graph, as
    (a, side); None when that graph is connected with no cut vertex.

    The graph is taken on the support S of the core, the letters of the
    generators it uses, which no move enlarges.  A move (a, A) changes the
    length by cut(A) - deg(a) (Higgins-Lyndon, as in ``_changes``):

    - the graph is disconnected: every component C holds a letter x whose
      inverse it does not hold (a component closed under inversion would
      meet no edge from the rest of the core, which uses other generators
      too), and the move (x, C) changes the length by 0 - deg(x) < 0;
    - a letter a is a cut vertex: the graph less a falls apart, and the
      letters C outside the component of a^-1 have all their edges inside
      {a} + C, so the move (a, {a} + C) changes the length by
      -edges(a, C) <= -1.
    """
    adjacent = _letter_graph(size, core, True)
    letters = (1 << size) - 1
    support = letters if all(adjacent) else sum(
        1 << b for b, near in enumerate(adjacent) if near)
    reason, a, side = _cut_vertex_verdict(adjacent, support)
    if reason == CONNECTED_NO_CUTPOINT:
        return None
    if reason == DISCONNECTED:
        even = letters // 3  # bits 0, 2, 4, ...
        lone = side & ~((side & even) << 1 | (side >> 1) & even)  # inverse not in side
        a = (lone & -lone).bit_length() - 1
        side ^= 1 << a
    return a, side


def _min_cut_move(core: list[int], size: int) -> tuple[int, int] | None:
    """The move (a, {a} + side) that shortens the cyclic core of letter bits
    the most, as (a, side), the lowest a on a tie; None when no move
    shortens it.

    A move (a, A) changes the length by cut(A) - deg(a), and the least
    cut(A) over the letter sets A that hold a but not a^-1 is the minimum
    cut between a and a^-1 in the closed letter graph (Roig-Ventura-Weil,
    IJAC 17, 2007).  By max-flow min-cut it is the most edge-disjoint paths
    from a to a^-1, found one at a time by breadth-first search in the
    residual graph, each edge of capacity 1 in either direction; edge i
    joins ``core[i]`` and ``core[i + 1] ^ 1``.  When no path is left, the
    letters the search reached are a set A whose cut is that minimum.  The
    search for a stops once a cannot beat the best move found.

    a and a^-1 change the length alike: the minimum cut between them is the
    same either way, and deg(a) = deg(a^-1), the occurrences of a's
    generator.  So the search runs once per generator, from its even bit,
    which is the lower of the two.
    """
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    for i, (x, y) in enumerate(zip(core, core[1:] + core[:1])):
        y ^= 1
        incident[x].append((i, y, 1))
        incident[y].append((i, x, -1))
    best, move = 0, None
    for a in range(0, size, 2):
        target, degree, cut = a + 1, len(incident[a]), 0
        flow = [0] * len(core)  # +1 or -1 along edge i's direction
        while cut - degree < best:
            parent = {a: None}
            frontier = [a]
            while frontier and target not in parent:
                reached = []
                for u in frontier:
                    for i, v, sign in incident[u]:
                        if v not in parent and flow[i] * sign < 1:
                            parent[v] = (u, i, sign)
                            reached.append(v)
                frontier = reached
            if target not in parent:
                best, move = cut - degree, (a, sum(1 << v for v in parent if v != a))
                break
            v = target
            while v != a:
                v, i, sign = parent[v]
                flow[i] += sign
            cut += 1
    return move


def _apply_move(core: list[int], a: int, side: int) -> list[int]:
    """The cyclic core of the image of a cyclic core of letter bits under
    the move (a, {a} + side), with ``side`` a letter mask that holds neither
    a nor a^-1: a letter v gains a^-1 in front when v^-1 is in ``side``, and
    a behind when v is."""
    image = []
    for v in core:
        if side >> (v ^ 1) & 1:
            image.append(a ^ 1)
        image.append(v)
        if side >> v & 1:
            image.append(a)
    core = []
    for v in image:
        if core and core[-1] == v ^ 1:
            core.pop()
        else:
            core.append(v)
    i, j = 0, len(core)
    while j - i > 1 and core[i] == core[j - 1] ^ 1:
        i += 1
        j -= 1
    return core[i:j]


def whitehead_minimize(w: Word | CyclicWord) -> tuple[CyclicWord, list[WhiteheadAutomorphism]]:
    """Shorten the conjugacy class of w with second-kind moves, in any rank.

    Each round takes a move read off the closed letter graph of the cyclic
    core: the move of a disconnection or a cut vertex, as in
    ``is_primitive``, and when the graph is connected with no cut vertex the
    move whose length change cut(A) - deg(a) is least (Higgins-Lyndon;
    Lyndon-Schupp, Prop. I.4.16), found as a minimum cut between a and a^-1
    (the lowest letter a in the order a, A, b, B, ... on a tie).  It stops
    when that least change is not negative, so where no second-kind move
    shortens the core; by peak reduction the terminal length is then minimal
    over the whole automorphism orbit, and the terminal word has length 1
    exactly when w is primitive.

    Returns the terminal class and the moves taken, in order, as
    ``WhiteheadAutomorphism.multiplier_move`` values of w's rank, each with
    one image per generator: past ``RANK_CAP`` the rounds cost time in the
    core, but the trace costs time and memory linear in the rank.  The empty
    word and a one-letter word return at once.
    """
    generators, core = _core_bits(w)
    size = 2 * len(generators)
    moves = []  # each (a, side): the move (a, {a} + side), which shortens the core
    while len(core) > 1:
        move = _graph_move(core, size) or _min_cut_move(core, size)
        if move is None:
            break
        core = _apply_move(core, *move)
        moves.append(move)

    def letter(b):
        return -generators[b >> 1] if b & 1 else generators[b >> 1]

    trace = [WhiteheadAutomorphism.multiplier_move(
        w.rank, letter(a), [letter(b) for b in range(side.bit_length()) if side >> b & 1])
        for a, side in moves]
    return CyclicWord(w.rank, tuple(map(letter, core))), trace


def is_primitive(w: Word | CyclicWord) -> bool:
    """Whether w belongs to some free basis, in any rank.

    Invariant under conjugation, inversion, and automorphisms.  The cyclic
    core is held as letter bits (``_core_bits``), and one pass counts each
    generator's occurrences in it and its exponent sum.

    - A core in which some generator x occurs exactly once is primitive
      (Whitehead, Ann. Math. 1936; Lyndon-Schupp, Ch. I.4).  Rotated, it is
      x^e u with e = +-1 and u free of x, and x^e u is the image of x^e
      under the automorphism that fixes every other generator and sends x
      to x u (e = 1) or to u^-1 x (e = -1); its inverse sends x to x u^-1 or
      to u x.  A one-letter core is the case u = 1.  The exponent sum of x
      is then +-1, so this test comes first.
    - Otherwise the empty word is not primitive, nor is a word whose
      exponent vector has gcd other than 1, a condition automorphisms keep.
    - Any other core is shortened by Whitehead moves read off its closed
      letter graph, one per round (``_graph_move``), until some generator
      occurs once in it (primitive) or its graph is connected with no cut
      vertex (not primitive).  Every move shortens the core, so there are
      fewer rounds than letters.

    A round's move (a, A) fixes a and a^-1 and sends every other letter x
    to [a^-1] x [a], and in the join of the images of a cyclically reduced
    core's letters only pairs a a^-1 cancel (``_pool_moves``).  So every
    generator other than a's occurs in the new core as often as in the old
    one, and a's occurrences change by the change of length.  A round
    updates that one count, and only a's generator can newly occur once; a
    one-letter core is reached only that way.

    The graph is taken on the support S of the core, the letters of the
    generators it uses.  When it is connected with no cut vertex, the core
    is not primitive by Whitehead's cut-vertex lemma (Whitehead, Ann. Math.
    1936; Heusener-Weidmann, 2019) applied in the free factor F(S): in rank
    2 or more, the closed graph of a primitive cyclically reduced word is
    disconnected or has a cut vertex.  (On one generator the core is x^m
    with m >= 2.)  The lemma in F(S) suffices, because a word of F(S) that
    is primitive in F_n is primitive in F(S).  By peak reduction a primitive
    cyclic word longer than one letter has a shortening move (a, A) of F_n.
    Letters outside S have no edges, so a is in S, and (a, A restricted to
    S) is a move of F(S) with the same image.  By induction on the length,
    the word is the image of a letter under an automorphism of F(S).

    The counts are kept per generator of the core's bits, so past
    ``RANK_CAP`` a query costs time and memory in the core's length and in
    the generators it uses, not in the rank.
    """
    generators, core = _core_bits(w)
    counts = [0] * len(generators)
    sums = [0] * len(generators)
    for b in core:
        counts[b >> 1] += 1
        sums[b >> 1] += -1 if b & 1 else 1
    if 1 in counts:
        return True
    # the empty core has gcd 0
    if math.gcd(*sums) != 1:
        return False
    size = 2 * len(sums)
    while True:
        move = _graph_move(core, size)
        if move is None:
            return False
        a, side = move
        image = _apply_move(core, a, side)
        counts[a >> 1] += len(image) - len(core)
        if counts[a >> 1] == 1:
            return True
        core = image


@lru_cache(maxsize=None)
def _symmetry_tables(rank: int) -> tuple[tuple[int, list[bytes]], ...]:
    """The ``bytes.translate`` table on letter bits of each of the 2^n n!
    signed permutations tau of the generators, from the bit of v to the bit
    of tau(v), grouped as (k, tables) by the bit k of the letter sent to a."""
    pairs = [(bytes((j, j + 1)), bytes((j + 1, j))) for j in range(0, 2 * rank, 2)]
    rest = bytes(range(2 * rank, 256))
    groups: dict[int, list[bytes]] = {}
    for perm in itertools.permutations(pairs):  # generator i to the i-th
        for images in itertools.product(*perm):  # of them, or its inverse
            table = b"".join((*images, rest))
            groups.setdefault(table.index(0), []).append(table)
    return tuple(groups.items())


def _images(rank: int, bits: bytes) -> list[bytes]:
    """The least rotation of tau(w), for every signed permutation tau in
    ``_symmetry_tables`` order, of a cyclically reduced bit string w.  Where
    tau sends the letter of bit k to a, the least letter, the least rotation
    of tau(w) starts with that letter in w, or if w lacks it with its
    inverse: only those rotations of w (all if w lacks both) are translated
    and compared, for all the tables of k at once."""
    n = len(bits)
    doubled = bits + bits
    by_bit: dict[int, list[bytes]] = {}  # the rotations by their first bit
    for i, k in enumerate(bits):
        by_bit.setdefault(k, []).append(doubled[i:i + n])
    out: list[bytes] = []
    for k, tables in _symmetry_tables(rank):
        starts = by_bit.get(k) or by_bit.get(k ^ 1) or [doubled[i:i + n] for i in range(n)]
        images = [map(start.translate, tables) for start in starts]
        out += images[0] if len(images) == 1 else map(min, *images)
    return out


def _orbit(rank: int, canon: bytes) -> Iterator[tuple[bytes, bytes]]:
    """(image, inverse) for each image of a class c under the symmetries, as
    bit strings in least rotation: tau(c) with tau(c^-1) = tau(c)^-1."""
    images = _images(rank, canon)
    inverses = _images(rank, canon[::-1].translate(_INVERSE))
    return itertools.chain(zip(images, inverses), zip(inverses, images))


@lru_cache(maxsize=None)
def _primitive_classes(rank: int, max_len: int) -> tuple[tuple[CyclicWord, ...], tuple[int, ...]]:
    """Grow the primitive classes upward from the letters, one symmetry orbit
    at a time: the classes in scan order, and for each the index of its
    inverse among them.

    The symmetries are the signed permutations of the generators and
    inversion (2 * 2^n * n! of them).  ``found`` maps every class seen so
    far to its inverse, both as strings of letter bits in least rotation, and
    is a union of whole orbits (``_orbit``).  The frontier holds one class
    per orbit shorter than ``max_len``.  Each frontier class applies the
    pool moves that lengthen it to at most ``max_len`` letters (``_changes``,
    ``_move_image``); an image not yet found brings in its whole orbit, and
    only the image itself goes on to the next frontier.  Every class reached
    is an automorphic image of a letter or of its inverse, so it is
    primitive.  Bit strings sort in the order of ``CyclicWord.sort_key``, so
    the sorted strings are the scan order.  The move pool is built first, so
    a rank past ``RANK_CAP`` raises RankTooLarge before any symmetry table.

    The search is complete by peak reduction, orbit by orbit.  Every
    primitive class c longer than one letter is c = phi(c') for some move
    phi = (a, A) of the pool and a shorter primitive class c' (by peak
    reduction some move shortens c, and its inverse (a^-1, A) is in the
    pool).  For every symmetry tau, tau c = (tau phi tau^-1)(tau c'):
    conjugating (a, A) by a signed permutation gives the move (tau a, tau A),
    which is in the pool, and inversion commutes with every automorphism,
    since phi(w^-1) = phi(w)^-1.  By induction on the length, the orbit of
    c', shorter than ``max_len``, is found with one class on a frontier, and
    some symmetry tau takes c' to it.  The pool move tau phi tau^-1 takes
    tau c' to tau c, which is longer and at most ``max_len`` letters, so the
    orbit of tau c, which is the orbit of c, is found too.  The set is the
    one that growth without symmetry (every pool move on every class found)
    reaches, so the sorted tuple is the same.  No class is its own inverse
    (w conjugate to w^-1 forces w = 1 in a free group), so the classes fall
    into inverse pairs.
    """
    if max_len < 1:
        return (), ()
    moves = _pool_moves(rank)  # RankTooLarge past the cap, before any symmetry table
    rotations = [[slice(i, i + n) for i in range(n)] for n in range(max_len + 1)]
    frontier = [b"\0"]
    found = dict(_orbit(rank, b"\0"))  # the 2n letters
    while frontier:
        grown = []
        for bits in frontier:
            room = range(1, max_len - len(bits) + 1)
            lengthening = map(room.__contains__, _changes(rank, bits))
            for pieces, cancel, _, _ in itertools.compress(moves, lengthening):
                image = _move_image(pieces, cancel, bits)
                doubled = image + image
                image = min(map(doubled.__getitem__, rotations[len(image)]))
                if image not in found:
                    found.update(_orbit(rank, image))
                    if len(image) < max_len:
                        grown.append(image)
        frontier = grown
    from struct import unpack  # loaded only by a call that enumerates

    ordered = sorted(found)
    index = dict(zip(ordered, range(len(ordered))))
    formats = ["%db" % n for n in range(max_len + 1)]
    letters = map(unpack, map(formats.__getitem__, map(len, ordered)),
                  map(bytes.translate, ordered, itertools.repeat(_SIGNED)))
    classes = CyclicWord._from_columns((rank,) * len(ordered), letters)
    return classes, tuple(map(index.__getitem__, map(found.__getitem__, ordered)))


@lru_cache(maxsize=None)
def _walk_plan(
    rank: int, max_len: int
) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...], tuple[int, ...]]:
    """The plan of ``moebius._walk`` over one class of each inverse pair of
    ``_primitive_classes``, the one first in scan order, for every class
    the index in that walk of its pair's product, and the number of letters
    of each walked class.

    The plan holds, for each walked class, the length k of the prefix its
    letters share with the walked class before it (0 for the first), and
    its letters after that prefix.  The walked classes keep the scan order,
    so neighbours share long prefixes and the walk multiplies each distinct
    prefix once.
    """
    classes, inverses = _primitive_classes(rank, max_len)
    plan = []
    slots = []
    previous: tuple[int, ...] = ()
    for i, (cls, j) in enumerate(zip(classes, inverses)):
        if j < i:
            slots.append(slots[j])
            continue
        slots.append(len(plan))
        letters = cls.letters
        k = 0
        for x, y in zip(previous, letters):
            if x != y:
                break
            k += 1
        plan.append((k, letters[k:]))
        previous = letters
    return tuple(plan), tuple(slots), tuple(k + len(suffix) for k, suffix in plan)


def enumerate_primitive_classes(rank: int, max_len: int) -> tuple[CyclicWord, ...]:
    """All conjugacy classes of primitive elements with length at most max_len.

    Classes and their inverses are listed separately; the output is sorted
    lexicographically in the letter order and is complete and duplicate-free.
    Raises ValueError unless ``rank`` and ``max_len`` are ints (not bools)
    with ``rank`` >= 1 and ``max_len`` >= 0, and RankTooLarge past
    ``RANK_CAP`` when ``max_len`` > 0.
    """
    _check_count("rank", rank, 1)
    _check_count("max_len", max_len, 0)
    return _primitive_classes(rank, max_len)[0]


def primitive_of_slope(p: int, q: int) -> CyclicWord:
    """The rank-2 primitive class indexed by the slope p/q.

    Convention: slope 0/1 is a, slope 1/0 is b, and the class at a Farey
    mediant is the concatenation of the classes at its parents, so the
    exponent vector of the result is (q, p).  Negative slopes are reached by
    inverting b (for p < 0) and by inverting the whole word (for q < 0).
    """
    _check_count("p", p, None)
    _check_count("q", q, None)
    slope = _normalize_slope(p, q)
    inverted = slope != (p, q)
    p, q = slope
    lower, upper = [1], [2 if p >= 0 else -2]
    if (p, q) == (0, 1):
        letters = lower
    elif (p, q) == (1, 0):
        letters = upper
    else:
        for below in _farey_turns(abs(p), q):
            if below:
                upper = lower + upper
            else:
                lower = lower + upper
        letters = lower + upper
    if inverted:
        letters = [-v for v in reversed(letters)]
    return CyclicWord(2, tuple(letters))
