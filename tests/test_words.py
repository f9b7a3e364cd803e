import random

import pytest

import primstab as ps
from primstab.errors import InvalidLetter, WordParseError

from helpers import random_reduced_letters, random_word


def test_reduce_cancellation():
    assert ps.reduce([1, -1], 2).letters == ()


def test_reduce_inner_pair():
    assert str(ps.reduce([1, 2, -2, 1], 2)) == "aa"


def test_reduce_already_reduced():
    assert str(ps.reduce([1, 2, -1], 2)) == "abA"


def test_reduce_idempotent_and_shorter():
    rng = random.Random(1)
    alphabet = [1, -1, 2, -2, 3, -3]
    for _ in range(200):
        soup = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
        w = ps.reduce(soup, 3)
        assert len(w) <= len(soup)
        assert ps.reduce(w.letters, 3) == w


def test_reduce_word_times_inverse_is_identity():
    rng = random.Random(2)
    for _ in range(100):
        w = random_word(rng, 2, rng.randint(0, 12))
        assert len(ps.reduce(w.letters + ps.invert(w).letters, 2)) == 0


def test_parse_word_checks_its_letters_once(monkeypatch):
    # reduce checks the input letters; the reduced word it builds from them
    # is not checked again
    from primstab import words

    calls = []
    check = words._check_letters

    def spy(rank, letters):
        calls.append(rank)
        return check(rank, letters)

    monkeypatch.setattr(words, "_check_letters", spy)
    w = ps.parse_word("abBAbAB", 2)
    assert calls == [2]
    assert w == ps.Word(2, (2, -1, -2)) and type(w) is ps.Word


def test_reduce_rejects_bad_letters():
    with pytest.raises(InvalidLetter):
        ps.reduce([0], 2)
    with pytest.raises(InvalidLetter):
        ps.reduce([3], 2)


def _takes_rank(rank):
    """Every constructor that takes a rank, called with ``rank`` and input
    that is good in rank 1."""
    from primstab.whitehead import WhiteheadAutomorphism, WhiteheadGraph

    return [
        lambda: ps.Word(rank, ()),
        lambda: ps.CyclicWord(rank, ()),
        lambda: ps.reduce([], rank),
        lambda: ps.parse_word("", rank),
        lambda: WhiteheadGraph(rank),
        lambda: WhiteheadAutomorphism.multiplier_move(rank, 1, []),
        lambda: WhiteheadAutomorphism.identity(rank),
        lambda: WhiteheadAutomorphism.letter_permutation(rank, {1: 1}),
    ]


def _takes_letter(letter):
    """Every constructor that takes letters, called in rank 2 with ``letter``."""
    from primstab.whitehead import WhiteheadAutomorphism, WhiteheadGraph

    return [
        lambda: ps.Word(2, (letter,)),
        lambda: ps.CyclicWord(2, (letter,)),
        lambda: ps.reduce([1, letter], 2),
        lambda: WhiteheadGraph(2, [(1, letter)]),
        lambda: WhiteheadAutomorphism.multiplier_move(2, letter, []),
        lambda: WhiteheadAutomorphism.multiplier_move(2, 1, [letter]),
    ]


@pytest.mark.parametrize("rank", [0, 2.5, True, -1, "2"])
def test_every_constructor_rejects_a_bad_rank(rank):
    for build in _takes_rank(rank):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("letter", [1.0, True, 1.5, "a", 0, 3, -3])
def test_every_constructor_rejects_a_bad_letter(letter):
    for build in _takes_letter(letter):
        with pytest.raises(InvalidLetter):
            build()


def test_rank_and_letter_rules_accept_good_input():
    for build in _takes_rank(1):
        build()
    for build in _takes_letter(-2):
        build()


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        ps.Word(2, (1, -1))


def test_invert_examples():
    assert str(ps.invert(ps.parse_word("ab"))) == "BA"
    assert str(ps.invert(ps.parse_word("", 2))) == ""
    assert str(ps.invert(ps.parse_word("abA"))) == "aBA"


def test_invert_involution():
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(rng, 3, rng.randint(0, 10))
        assert ps.invert(ps.invert(w)) == w


def test_cyclic_reduce_examples():
    cyc, conj = ps.cyclic_reduce(ps.parse_word("abA"))
    assert (str(cyc), str(conj)) == ("b", "a")
    cyc, conj = ps.cyclic_reduce(ps.parse_word("abAB"))
    assert (str(cyc), str(conj)) == ("abAB", "")
    cyc, conj = ps.cyclic_reduce(ps.parse_word("Bab"))
    assert (str(cyc), str(conj)) == ("a", "B")


def test_cyclic_reduce_conjugation_identity():
    rng = random.Random(4)
    for _ in range(200):
        w = random_word(rng, 2, rng.randint(0, 12))
        cyc, conj = ps.cyclic_reduce(w)
        rebuilt = ps.reduce(conj.letters + cyc.letters + ps.invert(conj).letters, 2)
        assert rebuilt == w


def cyclic_length(w):
    return len(ps.cyclic_reduce(w)[0])


def test_cyclic_length_examples():
    assert cyclic_length(ps.parse_word("abA")) == 1
    assert cyclic_length(ps.parse_word("abAB")) == 4
    assert cyclic_length(ps.parse_word("aaa")) == 3


def test_cyclic_length_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(200):
        w = random_word(rng, 2, rng.randint(0, 8))
        u = random_word(rng, 2, rng.randint(0, 8))
        conj = ps.reduce(u.letters + w.letters + ps.invert(u).letters, 2)
        assert cyclic_length(conj) == cyclic_length(w)


def test_cyclic_word_canonical_rotation():
    # all rotations of a cyclically reduced word give the same class
    base = (2, 1, 1, -2, 1)
    words = [ps.CyclicWord(2, base[k:] + base[:k]) for k in range(len(base))]
    assert len(set(words)) == 1
    assert words[0].letters[0] == 1  # least letter starts the stored rotation


def test_cyclic_word_rejects_unreduced():
    with pytest.raises(ValueError):
        ps.CyclicWord(2, (1, 2, -1))  # wraps around to cancel


def test_letter_order():
    # 1 < -1 < 2 < -2
    keys = [ps.letter_key(v) for v in (1, -1, 2, -2)]
    assert keys == sorted(keys) and len(set(keys)) == 4


def test_parse_and_format_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        letters = random_reduced_letters(rng, 4, rng.randint(0, 10))
        w = ps.Word(4, letters)
        assert ps.parse_word(str(w), 4) == w
    # only ranks up to 26 have letters a-z
    assert ps.format_letters((26, -26)) == "zZ"
    for letters in ((27,), (1, -27), (0,)):
        with pytest.raises(ValueError, match="no ASCII form"):
            ps.format_letters(letters)


def test_parse_rejects_bad_characters():
    for bad in ("ab1", "a b", "a-b", "ab!"):
        with pytest.raises(WordParseError):
            ps.parse_word(bad)
    with pytest.raises(WordParseError) as info:
        ps.parse_word("abé")
    assert str(info.value) == "invalid character 'é' in word 'abé'"


def test_parse_reduces_input():
    assert str(ps.parse_word("aA")) == ""
    assert str(ps.parse_word("abBA")) == ""


def test_parse_infers_rank():
    assert ps.parse_word("c").rank == 3
    assert ps.parse_word("a").rank == 1
    assert ps.parse_word("a", 2).rank == 2


def test_power():
    w = ps.parse_word("abAB")
    assert str(ps.power(w, 2)) == "abABabAB"
    assert str(ps.power(w, 0)) == ""
    assert ps.power(w, -1) == ps.invert(w)
    # abA cancels at each junction: its n-th power is a b^n A
    w = ps.parse_word("abA")
    for n in range(-3, 6):
        b = ("b" if n > 0 else "B") * abs(n)
        assert ps.power(w, n) == ps.parse_word("a" + b + "A", rank=2)
    # n is a count by the package's one integer rule: not a bool, float or str
    for n in (True, 2.5, "2"):
        with pytest.raises(ValueError):
            ps.power(w, n)
