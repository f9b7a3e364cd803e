"""Freely and cyclically reduced words over a fixed free basis.

Letters are nonzero integers: ``k`` is the k-th generator, ``-k`` its
inverse.  Words serialize as ASCII with ``a..z`` for generators 1..26 and
``A..Z`` for their inverses, so ``"abAB"`` means a b a^-1 b^-1.  Letters are
ordered 1 < -1 < 2 < -2 < ...; cyclic words are stored as the least rotation
in that order, which makes conjugacy-class representatives unique.

Rank-2 primitive classes are also indexed by slopes p/q; the slope helpers
at the end (``_normalize_slope``, ``_farey_turns``) serve both
``whitehead.primitive_of_slope`` and the trace recursion in ``markoff``.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import InvalidLetter, NotCoprime, WordParseError


def letter_key(letter: int) -> int:
    """Rank of a letter in the order 1 < -1 < 2 < -2 < ..."""
    return 2 * abs(letter) - (1 if letter > 0 else 0)


def _check_count(name: str, value, low: int | None) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool or any other
    subclass) and at least ``low`` (any int when ``low`` is None).

    The one rule for the package's count arguments and the integer fields of
    its documents; a reader that must raise ParseError converts the error.
    """
    if type(value) is not int:
        raise ValueError("%r must be an integer, got %r" % (name, value))
    if low is not None and value < low:
        raise ValueError("%r must be at least %d, got %r" % (name, low, value))


def _check_letters(rank: int, letters: Iterable[int]) -> None:
    """The one rule for ranks and letters: ValueError unless ``rank`` is a count
    >= 1, InvalidLetter unless each letter is an int (not a bool), 0 < |v| <= rank."""
    _check_count("rank", rank, 1)
    for v in letters:
        if type(v) is not int or v == 0 or abs(v) > rank:
            raise InvalidLetter("letter %r is not a nonzero int within rank %d" % (v, rank))


def _reduce_list(letters: Iterable[int]) -> list[int]:
    out: list[int] = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return out


def _least_rotation_index(keys: Sequence[int]) -> int:
    """Start of the first least rotation of a list of ``letter_key`` values."""
    n = len(keys)
    if n <= 1:
        return 0
    low = min(keys)
    doubled = keys + keys
    best = -1
    for i in range(n):
        if keys[i] != low:
            continue
        if best < 0 or doubled[i:i + n] < doubled[best:best + n]:
            best = i
    return best


def _cyclic_core(letters: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split a reduced word into (cyclically reduced core, conjugating prefix)."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return list(letters[i:j]), list(letters[:i])


def _canonical_cycle(letters: Sequence[int]) -> tuple[int, ...]:
    k = _least_rotation_index([letter_key(v) for v in letters])
    return tuple(letters[k:]) + tuple(letters[:k])


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``__slots__``, and its
    ``__init__`` sets them through ``object.__setattr__``.  Instances equal
    only instances of the same class with equal fields, hash as them, print
    as ``Name(field=value, ...)``, refuse assignment and deletion, and pickle
    and copy through ``__init__``.  This is what a frozen class from the
    standard library's generator would give, without importing that module,
    which loads ``inspect``: 8-12 ms of every command-line call.

    ``_setters`` holds the ``__set__`` of each field's slot descriptor, in
    ``__slots__`` order.  The private constructors for values already checked
    (``_from_pair``, ``_from_columns``) build with ``object.__new__`` and
    set each field through its setter: no ``__init__`` call and no
    ``object.__setattr__`` lookup by field name.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    @classmethod
    def _from_pair(cls, first, second):
        """A value of a two-field class from fields already checked (a
        ``Word`` of reduced letters, a ``CyclicWord`` of letters in least
        rotation), stored without checking them again.  The two setter calls
        are written out: a loop over the setters takes about twice as long,
        which every ``parse_word`` pays.  A class of more fields fails to
        unpack its setters."""
        self = object.__new__(cls)
        set_first, set_second = cls._setters
        set_first(self, first)
        set_second(self, second)
        return self

    @classmethod
    def _from_columns(cls, *columns: Iterable) -> tuple:
        """Values already checked, one per row of ``columns``: an iterable
        of each field's values, in ``__slots__`` order, the first sized and
        none shorter.  ``map`` allocates them and runs each field's setter
        down its column, so a row costs no Python-level call."""
        values = tuple(map(object.__new__, repeat(cls, len(columns[0]))))
        for set_field, column in zip(cls._setters, columns):
            deque(map(set_field, values, column), maxlen=0)
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Word(_Frozen):
    """A freely reduced word; the identity is the empty word."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...] = ()):
        letters = tuple(letters)
        _check_letters(rank, letters)
        for u, v in zip(letters, letters[1:]):
            if u == -v:
                raise ValueError("word is not freely reduced: %r" % (letters,))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def __repr__(self) -> str:
        return "Word(%r, rank=%d)" % (str(self), self.rank)


class CyclicWord(_Frozen):
    """A cyclically reduced conjugacy-class representative.

    Stored as the least rotation, so equal classes compare equal.  The length
    of ``letters`` is the minimal combinatorial length of the class.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...] = ()):
        letters = tuple(letters)
        _check_letters(rank, letters)
        for u, v in zip(letters, letters[1:] + letters[:1]):
            if u == -v:
                raise ValueError("word is not cyclically reduced: %r" % (letters,))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", _canonical_cycle(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def __repr__(self) -> str:
        return "CyclicWord(%r, rank=%d)" % (str(self), self.rank)

    def to_word(self) -> Word:
        return Word(self.rank, self.letters)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(letter_key(v) for v in self.letters)


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a letter sequence.  Idempotent."""
    letters = list(letters)
    _check_letters(rank, letters)
    return Word._from_pair(rank, tuple(_reduce_list(letters)))


def invert(w: Word) -> Word:
    return Word(w.rank, tuple(-v for v in reversed(w.letters)))


def power(w: Word, n: int) -> Word:
    _check_count("n", n, None)
    if n < 0:
        w, n = invert(w), -n
    return Word(w.rank, tuple(_reduce_list(w.letters * n)))


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w = conjugator * core * conjugator^-1 with a canonical cyclic core."""
    core, prefix = _cyclic_core(w.letters)
    k = _least_rotation_index([letter_key(v) for v in core])
    cyc = CyclicWord._from_pair(w.rank, tuple(core[k:] + core[:k]))
    conj = Word(w.rank, tuple(prefix + core[:k]))
    return cyc, conj


def cyclic_length(w: Word) -> int:
    """Minimal combinatorial length in the conjugacy class of w."""
    core, _ = _cyclic_core(w.letters)
    return len(core)


def format_letters(letters: Iterable[int]) -> str:
    out = []
    for v in letters:
        if not 1 <= abs(v) <= 26:
            raise ValueError("letter %r has no ASCII form (only ranks up to 26 do)" % (v,))
        out.append(chr(ord("a") + v - 1) if v > 0 else chr(ord("A") - v - 1))
    return "".join(out)


# the letter of each ASCII character, the inverse of ``format_letters``
_LETTER_OF_CHAR = {format_letters((v,)): v for k in range(1, 27) for v in (k, -k)}


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse an ASCII word and freely reduce it.

    The rank defaults to the largest generator index that occurs (1 for the
    empty string).  Characters outside a-z / A-Z are rejected.
    """
    try:
        letters = [_LETTER_OF_CHAR[ch] for ch in text]
    except KeyError as exc:
        raise WordParseError("invalid character %r in word %r" % (exc.args[0], text)) from None
    if rank is None:
        rank = max((abs(v) for v in letters), default=1)
    return reduce(letters, rank)


def _normalize_slope(p: int, q: int) -> tuple[int, int]:
    """The representative of the slope pair +-(p, q) with q > 0, or (1, 0).

    The two pairs index a class and its inverse.  Raises NotCoprime unless
    p and q are coprime and not both zero.
    """
    if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
        raise NotCoprime("slope coordinates (%d, %d) must be coprime and nonzero" % (p, q))
    if q < 0 or (q == 0 and p < 0):
        return -p, -q
    return p, q


def _farey_turns(p: int, q: int) -> Iterator[bool]:
    """Mediant descent from the parents 0/1 and 1/0 to p/q.

    Needs p, q >= 0 coprime with p/q neither 0/1 nor 1/0.  Yields one turn
    per mediant passed before p/q is reached: True when p/q lies below the
    mediant (which becomes the upper parent), False when above (the mediant
    becomes the lower parent).  Once the generator ends, p/q is the mediant
    of the current parents.
    """
    lp, lq, rp, rq = 0, 1, 1, 0
    while True:
        mp, mq = lp + rp, lq + rq
        if (mp, mq) == (p, q):
            return
        below = p * mq < mp * q
        yield below
        if below:
            rp, rq = mp, mq
        else:
            lp, lq = mp, mq
