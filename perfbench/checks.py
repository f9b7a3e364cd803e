"""Independent oracles the workloads check the library's outputs against.

Nothing here calls primstab: matrices are bare 4-lists multiplied by hand,
words are tuples of signed generator indices (a = 1, A = -1, b = 2, ...).
"""

from __future__ import annotations

import cmath
import json
import math
import sys

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def random_reduced_letters(rng, rank: int, length: int) -> tuple[int, ...]:
    """A uniformly drawn freely reduced word of exactly ``length`` letters."""
    letters: list[int] = []
    while len(letters) < length:
        v = rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
        if letters and v == -letters[-1]:
            continue
        letters.append(v)
    return tuple(letters)


def ascii_word(letters) -> str:
    return "".join(ALPHABET[v - 1] if v > 0 else ALPHABET[-v - 1].upper() for v in letters)


def cyclic_core(letters) -> tuple[int, ...]:
    """Strip inverse letter pairs from both ends of a freely reduced word."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return tuple(letters[i:j])


def cyclic_windows(classes, length: int) -> set[tuple[int, ...]]:
    """Every length-``length`` subword of a rotation of a class at least that long."""
    out = set()
    for letters in classes:
        n = len(letters)
        if n < length:
            continue
        doubled = letters + letters
        for start in range(n):
            out.add(tuple(doubled[start:start + length]))
    return out


def rotations(classes) -> set[tuple[int, ...]]:
    return {tuple(c[k:] + c[:k]) for c in classes for k in range(len(c))}


def coprime_slopes(max_weight: int):
    """Coprime (p, q) with 1 <= |p| + |q| <= max_weight."""
    for p in range(-max_weight, max_weight + 1):
        for q in range(-max_weight, max_weight + 1):
            if 1 <= abs(p) + abs(q) <= max_weight and math.gcd(abs(p), abs(q)) == 1:
                yield p, q


def random_sl2(rng, scale: float = 1.0) -> list[complex]:
    """A determinant-1 matrix [a, b, c, d] with entries of modulus about ``scale``."""
    def entry():
        return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    a = entry()
    while abs(a) <= 0.3:
        a = entry()
    b, c = entry(), entry()
    return [a, b, c, (1.0 + b * c) / a]


def representation_doc(matrices) -> dict:
    """The representation file format: row-major entries as [re, im] pairs."""
    return {"rank": len(matrices),
            "generators": [[[z.real, z.imag] for z in m] for m in matrices]}


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return [a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h]


def _letter_matrix(matrices, v):
    a, b, c, d = matrices[abs(v) - 1]
    return [a, b, c, d] if v > 0 else [d, -b, -c, a]


def word_trace(matrices, letters) -> tuple[complex, float]:
    """Trace of the product, and the largest entry modulus as its rounding scale."""
    m = [1.0, 0.0, 0.0, 1.0]
    for v in letters:
        m = _mul(m, _letter_matrix(matrices, v))
    return m[0] + m[3], max(1.0, *(abs(z) for z in m))


def translation_length_of_trace(t: complex) -> float:
    """2 ln|lambda| for the eigenvalue of modulus >= 1 of a trace-t SL(2,C) matrix."""
    s = cmath.sqrt(t * t - 4.0)
    return 2.0 * math.log(max(abs(t + s), abs(t - s)) / 2.0)


def translation_length_tolerance(t: complex) -> float:
    """How far a translation length computed from trace t may be from the oracle's.

    1e-8 relative covers rounding.  The 4 eps |t|^2 term admits a known flaw
    of the library's formula lambda = (t + sqrt(t^2 - 4)) / 2: for Re t < 0
    the sum cancels to the small eigenvalue, about 1/|t|, with an absolute
    error of about eps |t|, which puts 2 ln|lambda| off by up to about
    2 eps |t|^2 (0.83 eps |t|^2 was the worst over 150000 seeded classes).
    A wrong trace moves the length far more than either term.
    """
    return 1e-8 * (1.0 + translation_length_of_trace(t)) + 4.0 * sys.float_info.epsilon * abs(t) ** 2


def is_loxodromic_trace(t: complex, tol: float = 1e-9) -> bool:
    """Neither within tol of +-2 nor real in (-2, 2); the identity never occurs here."""
    if abs(t - 2.0) <= tol or abs(t + 2.0) <= tol:
        return False
    return not (abs(t.imag) <= tol and abs(t.real) < 2.0)


def strict_json_object(text: str) -> bool:
    """Whether text is exactly one JSON object with no NaN or Infinity tokens."""
    def reject(token):
        raise ValueError("non-finite JSON token %s" % (token,))

    try:
        obj = json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return isinstance(obj, dict)
