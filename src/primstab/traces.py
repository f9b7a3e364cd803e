"""Trace rules shared by the Moebius maps and the Markoff search.

The isometry type of a map from its trace, the Fricke identity tying a
rank-2 character's traces to its commutator trace, the ``[re, im]`` JSON form
of a complex number, the constructors' number rule and the document key check.
``moebius``, ``markoff`` and ``render`` import these from here, so a BQ
decision or a slice render loads no matrix code.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import FrickeMismatch, NonFiniteValue, ParseError

_FRICKE_TOL = 1e-8
# the one geometric tolerance: how close a trace must come to +-2 or to the
# real axis to count as non-loxodromic, and the slack of the axis, pole and
# ping-pong tests
_TOL = 1e-9


def _number(name: str, value, kind=complex):
    """``kind(value)``, ``kind`` being ``complex`` or ``float``: the one rule for
    a number given to a constructor.  A str, bytes or bytearray, which ``kind``
    would parse, raises TypeError, as ``complex(None)`` does; an infinite or
    NaN value raises NonFiniteValue("<name> = <value> is not finite"), and a
    number past the float range, such as a large int, NonFiniteValue too."""
    if type(value) is not kind:
        if isinstance(value, (str, bytes, bytearray)):
            raise TypeError("expected a number, got %r" % (value,))
        try:
            value = kind(value)
        except OverflowError:
            raise NonFiniteValue("%s is past the float range" % (name,)) from None
    if not cmath.isfinite(value):
        raise NonFiniteValue("%s = %r is not finite" % (name, value))
    return value


def safe_abs(z: complex) -> float:
    """Modulus that saturates to inf instead of overflowing near 1e308."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


class IsometryClass(str, Enum):
    IDENTITY = "IDENTITY"
    ELLIPTIC = "ELLIPTIC"
    PARABOLIC = "PARABOLIC"
    LOXODROMIC = "LOXODROMIC"


def _trace_class(t: complex) -> IsometryClass:
    """Isometry type of a non-identity map from its trace alone.

    PARABOLIC when t is within _TOL of +-2; ELLIPTIC when |Im t| <= _TOL and
    |Re t| < 2; LOXODROMIC otherwise.  Every non-loxodromic trace therefore
    has |t| <= 2 + _TOL and |Im t| <= _TOL.
    """
    try:
        if abs(t - 2.0) <= _TOL or abs(t + 2.0) <= _TOL:
            return IsometryClass.PARABOLIC
    except OverflowError:  # |t| is past the float range
        return IsometryClass.LOXODROMIC
    if abs(t.imag) <= _TOL and abs(t.real) < 2.0:
        return IsometryClass.ELLIPTIC
    return IsometryClass.LOXODROMIC


def _half_trace_split(t: complex) -> tuple[complex, complex]:
    """(h, k) with h = t/2 and k^2 = h^2 - 1: a trace-t map has eigenvalues h +- k.

    Only ``axis_point`` and ``_fan_root`` use it.  k avoids t^2 (overflows
    past |t| = 1e154) and s = sqrt(t - 2) sqrt(t + 2) (past 1.8e308), yet is
    s/2 to the bit where s is finite, as (t - 2)/4 is exact; t/2 keeps h + k finite.
    """
    return t * 0.5, cmath.sqrt(t * 0.25 - 0.5) * cmath.sqrt(t + 2.0)


def fricke_kappa(x: complex, y: complex, z: complex) -> complex:
    """Commutator trace determined by the generator traces."""
    return x * x + y * y + z * z - x * y * z - 2.0


def _check_fricke(x: complex, y: complex, z: complex, kappa: complex) -> None:
    """Raise FrickeMismatch unless kappa = fricke_kappa(x, y, z) up to rounding.

    The residual is a sum of terms as large as |x|^2 or |xyz|, so, as for the
    determinant in ``moebius``, the tolerance follows their size.  Terms past
    the float range leave nothing to check.
    """
    try:
        residual = abs(fricke_kappa(x, y, z) - kappa)
        if residual <= _FRICKE_TOL:
            return
        terms = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 + abs(x * y * z) + 2.0 + abs(kappa)
    except OverflowError:
        return
    tol = max(_FRICKE_TOL, 1e-12 * terms)
    if residual > tol:
        raise FrickeMismatch(
            "traces (%r, %r, %r) miss kappa %r by %g (tolerance %g)"
            % (x, y, z, kappa, residual, tol)
        )


def _check_keys(obj, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Raise ParseError unless the document ``obj`` (named ``what``) is a
    dict with every ``required`` key and no key outside the two lists."""
    if not isinstance(obj, dict):
        raise ParseError("%s must be an object, got %r" % (what, type(obj).__name__))
    unknown = [key for key in obj if key not in required and key not in optional]
    if unknown:
        raise ParseError("%s has unknown keys %r" % (what, unknown))
    for key in required:
        if key not in obj:
            raise ParseError("%s is missing the %r field" % (what, key))


def _complex_from_json(value) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ParseError("expected [re, im], got %r" % (value,))
    try:
        return _number("[re, im] pair", complex(value[0], value[1]))
    except (OverflowError, NonFiniteValue) as exc:  # inf, NaN or an int past the float range
        raise ParseError("not a finite number: %s" % (exc,)) from exc


def _complex_to_json(z: complex) -> list[float]:
    return [z.real, z.imag]
