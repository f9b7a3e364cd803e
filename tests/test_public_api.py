"""The public API takes no tolerance, margin or cap arguments.

The non-loxodromic tolerance (1e-9), the pruning margin (1e-6) and the
move-search rank cap (``RANK_CAP``) are module constants; no caller needs
another value.
"""

import inspect

import primstab as ps

RETIRED = {"tol", "delta", "rank_cap"}


def public_callables():
    for name in dir(ps):
        obj = getattr(ps, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):  # the class's own methods, not inherited ones
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield "%s.%s" % (name, attr), member


def test_no_public_callable_takes_a_retired_knob():
    checked = 0
    for name, obj in public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        assert not RETIRED & set(params), name
    assert checked > 50
