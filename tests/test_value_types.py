"""The package's value types behave as immutable values: equality within one
class, hashing, the ``Name(field=value, ...)`` repr, no assignment, and
pickling and copying through the constructor.  Their constructors take
numbers, never text."""

import copy
import inspect
import math
import pickle
from collections import Counter
from enum import Enum

import pytest

import primstab as ps
from primstab.errors import NonFiniteValue
from primstab.markoff import BqKind, BqVerdict, MarkoffTriple, solve_y_from_fricke
from primstab.moebius import (
    IsometryClass,
    MoebiusMap,
    Representation,
    SchottkyVerdict,
    SphereDisk,
    UhsPoint,
)
from primstab.render import SliceConfig
from primstab.stability import PsReport, SpectrumEntry, ps_scan
from primstab.traces import fricke_kappa
from primstab.whitehead import (
    BlockingCertificate,
    WhiteheadAutomorphism,
    WhiteheadGraph,
    whitehead_minimize,
)
from primstab.words import CyclicWord, Word, _Frozen, parse_word

M = MoebiusMap(2, 1, 1, 1)
A, B, BA = Word(2, (1,)), Word(2, (2,)), Word(2, (2, 1))
ENTRY = SpectrumEntry(CyclicWord(2, (1,)), 2.0, IsometryClass.LOXODROMIC)
ENTRY_REPR = ("SpectrumEntry(cls=CyclicWord('a', rank=2), trans_len=2.0, "
              "kind=<IsometryClass.LOXODROMIC: 'LOXODROMIC'>)")

# (class, positional arguments, the same value by keyword with defaults left
# out, the arguments of a different value, the pinned repr)
CASES = [
    (Word, (2, (1, 2)), {"rank": 2, "letters": (1, 2)}, (2, (1,)), "Word('ab', rank=2)"),
    (CyclicWord, (2, (2, 1)), {"rank": 2, "letters": (1, 2)}, (3, (1, 2)),
     "CyclicWord('ab', rank=2)"),
    (BlockingCertificate, (Word(2, (1, 2)), "DISCONNECTED"),
     {"word": Word(2, (1, 2)), "reason": "DISCONNECTED"}, (Word(2, (1, 2)), "TOO_SHORT"),
     "BlockingCertificate(word=Word('ab', rank=2), reason='DISCONNECTED')"),
    # images first, so the assignment refused below is the one that once left
    # the move's cached letter images stale
    (WhiteheadAutomorphism, ((A, BA),), {"images": [A, BA]}, ((A, B),),
     "WhiteheadAutomorphism(a->a, b->ba)"),
    # edges in any order and orientation, stored one per occurrence in the
    # letter order of their ends
    (WhiteheadGraph, (2, [(-2, 1), (2, 1), (-2, 1)]),
     {"rank": 2, "edges": [(1, 2), (1, -2), (1, -2)]}, (2, [(1, 2), (1, -2)]),
     "WhiteheadGraph(rank=2, edges=((1, 2), (1, -2), (1, -2)))"),
    (MoebiusMap, (2, 1, 1, 1), {"a": 2, "b": 1, "c": 1, "d": 1}, (1, 1, 0, 1),
     "MoebiusMap(a=(2+0j), b=(1+0j), c=(1+0j), d=(1+0j))"),
    (Representation, ((M,),), {"images": [M]}, ((M.inverse(),),),
     "Representation(images=(MoebiusMap(a=(2+0j), b=(1+0j), c=(1+0j), d=(1+0j)),))"),
    (UhsPoint, (1 + 2j, 0.5), {"z": 1 + 2j, "t": 0.5}, (1 + 2j, 2.0),
     "UhsPoint(z=(1+2j), t=0.5)"),
    (SphereDisk, (0j, 1.0, "INSIDE"), {"center": 0, "radius": 1}, (0j, 1.0, "OUTSIDE"),
     "SphereDisk(center=0j, radius=1.0, interior=<DiskSide.INSIDE: 'INSIDE'>)"),
    (SchottkyVerdict, ("PAIRING", "at 1"), {"reason": "PAIRING", "detail": "at 1"},
     ("PAIRING", "at 2"), "SchottkyVerdict(reason='PAIRING', detail='at 1')"),
    (MarkoffTriple, (3, 3, 3), {"x": 3, "y": 3, "z": 3}, (3, 3, 6),
     "MarkoffTriple(x=(3+0j), y=(3+0j), z=(3+0j))"),
    (BqVerdict, (BqKind.BQ_CERTIFIED, 6, (), 1, (), 0, 0),
     {"kind": BqKind.BQ_CERTIFIED, "nodes_explored": 6, "witnesses": (), "depth_max": 1,
      "small_traces": (), "pruned_escape": 0, "pruned_fan": 0},
     (BqKind.BQ_CERTIFIED, 6, (), 1, (), 2, 0),
     "BqVerdict(kind=<BqKind.BQ_CERTIFIED: 'BQ_CERTIFIED'>, nodes_explored=6, witnesses=(), "
     "depth_max=1, small_traces=(), pruned_escape=0, pruned_fan=0)"),
    (SpectrumEntry, (CyclicWord(2, (1,)), 2.0, IsometryClass.LOXODROMIC),
     {"cls": CyclicWord(2, (1,)), "trans_len": 2.0, "kind": IsometryClass.LOXODROMIC},
     (CyclicWord(2, (1,)), 0.0, IsometryClass.PARABOLIC), ENTRY_REPR),
    (PsReport, (1, (ENTRY,)), {"max_len": 1, "entries": (ENTRY,)}, (2, (ENTRY,)),
     "PsReport(max_len=1, entries=(%s,))" % ENTRY_REPR),
    (SliceConfig, (-2, 3, (6 - 1j, 7), 4, 4, 20000, 64),
     {"kappa": -2, "fixed_x": 3, "window": (6 - 1j, 7), "width": 4, "height": 4},
     (-2, 3, (6 - 1j, 7), 4, 4, 10000, 64),
     "SliceConfig(kappa=(-2+0j), fixed_x=(3+0j), window=((6-1j), (7+0j)), width=4, height=4, "
     "budget=20000, small_trace_bound=64)"),
]


def test_every_public_class_is_a_frozen_value_with_a_case():
    # enums and errors aside, each class the package exports is a value type
    # under the one contract of _Frozen, and test_value_semantics checks it
    exported = (getattr(ps, name) for name in ps.__all__)
    classes = {obj for obj in exported
               if inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException))}
    assert not {cls.__name__ for cls in classes if not issubclass(cls, _Frozen)}
    assert sorted(cls.__name__ for cls in classes) == sorted(case[0].__name__ for case in CASES)


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, args, kwargs, other, text):
    value = cls(*args)
    same = cls(**kwargs)
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != cls(*other)
    assert value != object() and value != args
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
        setattr(value, field, getattr(same, field))
    with pytest.raises(AttributeError, match="cannot delete field %r" % field):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == getattr(same, field)
    assert not hasattr(value, "__dict__")


# each value a class works out from its fields: (a value, the name, its rule,
# what the rule gives for that value)
DERIVED = [
    (MarkoffTriple(3, 3, 6), "kappa", lambda t: fricke_kappa(t.x, t.y, t.z), -2),
    (Representation((M, M.inverse())), "rank", lambda rep: len(rep.images), 2),
    (WhiteheadAutomorphism((A, BA)), "rank", lambda phi: len(phi.images), 2),
    (WhiteheadGraph(2, [(2, 1), (-2, 1), (1, 2)]), "edge_multiplicity",
     lambda g: dict(Counter(g.edges)), {(1, 2): 2, (1, -2): 1}),
    (BlockingCertificate(A, "CONNECTED_NO_CUTPOINT"), "certified",
     lambda cert: cert.reason == "CONNECTED_NO_CUTPOINT", True),
    (BlockingCertificate(A, "HAS_CUTPOINT"), "certified",
     lambda cert: cert.reason == "CONNECTED_NO_CUTPOINT", False),
    (SchottkyVerdict(), "valid", lambda verdict: verdict.reason is None, True),
    (SchottkyVerdict("DEGENERATE"), "valid", lambda verdict: verdict.reason is None, False),
]


@pytest.mark.parametrize("value, name, rule, want", DERIVED,
                         ids=["%s.%s=%r" % (type(case[0]).__name__, case[1], case[3])
                              for case in DERIVED])
def test_derived_values_are_read_only_properties(value, name, rule, want):
    # a value the fields decide is no field: not stored, not settable, not
    # printed, and worked out again in a pickled or copied twin
    cls = type(value)
    assert isinstance(vars(cls)[name], property) and name not in cls.__slots__
    assert getattr(value, name) == rule(value) == want
    assert "%s=" % name not in repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, want)
    with pytest.raises(AttributeError):
        delattr(value, name)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and getattr(twin, name) == want


@pytest.mark.parametrize("max_len", [0, 1, 3])
def test_scan_built_values_keep_the_value_contract(max_len):
    # the scan builds its entries, and the enumeration its classes, with
    # _Frozen._from_columns, neither through the constructor: each, and the
    # scan's report, is still the value the constructor gives, under every
    # rule of test_value_semantics
    rep = Representation((MoebiusMap(2, 0, 0, 0.5), MoebiusMap(1, 1, 0, 1)))
    report = ps_scan(rep, max_len)
    entries = report.entries
    if max_len:
        assert {e.kind for e in entries} == {IsometryClass.LOXODROMIC, IsometryClass.PARABOLIC}
    built = [(report, PsReport(max_len, entries))]
    built += [(e, SpectrumEntry(e.cls, e.trans_len, e.kind)) for e in entries]
    built += [(e.cls, CyclicWord(e.cls.rank, e.cls.letters)) for e in entries]
    built.append((parse_word("abA", 2), Word(2, (1, 2, -1))))
    for value, same in built:
        cls = type(same)
        assert type(value) is cls and value == same and not value != same
        assert hash(value) == hash(same) and repr(value) == repr(same)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        for field in cls.__slots__:
            with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
                setattr(value, field, getattr(same, field))
            with pytest.raises(AttributeError, match="cannot delete field %r" % field):
                delattr(value, field)
            assert getattr(value, field) == getattr(same, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")


def test_reprs_past_rank_26_fall_back_to_the_field_form():
    # a letter past 26 has no ASCII form, so a repr that spells letters
    # prints its fields instead of raising; rank 26 keeps the letter form
    _, trace = whitehead_minimize(Word(30, (30, 1, 30)))
    values = [Word(27, (27, 1)), CyclicWord(27, (1, 27)), WhiteheadAutomorphism.identity(27),
              *trace]
    assert len(values) > 3
    for value in values:
        assert repr(value) == _Frozen.__repr__(value)
    assert repr(values[0]) == "Word(rank=27, letters=(27, 1))"
    assert repr(values[1]) == "CyclicWord(rank=27, letters=(1, 27))"
    # each image decides by its own letters
    assert repr(values[2]).startswith("WhiteheadAutomorphism(images=(Word('a', rank=27), ")
    assert repr(values[2]).endswith(", Word(rank=27, letters=(27,))))")
    assert repr(Word(27, (26, 1))) == "Word('za', rank=27)"
    assert repr(CyclicWord(26, (26, 1))) == "CyclicWord('az', rank=26)"
    assert repr(WhiteheadAutomorphism.identity(26)).startswith("WhiteheadAutomorphism(a->a, ")


def test_equal_fields_of_different_classes_are_not_equal():
    assert Word(2, (1, 2)) != CyclicWord(2, (1, 2))
    assert CyclicWord(2, (1, 2)) != Word(2, (1, 2))
    assert Word(2, (1, 2)) != (2, (1, 2))


# every call that turns its arguments into numbers, with valid arguments;
# each argument in turn is replaced by text
NUMBER_SITES = [
    ("MoebiusMap", MoebiusMap, (2, 1, 1, 1)),
    ("UhsPoint", UhsPoint, (1 + 2j, 0.5)),
    ("SphereDisk", SphereDisk, (0j, 1.0)),
    ("MarkoffTriple", MarkoffTriple, (3, 3, 3)),
    ("solve_y_from_fricke", solve_y_from_fricke, (3, 3, -2)),
    ("SliceConfig", lambda kappa, x, lo, hi: SliceConfig(kappa, x, (lo, hi), 4, 4),
     (-2, 3, 6 - 1j, 7)),
]


@pytest.mark.parametrize("build, args, i, kind", [
    pytest.param(build, args, i, kind, id="%s-%d-%s" % (name, i, kind.__name__))
    for name, build, args in NUMBER_SITES for i in range(len(args))
    for kind in (str, bytes, bytearray)])
def test_number_arguments_reject_text(build, args, i, kind):
    # complex() and float() would parse "(1+2j)" or b"0.5"; a number given
    # as text raises TypeError, as complex(None) does
    build(*args)
    text = str(args[i]) if kind is str else kind(str(args[i]).encode())
    with pytest.raises(TypeError, match="expected a number"):
        build(*args[:i], text, *args[i + 1:])


# the arguments taken as float, which no complex value is
FLOAT_ARGUMENTS = {("UhsPoint", 1), ("SphereDisk", 1)}
NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("build, args, i, value", [
    pytest.param(build, args, i, value, id="%s-%d-%r" % (name, i, value))
    for name, build, args in NUMBER_SITES for i in range(len(args))
    for value in NON_FINITE + ([] if (name, i) in FLOAT_ARGUMENTS else
                               [complex(v, 0) for v in NON_FINITE]
                               + [complex(0, v) for v in NON_FINITE])])
def test_number_arguments_reject_non_finite_values(build, args, i, value):
    # one rule, traces._number, for every constructor: a value that is not
    # finite raises NonFiniteValue, named after the argument
    with pytest.raises(NonFiniteValue, match="is not finite"):
        build(*args[:i], value, *args[i + 1:])


def test_integers_past_the_float_range_are_not_finite():
    # complex(10**400) overflows; the error names the argument, not its digits
    huge = 10 ** 400
    for build, args in [(MarkoffTriple, (huge, 3, 3)), (MoebiusMap, (huge, 0, 0, 1)),
                        (UhsPoint, (0, huge)), (solve_y_from_fricke, (huge, 3, -2))]:
        with pytest.raises(NonFiniteValue, match="is past the float range") as info:
            build(*args)
        assert len(str(info.value)) < 40, info.value


def test_roots_past_the_float_range_are_not_finite():
    # finite inputs whose roots are not: b^2 - 4c is inf - inf
    with pytest.raises(NonFiniteValue, match="root"):
        solve_y_from_fricke(3, 1e200, -2)
