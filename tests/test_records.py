"""The record classes against frozen data-class twins.

Each of the 11 record classes is a subclass of the package's frozen-record
base.  Here each is checked against a ``@dataclass(frozen=True)`` twin with
the same fields, defaults and ``__post_init__``: construction, ``repr``,
equality, hashing, immutability and the refusal of bad arguments must match.
"""

import copy
import pickle
from dataclasses import dataclass, field

import pytest

from borelorbits import (
    BraidPair,
    BraidReport,
    CartanSpec,
    CatalogExample,
    DivisorList,
    EdgeType,
    IntegerMatrix,
    SignedPattern,
    SnfDecomposition,
    SphericalDatum,
    SylvesterClass,
    TypeCensus,
    build_example,
)


@dataclass(frozen=True)
class IntegerMatrixTwin:
    entries: tuple
    __post_init__ = IntegerMatrix.__post_init__


@dataclass(frozen=True)
class DivisorListTwin:
    m: tuple
    __post_init__ = DivisorList.__post_init__


@dataclass(frozen=True)
class SnfDecompositionTwin:
    d: DivisorList
    u: IntegerMatrix
    v: IntegerMatrix


@dataclass(frozen=True)
class CartanSpecTwin:
    matrix: tuple
    label: str | None = field(default=None, compare=False)
    __post_init__ = CartanSpec.__post_init__


@dataclass(frozen=True)
class SphericalDatumTwin:
    cartan: CartanSpec
    spherical_roots: tuple
    weight_sublattice: IntegerMatrix
    __post_init__ = SphericalDatum.__post_init__


@dataclass(frozen=True)
class BraidPairTwin:
    i: int
    j: int
    exponent: int
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class BraidReportTwin:
    pairs: tuple


@dataclass(frozen=True)
class TypeCensusTwin:
    counts: dict
    t2_on_max_rank: bool


@dataclass(frozen=True)  # with slots=True, assigning a non-field raises TypeError on 3.11
class SignedPatternTwin:
    entries: tuple
    arcs: tuple = ()
    __post_init__ = SignedPattern.__post_init__


@dataclass(frozen=True)
class SylvesterClassTwin:
    plus: int
    minus: int
    orbits: tuple


@dataclass(frozen=True)
class CatalogExampleTwin:
    name: str
    table: object
    datum: SphericalDatum | None = None


A2 = ((2, -1), (-1, 2))
I2 = IntegerMatrix(((1, 0), (0, 1)))
SWAP = IntegerMatrix(((0, 1), (1, 0)))
ORDERED = build_example("ordered", 3)
G2 = build_example("g2")

# Each record class, its twin, and sample constructions as (args, kwargs):
# equal and unequal values, keyword and default forms.
SAMPLES = {
    IntegerMatrix: (
        IntegerMatrixTwin,
        [((((1, 2), (3, 4)),), {}), ((), {"entries": ((1, 2), (3, 4))}), ((((1, 2), (3, 5)),), {})],
    ),
    DivisorList: (DivisorListTwin, [(((1, 2, 6),), {}), ((), {"m": (1, 2, 0)}), (((),), {})]),
    SnfDecomposition: (
        SnfDecompositionTwin,
        [
            ((DivisorList((1, 6)), I2, I2), {}),
            ((), {"d": DivisorList((1, 6)), "u": I2, "v": SWAP}),
            ((DivisorList((1, 6)),), {"u": I2, "v": I2}),
        ],
    ),
    CartanSpec: (
        CartanSpecTwin,
        [
            ((A2,), {}),
            ((A2, "A2"), {}),
            ((), {"matrix": [[2, -1], [-1, 2]], "label": "B9"}),
            ((((2, -1), (-2, 2)),), {"label": "B2"}),
        ],
    ),
    SphericalDatum: (
        SphericalDatumTwin,
        [
            ((CartanSpec(A2), ((1, 0),), I2), {}),
            ((), {"cartan": CartanSpec(A2, "A2"), "spherical_roots": [[1, 0]], "weight_sublattice": I2}),
            ((CartanSpec(A2), ((2, 0), (0, 2)), I2), {}),
        ],
    ),
    BraidPair: (
        BraidPairTwin,
        [
            ((1, 2, 3, True), {}),
            ((1, 2, 3, True, None), {}),
            ((), {"i": 1, "j": 2, "exponent": 3, "holds": False, "witness": "O"}),
            ((2, 3), {"exponent": 4, "holds": True}),
        ],
    ),
    BraidReport: (
        BraidReportTwin,
        [(((BraidPair(1, 2, 3, True),),), {}), ((), {"pairs": (BraidPair(1, 2, 3, True),)}), (((),), {})],
    ),
    TypeCensus: (
        TypeCensusTwin,
        [(({1: {EdgeType.P: 2}}, False), {}), ((), {"counts": {}, "t2_on_max_rank": True})],
    ),
    SignedPattern: (
        SignedPatternTwin,
        [
            ((("+", "-"),), {}),
            ((("+", "-"), ()), {}),
            ((("•", "•", "•", "•"),), {"arcs": [(4, 3), (2, 1)]}),
            ((), {"entries": ("•", "•", "•", "•"), "arcs": ((1, 2), (3, 4))}),
        ],
    ),
    SylvesterClass: (
        SylvesterClassTwin,
        [((2, 0, ("++",)), {}), ((), {"plus": 2, "minus": 0, "orbits": ("++",)}), ((1, 1, ()), {})],
    ),
    CatalogExample: (
        CatalogExampleTwin,
        [
            ((G2.name, G2.table), {}),
            ((G2.name, G2.table, None), {}),
            ((), {"name": ORDERED.name, "table": ORDERED.table, "datum": ORDERED.datum}),
        ],
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def _outcome(call):
    """The value of ``call()``, or the type of the exception it raised."""
    try:
        return "value", call()
    except Exception as exc:  # the twin must raise the same type
        return "raises", type(exc)


def _pairs(cls):
    twin, samples = SAMPLES[cls]
    return [(cls(*args, **kwargs), twin(*args, **kwargs)) for args, kwargs in samples]


def _fields(cls):
    return [f.name for f in SAMPLES[cls][0].__dataclass_fields__.values()]


@CLASSES
def test_construction_and_repr_match_the_twin(cls):
    twin = SAMPLES[cls][0]
    assert list(cls.__slots__) == _fields(cls)
    for record, other in _pairs(cls):
        assert repr(record) == repr(other).replace(twin.__qualname__, cls.__qualname__, 1)
        for name in _fields(cls):
            assert getattr(record, name) == getattr(other, name)


@CLASSES
def test_equality_and_hash_match_the_twin(cls):
    pairs = _pairs(cls)
    for record, other in pairs:
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(other))
        assert record != other and other != record
        for second, second_twin in pairs:
            assert (record == second) is (other == second_twin)
            assert (record != second) is (other != second_twin)


def test_cartan_equality_ignores_the_label():
    assert CartanSpec(A2, "A2") == CartanSpec(A2) == CartanSpec(A2, "B9")
    assert hash(CartanSpec(A2, "A2")) == hash(CartanSpec(A2)) == hash(CartanSpecTwin(A2))
    assert CartanSpec(A2) != CartanSpec(((2, -1), (-2, 2)), "A2")


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    for record, other in _pairs(cls):
        before = repr(record)
        for name in [*_fields(cls), "extra"]:
            for target in (record, other):
                with pytest.raises(AttributeError):
                    setattr(target, name, 0)
                with pytest.raises(AttributeError):
                    delattr(target, name)
        assert repr(record) == before


@CLASSES
def test_bad_arguments_raise_type_error_like_the_twin(cls):
    twin = SAMPLES[cls][0]
    names = _fields(cls)
    full = {name: getattr(_pairs(cls)[0][0], name) for name in names}
    calls = {
        "missing": ((), {k: v for k, v in full.items() if k != names[0]}),
        "unknown": ((), {**full, "extra": 1}),
        "too many": ((*full.values(), 1), {}),
        "repeated": ((full[names[0]],), full),
        "none": ((), {}),
    }
    for args, kwargs in calls.values():
        assert _outcome(lambda: cls(*args, **kwargs)) == ("raises", TypeError)
        assert _outcome(lambda: twin(*args, **kwargs)) == ("raises", TypeError)


@CLASSES
def test_pickle_and_copy_give_equal_records(cls):
    for record, _ in _pairs(cls):
        clones = [copy.copy(record), pickle.loads(pickle.dumps(record)), copy.deepcopy(record)]
        for clone in clones:
            assert type(clone) is cls
            if cls is CatalogExample:  # a table compares by identity: compare its orbits
                assert (clone.name, clone.datum) == (record.name, record.datum)
                assert clone.table.orbit_names == record.table.orbit_names
            else:
                assert clone == record and repr(clone) == repr(record)


def test_post_init_still_normalizes_and_validates():
    cartan = CartanSpec([[2, -1], [-1, 2]])
    assert cartan.matrix == A2 and all(type(row) is tuple for row in (cartan.matrix, *cartan.matrix))
    datum = SphericalDatum(cartan, [[1, 0]], I2)
    assert type(datum.spherical_roots) is tuple and datum.spherical_roots == ((1, 0),)
    pattern = SignedPattern(("•", "•", "•", "•"), [(4, 3), (2, 1)])
    assert pattern.arcs == ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="same length"):
        IntegerMatrix(((1,), (1, 2)))
    with pytest.raises(ValueError, match="divisor chain"):
        DivisorList((2, 3))
    with pytest.raises(ValueError, match="linearly independent"):
        SphericalDatum(cartan, ((1, 0), (2, 0)), I2)
    with pytest.raises(ValueError, match="arc endpoint"):
        SignedPattern(("+", "•"), ((1, 2),))
