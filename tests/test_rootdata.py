"""Cartan matrices, Coxeter exponents, reflection matrices, spherical data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelorbits import CartanSpec, IntegerMatrix, SphericalDatum, _as_int, rootdata


def test_classical_cartan_matrices():
    assert CartanSpec.from_label("A1").matrix == ((2,),)
    assert CartanSpec.from_label("A2").matrix == ((2, -1), (-1, 2))
    assert CartanSpec.from_label("B2").matrix == ((2, -1), (-2, 2))
    assert CartanSpec.from_label("C3").matrix == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert CartanSpec.from_label("D2").matrix == ((2, 0), (0, 2))
    assert CartanSpec.from_label("G2").matrix == ((2, -3), (-1, 2))
    d4 = CartanSpec.from_label("D4").matrix
    assert d4[2][3] == 0 and d4[1][3] == -1 and d4[1][2] == -1


def test_rank_limit_admits_the_largest_family_and_refuses_before_building():
    assert CartanSpec.from_type("B", 200).rank == 200 <= rootdata.MAX_RANK
    over = rootdata.MAX_RANK + 1
    with pytest.raises(ValueError, match=f"Cartan rank {over} is over the rank limit"):
        CartanSpec.from_type("A", over)
    with pytest.raises(ValueError, match="Cartan rank 100000 is over the rank limit"):
        CartanSpec.from_label("A100000")  # would be 10**10 entries if built


def test_rank_limit_covers_explicit_matrices(monkeypatch):
    monkeypatch.setattr(rootdata, "MAX_RANK", 2)
    assert CartanSpec.from_label("B2").rank == 2
    with pytest.raises(ValueError, match="Cartan rank 3 is over the rank limit 2"):
        CartanSpec.from_matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanSpec.from_matrix([[2, -1]])  # not square
    with pytest.raises(ValueError):
        CartanSpec.from_matrix([[1]])  # diagonal must be 2
    with pytest.raises(ValueError):
        CartanSpec.from_matrix([[2, 1], [-1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanSpec.from_matrix([[2, -1], [0, 2]])  # asymmetric zero
    with pytest.raises(ValueError):
        CartanSpec.from_matrix([[2, -2], [-2, 2]])  # product 4 (affine)
    with pytest.raises(ValueError):
        CartanSpec.from_label("B1")
    with pytest.raises(ValueError):
        CartanSpec.from_label("G3")
    with pytest.raises(ValueError):
        CartanSpec.from_label("X2")


def test_coxeter_exponents():
    a2 = CartanSpec.from_label("A2")
    assert a2.coxeter_exponent(1, 2) == 3
    a3 = CartanSpec.from_label("A3")
    assert a3.coxeter_exponent(1, 3) == 2
    assert CartanSpec.from_label("B2").coxeter_exponent(1, 2) == 4
    assert CartanSpec.from_label("G2").coxeter_exponent(1, 2) == 6
    with pytest.raises(ValueError):
        a2.coxeter_exponent(1, 1)
    with pytest.raises(ValueError):
        a2.coxeter_exponent(0, 1)


def test_reflection_matrix_rank_one():
    assert CartanSpec.from_label("A1").reflection_matrix(1).entries == ((-1,),)


def test_reflection_matrix_a2():
    # s_1 sends alpha_1 to -alpha_1 and alpha_2 to alpha_1 + alpha_2.
    s1 = CartanSpec.from_label("A2").reflection_matrix(1)
    assert s1.entries == ((-1, 1), (0, 1))


@pytest.mark.parametrize("label", ["A1", "A3", "B2", "B4", "C3", "D2", "D4", "G2"])
def test_reflections_are_involutions(label):
    cartan = CartanSpec.from_label(label)
    identity = IntegerMatrix.identity(cartan.rank)
    for i in range(1, cartan.rank + 1):
        s = cartan.reflection_matrix(i)
        assert (s @ s).entries == identity.entries


@pytest.mark.parametrize("label", ["A2", "A4", "B2", "B3", "C4", "D4", "G2"])
def test_product_order_matches_coxeter_exponent(label):
    cartan = CartanSpec.from_label(label)
    identity = IntegerMatrix.identity(cartan.rank).entries
    for i in range(1, cartan.rank + 1):
        for j in range(i + 1, cartan.rank + 1):
            m = cartan.coxeter_exponent(i, j)
            product = cartan.reflection_matrix(i) @ cartan.reflection_matrix(j)
            power = IntegerMatrix.identity(cartan.rank)
            order = None
            for k in range(1, 7):
                power = power @ product
                if power.entries == identity:
                    order = k
                    break
            assert order == m, (label, i, j)


def _unit(rank, i, scale=1):
    return tuple(scale if j == i - 1 else 0 for j in range(rank))


def test_very_little_generators_doubled_simple_roots():
    # quadratic-form style: doubled simple roots 2*alpha_1 .. 2*alpha_r
    rank = 4
    datum = SphericalDatum(
        cartan=CartanSpec.from_type("A", rank),
        spherical_roots=tuple(_unit(rank, i, 2) for i in (1, 2, 3)),
        weight_sublattice=IntegerMatrix.identity(rank),
    )
    assert datum.very_little_generators() == frozenset({1, 2, 3})
    assert datum.has_adjacent_equal_length_simple_spherical_roots()


def test_very_little_generators_short_root_only():
    n = 4
    cartan = CartanSpec.from_type("B", n)
    roots = tuple(
        tuple(1 if j in (i - 1, i) else 0 for j in range(n)) for i in range(1, n)
    ) + (_unit(n, n),)
    datum = SphericalDatum(
        cartan=cartan,
        spherical_roots=roots,
        weight_sublattice=IntegerMatrix.identity(n),
    )
    assert datum.very_little_generators() == frozenset({n})
    assert not datum.has_adjacent_equal_length_simple_spherical_roots()


def test_very_little_generators_empty():
    datum = SphericalDatum(
        cartan=CartanSpec.from_label("A2"),
        spherical_roots=((1, 1),),
        weight_sublattice=IntegerMatrix.identity(2),
    )
    assert datum.very_little_generators() == frozenset()
    assert not datum.has_adjacent_equal_length_simple_spherical_roots()


def test_adjacent_equal_length_cases():
    full_a2 = SphericalDatum(
        cartan=CartanSpec.from_label("A2"),
        spherical_roots=((1, 0), (0, 1)),
        weight_sublattice=IntegerMatrix.identity(2),
    )
    assert full_a2.has_adjacent_equal_length_simple_spherical_roots()

    full_g2 = SphericalDatum(
        cartan=CartanSpec.from_label("G2"),
        spherical_roots=((1, 0), (0, 1)),
        weight_sublattice=IntegerMatrix.identity(2),
    )
    assert not full_g2.has_adjacent_equal_length_simple_spherical_roots()

    full_b2 = SphericalDatum(
        cartan=CartanSpec.from_label("B2"),
        spherical_roots=((1, 0), (0, 1)),
        weight_sublattice=IntegerMatrix.identity(2),
    )
    assert not full_b2.has_adjacent_equal_length_simple_spherical_roots()

    orthogonal = SphericalDatum(
        cartan=CartanSpec.from_label("D2"),
        spherical_roots=((1, 0), (0, 1)),
        weight_sublattice=IntegerMatrix.identity(2),
    )
    assert not orthogonal.has_adjacent_equal_length_simple_spherical_roots()


def test_generators_monotone_under_adding_roots():
    # Adding a spherical root never removes a generator.
    rng = random.Random(2024)
    cartan = CartanSpec.from_type("A", 4)
    candidates = [_unit(4, i) for i in (1, 2, 3, 4)]
    candidates += [_unit(4, i, 2) for i in (1, 2, 3, 4)]
    candidates += [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0)]
    for _ in range(60):
        chosen = []
        for v in rng.sample(candidates, rng.randint(1, 4)):
            trial = chosen + [v]
            if IntegerMatrix.from_rows(trial).rank() == len(trial):
                chosen = trial
        if len(chosen) < 2:
            continue
        small = SphericalDatum(
            cartan=cartan,
            spherical_roots=tuple(chosen[:-1]),
            weight_sublattice=IntegerMatrix.identity(4),
        )
        large = SphericalDatum(
            cartan=cartan,
            spherical_roots=tuple(chosen),
            weight_sublattice=IntegerMatrix.identity(4),
        )
        assert small.very_little_generators() <= large.very_little_generators()


def test_spherical_datum_validation():
    cartan = CartanSpec.from_label("A2")
    with pytest.raises(ValueError, match="length"):
        SphericalDatum(cartan, ((1,),), IntegerMatrix.identity(2))
    with pytest.raises(ValueError, match="independent"):
        SphericalDatum(cartan, ((1, 0), (2, 0)), IntegerMatrix.identity(2))
    with pytest.raises(ValueError, match="row rank"):
        SphericalDatum(cartan, ((1, 0),), IntegerMatrix.from_rows([[1, 2], [2, 4]]))


@pytest.mark.parametrize(
    "rows,shown", [([[2.9, "-1"], [-1, 2]], "2.9"), ([[2, "-1"], [-1, 2]], "'-1'"),
                   ([[True, -1], [-1, 2]], "True")],
    ids=["float", "string", "bool"],
)
def test_cartan_entries_must_be_exact_integers(rows, shown):
    # Read with int() these would pass as A2.
    with pytest.raises(ValueError, match=f"Cartan entries must be exact integers, got {shown}"):
        CartanSpec.from_matrix(rows)
    with pytest.raises(ValueError, match="Cartan entries must be exact integers"):
        CartanSpec(tuple(map(tuple, rows)))


@pytest.mark.parametrize(
    "entry", [1.5, 1.0, "1", True], ids=["float", "whole-float", "string", "bool"]
)
def test_spherical_root_entries_must_be_exact_integers(entry):
    with pytest.raises(ValueError, match="spherical root entries must be exact integers"):
        SphericalDatum(CartanSpec.from_label("A2"), ((entry, 0),), IntegerMatrix.identity(2))


class _Int(int):
    """An int subclass: accepted as an entry, as by ``_as_int``."""


# Each entry is kept, or given as an int subclass, a bool, a float, a string,
# None or a string longer than a refusal echoes.
_DISGUISES = [
    lambda x: x,
    _Int,
    bool,
    float,
    str,
    lambda x: None,
    lambda x: str(x) * 100,
]


@st.composite
def _disguised(draw, rows):
    """``rows``, each entry kept or disguised, as tuple or list rows."""
    pick = st.sampled_from(_DISGUISES)
    out = [[draw(pick)(x) if draw(st.booleans()) else x for x in row] for row in rows]
    return out if draw(st.booleans()) else tuple(map(tuple, out))


def _entry_loop(rows, what):
    """The refusal of a per-entry ``_as_int`` loop over ``rows``, or None."""
    return _refusal(lambda: [_as_int(x, what) for row in rows for x in row])


def _refusal(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rank=st.integers(1, 4))
def test_constructors_check_entries_as_a_per_entry_loop_does(data, rank):
    cartan = CartanSpec.from_label(f"A{rank}")
    identity = IntegerMatrix.identity(rank)
    rows = data.draw(_disguised(identity.entries), label="matrix")
    expected = _entry_loop(rows, "matrix entries")
    assert _refusal(lambda: IntegerMatrix(rows)) == expected
    assert _refusal(lambda: IntegerMatrix.from_rows(rows)) == expected
    rows = data.draw(_disguised(cartan.matrix), label="cartan")
    assert _refusal(lambda: CartanSpec(rows)) == _entry_loop(rows, "Cartan entries")
    rows = data.draw(_disguised(identity.entries), label="roots")
    expected = _entry_loop(rows, "spherical root entries")
    assert _refusal(lambda: SphericalDatum(cartan, rows, identity)) == expected


def test_a_bad_matrix_entry_is_named_before_a_ragged_row():
    for rows in (((1,), (1, "a")), ((1, "a"), (1,))):
        with pytest.raises(ValueError, match="matrix entries must be exact integers, got 'a'"):
            IntegerMatrix(rows)


def test_cartan_json_round_trip():
    labelled = CartanSpec.from_label("B4")
    assert labelled.to_json() == {"type": "B", "rank": 4}
    assert CartanSpec.from_json(labelled.to_json()) == labelled

    explicit = CartanSpec.from_matrix([[2, -1], [-1, 2]])
    assert explicit.to_json() == {"cartan": [[2, -1], [-1, 2]]}
    assert CartanSpec.from_json(explicit.to_json()) == explicit

    with pytest.raises(ValueError):
        CartanSpec.from_json({"rank": 2})


def test_spherical_datum_json_round_trip():
    datum = SphericalDatum(
        cartan=CartanSpec.from_label("B3"),
        spherical_roots=((1, 1, 0), (0, 0, 1)),
        weight_sublattice=IntegerMatrix.identity(3),
    )
    again = SphericalDatum.from_json(datum.to_json())
    assert again.spherical_roots == datum.spherical_roots
    assert again.cartan == datum.cartan
    assert again.weight_sublattice.entries == datum.weight_sublattice.entries


@pytest.mark.parametrize(
    "roots", [5, [["1", "0"]], [[True, 0]]], ids=["int", "entry-string", "entry-bool"]
)
def test_spherical_datum_json_rejects_roots_that_are_not_integer_rows(roots):
    obj = SphericalDatum(
        cartan=CartanSpec.from_label("B2"),
        spherical_roots=((1, 0),),
        weight_sublattice=IntegerMatrix.identity(2),
    ).to_json()
    obj["spherical_roots"] = roots
    with pytest.raises(ValueError, match="'spherical_roots' must be a list of lists of integers"):
        SphericalDatum.from_json(obj)
