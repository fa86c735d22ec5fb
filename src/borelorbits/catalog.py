"""Ready-made reflection tables for the worked families.

Four constructions are provided:

* ``build_ordered_pairs(n)``: pairs of transversal maximal isotropic
  subspaces of a split (2n+1)-dimensional quadratic space.  Two open orbits
  swapped by the short-root reflection (type T2), a ladder of U-partners
  below each, and the weight lattice of index 2 in the character lattice.

* ``build_unordered_pairs(n)``: the same space with the two subspaces
  unordered.  The weight lattice has index 4; its divisor list, hence the
  number of open orbits (4 or 2), depends on n mod 4, and the short root now
  acts with types N2/N1.

* ``build_torus_counterexample(cartan)``: sign tuples flipped independently
  by every simple reflection, all spans of type T2.  The braid relation
  (s_i s_j)^m = id then holds exactly for even m, so any adjacent pair of
  equal-length roots (m = 3) breaks it.

* ``build_g2_case()``: the rank-2 instance of the above over the G2 Cartan
  matrix, where m = 6 keeps the braid relation intact.

Each builder collects its orbits and one flat list of its non-P spans.
``_table`` maps their names to indices, groups them into runs by root and
shape, and adds one P run per root: the orbits no span covers there, read off
a coverage byte per orbit.  No span object is made per P cell.  The runs go
to ``ReflectionTable.from_columns``, which validates them like any table.
The two pair families share the ladder at the long roots (``_ladder_block``);
each adds its own spans at the short root.

Weight sublattices are written in an explicit basis of the character
lattice, namely (eps_1, ..., eps_{n-1}, (eps_1 + ... + eps_n)/2), so that
all coordinates are integers and the divisor computation applies directly.
"""

from __future__ import annotations

import itertools

from . import EXAMPLE_NAMES, _Record, _shown
from .lattice import IntegerMatrix, count_open_real_orbits, elementary_divisors
from .orbits import EdgeType, Orbit, ReflectionTable, Span, _name_runs, check_orbit_count
from .rootdata import CartanSpec, SphericalDatum


class CatalogExample(_Record):
    __slots__ = ("name", "table", "datum")
    _defaults = {"datum": None}


_ALIASES = {
    "ordered": "ordered_pairs",
    "unordered": "unordered_pairs",
    "torus": "torus_counterexample",
    "g2": "g2_case",
}


def canonical_example_name(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in EXAMPLE_NAMES:
        raise ValueError(
            f"unknown example {_shown(name)}; expected one of {', '.join(EXAMPLE_NAMES)}"
        )
    return key


def build_example(
    name: str, n: int | None = None, cartan: CartanSpec | None = None
) -> CatalogExample:
    """The named example; a size or Cartan parameter its family does not take is refused."""
    name = canonical_example_name(name)
    if n is not None and name not in ("ordered_pairs", "unordered_pairs"):
        raise ValueError(f"{name} does not take the size parameter n")
    if cartan is not None and name != "torus_counterexample":
        raise ValueError(f"{name} does not take a Cartan matrix")
    if name in ("ordered_pairs", "unordered_pairs"):
        if n is None:
            raise ValueError(f"{name} needs the size parameter n")
        build = build_ordered_pairs if name == "ordered_pairs" else build_unordered_pairs
        datum, table = build(n)
        return CatalogExample(name=name, table=table, datum=datum)
    if name == "torus_counterexample":
        if cartan is None:
            raise ValueError("torus_counterexample needs a Cartan matrix")
        return CatalogExample(name=name, table=build_torus_counterexample(cartan))
    return CatalogExample(name=name, table=build_g2_case())


# -- character-lattice bookkeeping --------------------------------------------


def _char_lattice_row(eps_coeffs: list[int]) -> list[int]:
    """Coordinates of sum(c_i eps_i) in the basis (eps_1..eps_{n-1}, half-sum)."""
    c_last = eps_coeffs[-1]
    return [c - c_last for c in eps_coeffs[:-1]] + [2 * c_last]


def _coeff_vector(n: int, *terms: tuple[int, int]) -> list[int]:
    v = [0] * n
    for pos, coeff in terms:
        v[pos - 1] += coeff
    return v


def _table(orbits: list[Orbit], cartan: CartanSpec, spans: list[Span]) -> ReflectionTable:
    """The table of ``spans``, with a P span for every (root, orbit) cell they leave uncovered."""
    by_name, columns, labels, _ = _name_runs(orbits, spans, cartan.rank)
    for runs in columns.values():
        uncovered = bytearray(b"\x01") * len(labels)
        for *_, members in runs:
            for k in members:
                uncovered[k] = 0
        runs.append((EdgeType.P, 1, 0, list(itertools.compress(range(len(orbits)), uncovered))))
    return ReflectionTable.from_columns(cartan, columns, *by_name)


def _add_lowers(orbits: list[Orbit], names: tuple[str, ...], dim: int | None) -> tuple[str, ...]:
    """Register lower orbits of dimension ``dim``; returns their names for a span."""
    orbits.extend(Orbit(name=name, dim=dim) for name in names)
    return names


# -- pairs of transversal isotropic subspaces -------------------------------------


def _ladder_block(
    n: int, prefixes: tuple[str, ...], spans: list[Span], orbits: list[Orbit]
) -> tuple[str, ...]:
    """One diagram component at the long roots; returns its open orbits.

    Each open orbit O<p> has a U-partner O<p>_i at every long root i, and
    each partner O<p>_i with i < n - 1 is fixed by the next long reflection:
    T1 at root i + 1.  The caller adds the spans at the short root n.
    """
    opens = tuple(f"O{p}" for p in prefixes)
    orbits.extend(Orbit(name=name, is_open=True, is_max_rank=True, dim=n) for name in opens)
    for p in prefixes:
        for i in range(1, n):
            partner = f"O{p}_{i}"
            orbits.append(Orbit(name=partner, is_max_rank=True, dim=n - 1))
            spans.append(Span(i, EdgeType.U, (f"O{p}",), (partner,)))
            if i < n - 1:
                lows = _add_lowers(orbits, (f"{partner}^+", f"{partner}^-"), n - 2)
                spans.append(Span(i + 1, EdgeType.T1, (partner,), lows))
    return opens


def build_ordered_pairs(n: int) -> tuple[SphericalDatum, ReflectionTable]:
    """Ordered transversal pairs: two open orbits exchanged by the short root.

    At the short root the two opens form a T2 span over two lowers, and each
    last partner carries T1.
    """
    if n < 2:
        raise ValueError("ordered_pairs needs n >= 2")
    cartan = CartanSpec.from_type("B", n)
    spherical = tuple(
        tuple(_coeff_vector(n, (i, 1), (i + 1, 1))) for i in range(1, n)
    ) + (tuple(_coeff_vector(n, (n, 1))),)
    weight_rows = [_char_lattice_row(_coeff_vector(n, (i, 1))) for i in range(1, n + 1)]
    datum = SphericalDatum(
        cartan=cartan,
        spherical_roots=spherical,
        weight_sublattice=IntegerMatrix.from_rows(weight_rows),
    )

    orbits: list[Orbit] = []
    spans: list[Span] = []
    prefixes = ("", "'")
    opens = _ladder_block(n, prefixes, spans, orbits)
    lows = _add_lowers(orbits, (f"O_{n}^+", f"O_{n}^-"), n - 1)
    spans.append(Span(root=n, type=EdgeType.T2, open_orbits=opens, lower_orbits=lows))
    for p in prefixes:
        partner = f"O{p}_{n - 1}"
        lows = _add_lowers(orbits, (f"{partner}^+", f"{partner}^-"), n - 2)
        spans.append(Span(root=n, type=EdgeType.T1, open_orbits=(partner,), lower_orbits=lows))
    return datum, _table(orbits, cartan, spans)


def build_unordered_pairs(n: int) -> tuple[SphericalDatum, ReflectionTable]:
    """Unordered transversal pairs: index-4 weight lattice, 4 or 2 open orbits.

    At the short root each block's opens form an N2 span over one lower (N1
    when the block has a single open), and each last partner carries N1.
    """
    if n < 2:
        raise ValueError("unordered_pairs needs n >= 2")
    cartan = CartanSpec.from_type("B", n)
    spherical = tuple(
        tuple(_coeff_vector(n, (i, 1), (i + 1, 1))) for i in range(1, n)
    ) + (tuple(_coeff_vector(n, (n, 2))),)

    weight_rows = []
    for i in range(1, n - 1):
        weight_rows.append(_char_lattice_row(_coeff_vector(n, (i, 1), (i + 2, -1))))
    weight_rows.append(_char_lattice_row(_coeff_vector(n, (n - 1, 1))))
    weight_rows.append(_char_lattice_row(_coeff_vector(n, (n, 2))))
    sublattice = IntegerMatrix.from_rows(weight_rows)
    datum = SphericalDatum(
        cartan=cartan, spherical_roots=spherical, weight_sublattice=sublattice
    )

    open_count = count_open_real_orbits(elementary_divisors(sublattice))
    if open_count not in (2, 4) or (open_count == 4) != (n % 4 in (0, 3)):
        raise AssertionError(
            f"unexpected open-orbit count {open_count} for n={n}"
        )
    blocks = (("", "'"), ("''", "'''")) if open_count == 4 else (("",), ("''",))

    orbits: list[Orbit] = []
    spans: list[Span] = []
    for prefixes in blocks:
        opens = _ladder_block(n, prefixes, spans, orbits)
        edge = EdgeType.N2 if len(opens) == 2 else EdgeType.N1
        lows = _add_lowers(orbits, (f"{opens[0]}_{n}",), n - 1)
        spans.append(Span(root=n, type=edge, open_orbits=opens, lower_orbits=lows))
        for p in prefixes:
            partner = f"O{p}_{n - 1}"
            lows = _add_lowers(orbits, (f"{partner}^0",), n - 2)
            spans.append(Span(root=n, type=EdgeType.N1, open_orbits=(partner,), lower_orbits=lows))
    return datum, _table(orbits, cartan, spans)


# -- sign-flip actions ------------------------------------------------------------


def build_torus_counterexample(cartan: CartanSpec) -> ReflectionTable:
    """Every reflection flips one coordinate of a sign tuple; all spans are T2.

    The open orbits are the 2**l sign tuples; the lower slots of each T2 span
    are filled with auxiliary codimension-1 orbits, two per span.
    """
    l = cartan.rank
    if l < 1:
        raise ValueError("torus counterexample needs rank >= 1")
    check_orbit_count(2**l * (l + 1), f"torus counterexample of rank {l}")
    tuples = ["".join(t) for t in itertools.product("+-", repeat=l)]
    orbits = [Orbit(name=t, is_open=True, is_max_rank=True) for t in tuples]
    spans: list[Span] = []
    for i in range(1, l + 1):
        for t in tuples:
            if t[i - 1] == "+":  # each span is listed from its "+" end
                lows = (f"{t}:s{i}:a", f"{t}:s{i}:b")
                spans.append(Span(i, EdgeType.T2, (t, t[: i - 1] + "-" + t[i:]), lows))
    orbits += [Orbit(name) for span in spans for name in span.lower_orbits]
    return _table(orbits, cartan, spans)


def build_g2_case() -> ReflectionTable:
    """Two commuting sign flips over the G2 Cartan matrix; braid order 6 holds."""
    return build_torus_counterexample(CartanSpec.from_type("G", 2))
