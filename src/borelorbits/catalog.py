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

Weight sublattices are written in an explicit basis of the character
lattice, namely (eps_1, ..., eps_{n-1}, (eps_1 + ... + eps_n)/2), so that
all coordinates are integers and the divisor computation applies directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lattice import IntegerMatrix, count_open_real_orbits, elementary_divisors
from .orbits import EdgeType, Orbit, ReflectionTable, Span, check_orbit_count
from .rootdata import CartanSpec, SphericalDatum


@dataclass(frozen=True)
class ExampleSpec:
    """A catalog example by name, with its size or Cartan parameter."""

    name: str
    n: int | None = None
    cartan: CartanSpec | None = None


@dataclass(frozen=True)
class CatalogExample:
    name: str
    table: ReflectionTable
    datum: SphericalDatum | None = None


_ALIASES = {
    "ordered": "ordered_pairs",
    "unordered": "unordered_pairs",
    "torus": "torus_counterexample",
    "g2": "g2_case",
}

EXAMPLE_NAMES = ("ordered_pairs", "unordered_pairs", "torus_counterexample", "g2_case")


def canonical_example_name(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in EXAMPLE_NAMES:
        raise ValueError(
            f"unknown example {name!r}; expected one of {', '.join(EXAMPLE_NAMES)}"
        )
    return key


def build_example(spec: ExampleSpec) -> CatalogExample:
    name = canonical_example_name(spec.name)
    if name == "ordered_pairs":
        if spec.n is None:
            raise ValueError("ordered_pairs needs the size parameter n")
        datum, table = build_ordered_pairs(spec.n)
        return CatalogExample(name=name, table=table, datum=datum)
    if name == "unordered_pairs":
        if spec.n is None:
            raise ValueError("unordered_pairs needs the size parameter n")
        datum, table = build_unordered_pairs(spec.n)
        return CatalogExample(name=name, table=table, datum=datum)
    if name == "torus_counterexample":
        if spec.cartan is None:
            raise ValueError("torus_counterexample needs a Cartan matrix")
        return CatalogExample(name=name, table=build_torus_counterexample(spec.cartan))
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


def _complete_with_singletons(
    orbit_names, spans_by_root: dict[int, list[Span]], rank: int
) -> list[Span]:
    """Fill every uncovered (orbit, root) cell with a P singleton."""
    spans = []
    for root in range(1, rank + 1):
        root_spans = spans_by_root.get(root, [])
        covered = {name for span in root_spans for name in span.members}
        spans.extend(root_spans)
        for name in orbit_names:
            if name not in covered:
                spans.append(Span(root=root, type=EdgeType.P, open_orbits=(name,)))
    return spans


# -- ordered pairs of isotropic subspaces ---------------------------------------


def _ladder_block(
    n: int,
    prefixes: tuple[str, ...],
    spans_by_root: dict[int, list[Span]],
    orbits: list[Orbit],
    short_root_types: str,
) -> None:
    """One diagram component: open orbit(s) with their U-partners and lowers.

    ``short_root_types`` selects the behavior at the short root n:
    "T2" (ordered pairs: two opens, two lowers, partners of the last long
    root carry T1) or "N" (unordered pairs: N2 on an open pair or N1 on a
    single open, N1 on the last partners).
    """
    opens = [f"O{p}" for p in prefixes]
    base_dim = n
    for name in opens:
        orbits.append(Orbit(name=name, is_open=True, is_max_rank=True, dim=base_dim))
    for p in prefixes:
        for i in range(1, n):
            orbits.append(Orbit(name=f"O{p}_{i}", is_max_rank=True, dim=base_dim - 1))

    # U-spans at the long roots.
    for p in prefixes:
        for i in range(1, n):
            spans_by_root.setdefault(i, []).append(
                Span(
                    root=i,
                    type=EdgeType.U,
                    open_orbits=(f"O{p}",),
                    lower_orbits=(f"O{p}_{i}",),
                )
            )
    # Each partner O_i is fixed by the next reflection: T1 at root i+1 < n.
    for p in prefixes:
        for i in range(1, n - 1):
            lows = (f"O{p}_{i}^+", f"O{p}_{i}^-")
            for low in lows:
                orbits.append(Orbit(name=low, dim=base_dim - 2))
            spans_by_root.setdefault(i + 1, []).append(
                Span(
                    root=i + 1,
                    type=EdgeType.T1,
                    open_orbits=(f"O{p}_{i}",),
                    lower_orbits=lows,
                )
            )

    if short_root_types == "T2":
        lows = (f"O{prefixes[0]}_{n}^+", f"O{prefixes[0]}_{n}^-")
        for low in lows:
            orbits.append(Orbit(name=low, dim=base_dim - 1))
        spans_by_root.setdefault(n, []).append(
            Span(root=n, type=EdgeType.T2, open_orbits=tuple(opens), lower_orbits=lows)
        )
        for p in prefixes:
            t1_lows = (f"O{p}_{n - 1}^+", f"O{p}_{n - 1}^-")
            for low in t1_lows:
                orbits.append(Orbit(name=low, dim=base_dim - 2))
            spans_by_root.setdefault(n, []).append(
                Span(
                    root=n,
                    type=EdgeType.T1,
                    open_orbits=(f"O{p}_{n - 1}",),
                    lower_orbits=t1_lows,
                )
            )
    else:
        low = f"O{prefixes[0]}_{n}"
        orbits.append(Orbit(name=low, dim=base_dim - 1))
        if len(opens) == 2:
            edge = EdgeType.N2
        else:
            edge = EdgeType.N1
        spans_by_root.setdefault(n, []).append(
            Span(root=n, type=edge, open_orbits=tuple(opens), lower_orbits=(low,))
        )
        for p in prefixes:
            n1_low = f"O{p}_{n - 1}^0"
            orbits.append(Orbit(name=n1_low, dim=base_dim - 2))
            spans_by_root.setdefault(n, []).append(
                Span(
                    root=n,
                    type=EdgeType.N1,
                    open_orbits=(f"O{p}_{n - 1}",),
                    lower_orbits=(n1_low,),
                )
            )


def build_ordered_pairs(n: int) -> tuple[SphericalDatum, ReflectionTable]:
    """Ordered transversal pairs: two open orbits exchanged by the short root."""
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
    spans_by_root: dict[int, list[Span]] = {}
    _ladder_block(n, ("", "'"), spans_by_root, orbits, short_root_types="T2")
    spans = _complete_with_singletons([o.name for o in orbits], spans_by_root, n)
    return datum, ReflectionTable(orbits=orbits, cartan=cartan, spans=spans)


def build_unordered_pairs(n: int) -> tuple[SphericalDatum, ReflectionTable]:
    """Unordered transversal pairs: index-4 weight lattice, 4 or 2 open orbits."""
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
    spans_by_root: dict[int, list[Span]] = {}
    for prefixes in blocks:
        _ladder_block(n, prefixes, spans_by_root, orbits, short_root_types="N")
    spans = _complete_with_singletons([o.name for o in orbits], spans_by_root, n)
    return datum, ReflectionTable(orbits=orbits, cartan=cartan, spans=spans)


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
    spans_by_root: dict[int, list[Span]] = {}
    for i in range(1, l + 1):
        for t in tuples:
            flipped = t[: i - 1] + ("-" if t[i - 1] == "+" else "+") + t[i:]
            if flipped < t:
                continue
            rep = t
            lows = (f"{rep}:s{i}:a", f"{rep}:s{i}:b")
            for low in lows:
                orbits.append(Orbit(name=low))
            spans_by_root.setdefault(i, []).append(
                Span(root=i, type=EdgeType.T2, open_orbits=(t, flipped), lower_orbits=lows)
            )
    spans = _complete_with_singletons([o.name for o in orbits], spans_by_root, l)
    return ReflectionTable(orbits=orbits, cartan=cartan, spans=spans)


def build_g2_case() -> ReflectionTable:
    """Two commuting sign flips over the G2 Cartan matrix; braid order 6 holds."""
    return build_torus_counterexample(CartanSpec.from_type("G", 2))
