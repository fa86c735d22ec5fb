"""Cartan data for finite root systems.

A :class:`CartanSpec` holds an integral Cartan matrix, either built from a
classical label (A, B, C, D, G2) or given explicitly.  The convention is

    a[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i),

so the simple reflection s_i acts on simple-root coordinates by
e_j |-> e_j - a[i][j] e_i.  Root indices are 1-based throughout the public
interface.

A :class:`SphericalDatum` adds the combinatorial invariants of a spherical
homogeneous space: its spherical roots (integer vectors in simple-root
coordinates) and a basis of its weight lattice inside the character lattice
of the maximal torus.
"""

from __future__ import annotations

# The lattice module is reached through its lazy module object, so that only a
# reflection matrix or a spherical datum runs it.
from . import _Record, _check_int_rows, _shown, lattice

_COXETER_BY_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}

# Cartan specs refuse, before building or validating the rank x rank matrix,
# ranks above this, and pattern enumeration refuses n - 1 above it: the
# largest catalog family in use (unordered pairs, n = 200) fits.
MAX_RANK = 200


def check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise ValueError(f"Cartan rank {_shown(rank)} is over the rank limit {MAX_RANK}")


def _is_int_rows(value) -> bool:
    """Whether a JSON value is a list of lists of integers (bools excluded)."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value
    )


def _chain(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _build_cartan(letter: str, rank: int) -> list[list[int]]:
    if letter == "A":
        if rank < 0:
            raise ValueError("type A needs rank >= 0")
        return _chain(rank)
    if letter in ("B", "C"):
        if rank < 2:
            raise ValueError(f"type {letter} needs rank >= 2 (use A1 for rank 1)")
        a = _chain(rank)
        # B: last simple root short; C: last simple root long.
        if letter == "B":
            a[rank - 1][rank - 2] = -2
        else:
            a[rank - 2][rank - 1] = -2
        return a
    if letter == "D":
        if rank < 2:
            raise ValueError("type D needs rank >= 2")
        a = _chain(rank)
        if rank >= 3:
            a[rank - 2][rank - 1] = 0
            a[rank - 1][rank - 2] = 0
            a[rank - 3][rank - 1] = -1
            a[rank - 1][rank - 3] = -1
        else:  # D2 = A1 x A1
            a[0][1] = 0
            a[1][0] = 0
        return a
    if letter == "G":
        if rank != 2:
            raise ValueError("type G needs rank 2")
        # alpha_1 short, alpha_2 long
        return [[2, -3], [-1, 2]]
    raise ValueError(f"unsupported root-system type {_shown(letter)} (expected A, B, C, D or G)")


def _validate_cartan(a: tuple[tuple[int, ...], ...]) -> None:
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if a[i][i] != 2:
            raise ValueError(
                f"Cartan matrix needs 2 on the diagonal, got {_shown(a[i][i])} at {i + 1}"
            )
        for j in range(n):
            if i == j:
                continue
            if a[i][j] > 0:
                raise ValueError(f"off-diagonal Cartan entries must be <= 0, got {_shown(a[i][j])}")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise ValueError(f"Cartan zeros must be symmetric at ({i + 1},{j + 1})")
            if a[i][j] * a[j][i] not in (0, 1, 2, 3):
                raise ValueError(
                    "Cartan product a_ij*a_ji must be in {0,1,2,3}, "
                    f"got {_shown(a[i][j] * a[j][i])}"
                )


class CartanSpec(_Record):
    """An integral Cartan matrix, optionally remembering its classical label."""

    __slots__ = ("matrix", "label")
    _defaults = {"label": None}
    _compare = ("matrix",)

    def __post_init__(self) -> None:
        check_rank(len(self.matrix))
        matrix = tuple(map(tuple, self.matrix))
        _check_int_rows(matrix, "Cartan entries")
        object.__setattr__(self, "matrix", matrix)
        _validate_cartan(self.matrix)

    @classmethod
    def from_type(cls, letter: str, rank: int) -> "CartanSpec":
        letter = letter.upper()
        check_rank(rank)
        return cls(tuple(map(tuple, _build_cartan(letter, rank))), label=f"{letter}{rank}")

    @classmethod
    def from_label(cls, label: str) -> "CartanSpec":
        """Parse a compact label such as ``"B4"`` or ``"G2"``."""
        label = label.strip()
        if len(label) < 2 or not label[1:].isdigit():
            expected = "(expected e.g. 'A2', 'B4')"
            raise ValueError(f"cannot parse Cartan label {_shown(label)} {expected}")
        return cls.from_type(label[0], int(label[1:]))

    @classmethod
    def from_matrix(cls, rows) -> "CartanSpec":
        return cls(tuple(map(tuple, rows)))

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def a(self, i: int, j: int) -> int:
        """Cartan entry for 1-based root indices."""
        self._check_index(i)
        self._check_index(j)
        return self.matrix[i - 1][j - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise ValueError(f"root index {_shown(i)} out of range 1..{self.rank}")

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.a(i, j) != 0

    def equal_length(self, i: int, j: int) -> bool:
        """Whether roots i and j have the same length.

        For an adjacent pair this is a_ij == a_ji (the symmetrizing diagonal
        is constant exactly on equal-length roots).
        """
        return self.a(i, j) == self.a(j, i)

    def coxeter_exponent(self, i: int, j: int) -> int:
        """Order m_ij of s_i s_j: 2, 3, 4 or 6 for a_ij*a_ji = 0, 1, 2, 3."""
        if i == j:
            raise ValueError("coxeter_exponent needs two distinct root indices")
        return _COXETER_BY_PRODUCT[self.a(i, j) * self.a(j, i)]

    def reflection_matrix(self, i: int) -> "lattice.IntegerMatrix":
        """The simple reflection s_i on simple-root coordinates (an involution)."""
        self._check_index(i)
        n = self.rank
        rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for c in range(n):
            rows[i - 1][c] = (1 if i - 1 == c else 0) - self.matrix[i - 1][c]
        return lattice.IntegerMatrix.from_rows(rows)

    def to_json(self) -> dict:
        if self.label is not None:
            return {"type": self.label[0], "rank": self.rank}
        return {"cartan": [list(row) for row in self.matrix]}

    @classmethod
    def from_json(cls, obj: dict) -> "CartanSpec":
        if not isinstance(obj, dict):
            raise ValueError("Cartan JSON must be an object")
        if "cartan" in obj:
            rows = obj["cartan"]
            if not _is_int_rows(rows):
                raise ValueError(
                    f"Cartan 'cartan' must be a list of lists of integers, got {_shown(rows)}"
                )
            return cls.from_matrix(rows)
        if "type" in obj and "rank" in obj:
            letter, rank = obj["type"], obj["rank"]
            if not isinstance(letter, str):
                raise ValueError(f"Cartan 'type' must be a string, got {_shown(letter)}")
            if type(rank) is not int:
                raise ValueError(f"Cartan 'rank' must be an integer, got {_shown(rank)}")
            return cls.from_type(letter, rank)
        raise ValueError("Cartan JSON needs either 'cartan' or 'type'+'rank'")


class SphericalDatum(_Record):
    """Cartan data plus spherical roots and the weight sublattice.

    ``spherical_roots`` are integer vectors in simple-root coordinates and
    must be linearly independent.  ``weight_sublattice`` has one row per
    basis vector of the weight lattice, written in coordinates with respect
    to a basis of the full character lattice, and must have full row rank.
    """

    __slots__ = ("cartan", "spherical_roots", "weight_sublattice")

    def __post_init__(self) -> None:
        roots = tuple(map(tuple, self.spherical_roots))
        _check_int_rows(roots, "spherical root entries")
        object.__setattr__(self, "spherical_roots", roots)
        rank = self.cartan.rank
        for v in self.spherical_roots:
            if len(v) != rank:
                raise ValueError(
                    f"spherical root {v} has length {len(v)}, expected rank {rank}"
                )
        if self.spherical_roots:
            if lattice.IntegerMatrix(roots).rank() != len(roots):
                raise ValueError("spherical roots must be linearly independent")
        if self.weight_sublattice.rank() != self.weight_sublattice.rows:
            raise ValueError("weight sublattice basis must have full row rank")

    def very_little_generators(self) -> frozenset[int]:
        """Simple roots alpha_i with alpha_i or 2*alpha_i a spherical root."""
        rank = self.cartan.rank
        out = set()
        for i in range(1, rank + 1):
            e_i = tuple(1 if j == i - 1 else 0 for j in range(rank))
            two_e_i = tuple(2 * x for x in e_i)
            if e_i in self.spherical_roots or two_e_i in self.spherical_roots:
                out.add(i)
        return frozenset(out)

    def has_adjacent_equal_length_simple_spherical_roots(self) -> bool:
        """Whether two generating simple roots are adjacent and of equal length."""
        gens = sorted(self.very_little_generators())
        for x in range(len(gens)):
            for y in range(x + 1, len(gens)):
                i, j = gens[x], gens[y]
                if self.cartan.adjacent(i, j) and self.cartan.equal_length(i, j):
                    return True
        return False

    def to_json(self) -> dict:
        out = self.cartan.to_json()
        out["spherical_roots"] = [list(v) for v in self.spherical_roots]
        out["weight_sublattice"] = self.weight_sublattice.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SphericalDatum":
        if not isinstance(obj, dict):
            raise ValueError("spherical datum JSON must be an object")
        cartan = CartanSpec.from_json(obj)
        try:
            roots = obj["spherical_roots"]
            sublattice = lattice.IntegerMatrix.from_json(obj["weight_sublattice"])
        except KeyError as exc:
            raise ValueError(f"spherical datum JSON is missing {exc}") from exc
        if not _is_int_rows(roots):
            raise ValueError(
                f"datum 'spherical_roots' must be a list of lists of integers, got {_shown(roots)}"
            )
        return cls(
            cartan=cartan,
            spherical_roots=tuple(map(tuple, roots)),
            weight_sublattice=sublattice,
        )
