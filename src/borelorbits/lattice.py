"""Exact integer lattice computations.

Smith normal form over ZZ, elementary divisors of a full-rank sublattice
inclusion, and the sign bookkeeping that counts open real Borel orbits: an
inclusion with divisors (m_1, ..., m_r) has 2**p open orbits, where p is the
number of even m_i, and the open orbits are separated by the signs of the
coordinates sitting at the even divisors.

Everything here is exact.  Matrices carry arbitrary-precision Python
integers; there is no floating point and no modular arithmetic.  One
elimination, ``_diagonalize``, serves every caller: ``smith_normal_form``
hands it the unimodular transforms to update, while ``elementary_divisors``
and ``IntegerMatrix.rank`` only need the diagonal and run it without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"matrix entries must be exact integers, got {x!r}")
    return x


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable rectangular matrix with exact integer entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.entries
        if rows:
            width = len(rows[0])
            if width == 0:
                raise ValueError("matrix rows must be nonempty")
            for row in rows:
                if len(row) != width:
                    raise ValueError("matrix rows must all have the same length")
                for x in row:
                    _as_int(x)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return cls(tuple(tuple(_as_int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return _det_bareiss([list(row) for row in self.entries])

    def rank(self) -> int:
        """Rank over the rationals: the nonzero Smith diagonal, without transforms."""
        return sum(1 for d in _diagonalize([list(r) for r in self.entries]) if d != 0)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntegerMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("matrix JSON must be an object with an 'entries' field")
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError("matrix 'entries' must be a list of lists of integers")
        m = cls.from_rows(entries)
        for field in ("rows", "cols"):
            if field in obj and obj[field] != getattr(m, field):
                raise ValueError(
                    f"matrix JSON declares {field}={obj[field]} but entries have {getattr(m, field)}"
                )
        return m


@dataclass(frozen=True)
class DivisorList:
    """Diagonal of a Smith normal form: nonnegative, each entry divides the next.

    Zero entries (rank deficiency) may only appear at the end of the chain.
    """

    m: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in self.m:
            if _as_int(x) < 0:
                raise ValueError("divisors must be nonnegative")
        for a, b in zip(self.m, self.m[1:]):
            if (a == 0 and b != 0) or (a != 0 and b % a != 0):
                raise ValueError(f"divisor chain violated: {a} does not divide {b}")

    def __iter__(self):
        return iter(self.m)

    def __len__(self) -> int:
        return len(self.m)

    def __getitem__(self, i: int) -> int:
        return self.m[i]


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form u @ M @ v == diag(d), with u and v unimodular."""

    d: DivisorList
    u: IntegerMatrix
    v: IntegerMatrix

    def diagonal_matrix(self) -> IntegerMatrix:
        rows, cols = self.u.rows, self.v.rows
        return IntegerMatrix.from_rows(
            [[self.d[i] if i == j and i < len(self.d) else 0 for j in range(cols)] for i in range(rows)]
        )

    def to_json(self) -> dict:
        return {"d": list(self.d), "u": self.u.to_json(), "v": self.v.to_json()}


def _det_bareiss(a: list[list[int]]) -> int:
    """Fraction-free determinant; all intermediate values stay integral."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _diagonalize(
    a: list[list[int]],
    u: list[list[int]] | None = None,
    v: list[list[int]] | None = None,
) -> list[int]:
    """Reduce ``a`` in place to Smith diagonal form and return the diagonal.

    The transforms ride along only when given: every row operation on ``a``
    is also applied to ``u`` and every column operation to ``v``, so passing
    identity matrices leaves u @ a_original @ v equal to the diagonal matrix.
    Without them the elimination does the same steps on ``a`` alone.
    Pivoting picks the smallest nonzero entry in absolute value, the first
    in row-major order, so the transforms are reproducible.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        if u is not None:
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        if v is not None:
            for row in v:
                row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def pivot_at(t):
        """Smallest-|value| nonzero entry of the trailing submatrix, row-major tie-break."""
        best, best_row = 0, None
        for i in range(t, nrows):
            low = min(map(abs, filter(None, a[i][t:])), default=0)
            if low and (best_row is None or low < best):
                best, best_row = low, i
                if low == 1:
                    break
        if best_row is None:
            return None
        return best_row, t + list(map(abs, a[best_row][t:])).index(best)

    t = 0
    while t < min(nrows, ncols):
        pos = pivot_at(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            clean = True
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // p))
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // p))
                    if a[t][j] != 0:
                        clean = False
            if not clean:
                pos = pivot_at(t)
                continue
            if p == 1:
                break  # 1 divides everything: no sweep needed
            # Pivot must divide the rest of the submatrix for the divisor chain.
            culprit = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
            pos = pivot_at(t)
        t += 1

    return [a[i][i] for i in range(min(nrows, ncols))]


def _nonempty_rows(matrix: IntegerMatrix) -> list[list[int]]:
    if matrix.rows == 0 or matrix.cols == 0:
        raise ValueError("smith_normal_form requires a nonempty matrix")
    return [list(row) for row in matrix.entries]


def smith_normal_form(matrix: IntegerMatrix) -> SnfDecomposition:
    """Smith normal form of a nonempty integer matrix.

    Returns (d, u, v) with u @ matrix @ v equal to the rectangular diagonal
    matrix of d, det(u) and det(v) in {+1, -1}, every d_i >= 0 and
    d_i | d_{i+1}.  The diagonal is unique; the transforms are deterministic
    for a given input.
    """
    a = _nonempty_rows(matrix)
    u = [[1 if i == j else 0 for j in range(matrix.rows)] for i in range(matrix.rows)]
    v = [[1 if i == j else 0 for j in range(matrix.cols)] for i in range(matrix.cols)]
    diag = _diagonalize(a, u, v)
    return SnfDecomposition(
        d=DivisorList(tuple(diag)),
        u=IntegerMatrix.from_rows(u),
        v=IntegerMatrix.from_rows(v),
    )


def elementary_divisors(sublattice_basis: IntegerMatrix) -> DivisorList:
    """Elementary divisors of the row span inside the ambient lattice ZZ^n.

    The rows must be linearly independent over the rationals; a rank-deficient
    input is rejected rather than silently saturated.  Only the diagonal is
    computed: the elimination runs without transforms.
    """
    divisors = tuple(_diagonalize(_nonempty_rows(sublattice_basis)))
    rank = sum(1 for d in divisors if d != 0)
    if rank < sublattice_basis.rows:
        raise ValueError(
            f"sublattice basis is rank-deficient: {sublattice_basis.rows} rows but rank {rank}"
        )
    return DivisorList(divisors)


def _positive_divisors(m: "DivisorList | Sequence[int]") -> list[int]:
    values = [int(x) for x in m]
    for x in values:
        if x < 1:
            raise ValueError(f"divisors must be >= 1, got {x}")
    return values


def count_open_real_orbits(m: "DivisorList | Sequence[int]") -> int:
    """Number of open real Borel orbits: 2**(number of even divisors)."""
    return 1 << len(sign_coordinates(m))


def sign_coordinates(m: "DivisorList | Sequence[int]") -> tuple[int, ...]:
    """1-based positions of the even divisors.

    These are the coordinates whose signs separate the open real orbits; the
    remaining coordinates have odd divisors and their signs can be flipped.
    """
    values = _positive_divisors(m)
    return tuple(i + 1 for i, x in enumerate(values) if x % 2 == 0)
