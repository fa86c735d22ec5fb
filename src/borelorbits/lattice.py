"""Exact integer lattice computations.

Smith normal form over ZZ, elementary divisors of a full-rank sublattice
inclusion, and the sign bookkeeping that counts open real Borel orbits: an
inclusion with divisors (m_1, ..., m_r) has 2**p open orbits, where p is the
number of even m_i, and the open orbits are separated by the signs of the
coordinates sitting at the even divisors.

Everything here is exact.  Matrices carry arbitrary-precision Python
integers; there is no floating point and no modular arithmetic.  One
elimination, ``_diagonalize``, serves every caller and runs one path: it
reduces the leading block of a matrix, and whatever lies right of or below
that block rides along with the row and column operations.  Only
``smith_normal_form`` puts something there: an identity to the right of M,
which becomes u, and one below M, which becomes v.  ``elementary_divisors``
and ``IntegerMatrix.rank`` pass the bare matrix.
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
        diag = _diagonalize([list(r) for r in self.entries], self.rows, self.cols)
        return sum(1 for d in diag if d != 0)

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


def _diagonalize(a: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """Reduce the leading ``nrows`` x ``ncols`` block of ``a`` to Smith form, in place.

    Returns the diagonal of the reduced block.  Pivots and quotients are
    read from the block alone, but row operations act on whole rows and
    column operations on whole columns.  Entries to the right of the block
    or below it therefore ride along as extra columns and rows: an identity
    appended to the right ends up as u and one appended below ends up as v,
    with u @ block_original @ v equal to the diagonal matrix.  Rows below
    the block may be shorter than the rows of the block, but must reach its
    last column.  Pivoting picks the smallest nonzero entry in absolute
    value, the first in row-major order, so the transforms are reproducible.
    """

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]

    def pivot_at(t):
        """Smallest-|value| nonzero entry of the trailing block, row-major tie-break."""
        best, best_row = 0, None
        for i in range(t, nrows):
            low = min(map(abs, filter(None, a[i][t:ncols])), default=0)
            if low and (best_row is None or low < best):
                best, best_row = low, i
                if low == 1:
                    break
        if best_row is None:
            return None
        return best_row, t + list(map(abs, a[best_row][t:ncols])).index(best)

    t = 0
    while t < min(nrows, ncols):
        pos = pivot_at(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
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
    rows, cols = matrix.rows, matrix.cols
    a = _nonempty_rows(matrix)
    for i, row in enumerate(a):
        row.extend(1 if i == j else 0 for j in range(rows))
    a.extend([1 if i == j else 0 for j in range(cols)] for i in range(cols))
    diag = _diagonalize(a, rows, cols)
    return SnfDecomposition(
        d=DivisorList(tuple(diag)),
        u=IntegerMatrix.from_rows(row[cols:] for row in a[:rows]),
        v=IntegerMatrix.from_rows(a[rows:]),
    )


def elementary_divisors(sublattice_basis: IntegerMatrix) -> DivisorList:
    """Elementary divisors of the row span inside the ambient lattice ZZ^n.

    The rows must be linearly independent over the rationals; a rank-deficient
    input is rejected rather than silently saturated.  Only the diagonal is
    computed: the elimination runs on the bare matrix.
    """
    a = _nonempty_rows(sublattice_basis)
    divisors = tuple(_diagonalize(a, sublattice_basis.rows, sublattice_basis.cols))
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
