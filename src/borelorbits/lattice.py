"""Exact integer lattice computations.

Smith normal form over ZZ, elementary divisors of a full-rank sublattice
inclusion, and the sign bookkeeping that counts open real Borel orbits: an
inclusion with divisors (m_1, ..., m_r) has 2**p open orbits, where p is the
number of even m_i, and the open orbits are separated by the signs of the
coordinates sitting at the even divisors.

Everything here is exact.  Matrices carry arbitrary-precision Python
integers; there is no floating point and no modular arithmetic.  One
elimination, ``_diagonalize``, serves every Smith form and runs one path:
it reduces the leading block of a matrix, and whatever lies right of or
below that block rides along with the row and column operations.  Only
``smith_normal_form`` puts an identity right of M, which becomes u, and one
below, which becomes v.  ``IntegerMatrix.rank`` needs no Smith form: it
counts the pivot rows of one Hermite pass (``_hermite_rows``).

The elimination alternates row and column Hermite passes in the order of
Kannan and Bachem (SIAM J. Comput. 1979), keeping each Hermite form
reduced, and then puts the diagonal into a divisor chain.  The reduction
bounds the transforms: their entries stay within a few times the bit size
of the Hadamard bound on |det M| (see ``_diagonalize``), where an
elimination without it grows them about fifty-fold on dense input.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from . import _Record, _as_int, _check_int_rows, _shown


MAX_MATRIX_SIDE = 200  # most rows or columns a JSON matrix may have, as rootdata.MAX_RANK


class IntegerMatrix(_Record):
    """Immutable rectangular matrix with exact integer entries."""

    __slots__ = ("entries",)

    def __post_init__(self) -> None:
        """Check every entry, then the shape: a bad entry is named before a ragged row."""
        rows = self.entries
        _check_int_rows(rows)
        if rows and not rows[0]:
            raise ValueError("matrix rows must be nonempty")
        if len(set(map(len, rows))) > 1:
            raise ValueError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return cls(tuple(map(tuple, rows)))

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
        """Rank over the rationals: the pivot rows of one Hermite pass, no Smith form."""
        rows = [list(r) for r in self.entries]
        _hermite_rows(rows, self.rows, self.cols)
        return sum(map(any, rows))

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntegerMatrix":
        """Read a matrix object; over ``MAX_MATRIX_SIDE`` rows or columns is refused first."""
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("matrix JSON must be an object with an 'entries' field")
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError("matrix 'entries' must be a list of lists of integers")
        rows, cols = len(entries), max(map(len, entries), default=0)
        if max(rows, cols) > MAX_MATRIX_SIDE:
            raise ValueError(
                f"matrix is {rows}x{cols}, over the limit of {MAX_MATRIX_SIDE} rows and columns"
            )
        m = cls.from_rows(entries)
        for field in ("rows", "cols"):
            if field in obj and _as_int(obj[field], "matrix sizes") != getattr(m, field):
                raise ValueError(
                    f"matrix JSON declares {field}={_shown(obj[field])} "
                    f"but entries have {getattr(m, field)}"
                )
        return m


class DivisorList(_Record):
    """Diagonal of a Smith normal form: nonnegative, each entry divides the next.

    Zero entries (rank deficiency) may only appear at the end of the chain.
    """

    __slots__ = ("m",)

    def __post_init__(self) -> None:
        for x in self.m:
            if _as_int(x, "divisors") < 0:
                raise ValueError("divisors must be nonnegative")
        for a, b in zip(self.m, self.m[1:]):
            if (a == 0 and b != 0) or (a != 0 and b % a != 0):
                raise ValueError(f"divisor chain violated: {_shown(a)} does not divide {_shown(b)}")

    def __iter__(self):
        return iter(self.m)

    def __len__(self) -> int:
        return len(self.m)

    def __getitem__(self, i: int) -> int:
        return self.m[i]


class SnfDecomposition(_Record):
    """Smith normal form u @ M @ v == diag(d), with u and v unimodular."""

    __slots__ = ("d", "u", "v")

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


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s*x + t*y == g == gcd(x, y); |s| <= |y|/g and |t| <= |x|/g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (x, s0, t0) if x >= 0 else (-x, -s0, -t0)


def _hermite_rows(a: list[list[int]], nrows: int, ncols: int) -> None:
    """Bring the rows of the leading block of ``a`` to a reduced Hermite form, in place.

    Rows are taken one at a time, in the order of Kannan and Bachem: each new
    row is eliminated against the pivot rows so far with unimodular xgcd
    steps, and it either vanishes or becomes a new pivot row.  Pivot rows end
    up first, sorted by pivot column, with positive pivots; zero rows follow.
    After each new row, an entry above a pivot is reduced modulo that pivot
    when it is larger in absolute value, which keeps every intermediate
    entry, and the extra columns riding along, near the size of the answer.
    """
    cols: list[int] = []  # pivot column of pivot row a[k]
    for i in range(nrows):
        row = a[i]
        changed = []  # pivot rows whose pivot this row shrank or created
        j = 0
        while True:
            j = next((c for c in range(j, ncols) if row[c]), ncols)
            if j == ncols:
                a[i] = row
                break
            k = bisect_left(cols, j)
            if k < len(cols) and cols[k] == j:
                piv = a[k]
                p, x = piv[j], row[j]
                if x % p == 0:
                    q = x // p
                    row = [y - q * z for y, z in zip(row, piv)]
                else:
                    g, s, t = _xgcd(p, x)
                    p, x = p // g, x // g
                    a[k] = [s * z + t * y for z, y in zip(piv, row)]
                    row = [p * y - x * z for z, y in zip(piv, row)]
                    changed.append(k)
                j += 1
            else:
                if row[j] < 0:
                    row = [-y for y in row]
                del a[i]
                a.insert(k, row)
                cols.insert(k, j)
                changed.append(k)  # the rows changed before all lie above it
                break
        # Entries above a changed pivot may now exceed it.  Reduce each row
        # that needs it bottom-up, so that the rows below are reduced first.
        dirty = set(changed)
        for h in changed:
            c, p = cols[h], a[h][cols[h]]
            dirty.update(k for k in range(h) if abs(a[k][c]) > p)
        for k in sorted(dirty, reverse=True):
            row = a[k]
            for h in range(k + 1, len(cols)):
                c = cols[h]
                p = a[h][c]
                if abs(row[c]) > p:
                    q = row[c] // p
                    row = [y - q * z for y, z in zip(row, a[h])]
            a[k] = row


def _transpose(a: list[list[int]], nrows: int, ncols: int) -> list[list[int]]:
    """Transpose of ``a`` with its leading ``nrows`` x ``ncols`` block.

    The block's rows may carry extra columns and the rows below it are as
    wide as the block, so the result has the same shape with the block
    transposed: the extra columns become rows below, the rows below become
    extra columns.
    """
    below = [list(c) for c in zip(*(row[:ncols] for row in a))]
    right = [list(c) for c in zip(*(row[ncols:] for row in a[:nrows]))]
    return below + right


def _diagonalize(a: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """Reduce the leading ``nrows`` x ``ncols`` block of ``a`` to Smith form, in place.

    Returns the diagonal of the reduced block.  Pivots and quotients are
    read from the block alone, but row operations act on whole rows and
    column operations on whole columns.  Entries to the right of the block
    or below it therefore ride along as extra columns and rows: an identity
    appended to the right ends up as u and one appended below ends up as v,
    with u @ block_original @ v equal to the diagonal matrix.  Rows below the
    block must be exactly as wide as the block.

    Row and column Hermite passes (``_hermite_rows``) alternate until the
    block is diagonal; a column pass is a row pass on the transpose.  The
    first two passes gather the nonzero part into a leading triangle with the
    zero rows last, and each further pass either clears the first row and
    column or shrinks the first pivot, as in Kannan and Bachem's Smith form
    algorithm, so the passes end.  Last, the diagonal becomes a divisor chain
    one pair at a time: diag(x, y) turns into diag(gcd, lcm).

    Because every pass keeps its Hermite form reduced, the transforms stay
    near the size of the answer, but no bound is proven.  With H the bit
    size of the Hadamard bound on |det|, u and v reached 0.9 to 2.7 H on the
    seeded dense 48 x 48 matrices of the benchmark (entries in [-50, 50]),
    where an unreduced elimination reaches about 50 H; one sparse 16 x 16
    matrix takes u to 291 bits, over 3 H + log2(n) + 8 (H about 92.4).
    """
    shape = (nrows, ncols)
    m, flipped = a, False
    while True:
        _hermite_rows(m, *shape)
        if all(not any(row[:i]) and not any(row[i + 1 : shape[1]])
               for i, row in enumerate(m[: shape[0]])):
            break
        m, shape, flipped = _transpose(m, *shape), shape[::-1], not flipped
    if flipped:
        m = _transpose(m, *shape)
    a[:] = m

    diag = [a[i][i] for i in range(min(nrows, ncols))]
    rank = sum(1 for x in diag if x)  # the passes leave the zeros last
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = diag[i], diag[j]
            if y % x == 0:
                continue
            # diag(x, y) -> diag(g, x*y/g): add row j to row i, combine
            # columns i and j by the xgcd of (x, y), then clear (j, i).
            g, s, t = _xgcd(x, y)
            a[i] = [p + q for p, q in zip(a[i], a[j])]
            xg, yg = x // g, y // g
            for row in a:
                row[i], row[j] = s * row[i] + t * row[j], xg * row[j] - yg * row[i]
            q = t * yg
            a[j] = [p - q * r for p, r in zip(a[j], a[i])]
            diag[i], diag[j] = g, x * yg
    return diag


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
    values = [_as_int(x, "divisors") for x in m]
    for x in values:
        if x < 1:
            raise ValueError(f"divisors must be >= 1, got {_shown(x)}")
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
