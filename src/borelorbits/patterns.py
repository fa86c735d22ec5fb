"""Signed patterns: real Borel orbits on quadratic forms of fixed rank.

A rank-r quadratic form in n variables, up to the action of the real upper
triangular group, is encoded by a pattern on n positions: r of them are
active, an active position is either a signed square term (+ or -) or one
endpoint of an arc pairing two positions into a cross term, and the rest are
zero.  Complex orbits drop the signs (bare dots); arcs may cross or nest
freely.

The symmetric group acts by permuting positions.  For the transposition of
positions i, i+1 the span holding a pattern depends only on the entries
there and on their arc partners.  :func:`classify_cell` decides it, for the
tables and for :meth:`SignedPattern.classify_edge` alike:

    entries at i, i+1        signed                   complex
    0 0                      P                        P
    + +  or  - -             N0 (the orbit alone)     -
    + -  or  - +             N2: the two sign orders  -
                             are the open pair over
                             the arc joining i, i+1
    bare dots (no arcs)      -                        N: open, over the arc
                                                      joining i, i+1
    arc joining i and i+1    N2, lower                N, lower
    anything else            U: the orbit and its     U
                             transposed partner

The classifier answers in the signed column: a bare-dot pair is N2, and the
complex table takes its type through :attr:`EdgeType.complex_type`.

Which member of a U-pair is open is decided by the ranks of the upper-left
corner submatrices of the form (:meth:`SignedPattern.corner_rank`), the
invariant separating orbits: the open orbit's corner ranks are at least its
partner's at every corner.  In closed form: with a zero below an active
entry (zero at i+1) the pattern is open, with the zero at i it is the lower
member.  Between two active entries, at least one on an arc, count a single
entry as its own partner: the pattern is open when the partner of position i
comes first.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

from .orbits import EdgeType, Orbit, ReflectionTable, Span, check_orbit_count
from .rootdata import CartanSpec, check_rank

ZERO = "0"
PLUS = "+"
MINUS = "-"
DOT = "•"

_ENTRY_ORDER = {ZERO: 0, PLUS: 1, MINUS: 2, DOT: 3}
_SORT_TR = str.maketrans(ZERO + PLUS + MINUS + DOT, "0123")
_SIGNS = (PLUS, MINUS)


def _arc_suffix(arcs: tuple[tuple[int, int], ...]) -> str:
    """Leading-space arc list, e.g. " [1,2][3,5]"; empty without arcs."""
    return " " + "".join(f"[{j},{k}]" for j, k in arcs) if arcs else ""


def _transpose_arcs(arcs: tuple[tuple[int, int], ...], i: int) -> tuple[tuple[int, int], ...]:
    """Arcs carried through the swap of positions i and i+1, normalized."""
    swap = {i: i + 1, i + 1: i}
    return tuple(sorted(tuple(sorted((swap.get(j, j), swap.get(k, k)))) for j, k in arcs))


_P_OPEN = (EdgeType.P, True)
_N0_OPEN = (EdgeType.N0, True)
_N2_OPEN = (EdgeType.N2, True)
_N2_LOWER = (EdgeType.N2, False)
_U_OPEN = (EdgeType.U, True)
_U_LOWER = (EdgeType.U, False)


def classify_cell(x: str, y: str, px: int, py: int, i: int) -> tuple[EdgeType, bool]:
    """The span type at positions (i, i+1) and whether the pattern is open in it.

    ``x`` and ``y`` are the entries at i and i+1, ``px`` and ``py`` their arc
    partners (0 when not on an arc).  See the module docstring for the table;
    a bare-dot pair answers N2, which complex tables project to N.
    """
    if x == ZERO:
        return _P_OPEN if y == ZERO else _U_LOWER
    if y == ZERO:
        return _U_OPEN
    if not (px or py):
        return _N0_OPEN if x == y != DOT else _N2_OPEN
    if px == i + 1:
        return _N2_LOWER
    # U between two active entries: a single one is its own partner, and
    # the pattern is open when the partner at i comes first.
    return _U_OPEN if (px or i) < (py or i + 1) else _U_LOWER


@dataclass(frozen=True, slots=True)
class SignedPattern:
    """Entries over {0, +, -, dot} plus disjoint arcs between dot positions.

    Positions and arcs are 1-based.  The rank of the encoded form is the
    number of active (non-zero) positions.
    """

    entries: tuple[str, ...]
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for e in self.entries:
            if e not in _ENTRY_ORDER:
                raise ValueError(f"invalid pattern entry {e!r}")
        n = len(self.entries)
        arcs = tuple(sorted((min(j, k), max(j, k)) for j, k in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        used: set[int] = set()
        for j, k in arcs:
            if j == k:
                raise ValueError("arc endpoints must differ")
            for p in (j, k):
                if not 1 <= p <= n:
                    raise ValueError(f"arc endpoint {p} out of range 1..{n}")
                if p in used:
                    raise ValueError(f"position {p} lies on two arcs")
                used.add(p)
                if self.entries[p - 1] != DOT:
                    raise ValueError(f"arc endpoint {p} must be a dot entry")
        # Bare dots (complex mode) cannot be mixed with signs.
        if any(e in _SIGNS for e in self.entries):
            for p, e in enumerate(self.entries, start=1):
                if e == DOT and p not in used:
                    raise ValueError(f"bare dot at {p} in a signed pattern")

    @classmethod
    def _unchecked(cls, entries: tuple[str, ...], arcs: tuple[tuple[int, int], ...]):
        # Internal fast path for operations that preserve validity; arcs must
        # already be normalized (each pair ascending, pairs sorted).
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "arcs", arcs)
        return self

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def rank(self) -> int:
        return sum(1 for e in self.entries if e != ZERO)

    @property
    def is_maximal_rank(self) -> bool:
        """Maximal-rank orbits are exactly the arc-free patterns."""
        return not self.arcs

    @property
    def is_open(self) -> bool:
        """Open orbits are sign tuples occupying the leading positions."""
        r = self.rank
        return not self.arcs and all(
            (e in _SIGNS) == (p <= r) for p, e in enumerate(self.entries, start=1)
        )

    def sign_counts(self) -> tuple[int, int]:
        return (
            sum(1 for e in self.entries if e == PLUS),
            sum(1 for e in self.entries if e == MINUS),
        )

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "".join(self.entries) + _arc_suffix(self.arcs)

    @classmethod
    def from_text(cls, text: str) -> "SignedPattern":
        parts = text.split(None, 1)
        if not parts:
            raise ValueError("empty pattern text")
        entries = tuple(parts[0])
        arcs = []
        if len(parts) == 2:
            rest = parts[1].strip()
            if not (rest.startswith("[") and rest.endswith("]")):
                raise ValueError(f"malformed arc list {rest!r}")
            for chunk in rest[1:-1].split("]["):
                try:
                    j, k = map(int, chunk.split(","))
                except ValueError:
                    raise ValueError(f"malformed arc list {rest!r}") from None
                arcs.append((j, k))
        return cls(entries=entries, arcs=tuple(arcs))

    def sort_key(self):
        return "".join(self.entries).translate(_SORT_TR), self.arcs

    # -- the symmetric-group action ------------------------------------------

    def apply_transposition(self, i: int) -> "SignedPattern":
        """Swap positions i and i+1, carrying arcs through the swap."""
        self._check_position(i)
        entries = list(self.entries)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
        return SignedPattern._unchecked(tuple(entries), _transpose_arcs(self.arcs, i))

    def _check_position(self, i: int) -> None:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"position {i} out of range 1..{self.n - 1}")

    # -- orbit comparison via corner ranks -------------------------------------

    def corner_rank(self, rows: int, cols: int) -> int:
        """Rank of the form's matrix restricted to rows <= rows, cols <= cols."""
        rank = 0
        arc_positions = {p for arc in self.arcs for p in arc}
        for p, e in enumerate(self.entries, start=1):
            if e != ZERO and p not in arc_positions:
                if p <= rows and p <= cols:
                    rank += 1
        for j, k in self.arcs:
            if j <= rows and k <= cols:
                rank += 1
            if k <= rows and j <= cols:
                rank += 1
        return rank

    # -- span classification ------------------------------------------------

    def classify_edge(self, i: int) -> tuple[EdgeType, bool]:
        """Span type at positions (i, i+1) and openness within the span.

        Complex patterns get the signed answer; their table's type is its
        ``complex_type``.
        """
        self._check_position(i)
        partner = {}
        for j, k in self.arcs:
            partner[j], partner[k] = k, j
        x, y = self.entries[i - 1], self.entries[i]
        return classify_cell(x, y, partner.get(i, 0), partner.get(i + 1, 0), i)

    def unsign(self) -> "SignedPattern":
        """Forget signs: the complex pattern under this real one."""
        return SignedPattern(
            entries=tuple(DOT if e in _SIGNS else e for e in self.entries),
            arcs=self.arcs,
        )


def pattern_count(n: int, r: int, signed: bool) -> int:
    """Closed-form pattern count; the enumeration is tested against this."""
    _check_shape(n, r)
    total = 0
    for k in range(0, r // 2 + 1):
        # the 2k arc ends are matched in (2k-1)!! ways
        ways = math.comb(r, 2 * k) * math.prod(range(1, 2 * k, 2))
        if signed:
            ways *= 2 ** (r - 2 * k)
        total += ways
    return math.comb(n, r) * total


def _check_shape(n: int, r: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one position, got n={n}")
    if not 0 <= r <= n:
        raise ValueError(f"rank must satisfy 0 <= r <= n, got r={r}, n={n}")


def _matchings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for idx in range(len(rest)):
        pair = (first, rest[idx])
        for tail in _matchings(rest[:idx] + rest[idx + 1 :]):
            yield (pair,) + tail


def enumerate_patterns(n: int, r: int, signed: bool = True) -> list[SignedPattern]:
    """All patterns with n positions and rank r, in lexicographic order.

    The shape is refused before anything is allocated when it has too many
    patterns, or when its table's Cartan rank n - 1 is over the rank limit.
    """
    check_orbit_count(pattern_count(n, r, signed), f"patterns n={n} r={r}")
    check_rank(n - 1)
    # Complex singles are bare dots: one choice per single position.
    singles_choices = _SIGNS if signed else (DOT,)
    out = []
    for active in itertools.combinations(range(1, n + 1), r):
        for arc_count in range(0, r // 2 + 1):
            for arc_positions in itertools.combinations(active, 2 * arc_count):
                singles = tuple(p for p in active if p not in arc_positions)
                for arcs in _matchings(arc_positions):
                    # _matchings pairs off the smallest remaining point first,
                    # so each arc tuple comes out canonically sorted.
                    for signs in itertools.product(singles_choices, repeat=len(singles)):
                        entries = [ZERO] * n
                        for p in arc_positions:
                            entries[p - 1] = DOT
                        for p, s in zip(singles, signs):
                            entries[p - 1] = s
                        out.append(SignedPattern._unchecked(tuple(entries), arcs))
    out.sort(key=SignedPattern.sort_key)
    return out


def _build(n: int, r: int, patterns: list[SignedPattern]) -> ReflectionTable:
    """Assemble the table of ``patterns``, of rank r, in one pass over (pattern, root) cells.

    :func:`classify_cell` types each cell, and each span is emitted exactly
    once, from a canonical member: the single orbit for P/N0, the (+,-) open
    orbit for N2, the bare-dot orbit for complex N, and the open member for
    U.  Orbit names are manipulated as strings; the table constructor checks
    the spans and derives the reflections from them.
    """
    # Arc lists repeat a lot; their texts are memoized for this build only.
    suffixes: dict[tuple[tuple[int, int], ...], str] = {}
    swapped: dict[tuple[tuple[tuple[int, int], ...], int], str] = {}

    def suffix(arcs):
        text = suffixes.get(arcs)
        if text is None:
            text = suffixes[arcs] = _arc_suffix(arcs)
        return text

    def swapped_suffix(arcs, i):
        text = swapped.get((arcs, i))
        if text is None:
            text = swapped[arcs, i] = suffix(_transpose_arcs(arcs, i))
        return text

    orbits = []
    spans: list[Span] = []
    classify, add, make_span = classify_cell, spans.append, Span
    type_u, type_n2 = EdgeType.U, EdgeType.N2
    for p in patterns:
        arcs = p.arcs
        name = "".join(p.entries) + suffix(arcs)
        orbits.append(Orbit(name, not arcs and ZERO not in p.entries[:r], not arcs))
        partner = None
        if arcs:
            partner = [0] * (n + 2)
            for j, k in arcs:
                partner[j] = k
                partner[k] = j
        px = py = 0
        for i0 in range(n - 1):
            i = i0 + 1
            x = name[i0]
            y = name[i]
            if partner is not None:
                px = partner[i]
                py = partner[i + 1]
            edge, open_here = classify(x, y, px, py, i)
            if not open_here:
                continue  # emitted from the span's open member
            if edge is type_u:
                if px or py:
                    other = name[:i0] + y + x + name[i0 + 2 : n] + swapped_suffix(arcs, i)
                else:
                    other = name[:i0] + y + x + name[i0 + 2 :]
                add(make_span(i, edge, (name,), (other,)))
            elif edge is type_n2:
                if x == MINUS:
                    continue  # emitted from the (+,-) member
                lower = (
                    name[:i0] + DOT + DOT + name[i0 + 2 : n]
                    + suffix(tuple(sorted(arcs + ((i, i + 1),))))
                )
                if x == DOT:  # complex: one open orbit over the arc
                    add(make_span(i, edge.complex_type, (name,), (lower,)))
                else:
                    add(make_span(i, edge, (name, name[:i0] + y + x + name[i0 + 2 :]), (lower,)))
            else:  # P and N0: the orbit alone
                add(make_span(i, edge, (name,)))
    # This frame holds the only reference: the patterns are freed before the
    # constructor reaches its peak.
    del patterns
    return ReflectionTable(orbits, CartanSpec.from_type("A", n - 1), spans)


# Built tables by (n, r, signed), held weakly: callers holding a table share
# it, and a table that no caller holds is freed.
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _table(n: int, r: int, signed: bool) -> ReflectionTable:
    _check_shape(n, r)
    table = _TABLES.get((n, r, signed))
    if table is None:
        # Enumerating first refuses an oversized shape before the build starts.
        table = _TABLES[n, r, signed] = _build(n, r, enumerate_patterns(n, r, signed))
    return table


def build_table(n: int, r: int) -> ReflectionTable:
    """Reflection table of all signed patterns of rank r on n positions.

    The induced permutation of every root coincides with the adjacent
    transposition of entries.
    """
    return _table(n, r, signed=True)


def build_complex_table(n: int, r: int) -> ReflectionTable:
    """Same construction for unsigned (complex) patterns, with types P/U/N."""
    return _table(n, r, signed=False)


@dataclass(frozen=True)
class SylvesterClass:
    """One real-group orbit of open patterns, labelled by inertia indices."""

    plus: int
    minus: int
    orbits: tuple[str, ...]


def sylvester_classes(n: int, r: int) -> tuple[SylvesterClass, ...]:
    """Real-group orbits of the open patterns: r+1 classes labelled (plus, minus)."""
    table = build_table(n, r)
    classes = []
    for block in table.real_group_orbit_classes():
        rep = block[0]
        classes.append(
            SylvesterClass(plus=rep.count(PLUS), minus=rep.count(MINUS), orbits=block)
        )
    classes.sort(key=lambda c: c.minus)
    return tuple(classes)

