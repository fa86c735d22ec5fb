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
complex table takes its type through :attr:`EdgeType.complex_type`.  The
tables are built in index form: each pattern is a fixed-width byte record,
and a root's transposition acts on all records at once (see ``_build``).

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
import struct
import sys
import weakref
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .orbits import EdgeType, Orbit, ReflectionTable, check_orbit_count
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


def classify_cell(x: str, y: str, px: int, py: int, i: int) -> tuple[EdgeType, bool]:
    """The span type at positions (i, i+1) and whether the pattern is open in it.

    ``x`` and ``y`` are the entries at i and i+1, ``px`` and ``py`` their arc
    partners (0 when not on an arc).  See the module docstring for the table;
    a bare-dot pair answers N2, which complex tables project to N.
    """
    if x == ZERO:
        return (EdgeType.P, True) if y == ZERO else (EdgeType.U, False)
    if y == ZERO:
        return EdgeType.U, True
    if not (px or py):
        return (EdgeType.N0 if x == y != DOT else EdgeType.N2), True
    if px == i + 1:
        return EdgeType.N2, False
    # U between two active entries: a single one is its own partner, and
    # the pattern is open when the partner at i comes first.
    return EdgeType.U, (px or i) < (py or i + 1)


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
        return self.entries.count(PLUS), self.entries.count(MINUS)

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
        arc_ends = {p for arc in self.arcs for p in arc}
        entries = self.entries[: min(rows, cols)]
        singles = sum(e != ZERO and p not in arc_ends for p, e in enumerate(entries, start=1))
        arcs = sum((j <= rows and k <= cols) + (k <= rows and j <= cols) for j, k in self.arcs)
        return singles + arcs

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
        return SignedPattern(tuple(DOT if e in _SIGNS else e for e in self.entries), self.arcs)


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


def _refuse_oversized(n: int, r: int, signed: bool) -> None:
    """Refuse a shape with too many patterns, or whose Cartan rank n - 1 is over the limit."""
    check_orbit_count(pattern_count(n, r, signed), f"patterns n={n} r={r}")
    check_rank(n - 1)


def _pattern_texts(n: int, r: int, signed: bool):
    """Entry text and arcs of every pattern with n positions and rank r, unsorted.

    The one enumeration, read by :func:`enumerate_patterns` and the table
    build; callers refuse an oversized shape first.
    """
    # Complex singles are bare dots: one choice per single position.
    singles_choices = _SIGNS if signed else (DOT,)
    for active in itertools.combinations(range(1, n + 1), r):
        for arc_count in range(0, r // 2 + 1):
            for arc_positions in itertools.combinations(active, 2 * arc_count):
                # Arc ends are dots, the singles take their entries by "%s".
                template = "".join(
                    DOT if p in arc_positions else "%s" if p in active else ZERO
                    for p in range(1, n + 1)
                )
                for arcs in _matchings(arc_positions):
                    # _matchings pairs off the smallest remaining point first,
                    # so each arc tuple comes out canonically sorted.
                    for signs in itertools.product(singles_choices, repeat=r - 2 * arc_count):
                        yield template % signs, arcs


def enumerate_patterns(n: int, r: int, signed: bool = True) -> list[SignedPattern]:
    """All patterns with n positions and rank r, in lexicographic order.

    The shape is refused before anything is allocated when it has too many
    patterns, or when its table's Cartan rank n - 1 is over the rank limit.
    """
    _refuse_oversized(n, r, signed)
    entry = {e: e for e in _ENTRY_ORDER}.__getitem__  # tuple(text) would copy every dot
    out = [
        SignedPattern._unchecked(tuple(map(entry, text)), arcs)
        for text, arcs in _pattern_texts(n, r, signed)
    ]
    out.sort(key=SignedPattern.sort_key)
    return out


# A pattern's record: one byte per entry (Latin-1 with "?" for the dot, then
# translated), then per position its arc partner (0 for none).  Partners are
# at most MAX_RANK + 1, so no entry byte is a position a transposition relabels.
_ENTRY_BYTE = {ZERO: 0, PLUS: 253, MINUS: 254, DOT: 255}
_ENCODE = bytes.maketrans(b"0+-?", bytes(_ENTRY_BYTE.values()))
_ENTRY_OF_BYTE = {code: entry for entry, code in _ENTRY_BYTE.items()}

# The runs a cell can head: (type, open slots, the rewrites of its record
# giving its other members: 0 transposed, 1 merged into the arc (i, i+1)).
_RUNS = (
    (EdgeType.P, 1, ()),
    (EdgeType.N0, 1, ()),
    (EdgeType.U, 1, (0,)),
    (EdgeType.N2, 2, (0, 1)),
    (EdgeType.N, 1, (1,)),
)
_RUN_OF = {edge: code for code, (edge, _, _) in enumerate(_RUNS, start=1)}
_HEADS = [bytes(code == run for code in range(256)) for run in _RUN_OF.values()]


def _head_of(x: int, y: int, px: int, py: int, i: int) -> int:
    """1 + the index in _RUNS of the run a cell heads; 0 if another member emits its span."""
    entry = _ENTRY_OF_BYTE[x]
    edge, open_here = classify_cell(entry, _ENTRY_OF_BYTE[y], px, py, i)
    if not open_here or (edge is EdgeType.N2 and entry == MINUS):
        return 0
    return _RUN_OF[edge.complex_type if entry == DOT else edge]


def _build(n: int, r: int, patterns) -> ReflectionTable:
    """The table of ``patterns`` (entry text and arcs of each), of rank r.

    The columns are made in a frame of their own, whose records and lookup
    dict are freed before the table is validated.
    """
    orbits, columns = _index_columns(n, r, patterns)
    return ReflectionTable.from_columns(orbits, CartanSpec.from_type("A", n - 1), columns)


def _index_columns(n: int, r: int, patterns) -> tuple[list[Orbit], dict]:
    """The orbits of ``patterns`` in name order and their per-root runs, in index form.

    The byte records, in name order, are laid end to end.  At root i two
    extended-slice swaps of record columns and one ``bytes.translate`` that
    relabels partners i <-> i+1 transpose every record at once; a second
    rewrite merges positions i, i+1 into an arc, the lower orbit of N2 and N.
    :func:`classify_cell` types each distinct (entries, partners) key once.
    Each span comes from one member (the orbit of P/N0, the open one of U,
    the (+,-) one of N2, the bare-dot one of N), its others from one record
    -> index lookup each.  No object is made per cell or span.
    """
    tails: dict[tuple[tuple[int, int], ...], tuple[str, bytes]] = {}
    names, records = [], []
    for entries, arcs in patterns:
        tail = tails.get(arcs)
        if tail is None:
            partners = bytearray(n)
            for j, k in arcs:
                partners[j - 1], partners[k - 1] = k, j
            tail = tails[arcs] = (_arc_suffix(arcs), bytes(partners))
        names.append(entries + tail[0])
        records.append(entries.encode("latin-1", "replace").translate(_ENCODE) + tail[1])
    order = sorted(range(len(names)), key=names.__getitem__)
    orbits = [
        Orbit(name, " " not in name and ZERO not in name[:r], " " not in name)
        for name in map(names.__getitem__, order)
    ]
    del names
    cells = list(range(len(order)))
    blob = b"".join(map(records.__getitem__, order))
    index = dict(zip(map(records.__getitem__, order), cells)).__getitem__
    del records, order
    width, dots = 2 * n, bytes((_ENTRY_BYTE[DOT],)) * len(cells)
    unpack, first = struct.Struct(f"{width}s").iter_unpack, itemgetter(0)
    columns, key_bytes = {}, bytearray(4 * len(cells))
    for i in range(1, n):
        x, y = blob[i - 1 :: width], blob[i::width]
        px, py = blob[n + i - 1 :: width], blob[n + i :: width]
        # Each cell's (x, y, px, py) as one int, so that each key is typed once.
        key_bytes[0::4], key_bytes[1::4], key_bytes[2::4], key_bytes[3::4] = x, y, px, py
        with memoryview(key_bytes).cast("I") as keys:
            head_of = {key: _head_of(*key.to_bytes(4, sys.byteorder), i) for key in set(keys)}
            heads = bytes(map(head_of.__getitem__, keys))
        relabel = bytearray(range(256))
        relabel[i], relabel[i + 1] = i + 1, i
        swapped = bytearray(blob).translate(relabel)
        swapped[i - 1 :: width], swapped[i::width] = y, x
        swapped[n + i - 1 :: width] = py.translate(relabel)
        swapped[n + i :: width] = px.translate(relabel)
        merged = bytearray(blob)
        merged[i - 1 :: width] = merged[i::width] = dots
        merged[n + i - 1 :: width] = bytes((i + 1,)) * len(cells)
        merged[n + i :: width] = bytes((i,)) * len(cells)
        rewrites = (swapped, merged)
        runs = columns[i] = []
        for (edge, opens, others), select in zip(_RUNS, _HEADS):
            chosen = heads.translate(select)
            slots = [list(compress(cells, chosen))]
            if slots[0]:
                for w in others:
                    rewritten = compress(unpack(rewrites[w]), chosen)
                    slots.append(list(map(index, map(first, rewritten))))
                members = [0] * (len(slots) * len(slots[0]))
                for slot, column in enumerate(slots):
                    members[slot :: len(slots)] = column
                runs.append((edge, opens, len(slots) - opens, members))
    return orbits, columns


# Built tables by (n, r, signed), held weakly: callers holding a table share
# it, and a table that no caller holds is freed.
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _table(n: int, r: int, signed: bool) -> ReflectionTable:
    _check_shape(n, r)
    table = _TABLES.get((n, r, signed))
    if table is None:
        _refuse_oversized(n, r, signed)
        table = _TABLES[n, r, signed] = _build(n, r, _pattern_texts(n, r, signed))
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

