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
and a root's transposition acts on all records at once (see ``_records``
and ``_images``).

No command builds a table.  The open patterns are the 2^r arc-free ones
with signs on the first r positions.  The commands that ask only about them
read :class:`OpenPatterns`, the 2^r open texts and each root's swap of two
entries in each: ``sylvester``, ``braid-check --example quadratic
--open-only``, and ``orbits --example quadratic`` without ``--generators``
or with ``--domain open``.  ``braid-check`` and ``orbits --generators`` on
all orbits read :class:`PatternMoves`, each root's transposition of every
pattern's record.  Either way a root's reflection is its adjacent
transposition, as in the table, and ``check_braid`` and ``subgroup_orbits``
are the table's own, from their base in ``orbits``.  ``patterns`` prints
the enumeration, :func:`pattern_texts`, in name order, the order in which
every table indexes its orbits: text k is orbit k.

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
from array import array
from itertools import chain, compress, count
from operator import itemgetter

from . import _Record, _shown
from .orbits import (
    EdgeType, ReflectionTable, _Moves, check_invariant, check_orbit_count, orbit_classes
)
from .rootdata import CartanSpec, check_rank

ZERO = "0"
PLUS = "+"
MINUS = "-"
DOT = "•"

_ENTRIES = (ZERO, PLUS, MINUS, DOT)
_SIGNS = (PLUS, MINUS)


def _arc_suffix(arcs: tuple[tuple[int, int], ...]) -> str:
    """Leading-space arc list, e.g. " [1,2][3,5]"; empty without arcs."""
    return " " + "".join(f"[{j},{k}]" for j, k in arcs) if arcs else ""


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


class SignedPattern(_Record):
    """Entries over {0, +, -, dot} plus disjoint arcs between dot positions.

    Positions and arcs are 1-based.  The rank of the encoded form is the
    number of active (non-zero) positions.
    """

    __slots__ = ("entries", "arcs")
    _defaults = {"arcs": ()}

    def __post_init__(self) -> None:
        for e in self.entries:
            if e not in _ENTRIES:
                raise ValueError(f"invalid pattern entry {_shown(e)}")
        n = len(self.entries)
        arcs = tuple(sorted((min(j, k), max(j, k)) for j, k in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        used: set[int] = set()
        for j, k in arcs:
            if j == k:
                raise ValueError("arc endpoints must differ")
            for p in (j, k):
                if not 1 <= p <= n:
                    raise ValueError(f"arc endpoint {_shown(p)} out of range 1..{n}")
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
                raise ValueError(f"malformed arc list {_shown(rest)}")
            for chunk in rest[1:-1].split("]["):
                try:
                    j, k = map(int, chunk.split(","))
                except ValueError:
                    raise ValueError(f"malformed arc list {_shown(rest)}") from None
                arcs.append((j, k))
        return cls(entries=entries, arcs=tuple(arcs))

    # -- the symmetric-group action ------------------------------------------

    def apply_transposition(self, i: int) -> "SignedPattern":
        """Swap positions i and i+1, carrying arcs through the swap."""
        self._check_position(i)
        entries = list(self.entries)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
        swap = {i: i + 1, i + 1: i}
        arcs = tuple((swap.get(j, j), swap.get(k, k)) for j, k in self.arcs)
        return SignedPattern(tuple(entries), arcs)

    def _check_position(self, i: int) -> None:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"position {_shown(i)} out of range 1..{self.n - 1}")

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
        raise ValueError(f"need at least one position, got n={_shown(n)}")
    if not 0 <= r <= n:
        raise ValueError(f"rank must satisfy 0 <= r <= n, got r={_shown(r)}, n={_shown(n)}")


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
    """Refuse a bad shape, then a Cartan rank n - 1 over the limit, then too many patterns."""
    _check_shape(n, r)
    check_rank(n - 1)
    check_orbit_count(pattern_count(n, r, signed), f"patterns n={n} r={r}")


def _pattern_parts(n: int, r: int, signed: bool):
    """The text of every pattern with n positions and rank r, unsorted.

    The one enumeration, which :func:`pattern_texts` sorts; callers refuse an
    oversized shape first.
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
                    form = template + _arc_suffix(arcs)
                    for signs in itertools.product(singles_choices, repeat=r - 2 * arc_count):
                        yield form % signs


def pattern_texts(n: int, r: int, signed: bool = True) -> list[str]:
    """The texts of all patterns with n positions and rank r, in name order.

    Name order is the texts' sorted order: text k is orbit k of the shape's
    table.  No pattern object is made.  A shape is refused before anything is
    allocated when its table's Cartan rank n - 1 is over the rank limit, or
    when it has too many patterns.
    """
    _refuse_oversized(n, r, signed)
    return sorted(_pattern_parts(n, r, signed))


def enumerate_patterns(n: int, r: int, signed: bool = True) -> list[SignedPattern]:
    """All patterns with n positions and rank r, in name order.

    The checked parse of :func:`pattern_texts`: each text goes through the
    model's own validation, so the enumeration cannot yield an invalid pattern.
    """
    return [SignedPattern.from_text(text) for text in pattern_texts(n, r, signed)]


# A pattern's record: one byte per position, the arc partner of an arc end,
# else the entry's code (Latin-1 with "?" for the dot, then translated).  A
# dot's code is 0, so the record is its entries' codes ORed with its partners,
# and a bare dot reads as a dot without a partner.  Partners are at most
# MAX_RANK + 1, so no entry code is a position a transposition relabels.
_ENTRY_BYTE = {DOT: 0, ZERO: 252, PLUS: 253, MINUS: 254}
_ENCODE = bytes.maketrans(b"?0+-", bytes(_ENTRY_BYTE.values()))
_ENTRY_OF_BYTE = {code: entry for entry, code in _ENTRY_BYTE.items()}
# The (entry, partner) each record byte stands for.
_CELL_OF_BYTE = [(_ENTRY_OF_BYTE.get(b, DOT), 0 if b in _ENTRY_OF_BYTE else b) for b in range(256)]

# The runs a cell can head: (type, open slots, whether its record transposed
# and its record merged into the arc (i, i+1) give its other members).
_RUNS = (
    (EdgeType.P, 1, False, False),
    (EdgeType.N0, 1, False, False),
    (EdgeType.U, 1, True, False),
    (EdgeType.N2, 2, True, True),
    (EdgeType.N, 1, False, True),
)
_RUN_OF = {edge: code for code, (edge, *_) in enumerate(_RUNS, start=1)}
_HEADS = [bytes(code == run for code in range(256)) for run in _RUN_OF.values()]


def _head_of(x: int, y: int, i: int) -> int:
    """1 + the index in _RUNS of the run a cell heads; 0 if another member emits its span.

    ``x`` and ``y`` are the record's bytes at positions i and i+1.
    """
    (entry, px), (other, py) = _CELL_OF_BYTE[x], _CELL_OF_BYTE[y]
    edge, open_here = classify_cell(entry, other, px, py, i)
    if not open_here or (edge is EdgeType.N2 and entry == MINUS):
        return 0
    return _RUN_OF[edge.complex_type if entry == DOT else edge]


def _partners(n: int, tail: str) -> str:
    """Each position's arc partner (0 for none) under a name's arc suffix ``tail``, as Latin-1."""
    ends = bytearray(n)
    if tail:
        for chunk in tail[2:-1].split("]["):
            j, k = map(int, chunk.split(","))
            ends[j - 1], ends[k - 1] = k, j
    return ends.decode("latin-1")


def _records(n: int, r: int, signed: bool):
    """The names of a shape, their n-byte records end to end, and the record -> index dict.

    The one record encoding of the table build and of :class:`PatternMoves`.
    """
    names = tuple(pattern_texts(n, r, signed))
    entries, tails = itemgetter(slice(n)), itemgetter(slice(n, None))
    partners = {tail: _partners(n, tail) for tail in set(map(tails, names))}
    # All entries' codes, ORed as one int with all partners: the records end to end.
    coded = "".join(map(entries, names)).encode("latin-1", "replace").translate(_ENCODE)
    arcs = "".join(map(partners.__getitem__, map(tails, names))).encode("latin-1")
    coded, arcs = int.from_bytes(coded, "big"), int.from_bytes(arcs, "big")
    blob = bytearray((coded | arcs).to_bytes(len(names) * n, "big"))
    del coded, arcs
    index = dict(zip(map(itemgetter(0), struct.Struct(f"{n}s").iter_unpack(blob)), count()))
    if len(index) != len(names):
        raise ValueError("pattern records must be distinct")
    return names, blob, index


def _images(blob: bytearray, index, n: int, i: int) -> array:
    """The index of each record in ``blob`` transposed at root i, as ``array('I')``.

    A ``bytes.translate`` of partners i <-> i+1 and an extended-slice swap of the
    columns i, i+1 transpose every record; one ``index`` lookup each finds it.
    """
    swapped = blob.translate(bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))))
    swapped[i - 1 :: n], swapped[i::n] = swapped[i::n], swapped[i - 1 :: n]
    unpack = struct.Struct(f"{n}s").iter_unpack
    return array("I", map(index, map(itemgetter(0), unpack(swapped))))


def _build(n: int, r: int, signed: bool) -> ReflectionTable:
    """The table of the patterns of a shape, from their records (:func:`_records`).

    :func:`_root_runs` rewrites the blob of records, and the record -> index
    dict finds rewritten records; both are freed before the table is validated.
    """
    names, blob, index = _records(n, r, signed)
    columns = {i: _root_runs(blob, index.__getitem__, n, i) for i in range(1, n)}
    del index, blob
    # Arc-free names are of maximal rank, and open with no zero among the first r entries.
    max_rank = bytes(" " not in name for name in names)
    is_open = bytes(full and name.find(ZERO, 0, r) < 0 for full, name in zip(max_rank, names))
    cartan = CartanSpec.from_type("A", n - 1)
    return ReflectionTable.from_columns(cartan, columns, names, is_open, max_rank)


def _root_runs(blob: bytearray, index, n: int, i: int) -> list:
    """The runs at root i of the records in ``blob``, with ``array('I')`` members.

    The transposed records' indices (:func:`_images`) give the U partners and
    the second opens of N2.  Only the N2 and N heads look up their records
    merged into the arc (i, i+1), their lowers.  :func:`classify_cell` types
    each distinct pair of bytes at i, i+1 once.  Each span comes from one member:
    the orbit of P/N0, the open one of U, the (+,-) one of N2, the bare-dot one of N.
    """
    cells = range(len(blob) // n)
    # Each cell's bytes at i, i+1 as one int, so that each key is typed once.
    key_bytes = bytearray(2 * len(cells))
    key_bytes[0::2], key_bytes[1::2] = blob[i - 1 :: n], blob[i::n]
    with memoryview(key_bytes).cast("H") as keys:
        head_of = {key: _head_of(*key.to_bytes(2, sys.byteorder), i) for key in set(keys)}
        heads = bytes(map(head_of.__getitem__, keys))
    image = _images(blob, index, n, i)
    runs = []
    for (edge, opens, transposed, merged), select in zip(_RUNS, _HEADS):
        chosen = heads.translate(select)
        if 1 not in chosen:
            continue
        slots = [compress(cells, chosen)] + [compress(image, chosen)] * transposed
        if merged:  # every record is rewritten in C, but only the heads' are looked up
            arc = bytearray(blob)
            arc[i - 1 :: n], arc[i::n] = bytes((i + 1,)) * len(cells), bytes((i,)) * len(cells)
            starts = compress(range(0, len(arc), n), chosen)
            slots.append([index(bytes(arc[start : start + n])) for start in starts])
        runs.append((edge, opens, len(slots) - opens, array("I", chain.from_iterable(zip(*slots)))))
    return runs


def build_table(n: int, r: int) -> ReflectionTable:
    """Reflection table of all signed patterns of rank r on n positions.

    The induced permutation of every root coincides with the adjacent
    transposition of entries.
    """
    return _build(n, r, signed=True)


def build_complex_table(n: int, r: int) -> ReflectionTable:
    """Same construction for unsigned (complex) patterns, with types P/U/N."""
    return _build(n, r, signed=False)


class SylvesterClass(_Record):
    """One real-group orbit of open patterns, labelled by inertia indices."""

    __slots__ = ("plus", "minus", "orbits")


class PatternMoves(_Moves):
    """All signed patterns of one shape and each root's reflection of them, without the table.

    The reflection at root i maps each pattern to its transposition at i,
    which is the permutation of :func:`build_table`'s table there.  Answers
    as that table does on any domain, refusals included.
    """

    def __init__(self, n: int, r: int) -> None:
        self._names, blob, index = _records(n, r, signed=True)
        # The images are made while the index lives, as arrays; the lists come after it is freed.
        images = {i: _images(blob, index.__getitem__, n, i) for i in range(1, n)}
        identity = [*index.values()]  # 0, 1, ...: the index's own ints, shared by every reflection
        del blob, index
        self._reflections = {}
        for i in range(1, n):
            perm = self._reflections[i] = [*map(identity.__getitem__, images.pop(i))]
            if [*map(perm.__getitem__, perm)] != identity:
                raise ValueError(f"the transposition at root {i} is not an involution")
        self.cartan = CartanSpec.from_type("A", n - 1)


class OpenPatterns(_Moves):
    """The 2^r open patterns of one shape and each root's moves on them, without the full table.

    Answers as :func:`build_table`'s table does on its open patterns, refusals
    included: ``check_braid`` and ``subgroup_orbits`` on the domain of all the
    open patterns (given as None or as their names), and
    ``real_group_orbit_classes``.  Pattern k < 2^r is the k-th open pattern in
    name order.  Its image at root i is its text with positions i and i+1
    swapped: itself, the other open pattern, or a lower pattern, which takes
    the next index when first seen only so that a refusal can name it.  Its size
    guard counts its own cells, 2^r patterns at n - 1 roots, not the table's patterns.
    """

    def __init__(self, n: int, r: int) -> None:
        _check_shape(n, r)
        check_rank(n - 1)
        check_orbit_count(2**r * (n - 1), f"open patterns n={n} r={r}", "cells")
        # Signs on the first r positions, in name order ("+" < "-"), zeros after.
        opens = ["".join(signs) + ZERO * (n - r) for signs in itertools.product(_SIGNS, repeat=r)]
        index = {text: k for k, text in enumerate(opens)}
        self._reflections = {}
        for i in range(1, n):
            images = (text[: i - 1] + text[i] + text[i - 1] + text[i + 1 :] for text in opens)
            self._reflections[i] = [index.setdefault(image, len(index)) for image in images]
        self.cartan = CartanSpec.from_type("A", n - 1)
        self.open_orbit_names, self._names = tuple(opens), tuple(index)
        self._open = bytes([1]) * len(opens) + bytes(len(index) - len(opens))

    def _domain(self, names, gens, perms) -> bytes:
        """The open patterns' mask; refused if ``names`` is another set or a generator leaves it."""
        if names is not None and set(names) != set(self.open_orbit_names):
            raise ValueError("open patterns answer only on the domain of all open patterns")
        check_invariant(self._names, self._open, gens, perms)
        return self._open

    def real_group_orbit_classes(self) -> tuple[tuple[str, ...], ...]:
        return orbit_classes(self._names, self._open, list(self._reflections.values()))


def sylvester_classes(n: int, r: int) -> tuple[SylvesterClass, ...]:
    """Real-group orbits of the open patterns: r+1 classes labelled (plus, minus).

    Read from the 2^r open patterns alone (:class:`OpenPatterns`); the full
    table of the shape is not built.
    """
    classes = []
    for block in OpenPatterns(n, r).real_group_orbit_classes():
        rep = block[0]
        classes.append(
            SylvesterClass(plus=rep.count(PLUS), minus=rep.count(MINUS), orbits=block)
        )
    classes.sort(key=lambda c: c.minus)
    return tuple(classes)

