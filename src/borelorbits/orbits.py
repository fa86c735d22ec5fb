"""Reflection operators on finite sets of real Borel orbits.

A :class:`ReflectionTable` records, for each simple root, how the orbit set
splits into spans and which of the eight real edge types each span carries.
The induced simple-reflection permutations, braid-relation checks, and
orbit enumeration under subgroups of reflections are all computed from this
combinatorial data; the table itself is input, not derived from geometry.
Every table passes one validating core over orbit indices (orbit k is the
k-th name): the constructor maps span names to indices in front of it, and
the pattern and catalog builds hand it index columns directly.  Orbits and
spans are kept as columns and made into :class:`Orbit` and :class:`Span`
records only when asked for; the JSON and DOT texts are written from the
columns in parts, one per root.

Edge types and the permutation they induce on their span:

====  ===========================  =====================================
type  span shape                   action of the reflection
====  ===========================  =====================================
P     one orbit                    identity
U     open + one lower             swap open and lower
T0    one orbit                    identity
T1    open + two lowers            fix open, swap the lowers
T2    two opens + two lowers       swap the opens, swap the lowers
N0    one orbit                    identity
N1    open + one lower             fix both
N2    two opens + one lower        swap the opens, fix the lower
T     open + two lowers (complex)  fix open, swap the lowers
N     open + one lower (complex)   fix both
====  ===========================  =====================================
"""

from __future__ import annotations

import enum
import json
from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import combinations, compress, count, islice, repeat
from json.encoder import encode_basestring
from operator import ge, gt, itemgetter, ne
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _Record, _shown
from .rootdata import CartanSpec


class EdgeType(enum.Enum):
    P = "P"
    U = "U"
    T0 = "T0"
    T1 = "T1"
    T2 = "T2"
    N0 = "N0"
    N1 = "N1"
    N2 = "N2"
    # complex-mode types; same span shapes as T1/N1
    T = "T"
    N = "N"

    # Members are singletons, so identity hashing agrees with equality and
    # keeps dict lookups by type in C.
    __hash__ = object.__hash__

    @property
    def complex_type(self) -> "EdgeType":
        if self in (EdgeType.T0, EdgeType.T1, EdgeType.T2):
            return EdgeType.T
        if self in (EdgeType.N0, EdgeType.N1, EdgeType.N2):
            return EdgeType.N
        return self


# What each type does to its span: (open slots, lower slots, the slot pairs
# the reflection swaps), slots numbered over the open then the lower members.
_SLOTS = {
    EdgeType.P: (1, 0, ()),
    EdgeType.U: (1, 1, ((0, 1),)),
    EdgeType.T0: (1, 0, ()),
    EdgeType.T1: (1, 2, ((1, 2),)),
    EdgeType.T2: (2, 2, ((0, 1), (2, 3))),
    EdgeType.N0: (1, 0, ()),
    EdgeType.N1: (1, 1, ()),
    EdgeType.N2: (2, 1, ((0, 1),)),
    EdgeType.T: (1, 2, ((1, 2),)),
    EdgeType.N: (1, 1, ()),
}

# A table stores each orbit's cell as one byte: its span's type code times
# four plus its slot there, so slot 0 is the span's first open orbit.
_TYPES = tuple(EdgeType)
_TYPE_CODE = {edge: code for code, edge in enumerate(_TYPES)}
_SHAPES = [(edge, _SLOTS[edge][0], _SLOTS[edge][0] + _SLOTS[edge][1]) for edge in _TYPES]
_FIRST_SLOT = bytes(code & 3 == 0 for code in range(256))
_T2_CELLS = bytes(code >> 2 == _TYPE_CODE[EdgeType.T2] for code in range(256))
_MOVES_OPENS = (_TYPE_CODE[EdgeType.T2], _TYPE_CODE[EdgeType.N2])
_JSON_BOOL = {False: "false", True: "true"}
_EDGE_TYPES = {edge.value: edge for edge in _TYPES}  # the table JSON's type values


# Builders refuse, before allocating, more orbits than this: the n = r = 10
# pattern table (123,109 orbits) fits, n = r = 12 (2,430,355) does not.
MAX_ORBITS = 500_000


def _first_ten(names: Sequence[str], brackets: str) -> str:
    """Up to 10 ``names`` cut by ``_shown`` within ``brackets``, then "(10 of N)" past 10."""
    shown = f"{brackets[0]}{', '.join(map(_shown, names[:10]))}{brackets[1]}"
    return shown + (f" (10 of {len(names)})" if len(names) > 10 else "")


def check_orbit_count(count: int, what: str, unit: str = "orbits") -> None:
    if count > MAX_ORBITS:
        raise ValueError(f"{what}: {count} {unit} is over the orbit limit {MAX_ORBITS}")


class Orbit(NamedTuple):
    """A named real Borel orbit.

    ``is_open`` marks orbits lying in the real locus of the open Borel orbit;
    those are always of maximal rank (enforced at table construction).
    ``dim`` is optional metadata used to sanity-check U-spans (open orbit one
    dimension above its lower partner).
    """

    name: str
    is_open: bool = False
    is_max_rank: bool = False
    dim: int | None = None


class Span(NamedTuple):
    """The orbits of one minimal-parabolic span, split into open and lower slots.

    Slot counts are dictated by the edge type, and are checked when the span
    enters a table.  Where a type has two open or two lower slots, the spans
    a table gives out list them in name order; the reflection treats them
    symmetrically.
    """

    root: int
    type: EdgeType
    open_orbits: tuple[str, ...]
    lower_orbits: tuple[str, ...] = ()

    @property
    def members(self) -> tuple[str, ...]:
        return self.open_orbits + self.lower_orbits

    def moves(self) -> list[tuple[str, str]]:
        """Unordered pairs swapped by the reflection on this span."""
        members = self.open_orbits + self.lower_orbits
        return [(members[a], members[b]) for a, b in _SLOTS[self.type][2]]


class BraidPair(_Record):
    """Verdict for one unordered pair of simple reflections."""

    __slots__ = ("i", "j", "exponent", "holds", "witness")
    _defaults = {"witness": None}


class BraidReport(_Record):
    __slots__ = ("pairs",)

    @property
    def holds(self) -> bool:
        return all(p.holds for p in self.pairs)

    def pair(self, i: int, j: int) -> BraidPair:
        i, j = min(i, j), max(i, j)
        for p in self.pairs:
            if (p.i, p.j) == (i, j):
                return p
        raise KeyError(f"no braid verdict for pair ({i},{j})")

    def to_json(self) -> dict:
        pairs = [
            {"i": p.i, "j": p.j, "exponent": p.exponent, "holds": p.holds, "witness": p.witness}
            for p in self.pairs
        ]
        return {"holds": self.holds, "pairs": pairs}


# Routines over orbit names, a domain mask and reflections, read by the queries of _Moves.
def generator_perms(reflections: dict, generators: Iterable[int] | None, rank: int):
    """The sorted distinct generators (None: every root) and their reflections."""
    gens = sorted(reflections if generators is None else set(generators))
    for g in gens:
        if g not in reflections:
            raise ValueError(f"root index {_shown(g)} out of range 1..{rank}")
    return gens, [reflections[g] for g in gens]


def check_invariant(names, domain: bytes, gens: Sequence[int], perms) -> None:
    """Refuse ``domain`` if a generator carries one of its points out; the least is named."""
    for g, perm in zip(gens, perms):
        for k in compress(range(len(domain)), domain):
            if not domain[perm[k]]:
                raise ValueError(
                    f"restriction is not invariant: s_{g} moves {_shown(names[k])} to "
                    f"{_shown(names[perm[k]])} outside the subset"
                )


def position(names: Sequence[str], name) -> int:
    """The index of ``name`` in the sorted ``names``, by bisection; -1 if it is not there."""
    try:
        k = bisect_left(names, name)
    except TypeError:  # not comparable with the names, so not one of them
        return -1
    return k if k < len(names) and names[k] == name else -1


def resolve_domain(names: Sequence[str], restrict_to, gens: Sequence[int], perms) -> bytearray:
    """The validated restriction to the sorted ``names`` as a membership mask; None means all.

    A subset must be invariant under the generators; the whole orbit set always is.
    """
    count = len(names)
    if restrict_to is None:
        return bytearray(b"\x01") * count
    domain, unknown = bytearray(count), []
    for name in restrict_to:
        if (k := position(names, name)) < 0:
            unknown.append(name)
        else:
            domain[k] = 1
    if unknown:
        raise ValueError(f"unknown orbit {_shown(min(unknown))} in restriction")
    if domain.count(1) < count:
        check_invariant(names, domain, gens, perms)
    return domain


def braid_report(names, domain: bytes, cartan: CartanSpec, gens: Sequence[int], perms):
    """The verdict of every generator pair on the invariant ``domain``; see ``check_braid``."""
    # The moved points of each reflection in the domain, listed as their images: an
    # involution maps them onto themselves, and the images are ints it already holds.
    points, images = [*compress(count(), domain)], ([*compress(p, domain)] for p in perms)
    moved = [[*compress(row, map(ne, row, points))] for row in images]
    results = []
    for (i, si, mi), (j, sj, mj) in combinations(zip(gens, perms, moved), 2):
        m = cartan.coxeter_exponent(i, j)
        support = ends = [*{*mi, *mj}]
        for _ in range(m):
            ends = [si[sj[x]] for x in ends]
        witness = min(compress(support, map(ne, support, ends)), default=None)
        name = None if witness is None else names[witness]
        results.append(BraidPair(i, j, m, holds=name is None, witness=name))
    return BraidReport(pairs=tuple(results))


def orbit_classes(names, domain: bytes, perms) -> tuple[tuple[str, ...], ...]:
    """Sorted components of the orbits marked in the mask ``domain``, under moves inside it.

    Start points are taken in index order, each unless an earlier component
    holds it, so each component starts at its least point and the components
    come out sorted.
    """
    seen, classes = bytearray(len(domain)), []
    for start in compress(range(len(domain)), domain):
        if seen[start]:
            continue
        seen[start] = 1
        block = [start]
        for current in block:
            for perm in perms:
                image = perm[current]
                if domain[image] and not seen[image]:
                    seen[image] = 1
                    block.append(image)
        block.sort()
        classes.append(tuple(map(names.__getitem__, block)))
    return tuple(classes)


class _Moves:
    """The queries of an orbit source from its ``_names``, ``_reflections`` and ``cartan`` alone.

    The base of :class:`ReflectionTable` and of the pattern sources ``PatternMoves`` and
    ``OpenPatterns``.  ``_domain(names, gens, perms)`` makes a domain argument a mask or
    refuses it, by :func:`resolve_domain` unless a source narrows it.
    """

    def _domain(self, names, gens, perms) -> bytearray:
        return resolve_domain(self._names, names, gens, perms)

    def check_braid(
        self, restrict_to: Iterable[str] | None = None, generators: Iterable[int] | None = None
    ) -> BraidReport:
        """Verify (s_i s_j)^{m_ij} = id for every unordered generator pair.

        With ``restrict_to`` the check runs on that orbit subset, which must
        be invariant under every generator.  ``generators`` defaults to all
        simple roots.

        The composite p = s_i s_j (apply s_j, then s_i) is applied m_ij times
        to the support of the pair, the points s_i or s_j moves: p fixes every
        other point, so the relation holds iff p^m fixes the support.  Each
        pair costs m_ij passes over |supp s_i| + |supp s_j| points, not over
        the orbit count.  On failure the witness is the lexicographically
        least orbit moved by (s_i s_j)^{m_ij}.
        """
        gens, perms = generator_perms(self._reflections, generators, self.cartan.rank)
        domain = self._domain(restrict_to, gens, perms)
        return braid_report(self._names, domain, self.cartan, gens, perms)

    def subgroup_orbits(
        self, generators: Iterable[int] | None, domain: Iterable[str] | None = None
    ) -> tuple[tuple[str, ...], ...]:
        """Orbits of the subgroup generated by the given reflections on ``domain`` (None: all).

        ``generators`` None means every simple root.  Connected components of
        the graph whose edges are the generator moves, computed by
        breadth-first closure; the result does not depend on the order of the
        input.
        """
        gens, perms = generator_perms(self._reflections, generators, self.cartan.rank)
        return orbit_classes(self._names, self._domain(domain, gens, perms), perms)


class TypeCensus(_Record):
    """Tally of span types per root, with the T2-on-maximal-rank flag."""

    __slots__ = ("counts", "t2_on_max_rank")


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    return value


def _json_flag(entry: dict, key: str) -> bool:
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"orbit {key!r} must be true or false, got {_shown(value)}")
    return value


def _json_names(entry: dict, key: str) -> tuple[str, ...]:
    names = entry.get(key, [])
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError(f"span {key!r} must be a list of orbit names, got {_shown(names)}")
    return tuple(names)


def _root_columns(runs, identity: list[int], is_open: bytes, dims):
    """The reflection, link and kind columns of one root, or None when a check fails.

    Every orbit takes exactly one slot (kinds start at 255, which no slot
    has); two slots of one kind are put in index order.  Members map through
    ``identity``, so the columns share one int per orbit.
    """
    perm, link, kind = identity.copy(), identity.copy(), bytearray(b"\xff") * len(identity)
    for edge, opens, lowers, members in runs:
        width = opens + lowers
        if (opens, lowers) != _SLOTS[edge][:2] or len(members) % width:
            return None
        try:  # a member out of range fails as an unsigned int or as an index
            read = [*map(identity.__getitem__, array("I", members))]
        except (OverflowError, IndexError):
            return None
        columns = [read[slot::width] for slot in range(width)]
        for first, size in ((0, opens), (opens, lowers)):
            if size == 2:
                a, b = columns[first : first + 2]
                columns[first : first + 2] = [*map(min, a, b)], [*map(max, a, b)]
        code = _TYPE_CODE[edge] << 2
        for slot, column in enumerate(columns):
            if slot >= opens and any(map(is_open.__getitem__, column)):
                return None
            for k in column:
                if kind[k] != 255:
                    return None
                kind[k] = code + slot
            if width > 1:
                for k, after in zip(column, columns[slot + 1 - width]):
                    link[k] = after
        if edge is EdgeType.U and dims is not None:
            for a, b in zip(*columns):
                if dims[a] is not None and dims[b] is not None and dims[a] != dims[b] + 1:
                    return None
        for x, y in _SLOTS[edge][2]:
            for a, b in zip(columns[x], columns[y]):
                perm[a] = b
                perm[b] = a
    return None if 255 in kind else (perm, array("I", link), bytes(kind))


def _name_runs(orbits: Iterable, spans: Iterable, rank: int):
    """The orbit columns in name order, runs per root, labels and input-order walk of the core.

    ``orbits`` are ``(name, open, max_rank, dim)`` and ``spans`` ``(root, type,
    opens, lowers)``, as records or plain tuples.  The spans of one shape at a
    root form one run, in input order; a name no orbit has gets the next index
    and label, so the core refuses it as unknown.  ``in_order(root)`` yields
    the root's spans as (type, open indices, lower indices), only to word a refusal.
    """
    orbits = sorted(orbits, key=itemgetter(0))
    orbit_columns = tuple(tuple(map(itemgetter(field), orbits)) for field in range(4))
    spans = spans if isinstance(spans, list) else list(spans)
    runs: dict[tuple, list] = {}
    for root, edge, oo, lo in spans:
        members = runs.setdefault((root, edge, len(oo), len(lo)), [])
        members += oo
        members += lo
    index = defaultdict(count(len(orbits)).__next__, zip(orbit_columns[0], count()))
    by_root: dict = {root: [] for root in range(1, rank + 1)}
    for (root, *shape), members in runs.items():
        members[:] = map(index.__getitem__, members)
        # A root out of range enters here in input order; the core refuses it.
        by_root.setdefault(root, []).append((*shape, members))

    def in_order(root):
        for at, edge, oo, lo in spans:
            if at == root:
                yield edge, [*map(index.__getitem__, oo)], [*map(index.__getitem__, lo)]

    return orbit_columns, by_root, tuple(index), in_order


class ReflectionTable(_Moves):
    """Immutable orbit set with a span decomposition per simple root.

    Orbit k is the k-th name in sorted order.  The constructor maps the names
    of its orbits and spans, :class:`Orbit` and :class:`Span` records or plain
    tuples, to indices (:func:`_name_runs`); the pattern and catalog builds pass
    index runs to :meth:`from_columns`.  Both enter one validating core, which
    checks that at each root the spans partition the orbits, that slot counts
    match each span's type, that globally open orbits only occupy open slots,
    and (when dimensions are given) that U-spans step down one dimension.

    Per root the core keeps three columns over the orbits: the reflection, a
    ``list[int]`` involution; the kind, a byte for the type and slot of the
    orbit's span; and the link, the next member of that span, in an
    ``array('I')``.  Spans are made from them on demand and not kept.  Index
    order is name order, so least witnesses and sorted classes need no names.
    """

    def __init__(self, orbits: Iterable[Orbit], cartan: CartanSpec, spans: Iterable[Span]) -> None:
        orbit_columns, columns, labels, in_order = _name_runs(orbits, spans, cartan.rank)
        self._take_orbits(*orbit_columns)
        self._assemble(cartan, columns, in_order, labels)

    @classmethod
    def from_columns(cls, cartan: CartanSpec, columns: dict, names, is_open, max_rank, dims=None):
        """A table from index-form orbits and spans, validated by the same core as the constructor.

        Orbit k is ``names[k]``, in name order, with the k-th open and max-rank flag
        and dim.  ``columns`` maps each root to runs ``(type, opens, lowers, members)``:
        spans of one shape as one flat list or array of orbit indices, ``opens +
        lowers`` per span, open slots first.  A root's runs are dropped once it is made.
        """

        def in_order(root):
            for edge, opens, lowers, members in columns.get(root, ()):
                width = opens + lowers
                for start in range(0, len(members), width) if width else (0,):
                    span = members[start : start + width]
                    yield edge, span[:opens], span[opens:]

        table = cls.__new__(cls)
        table._take_orbits(names, is_open, max_rank, dims)
        table._assemble(cartan, columns, in_order, table._names)
        return table

    def _take_orbits(self, names, is_open, max_rank, dims) -> None:
        """Keep the orbit columns, in name order: names, open and max-rank bytes, dims."""
        names, dims = tuple(names), None if dims is None else tuple(dims)
        opens, max_rank = bytes(map(bool, is_open)), bytes(map(bool, max_rank))
        if not len(names) == len(opens) == len(max_rank) == len(names if dims is None else dims):
            raise ValueError("orbit columns must have one entry per orbit name")
        for k in compress(count(1), map(ge, names, islice(names, 1, None))):
            after = f"{_shown(names[k])} after {_shown(names[k - 1])}"
            order = f"orbits must be in name order, got {after}"
            raise ValueError("orbit names must be unique" if names[k - 1] == names[k] else order)
        if not all(names):
            raise ValueError("orbit name must be nonempty")
        self._names, self._open, self._max_rank = names, opens, max_rank
        for name in compress(names, map(gt, opens, max_rank)):
            raise ValueError(f"open orbit {_shown(name)} must be of maximal rank")
        self._dims = None if dims is None or dims.count(None) == len(dims) else dims

    def _assemble(self, cartan: CartanSpec, columns, in_order, labels: Sequence[str]) -> None:
        """The validating core: check the runs of every root and store its columns.

        Only to word a refusal, ``in_order(root)`` yields the root's spans in
        input order as (type, open indices, lower indices), and ``labels``
        names every index they use.
        """
        for root in columns:
            if root not in range(1, cartan.rank + 1):
                raise ValueError(f"span root {_shown(root)} out of range 1..{cartan.rank}")
        identity, is_open, dims = list(range(len(self._names))), self._open, self._dims
        self._reflections, self._links, self._kinds = {}, {}, {}
        for root in range(1, cartan.rank + 1):
            made = _root_columns(columns.get(root, ()), identity, is_open, dims)
            if made is None:
                raise self._fault(root, in_order(root), labels, is_open, dims)
            self._reflections[root], self._links[root], self._kinds[root] = made
            columns.pop(root, None)  # consumed: a finished root's runs are freed
        self.cartan = cartan

    def _fault(self, root: int, spans, labels: Sequence[str], is_open: bytes, dims) -> ValueError:
        """Why the spans at ``root`` are refused: the first faulty one in input order.

        A span's opens and lowers are each read in name order and its faults
        are tested in a fixed order; spans that pass take their orbits first.
        """
        count = len(is_open)
        held = bytearray(count)

        def label(k: int) -> str:  # an index past the labels is named by its number
            return labels[k] if 0 <= k < len(labels) else f"#{k}"

        for edge, oo, lo in spans:
            opens = len(oo)
            ks = sorted(oo, key=label) + sorted(lo, key=label)
            if len(set(ks)) != len(ks):
                members = _first_ten([*map(label, ks)], "()")
                return ValueError(f"span members must be distinct, got {members}")
            if (opens, len(lo)) != _SLOTS[edge][:2]:
                return ValueError(f"span of type {edge.value} at root {root} has wrong slot counts")
            for slot, k in enumerate(ks):
                name = label(k)
                if not 0 <= k < count:
                    return ValueError(f"span at root {root} names unknown orbit {_shown(name)}")
                if held[k]:
                    return ValueError(f"orbit {_shown(name)} appears in two spans at root {root}")
                if slot >= opens and is_open[k]:
                    return ValueError(
                        f"globally open orbit {_shown(name)} sits in a lower slot at root {root}"
                    )
                held[k] = 1
            if edge is EdgeType.U and dims is not None:
                a, b = dims[ks[0]], dims[ks[1]]
                if a is not None and b is not None and a != b + 1:
                    return ValueError(
                        f"U-span at root {root} pairs dim {_shown(a)} with dim {_shown(b)}; "
                        "lower orbit must be one dimension below the open one"
                    )
        missing = [name for name, covered in zip(self._names, held) if not covered]
        shown = _first_ten(missing, "[]")
        return ValueError(f"orbits not covered by any span at root {root}: {shown}")

    def _spans_at(self, root: int, heads: Iterable[int]):
        """(type, open names, lower names) of the spans at ``root`` led by the orbits ``heads``."""
        kind, link, names = self._kinds[root], self._links[root], self._names
        for k in heads:
            edge, opens, width = _SHAPES[kind[k] >> 2]
            members = [names[k]]
            while len(members) < width:
                k = link[k]
                members.append(names[k])
            yield edge, members[:opens], members[opens:]

    def _heads(self, root: int):
        """The first open orbit of every span at ``root``, in name order."""
        kind = self._kinds[root]
        return compress(range(len(kind)), kind.translate(_FIRST_SLOT))

    @property
    def spans(self) -> dict[int, tuple[Span, ...]]:
        """Per-root span lists, ordered by their first open orbit; made on each call."""
        return {root: self._span_objects(root, self._heads(root)) for root in self._kinds}

    def _span_objects(self, root: int, heads: Iterable[int]) -> tuple[Span, ...]:
        return tuple(Span(root, e, tuple(o), tuple(w)) for e, o, w in self._spans_at(root, heads))

    # -- basic queries ----------------------------------------------------

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def orbits(self) -> tuple[Orbit, ...]:
        """The orbit records in name order, made from the columns on each access."""
        flags = map(bool, self._open), map(bool, self._max_rank)
        return tuple(map(Orbit, self._names, *flags, self._dims or repeat(None)))

    @property
    def open_orbit_names(self) -> tuple[str, ...]:
        return tuple(compress(self._names, self._open))

    def orbit(self, name: str) -> Orbit:
        if (k := position(self._names, name)) < 0:
            raise KeyError(f"unknown orbit {_shown(name)}")
        dim = self._dims[k] if self._dims else None
        return Orbit(self._names[k], bool(self._open[k]), bool(self._max_rank[k]), dim)

    def span_of(self, name: str, root: int) -> Span:
        if (k := position(self._names, name)) < 0 or root not in self._kinds:
            raise ValueError(f"no span for orbit {_shown(name)} at root {root}")
        kind, link = self._kinds[root], self._links[root]
        while kind[k] & 3:  # on to slot 0, the first open orbit
            k = link[k]
        return self._span_objects(root, (k,))[0]

    def reflection_permutation(self, root: int) -> dict[str, str]:
        """The involution induced by s_root on the full orbit set."""
        (perm,) = generator_perms(self._reflections, (root,), self.cartan.rank)[1]
        return dict(zip(self._names, map(self._names.__getitem__, perm)))

    # -- braid relations and orbit enumeration --------------------------------

    # bench/tracing.py wraps these methods as read from the class's own __dict__.
    check_braid, subgroup_orbits = _Moves.check_braid, _Moves.subgroup_orbits

    def real_group_orbit_classes(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the open orbits into real-group orbits.

        Two open orbits are identified when one is reached from the other by
        reflections at roots whose span (at the orbit) is of T- or N-family
        type; U- and P-type roots do not connect open orbits.  Only T2 and N2
        spans actually move open orbits, so the partition is the transitive
        closure of their open-slot swaps.
        """
        opens = self._open
        for root, perm in self._reflections.items():
            kind = self._kinds[root]
            for k in compress(range(len(opens)), opens):
                if kind[k] >> 2 in _MOVES_OPENS and not opens[perm[k]]:
                    span = self.span_of(self._names[k], root).open_orbits
                    raise ValueError(
                        f"T/N reflection s_{root} maps open orbit to non-open "
                        f"within span ({', '.join(map(_shown, span))}); "
                        "table is inconsistent"
                    )
        # A U-span carries an open orbit to a lower one, so the moves that
        # stay among the open orbits are exactly those swaps.
        return orbit_classes(self._names, opens, list(self._reflections.values()))

    # -- diagnostics ---------------------------------------------------------

    def type_census(self) -> TypeCensus:
        """Spans per type and root, counted as the first open orbits in the kind column."""
        counts: dict[int, dict[EdgeType, int]] = {}
        t2_flag = False
        for root, kind in self._kinds.items():
            counts[root] = {t: n for t, code in _TYPE_CODE.items() if (n := kind.count(code << 2))}
            t2_flag = t2_flag or any(compress(self._max_rank, kind.translate(_T2_CELLS)))
        return TypeCensus(counts=counts, t2_on_max_rank=t2_flag)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """The table JSON as a dict: the parse of the text :meth:`iter_json` writes."""
        return json.loads("".join(self.iter_json()))

    @classmethod
    def from_json(cls, obj: dict) -> "ReflectionTable":
        if not isinstance(obj, dict):
            raise ValueError("reflection table JSON must be an object")
        try:
            orbit_objs = obj["orbits"]
            cartan_obj = obj["cartan"]
            span_objs = obj["spans"]
        except KeyError as exc:
            raise ValueError(f"reflection table JSON is missing {exc}") from exc
        if not isinstance(orbit_objs, list) or not isinstance(span_objs, list):
            raise ValueError("reflection table 'orbits' and 'spans' must be lists")
        check_orbit_count(len(orbit_objs), "reflection table")
        orbits = []
        for entry in orbit_objs:
            if not isinstance(entry, dict):
                raise ValueError(f"orbit entry must be an object, got {_shown(entry)}")
            name = entry.get("id")
            if not isinstance(name, str) or not name:
                raise ValueError(f"orbit 'id' must be a nonempty string, got {_shown(name)}")
            flags = _json_flag(entry, "open"), _json_flag(entry, "max_rank")
            dim = _json_int(entry["dim"], "orbit 'dim'") if "dim" in entry else None
            orbits.append((name, *flags, dim))
        spans = []
        for entry in span_objs:
            if not isinstance(entry, dict):
                raise ValueError(f"span entry must be an object, got {_shown(entry)}")
            if "type" not in entry or "root" not in entry:
                raise ValueError(f"span entry needs 'root' and 'type': {_shown(entry)}")
            try:
                edge = _EDGE_TYPES[entry["type"]]
            except (KeyError, TypeError):  # a list or an object is unhashable
                raise ValueError(f"unknown edge type {_shown(entry['type'])}") from None
            root = _json_int(entry["root"], "span 'root'")
            spans.append((root, edge, _json_names(entry, "open"), _json_names(entry, "lower")))
        return cls(orbits=orbits, cartan=CartanSpec.from_json(cartan_obj), spans=spans)

    def iter_json(self) -> Iterator[str]:
        """The table JSON text, as ``json.dumps(..., indent=2, ensure_ascii=False)`` lays it out.

        The object has ``orbits`` (``id``, ``open``, ``max_rank`` and ``dim``
        when known), ``cartan`` and ``spans`` (``root``, ``type``, ``open``
        and ``lower`` when the type has lower slots), spans by root and then
        by first open orbit.  The parts are the orbits and Cartan data, the
        spans of each root, then the close, with no final newline; no dict is
        built and no part holds more than one root.
        """
        p0, p1, p2, p3, p4 = ("\n" + "  " * level for level in range(5))
        orbits = []
        columns = self._names, self._open, self._max_rank, self._dims or repeat(None)
        for name, is_open, max_rank, dim in zip(*columns):
            flags = f'"open": {_JSON_BOOL[is_open]},{p3}"max_rank": {_JSON_BOOL[max_rank]}'
            dim = "" if dim is None else f',{p3}"dim": {json.dumps(dim)}'
            orbits.append(f'{p2}{{{p3}"id": {encode_basestring(name)},{p3}{flags}{dim}{p2}}}')
        orbits_text = f"[{','.join(orbits)}{p1}]" if orbits else "[]"
        cartan = json.dumps(self.cartan.to_json(), indent=2, ensure_ascii=False).replace("\n", p1)
        yield f'{{{p1}"orbits": {orbits_text},{p1}"cartan": {cartan},{p1}"spans": ['
        comma, lower, close = f",{p4}", f'{p3}],{p3}"lower": [{p4}', f"{p3}]{p2}}}"
        sep = ""
        for root in self._kinds:
            head = f'{p2}{{{p3}"root": {root},{p3}"type": '
            start = {e: f'{head}"{e.value}",{p3}"open": [{p4}' for e in _TYPES}
            spans = []
            for edge, opens, lowers in self._spans_at(root, self._heads(root)):
                text = start[edge] + comma.join(map(encode_basestring, opens))
                if lowers:
                    text += lower + comma.join(map(encode_basestring, lowers))
                spans.append(text + close)
            if spans:
                yield sep + ",".join(spans)
                sep = ","
        yield f"{p1 if sep else ''}]{p0}}}"

    def iter_dot(self) -> Iterator[str]:
        """The text of :meth:`to_dot` in parts: the orbits, the edges of each root, the close."""
        yield "graph orbits {\n" + "".join(
            f'  "{name}" [shape={"doublecircle" if is_open else "circle"}];\n'
            for name, is_open in zip(self._names, self._open)
        )
        names = self._names
        for root, perm in self._reflections.items():
            kind, labels = self._kinds[root], [f"s{root}:{edge.value}" for edge in _TYPES]
            yield "".join(
                f'  "{names[k]}" -- "{names[image]}" [label="{labels[kind[k] >> 2]}"];\n'
                for k, image in enumerate(perm)
                if image > k
            )
        yield "}\n"

    def to_dot(self) -> str:
        """Deterministic Graphviz rendering: open orbits doubled, loops omitted.

        Edges are the moves of each reflection, by root and then by the
        smaller orbit; index order is name order, so they come out sorted.
        """
        return "".join(self.iter_dot())
