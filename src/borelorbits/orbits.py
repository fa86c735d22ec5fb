"""Reflection operators on finite sets of real Borel orbits.

A :class:`ReflectionTable` records, for each simple root, how the orbit set
splits into spans and which of the eight real edge types each span carries.
The induced simple-reflection permutations, braid-relation checks, and
orbit enumeration under subgroups of reflections are all computed from this
combinatorial data; the table itself is input, not derived from geometry.
Every table comes from the validating constructor, which stores each
reflection as an involution on orbit indices (orbit k is the k-th name).

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
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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

    @property
    def open_slots(self) -> int:
        return _SLOTS[self][0]

    @property
    def lower_slots(self) -> int:
        return _SLOTS[self][1]

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


# Builders refuse, before allocating, more orbits than this: the n = r = 10
# pattern table (123,109 orbits) fits, n = r = 12 (2,430,355) does not.
MAX_ORBITS = 500_000


def check_orbit_count(count: int, what: str) -> None:
    if count > MAX_ORBITS:
        raise ValueError(f"{what}: {count} orbits is over the orbit limit {MAX_ORBITS}")


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
    enters a table.  Where a type has two open or two lower slots their order
    is canonicalized lexicographically; the reflection treats them
    symmetrically.
    """

    root: int
    type: EdgeType
    open_orbits: tuple[str, ...]
    lower_orbits: tuple[str, ...] = ()

    def normalized(self) -> "Span":
        """Copy with slot tuples sorted; shape is checked at table construction."""
        oo = tuple(sorted(self.open_orbits))
        lo = tuple(sorted(self.lower_orbits))
        if oo == self.open_orbits and lo == self.lower_orbits:
            return self
        return self._replace(open_orbits=oo, lower_orbits=lo)

    @property
    def members(self) -> tuple[str, ...]:
        return self.open_orbits + self.lower_orbits

    def moves(self) -> list[tuple[str, str]]:
        """Unordered pairs swapped by the reflection on this span."""
        out = []
        members = self.open_orbits + self.lower_orbits
        for a, b in _SLOTS[self.type][2]:
            out.append((members[a], members[b]))
        return out

    def to_json(self) -> dict:
        out = {
            "root": self.root,
            "type": self.type.value,
            "open": list(self.open_orbits),
        }
        if self.lower_orbits:
            out["lower"] = list(self.lower_orbits)
        return out


@dataclass(frozen=True)
class BraidPair:
    """Verdict for one unordered pair of simple reflections."""

    i: int
    j: int
    exponent: int
    holds: bool
    witness: str | None = None


@dataclass(frozen=True)
class BraidReport:
    pairs: tuple[BraidPair, ...]

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
        return {
            "holds": self.holds,
            "pairs": [
                {
                    "i": p.i,
                    "j": p.j,
                    "exponent": p.exponent,
                    "holds": p.holds,
                    "witness": p.witness,
                }
                for p in self.pairs
            ],
        }


def _braid_witness(si: list[int], sj: list[int], m: int, support: set[int]) -> int | None:
    """Least index on a cycle of s_i s_j whose length does not divide ``m``.

    ``support`` holds the points s_i or s_j moves, cut down to an invariant
    domain; it is consumed.  Returns None when (s_i s_j)^m = id there.
    """
    witness = None
    while support:
        start = support.pop()
        cycle = [start]
        point = si[sj[start]]
        while point != start:
            cycle.append(point)
            support.discard(point)
            point = si[sj[point]]
        if m % len(cycle):
            least = min(cycle)
            if witness is None or least < witness:
                witness = least
    return witness


@dataclass(frozen=True)
class TypeCensus:
    """Tally of span types per root, with the T2-on-maximal-rank flag."""

    counts: Mapping[int, Mapping[EdgeType, int]]
    t2_on_max_rank: bool

    def to_json(self) -> dict:
        return {
            "counts": {
                str(root): {t.value: n for t, n in sorted(by_type.items(), key=lambda kv: kv[0].value)}
                for root, by_type in sorted(self.counts.items())
            },
            "t2_on_max_rank": self.t2_on_max_rank,
        }


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_flag(entry: dict, key: str) -> bool:
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"orbit {key!r} must be true or false, got {value!r}")
    return value


def _json_names(entry: dict, key: str) -> tuple[str, ...]:
    names = entry.get(key, [])
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError(f"span {key!r} must be a list of orbit names, got {names!r}")
    return tuple(names)


def _span_fault(span: Span, root: int, slot: int, index, cell, dims) -> ValueError:
    """Why ``span`` cannot join the spans at ``root``; its members before ``slot`` passed.

    Faults are tested in a fixed order, so a span with several reports one.
    """
    members = span.members
    if len(set(members)) != len(members):
        return ValueError(f"span members must be distinct, got {members}")
    opens, lowers, _ = _SLOTS[span.type]
    if len(span.open_orbits) != opens or len(span.lower_orbits) != lowers:
        return ValueError(f"span of type {span.type.value} at root {root} has wrong slot counts")
    if slot < len(members):
        name = members[slot]
        if name not in index:
            return ValueError(f"span at root {root} names unknown orbit {name!r}")
        if cell[index[name]] is not None:
            return ValueError(f"orbit {name!r} appears in two spans at root {root}")
        return ValueError(f"globally open orbit {name!r} sits in a lower slot at root {root}")
    return ValueError(
        f"U-span at root {root} pairs dim {dims[index[members[0]]]} with dim "
        f"{dims[index[members[1]]]}; lower orbit must be one dimension below the open one"
    )


class ReflectionTable:
    """Immutable orbit set with a span decomposition per simple root.

    Construction validates that, for each root, the spans partition the orbit
    set, that slot counts match each span's type, that globally open orbits
    only ever occupy open slots, and (when dimensions are given) that U-spans
    pair an orbit of dimension d with one of dimension d-1.  There is no other
    way to make a table.

    Orbit k is the k-th name in sorted order, and each reflection is a
    ``list[int]`` involution on the indices.  Index order is name order, so
    least witnesses and sorted classes need no names; names are made only for
    results and error messages.
    """

    def __init__(
        self,
        orbits: Iterable[Orbit],
        cartan: CartanSpec,
        spans: Iterable[Span],
    ) -> None:
        orbit_list = sorted(orbits, key=lambda o: o.name)
        names = tuple(o.name for o in orbit_list)
        # The per-root lists start as copies of one identity list, so all of
        # them share its int objects.
        identity = list(range(len(names)))
        index = dict(zip(names, identity))
        if len(index) != len(names):
            raise ValueError("orbit names must be unique")
        for o in orbit_list:
            if not o.name:
                raise ValueError("orbit name must be nonempty")
            if o.is_open and not o.is_max_rank:
                raise ValueError(f"open orbit {o.name!r} must be of maximal rank")

        by_root: dict[int, list[Span]] = {i: [] for i in range(1, cartan.rank + 1)}
        for span in spans:
            root_spans = by_root.get(span.root)
            if root_spans is None:
                raise ValueError(f"span root {span.root} out of range 1..{cartan.rank}")
            root_spans.append(span)

        # One pass per root fills the involution and the span held at each
        # index; a failed check hands the span to _span_fault for the error.
        is_open = [o.is_open for o in orbit_list]
        dims = [o.dim for o in orbit_list]
        lookup, slots = index.get, _SLOTS
        self._reflections: dict[int, list[int]] = {}
        self._span_at: dict[int, list[Span]] = {}
        for root, root_spans in by_root.items():
            perm = identity.copy()
            cell: list = [None] * len(names)
            for span in root_spans:
                _, edge, oo, lo = span
                opens, lowers, swaps = slots[edge]
                if len(oo) != opens or len(lo) != lowers:
                    raise _span_fault(span.normalized(), root, 0, index, cell, dims)
                if not lowers:  # P, T0, N0: one fixed orbit
                    k = lookup(oo[0])
                    if k is None or cell[k] is not None:
                        raise _span_fault(span, root, 0, index, cell, dims)
                    cell[k] = span
                    continue
                if opens == 1 == lowers:  # U, N1, N
                    a, b = lookup(oo[0]), lookup(lo[0])
                    if a is None or cell[a] is not None:
                        raise _span_fault(span, root, 0, index, cell, dims)
                    cell[a] = span
                    if b is None or cell[b] is not None or is_open[b]:
                        raise _span_fault(span, root, 1, index, cell, dims)
                    cell[b] = span
                    if swaps:  # U: the open orbit sits one dimension above the lower
                        perm[a], perm[b] = b, a
                        if dims[a] is not None and dims[b] is not None and dims[a] != dims[b] + 1:
                            raise _span_fault(span, root, 2, index, cell, dims)
                    continue
                if (opens == 2 and oo[0] > oo[1]) or (lowers == 2 and lo[0] > lo[1]):
                    span = span.normalized()
                    oo, lo = span.open_orbits, span.lower_orbits
                ks = []
                for slot, name in enumerate(oo + lo):
                    k = lookup(name)
                    if k is None or cell[k] is not None or (slot >= opens and is_open[k]):
                        raise _span_fault(span, root, slot, index, cell, dims)
                    cell[k] = span
                    ks.append(k)
                for x, y in swaps:
                    perm[ks[x]], perm[ks[y]] = ks[y], ks[x]
            if None in cell:
                missing = [name for name, held in zip(names, cell) if held is None]
                raise ValueError(f"orbits not covered by any span at root {root}: {missing}")
            self._reflections[root] = perm
            self._span_at[root] = cell

        self.orbits: tuple[Orbit, ...] = tuple(orbit_list)
        self.cartan = cartan
        self._names = names
        self._index = index
        self._spans: dict[int, tuple[Span, ...]] | None = None
        self._real_classes: tuple[tuple[str, ...], ...] | None = None

    @property
    def spans(self) -> dict[int, tuple[Span, ...]]:
        """Per-root span lists, ordered by their first open orbit."""
        if self._spans is None:
            self._spans = {
                root: tuple(
                    span for name, span in zip(self._names, cell) if span.open_orbits[0] == name
                )
                for root, cell in self._span_at.items()
            }
        return self._spans

    def _reflection(self, root: int) -> list[int]:
        try:
            return self._reflections[root]
        except KeyError:
            raise ValueError(f"root index {root} out of range 1..{self.cartan.rank}") from None

    # -- basic queries ----------------------------------------------------

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def open_orbit_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.orbits if o.is_open)

    def orbit(self, name: str) -> Orbit:
        return self.orbits[self._index[name]]

    def span_of(self, name: str, root: int) -> Span:
        try:
            return self._span_at[root][self._index[name]]
        except KeyError:
            raise ValueError(f"no span for orbit {name!r} at root {root}") from None

    def reflection_permutation(self, root: int) -> dict[str, str]:
        """The involution induced by s_root on the full orbit set."""
        names = self._names
        return dict(zip(names, [names[k] for k in self._reflection(root)]))

    # -- braid relations ---------------------------------------------------

    def check_braid(
        self,
        restrict_to: Iterable[str] | None = None,
        generators: Iterable[int] | None = None,
    ) -> BraidReport:
        """Verify (s_i s_j)^{m_ij} = id for every unordered generator pair.

        With ``restrict_to`` the check runs on that orbit subset, which must
        be invariant under every generator.  ``generators`` defaults to all
        simple roots.

        The composite p = s_i s_j (apply s_j, then s_i) is split into cycles;
        p^m moves exactly the points on cycles whose length does not divide
        m, so the relation holds iff every cycle length divides m_ij.  Only
        points moved by s_i or s_j can be moved by p, so each pair costs work
        proportional to |supp s_i| + |supp s_j|, not to the orbit count.  On
        failure the witness is the lexicographically least orbit on such a
        cycle, i.e. the least orbit moved by (s_i s_j)^{m_ij}.
        """
        gens = sorted(set(generators)) if generators is not None else sorted(self._reflections)
        perms = [self._reflection(g) for g in gens]
        domain = self._resolve_domain(restrict_to, gens, perms)
        moved = [[k for k in domain if perm[k] != k] for perm in perms]
        results = []
        for x in range(len(gens)):
            for y in range(x + 1, len(gens)):
                i, j = gens[x], gens[y]
                m = self.cartan.coxeter_exponent(i, j)
                witness = _braid_witness(perms[x], perms[y], m, {*moved[x], *moved[y]})
                name = None if witness is None else self._names[witness]
                results.append(BraidPair(i, j, m, holds=name is None, witness=name))
        return BraidReport(pairs=tuple(results))

    def _resolve_domain(
        self, restrict_to: Iterable[str] | None, gens: Sequence[int], perms: Sequence[list[int]]
    ) -> set[int]:
        """The validated restriction as a set of indices; None means all orbits.

        A subset is invariant when no generator carries one of its points
        outside it; the whole orbit set always is.
        """
        if restrict_to is None:
            return set(range(len(self._names)))
        subset = set(restrict_to)
        unknown = [name for name in subset if name not in self._index]
        if unknown:
            raise ValueError(f"unknown orbit {min(unknown)!r} in restriction")
        domain = {self._index[name] for name in subset}
        if len(domain) == len(self._names):
            return domain
        for g, perm in zip(gens, perms):
            escaped = [k for k in domain if perm[k] not in domain]
            if escaped:
                k = min(escaped)
                raise ValueError(
                    f"restriction is not invariant: s_{g} moves {self._names[k]!r} to "
                    f"{self._names[perm[k]]!r} outside the subset"
                )
        return domain

    # -- orbit enumeration ---------------------------------------------------

    def subgroup_orbits(
        self, generators: Iterable[int], domain: Iterable[str]
    ) -> tuple[tuple[str, ...], ...]:
        """Orbits of the subgroup generated by the given reflections on ``domain``.

        Connected components of the graph whose edges are the generator moves,
        computed by breadth-first closure; the result does not depend on the
        order of the input.
        """
        gens = sorted(set(generators))
        perms = [self._reflection(g) for g in gens]
        return self._classes(self._resolve_domain(domain, gens, perms), perms)

    def real_group_orbit_classes(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the open orbits into real-group orbits.

        Two open orbits are identified when one is reached from the other by
        reflections at roots whose span (at the orbit) is of T- or N-family
        type; U- and P-type roots do not connect open orbits.  Only T2 and N2
        spans actually move open orbits, so the partition is the transitive
        closure of their open-slot swaps.
        """
        if self._real_classes is None:
            opens = {k for k, o in enumerate(self.orbits) if o.is_open}
            for root, perm in self._reflections.items():
                for k in sorted(opens):
                    span = self._span_at[root][k]
                    if span.type in (EdgeType.T2, EdgeType.N2) and perm[k] not in opens:
                        raise ValueError(
                            f"T/N reflection s_{root} maps open orbit to non-open "
                            f"within span {span.open_orbits}; table is inconsistent"
                        )
            # A U-span carries an open orbit to a lower one, so the moves that
            # stay among the open orbits are exactly those swaps.
            self._real_classes = self._classes(opens, list(self._reflections.values()))
        return self._real_classes

    def _classes(self, domain: set[int], perms: list[list[int]]) -> tuple[tuple[str, ...], ...]:
        """Sorted components of ``domain`` under the moves that stay inside it."""
        unvisited = set(domain)
        classes = []
        while unvisited:
            start = unvisited.pop()
            block = {start}
            queue = [start]
            while queue:
                current = queue.pop()
                for perm in perms:
                    image = perm[current]
                    if image not in block and image in domain:
                        block.add(image)
                        queue.append(image)
            unvisited -= block
            classes.append(sorted(block))
        classes.sort()
        return tuple(tuple(self._names[k] for k in block) for block in classes)

    # -- diagnostics ---------------------------------------------------------

    def type_census(self) -> TypeCensus:
        counts: dict[int, dict[EdgeType, int]] = {}
        t2_flag = False
        for root, root_spans in self.spans.items():
            tally: dict[EdgeType, int] = {}
            for span in root_spans:
                tally[span.type] = tally.get(span.type, 0) + 1
                if span.type is EdgeType.T2 and any(
                    self.orbit(name).is_max_rank for name in span.members
                ):
                    t2_flag = True
            counts[root] = tally
        return TypeCensus(counts=counts, t2_on_max_rank=t2_flag)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        orbit_objs = []
        for o in self.orbits:
            entry = {"id": o.name, "open": o.is_open, "max_rank": o.is_max_rank}
            if o.dim is not None:
                entry["dim"] = o.dim
            orbit_objs.append(entry)
        span_objs = [
            span.to_json() for root in sorted(self.spans) for span in self.spans[root]
        ]
        return {"orbits": orbit_objs, "cartan": self.cartan.to_json(), "spans": span_objs}

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
        orbits = []
        for entry in orbit_objs:
            if not isinstance(entry, dict):
                raise ValueError(f"orbit entry must be an object, got {entry!r}")
            name = entry.get("id")
            if not isinstance(name, str) or not name:
                raise ValueError(f"orbit 'id' must be a nonempty string, got {name!r}")
            orbits.append(
                Orbit(
                    name=name,
                    is_open=_json_flag(entry, "open"),
                    is_max_rank=_json_flag(entry, "max_rank"),
                    dim=_json_int(entry["dim"], "orbit 'dim'") if "dim" in entry else None,
                )
            )
        spans = []
        for entry in span_objs:
            if not isinstance(entry, dict):
                raise ValueError(f"span entry must be an object, got {entry!r}")
            if "type" not in entry or "root" not in entry:
                raise ValueError(f"span entry needs 'root' and 'type': {entry!r}")
            try:
                edge = EdgeType(entry["type"])
            except ValueError:
                raise ValueError(f"unknown edge type {entry.get('type')!r}") from None
            spans.append(
                Span(
                    root=_json_int(entry["root"], "span 'root'"),
                    type=edge,
                    open_orbits=_json_names(entry, "open"),
                    lower_orbits=_json_names(entry, "lower"),
                )
            )
        return cls(orbits=orbits, cartan=CartanSpec.from_json(cartan_obj), spans=spans)

    def to_dot(self) -> str:
        """Deterministic Graphviz rendering: open orbits doubled, loops omitted.

        Edges are the moves of each reflection, by root and then by the
        smaller orbit; index order is name order, so they come out sorted.
        """
        lines = ["graph orbits {"]
        for o in self.orbits:
            shape = "doublecircle" if o.is_open else "circle"
            lines.append(f'  "{o.name}" [shape={shape}];')
        names = self._names
        for root, perm in self._reflections.items():
            cell = self._span_at[root]
            for k, image in enumerate(perm):
                if image > k:
                    label = f"s{root}:{cell[k].type.value}"
                    lines.append(f'  "{names[k]}" -- "{names[image]}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
