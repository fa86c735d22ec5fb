"""Reflection operators on finite sets of real Borel orbits.

A :class:`ReflectionTable` records, for each simple root, how the orbit set
splits into spans and which of the eight real edge types each span carries.
The induced simple-reflection permutations, braid-relation checks, and
orbit enumeration under subgroups of reflections are all computed from this
combinatorial data; the table itself is input, not derived from geometry.

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


def _braid_witness(
    mi: Mapping[str, str], mj: Mapping[str, str], m: int, domain: set[str] | None
) -> str | None:
    """Least point on a cycle of s_i s_j whose length does not divide ``m``.

    ``mi`` and ``mj`` hold only the points each involution moves; ``domain``,
    when given, is invariant under both.  Returns None when (s_i s_j)^m = id.
    """
    support = mi.keys() | mj.keys()
    if domain is not None:
        support &= domain
    witness = None
    while support:
        start = support.pop()
        cycle = [start]
        z = mj.get(start, start)
        point = mi.get(z, z)
        while point != start:
            cycle.append(point)
            support.discard(point)
            z = mj.get(point, point)
            point = mi.get(z, z)
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


class ReflectionTable:
    """Immutable orbit set with a span decomposition per simple root.

    Construction validates that, for each root, the spans partition the orbit
    set, that slot counts match each span's type, that globally open orbits
    only ever occupy open slots, and (when dimensions are given) that U-spans
    pair an orbit of dimension d with one of dimension d-1.
    """

    def __init__(
        self,
        orbits: Iterable[Orbit],
        cartan: CartanSpec,
        spans: Iterable[Span],
    ) -> None:
        orbit_list = sorted(orbits, key=lambda o: o.name)
        by_name = {o.name: o for o in orbit_list}
        if len(by_name) != len(orbit_list):
            raise ValueError("orbit names must be unique")
        for o in orbit_list:
            if not o.name:
                raise ValueError("orbit name must be nonempty")
            if o.is_open and not o.is_max_rank:
                raise ValueError(f"open orbit {o.name!r} must be of maximal rank")

        by_root: dict[int, list[Span]] = {i: [] for i in range(1, cartan.rank + 1)}
        for span in spans:
            if span.root not in by_root:
                raise ValueError(f"span root {span.root} out of range 1..{cartan.rank}")
            by_root[span.root].append(span.normalized())

        span_by_root: dict[int, dict[str, Span]] = {}
        all_moves: dict[int, dict[str, str]] = {}
        orbit_count = len(by_name)
        for root, root_spans in by_root.items():
            cell: dict[str, Span] = {}
            moves: dict[str, str] = {}
            for span in root_spans:
                edge = span.type
                members = span.open_orbits + span.lower_orbits
                if len(members) > 1 and len(set(members)) != len(members):
                    raise ValueError(f"span members must be distinct, got {members}")
                oo = span.open_orbits
                lo = span.lower_orbits
                opens, lowers, swaps = _SLOTS[edge]
                if len(oo) != opens or len(lo) != lowers:
                    raise ValueError(
                        f"span of type {edge.value} at root {root} has wrong slot counts"
                    )
                for name in oo:
                    if name in cell:
                        raise ValueError(
                            f"orbit {name!r} appears in two spans at root {root}"
                        )
                    if name not in by_name:
                        raise ValueError(f"span at root {root} names unknown orbit {name!r}")
                    cell[name] = span
                for name in lo:
                    if name in cell:
                        raise ValueError(
                            f"orbit {name!r} appears in two spans at root {root}"
                        )
                    orbit = by_name.get(name)
                    if orbit is None:
                        raise ValueError(f"span at root {root} names unknown orbit {name!r}")
                    if orbit.is_open:
                        raise ValueError(
                            f"globally open orbit {name!r} sits in a lower slot at root {root}"
                        )
                    cell[name] = span
                if edge is EdgeType.U:
                    od = by_name[oo[0]].dim
                    ld = by_name[lo[0]].dim
                    if od is not None and ld is not None and od != ld + 1:
                        raise ValueError(
                            f"U-span at root {root} pairs dim {od} with dim {ld}; "
                            "lower orbit must be one dimension below the open one"
                        )
                for a, b in swaps:
                    moves[members[a]] = members[b]
                    moves[members[b]] = members[a]
            if len(cell) != orbit_count:
                missing = set(by_name) - set(cell)
                raise ValueError(
                    f"orbits not covered by any span at root {root}: {sorted(missing)}"
                )
            span_by_root[root] = cell
            all_moves[root] = moves

        self._assign(tuple(orbit_list), by_name, cartan, by_root, span_by_root, all_moves)

    @classmethod
    def _from_trusted_parts(
        cls,
        orbits: list[Orbit],
        cartan: CartanSpec,
        spans_by_root: dict[int, list[Span]],
        moves: dict[int, dict[str, str]],
    ) -> "ReflectionTable":
        # Bulk builders that guarantee the partition invariants by
        # construction may skip re-validation; their output is checked
        # against the validating constructor in the test suite.
        self = object.__new__(cls)
        orbit_list = sorted(orbits, key=lambda o: o.name)
        by_name = {o.name: o for o in orbit_list}
        self._assign(tuple(orbit_list), by_name, cartan, spans_by_root, None, moves)
        return self

    def _assign(self, orbits, by_name, cartan, spans_by_root, span_by_root, moves) -> None:
        self.orbits: tuple[Orbit, ...] = orbits
        self.cartan = cartan
        self._spans_raw = spans_by_root
        self._spans_sorted: dict[int, tuple[Span, ...]] | None = None
        self._by_name = by_name
        self._span_by_root = span_by_root
        self._real_classes: tuple[tuple[str, ...], ...] | None = None
        # Sparse involutions: only moved orbits are stored; lookups fall back
        # to the identity.
        self._moves = moves

    @property
    def spans(self) -> dict[int, tuple[Span, ...]]:
        """Per-root span lists, deterministically ordered."""
        if self._spans_sorted is None:
            self._spans_sorted = {
                root: tuple(sorted(lst, key=lambda s: s.open_orbits[0]))
                for root, lst in self._spans_raw.items()
            }
        return self._spans_sorted

    def _cells(self) -> dict[int, dict[str, Span]]:
        if self._span_by_root is None:
            cells: dict[int, dict[str, Span]] = {}
            for root, root_spans in self._spans_raw.items():
                cell: dict[str, Span] = {}
                for span in root_spans:
                    for name in span.open_orbits:
                        cell[name] = span
                    for name in span.lower_orbits:
                        cell[name] = span
                cells[root] = cell
            self._span_by_root = cells
        return self._span_by_root

    # -- basic queries ----------------------------------------------------

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.orbits)

    @property
    def open_orbit_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.orbits if o.is_open)

    def orbit(self, name: str) -> Orbit:
        return self._by_name[name]

    def span_of(self, name: str, root: int) -> Span:
        try:
            return self._cells()[root][name]
        except KeyError:
            raise ValueError(f"no span for orbit {name!r} at root {root}") from None

    def reflection_permutation(self, root: int) -> dict[str, str]:
        """The involution induced by s_root on the full orbit set."""
        if root not in self._moves:
            raise ValueError(f"root index {root} out of range 1..{self.cartan.rank}")
        moves = self._moves[root]
        return {name: moves.get(name, name) for name in self._by_name}

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
        gens = sorted(set(generators)) if generators is not None else sorted(self._moves)
        for g in gens:
            if g not in self._moves:
                raise ValueError(f"root index {g} out of range 1..{self.cartan.rank}")
        domain = self._resolve_domain(restrict_to, gens)
        results = []
        for x in range(len(gens)):
            for y in range(x + 1, len(gens)):
                i, j = gens[x], gens[y]
                m = self.cartan.coxeter_exponent(i, j)
                witness = _braid_witness(self._moves[i], self._moves[j], m, domain)
                results.append(
                    BraidPair(i=i, j=j, exponent=m, holds=witness is None, witness=witness)
                )
        return BraidReport(pairs=tuple(results))

    def _resolve_domain(
        self, restrict_to: Iterable[str] | None, gens: Sequence[int]
    ) -> set[str] | None:
        """The validated restriction as a set, or None for the whole orbit set.

        A generator can only carry a name out of the subset if it moves that
        name, so invariance is checked on each generator's moved points.
        """
        if restrict_to is None:
            return None
        domain = set(restrict_to)
        unknown = [name for name in domain if name not in self._by_name]
        if unknown:
            raise ValueError(f"unknown orbit {min(unknown)!r} in restriction")
        for g in gens:
            moves = self._moves[g]
            # Scan whichever is smaller: the moved points or the subset.
            escaped = [
                name
                for name in min(moves, domain, key=len)
                if name in domain and moves.get(name, name) not in domain
            ]
            if escaped:
                name = min(escaped)
                raise ValueError(
                    f"restriction is not invariant: s_{g} moves {name!r} to "
                    f"{moves[name]!r} outside the subset"
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
        for g in gens:
            if g not in self._moves:
                raise ValueError(f"root index {g} out of range 1..{self.cartan.rank}")
        unvisited = self._resolve_domain(domain, gens)
        if unvisited is None:
            unvisited = set(self._by_name)
        move_maps = [self._moves[g] for g in gens]
        classes = []
        while unvisited:
            start = unvisited.pop()
            block = {start}
            queue = [start]
            while queue:
                current = queue.pop()
                for moves in move_maps:
                    image = moves.get(current, current)
                    if image not in block:
                        block.add(image)
                        queue.append(image)
            unvisited -= block
            classes.append(tuple(sorted(block)))
        return tuple(sorted(classes))

    def real_group_orbit_classes(self) -> tuple[tuple[str, ...], ...]:
        """Partition of the open orbits into real-group orbits.

        Two open orbits are identified when one is reached from the other by
        reflections at roots whose span (at the orbit) is of T- or N-family
        type; U- and P-type roots do not connect open orbits.  Only T2 and N2
        spans actually move open orbits, so the partition is the transitive
        closure of their open-slot swaps.
        """
        if self._real_classes is not None:
            return self._real_classes
        opens = self.open_orbit_names
        open_set = set(opens)
        parent = {name: name for name in opens}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for root, root_spans in self._spans_raw.items():
            for span in root_spans:
                if span.type not in (EdgeType.T2, EdgeType.N2):
                    continue
                a, b = span.open_orbits
                a_open = a in open_set
                if a_open != (b in open_set):
                    raise ValueError(
                        f"T/N reflection s_{root} maps open orbit to non-open "
                        f"within span {span.open_orbits}; table is inconsistent"
                    )
                if a_open:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[rb] = ra
        blocks: dict[str, list[str]] = {}
        for name in opens:
            blocks.setdefault(find(name), []).append(name)
        self._real_classes = tuple(sorted(tuple(sorted(block)) for block in blocks.values()))
        return self._real_classes

    # -- diagnostics ---------------------------------------------------------

    def type_census(self) -> TypeCensus:
        counts: dict[int, dict[EdgeType, int]] = {}
        t2_flag = False
        for root, root_spans in self.spans.items():
            tally: dict[EdgeType, int] = {}
            for span in root_spans:
                tally[span.type] = tally.get(span.type, 0) + 1
                if span.type is EdgeType.T2 and any(
                    self._by_name[name].is_max_rank for name in span.members
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
        """Deterministic Graphviz rendering: open orbits doubled, loops omitted."""
        lines = ["graph orbits {"]
        for o in self.orbits:
            shape = "doublecircle" if o.is_open else "circle"
            lines.append(f'  "{o.name}" [shape={shape}];')
        edges = []
        for root in sorted(self.spans):
            for span in self.spans[root]:
                for a, b in span.moves():
                    lo, hi = min(a, b), max(a, b)
                    edges.append((root, lo, hi, span.type.value))
        for root, lo, hi, type_name in sorted(edges):
            lines.append(f'  "{lo}" -- "{hi}" [label="s{root}:{type_name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
