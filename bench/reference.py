"""Independent references for checking the program's outputs.

Nothing here imports ``borelorbits``.  Every reference is either a closed
formula the paper states or a small computation written from the
documented model, so a defect in the library cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
import random
import re

# -- exact integers ------------------------------------------------------------

_DIGIT_CHUNK = 4000  # below the interpreter's default int/str conversion limit


def parse_int(text: str) -> int:
    """``int(text)`` without tripping the interpreter's int/str digit limit."""
    digits = text.lstrip("-")
    if len(digits) <= _DIGIT_CHUNK:
        return int(text)
    value = 0
    for start in range(0, len(digits), _DIGIT_CHUNK):
        chunk = digits[start : start + _DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def loads(text: str):
    return json.loads(text, parse_int=parse_int)


def det(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            if factor == 0:
                if pivot != prev:
                    a[i] = [x * pivot // prev for x in row]
                continue
            a[i] = [
                (x * pivot - factor * y) // prev for x, y in zip(row, pivot_row)
            ]
        prev = pivot
    return sign * a[-1][-1] if n else 1


def matmul(left: list[list[int]], right: list[list[int]]) -> list[list[int]]:
    """Exact product that skips zero entries of ``left``; sparse inputs stay cheap."""
    width = len(right[0])
    out = []
    for row in left:
        acc = [0] * width
        for x, other in zip(row, right):
            if x:
                acc = [s + x * y for s, y in zip(acc, other)]
        out.append(acc)
    return out


def max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


# -- seeded inputs ---------------------------------------------------------------


def dense_matrix(seed: int, k: int) -> list[list[int]]:
    """A nonsingular k x k matrix with entries in [-50, 50], drawn from the seed."""
    rng = random.Random(f"{seed}:dense:{k}")
    while True:
        rows = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(k)]
        if det(rows):
            return rows


def _char_lattice_row(eps: list[int]) -> list[int]:
    # sum c_i eps_i in the basis (eps_1, ..., eps_{n-1}, (eps_1 + ... + eps_n)/2)
    last = eps[-1]
    return [c - last for c in eps[:-1]] + [2 * last]


def unordered_pairs_sublattice(n: int) -> list[list[int]]:
    """Weight-sublattice basis of the unordered-pairs family, from its closed form.

    Rows eps_i - eps_{i+2} (i = 1..n-2), then eps_{n-1} and 2 eps_n.
    """
    rows = []
    for i in range(1, n - 1):
        eps = [0] * n
        eps[i - 1], eps[i + 1] = 1, -1
        rows.append(_char_lattice_row(eps))
    for pos, coeff in ((n - 1, 1), (n, 2)):
        eps = [0] * n
        eps[pos - 1] = coeff
        rows.append(_char_lattice_row(eps))
    return rows


# -- Cartan data -------------------------------------------------------------------


def coxeter_exponent(letter: str, rank: int, i: int, j: int) -> int:
    """m_ij for the classical chains A and B (last root short) and for G2."""
    i, j = min(i, j), max(i, j)
    if letter == "G":
        return 6
    if j - i != 1:
        return 2
    if letter == "B" and j == rank:
        return 4
    return 3


def braid_pairs(letter: str, rank: int):
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            yield i, j, coxeter_exponent(letter, rank, i, j)


def braid_text(verdicts) -> str:
    """Text form of ``braid-check``: one line per pair, then the overall verdict."""
    lines = [
        f"s{i},s{j}: m={m} " + ("ok" if witness is None else f"FAIL witness={witness}")
        for i, j, m, witness in verdicts
    ]
    holds = all(witness is None for *_, witness in verdicts)
    lines.append("braid relations hold" if holds else "braid relations fail")
    return "\n".join(lines) + "\n"


def braid_json(verdicts) -> dict:
    return {
        "holds": all(witness is None for *_, witness in verdicts),
        "pairs": [
            {"i": i, "j": j, "exponent": m, "holds": witness is None, "witness": witness}
            for i, j, m, witness in verdicts
        ],
    }


def torus_verdicts(letter: str, rank: int):
    """Sign flips: (s_i s_j)^m = id exactly for even m; else every open orbit moves.

    The witness is the least moved name, the all-plus tuple.
    """
    return [
        (i, j, m, None if m % 2 == 0 else "+" * rank)
        for i, j, m in braid_pairs(letter, rank)
    ]


# -- signed patterns ----------------------------------------------------------------


def pattern_count(n: int, r: int) -> int:
    """C(n,r) * sum_k C(r,2k) (2k-1)!! 2^(r-2k)."""
    total = 0
    for k in range(r // 2 + 1):
        matchings = math.prod(range(1, 2 * k, 2))
        total += math.comb(r, 2 * k) * matchings * 2 ** (r - 2 * k)
    return math.comb(n, r) * total


def orbit_class_count(r: int) -> int:
    """Orbits of the full symmetric group on rank-r patterns: sum_a (r - 2a + 1)."""
    return sum(r - 2 * a + 1 for a in range(r // 2 + 1))


_ARC_RE = re.compile(r"\[(\d+),(\d+)\]")


def pattern_invariant(text: str, n: int, r: int) -> tuple[int, int, int]:
    """(plus, minus, arcs) of a signed pattern, after checking its shape.

    Raises ``ValueError`` when the text is not a rank-r signed pattern on n
    positions whose arcs pair up exactly its dot entries.
    """
    entries, _, arc_text = text.partition(" ")
    if len(entries) != n or set(entries) - set("0+-•"):
        raise ValueError(f"bad pattern entries {text!r}")
    arcs = [(int(j), int(k)) for j, k in _ARC_RE.findall(arc_text)]
    if "".join(f"[{j},{k}]" for j, k in arcs) != arc_text:
        raise ValueError(f"bad arc list {text!r}")
    ends = sorted(p for arc in arcs for p in arc)
    dots = [p for p, e in enumerate(entries, start=1) if e == "•"]
    if ends != dots or any(j >= k for j, k in arcs) or arcs != sorted(arcs):
        raise ValueError(f"arcs do not pair the dots of {text!r}")
    plus, minus = entries.count("+"), entries.count("-")
    if plus + minus + len(dots) != r:
        raise ValueError(f"pattern {text!r} does not have rank {r}")
    return plus, minus, len(arcs)


# -- isotropic-pair families ------------------------------------------------------------


def pairs_model(n: int, ordered: bool):
    """Orbits and reflection swaps of the ordered/unordered isotropic-pair tables.

    Written from the documented diagrams: per open orbit O a ladder of
    U-partners O_i swapped at the long roots i, T1 lowers O_i^+, O_i^- swapped
    at root i+1, and at the short root n either T2 (ordered: the two opens
    and O_n^+, O_n^- swap) or N2/N1 (unordered).  Unordered pairs have four
    open orbits when n mod 4 is 0 or 3, and two otherwise.

    Returns ``(orbits, edges)``: orbit name -> open flag, and a list of
    ``(root, a, b, type)`` swaps.
    """
    if ordered:
        blocks = [("", "'")]
    elif n % 4 in (0, 3):
        blocks = [("", "'"), ("''", "'''")]
    else:
        blocks = [("",), ("''",)]
    orbits: dict[str, bool] = {}
    edges = []
    for block in blocks:
        for p in block:
            orbits[f"O{p}"] = True
            for i in range(1, n):
                orbits[f"O{p}_{i}"] = False
                edges.append((i, f"O{p}", f"O{p}_{i}", "U"))
            ladder_end = n if ordered else n - 1
            for i in range(1, ladder_end):
                a, b = f"O{p}_{i}^+", f"O{p}_{i}^-"
                orbits[a] = orbits[b] = False
                edges.append((i + 1, a, b, "T1"))
            if not ordered:
                orbits[f"O{p}_{n - 1}^0"] = False
        head = f"O{block[0]}"
        if ordered:
            orbits[f"{head}_{n}^+"] = orbits[f"{head}_{n}^-"] = False
            edges.append((n, f"O{block[0]}", f"O{block[1]}", "T2"))
            edges.append((n, f"{head}_{n}^+", f"{head}_{n}^-", "T2"))
        else:
            orbits[f"{head}_{n}"] = False
            if len(block) == 2:
                edges.append((n, f"O{block[0]}", f"O{block[1]}", "N2"))
    return orbits, edges


def model_moves(edges, rank: int) -> dict[int, dict[str, str]]:
    moves: dict[int, dict[str, str]] = {root: {} for root in range(1, rank + 1)}
    for root, a, b, _ in edges:
        moves[root][a] = b
        moves[root][b] = a
    return moves


def model_verdicts(moves, letter: str, rank: int):
    """Braid verdicts on the whole orbit set, tracing only orbits either root moves."""
    out = []
    for i, j, m in braid_pairs(letter, rank):
        mi, mj = moves[i], moves[j]
        moved = []
        for start in set(mi) | set(mj):
            x = start
            for _ in range(m):
                x = mj.get(x, x)
                x = mi.get(x, x)
            if x != start:
                moved.append(start)
        out.append((i, j, m, min(moved) if moved else None))
    return out


def dot_text(orbits: dict[str, bool], edges) -> str:
    """Graphviz rendering in the CLI's format: sorted nodes, sorted labelled edges."""
    lines = ["graph orbits {"]
    for name in sorted(orbits):
        shape = "doublecircle" if orbits[name] else "circle"
        lines.append(f'  "{name}" [shape={shape}];')
    for root, lo, hi, kind in sorted((r, min(a, b), max(a, b), t) for r, a, b, t in edges):
        lines.append(f'  "{lo}" -- "{hi}" [label="s{root}:{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# (open slots, lower slots, swaps the opens, swaps the lowers, swaps open and lower)
SPAN_SHAPES = {
    "P": (1, 0, False, False, False),
    "U": (1, 1, False, False, True),
    "T0": (1, 0, False, False, False),
    "T1": (1, 2, False, True, False),
    "T2": (2, 2, True, True, False),
    "N0": (1, 0, False, False, False),
    "N1": (1, 1, False, False, False),
    "N2": (2, 1, True, False, False),
    "T": (1, 2, False, True, False),
    "N": (1, 1, False, False, False),
}


def table_edges(table: dict, rank: int):
    """Check that a table JSON's spans partition its orbits at every root; return its swaps."""
    orbits = {o["id"]: o["open"] for o in table["orbits"]}
    covered = {root: set() for root in range(1, rank + 1)}
    edges = []
    for span in table["spans"]:
        root, kind = span["root"], span["type"]
        opens, lowers = span["open"], span.get("lower", [])
        n_open, n_lower, swap_open, swap_lower, swap_across = SPAN_SHAPES[kind]
        if (len(opens), len(lowers)) != (n_open, n_lower):
            raise ValueError(f"span {span} has the wrong slot counts")
        if any(orbits[name] for name in lowers):
            raise ValueError(f"open orbit in a lower slot of {span}")
        for name in opens + lowers:
            if name not in orbits or name in covered[root]:
                raise ValueError(f"orbit {name!r} unknown or covered twice at root {root}")
            covered[root].add(name)
        if swap_open:
            edges.append((root, *opens, kind))
        if swap_lower:
            edges.append((root, *lowers, kind))
        if swap_across:
            edges.append((root, opens[0], lowers[0], kind))
    for root, names in covered.items():
        if len(names) != len(orbits):
            raise ValueError(f"spans at root {root} do not cover every orbit")
    return orbits, edges


def edge_set(edges) -> set:
    return {(root, frozenset((a, b)), kind) for root, a, b, kind in edges}
