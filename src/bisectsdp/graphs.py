"""Graphs, bisection instances, and generators for the benchmark families.

Vertices are 0-based everywhere inside the package; the instance file format
and generator registry speak 1-based, as is customary for partitioning
benchmarks. Conversion happens only at the parse/serialize boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "BisectionInstance",
    "Assignment",
    "InstanceFormatError",
    "parse_instance",
    "serialize_instance",
    "laplacian",
    "adjacency",
    "cut_value",
    "gen_lcf",
    "gen_johnson",
    "gen_gnp",
    "generate",
    "named_lcf_codes",
]


class InstanceFormatError(ValueError):
    """Raised when an instance file or generator spec cannot be interpreted."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph on vertices 0..n-1.

    Edges are stored as (i, j, w) with i < j, no duplicates, no self-loops.
    ``integral_weights`` is true iff every weight is an integer; ceiled
    bound reporting is only meaningful in that case.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    integral_weights: bool = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        seen = set()
        for i, j, w in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({i},{j})")
            seen.add((i, j))
        integral = all(float(w).is_integer() for _, _, w in self.edges)
        object.__setattr__(self, "integral_weights", integral)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int] | tuple[int, int, float]]) -> "Graph":
        """Normalize an edge iterable: orient i < j, merge duplicates by summing weights."""
        acc: dict[tuple[int, int], float] = {}
        for e in edges:
            if len(e) == 2:
                i, j = e
                w = 1.0
            else:
                i, j, w = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            acc[(i, j)] = acc.get((i, j), 0.0) + float(w)
        return Graph(n, tuple((i, j, w) for (i, j), w in sorted(acc.items())))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> list[int]:
        deg = [0] * self.n
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class BisectionInstance:
    """A graph together with the prescribed part sizes m1 >= m2 >= 1."""

    graph: Graph
    m1: int
    m2: int
    name: str = "unnamed"

    def __post_init__(self):
        if self.m1 + self.m2 != self.graph.n:
            raise ValueError(f"m1+m2 = {self.m1 + self.m2} != n = {self.graph.n}")
        if not (self.m1 >= self.m2 >= 1):
            raise ValueError(f"need m1 >= m2 >= 1, got ({self.m1},{self.m2})")

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class Assignment:
    """A feasible bisection: part[v] in {1, 2}, exactly m1 ones and m2 twos."""

    part: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (1, 2) for p in self.part):
            raise ValueError("part labels must be 1 or 2")

    @staticmethod
    def from_part1(n: int, part1: Iterable[int]) -> "Assignment":
        ones = set(part1)
        if not ones <= set(range(n)):
            raise ValueError("part-1 vertices out of range")
        return Assignment(tuple(1 if v in ones else 2 for v in range(n)))

    @property
    def n(self) -> int:
        return len(self.part)

    def size(self, which: int) -> int:
        return sum(1 for p in self.part if p == which)

    def indicator(self) -> np.ndarray:
        """0/1 vector z with z[v] = 1 iff v is in part 1."""
        return np.array([1.0 if p == 1 else 0.0 for p in self.part])

    def part1_set(self) -> frozenset[int]:
        return frozenset(v for v, p in enumerate(self.part) if p == 1)


# ---------------------------------------------------------------------------
# instance file format
# ---------------------------------------------------------------------------

def parse_instance(text: str, name: str = "unnamed") -> BisectionInstance:
    """Parse the plain-text instance format.

    Line 1: ``n |E| m1 m2``. Then |E| lines ``i j`` or ``i j w`` with
    1-based endpoints. Lines starting with '#' and blank lines are skipped.
    Duplicate edge lines are merged by summing their weights.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InstanceFormatError("empty instance")
    head = lines[0].split()
    if len(head) != 4:
        raise InstanceFormatError(f"header must be 'n |E| m1 m2', got {lines[0]!r}")
    try:
        n, ne, m1, m2 = (int(t) for t in head)
    except ValueError as exc:
        raise InstanceFormatError(f"non-integer header field in {lines[0]!r}") from exc
    if m1 <= 0 or m2 <= 0:
        raise InstanceFormatError(f"part sizes must be positive, got ({m1},{m2})")
    if m1 + m2 != n:
        raise InstanceFormatError(f"m1+m2 = {m1 + m2} does not match n = {n}")
    body = lines[1:]
    if len(body) != ne:
        raise InstanceFormatError(f"header declares {ne} edges, found {len(body)} edge lines")
    edges = []
    for ln in body:
        toks = ln.split()
        if len(toks) not in (2, 3):
            raise InstanceFormatError(f"bad edge line {ln!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError as exc:
            raise InstanceFormatError(f"bad edge line {ln!r}") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceFormatError(f"vertex index out of range on line {ln!r}")
        edges.append((i - 1, j - 1, w))
    graph = Graph.from_edges(n, edges)
    return BisectionInstance(graph, m1, m2, name=name)


def serialize_instance(inst: BisectionInstance) -> str:
    """Inverse of :func:`parse_instance`, up to edge order and merged duplicates."""
    g = inst.graph
    out = [f"{g.n} {g.num_edges} {inst.m1} {inst.m2}"]
    for i, j, w in g.edges:
        if w == 1.0:
            out.append(f"{i + 1} {j + 1}")
        else:
            out.append(f"{i + 1} {j + 1} {w:.17g}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# matrices and cut evaluation
# ---------------------------------------------------------------------------

def adjacency(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] += w
        A[j, i] += w
    return A


def laplacian(g: Graph) -> np.ndarray:
    """Weighted Laplacian: degree diagonal minus adjacency. Row sums are zero."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def cut_value(g: Graph, a: Assignment) -> float:
    """Total weight of edges joining part 1 and part 2."""
    if a.n != g.n:
        raise ValueError(f"assignment is for {a.n} vertices, graph has {g.n}")
    return float(sum(w for i, j, w in g.edges if a.part[i] != a.part[j]))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_lcf(jumps: list[int], repeats: int) -> Graph:
    """Cubic Hamiltonian graph from an LCF code.

    The Hamiltonian cycle 0..n-1 is closed, then position i contributes the
    chord {i, (i + jump_i) mod n}. A chord is listed once from each endpoint
    and the far listing must be the exact integer negation; any other
    re-listing is a parallel chord and rejected, so a wrong code for a named
    graph fails loudly instead of producing a near-miss.
    """
    code = list(jumps) * repeats
    n = len(code)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"LCF code must yield an even n >= 4, got n={n}")
    for j in code:
        if not (2 <= abs(j) <= n - 2):
            raise ValueError(f"jump {j} out of range for n={n}")
    chords = set()
    for i, j in enumerate(code):
        k = (i + j) % n
        if code[k] != -j:
            raise ValueError(
                f"jump {j} at position {i} is not returned by position {k}: "
                "duplicate/parallel chord"
            )
        chords.add((min(i, k), max(i, k)))
    if len(chords) != n // 2:
        raise ValueError("LCF chords do not form a perfect matching")
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    if edges & chords:
        raise ValueError("LCF chord duplicates a cycle edge")
    g = Graph.from_edges(n, sorted(edges | chords))
    if set(g.degree_sequence()) != {3}:
        raise ValueError("LCF code did not produce a 3-regular graph")
    return g


def gen_johnson(v: int, k: int) -> Graph:
    """Johnson graph J(v, k): k-subsets of {1..v}, adjacent iff they share k-1 elements."""
    if not (1 <= k < v):
        raise ValueError(f"need 1 <= k < v, got (v,k)=({v},{k})")
    verts = list(combinations(range(v), k))
    index = {s: i for i, s in enumerate(verts)}
    edges = []
    for s, i in index.items():
        for t, j in index.items():
            if i < j and len(set(s) & set(t)) == k - 1:
                edges.append((i, j))
    return Graph.from_edges(len(verts), edges)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be a probability")
    if seed < 0:
        raise ValueError(f"gnp seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def named_lcf_codes() -> dict[str, dict]:
    """Named LCF codes shipped with the package (pappus, desargues, biggs-smith)."""
    data = resources.files("bisectsdp").joinpath("lcf_codes.json").read_text()
    return json.loads(data)


def generate(spec: str) -> Graph:
    """Generator registry.

    Accepts a bare named graph ("pappus", "desargues", "biggs-smith") or a
    parametrized family: "johnson:7,2", "gnp:30,0.3,42".
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower()
    codes = named_lcf_codes()
    if name in codes:
        if argstr:
            raise InstanceFormatError(f"{name!r} takes no arguments")
        entry = codes[name]
        g = gen_lcf(entry["jumps"], entry["repeats"])
        if g.n != entry["n"]:
            raise ValueError(f"LCF code for {name!r} produced n={g.n}, expected {entry['n']}")
        return g
    if name == "johnson":
        try:
            v, k = (int(t) for t in argstr.split(","))
        except ValueError as exc:
            raise InstanceFormatError(f"johnson takes 'v,k', got {argstr!r}") from exc
        return gen_johnson(v, k)
    if name == "gnp":
        toks = argstr.split(",")
        if len(toks) != 3:
            raise InstanceFormatError(f"gnp takes 'n,p,seed', got {argstr!r}")
        try:
            n, p, seed = int(toks[0]), float(toks[1]), int(toks[2])
        except ValueError as exc:
            raise InstanceFormatError(f"gnp takes 'n,p,seed', got {argstr!r}") from exc
        return gen_gnp(n, p, seed)
    raise InstanceFormatError(f"unknown generator {spec!r}")
