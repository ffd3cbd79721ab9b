"""Graph families and cyclic neighbor-list assignments.

Two topologies are supported: the complete graph on n vertices and the star
with center 0 and leaves 1..n-1.  Neighbor lists are what the list-based
protocols walk cyclically; the canonical order is ascending vertex id, and a
strategy picks the actual cyclic order per vertex.

For the complete graph and the star the canonical and reversed orders have a
closed form, so those assignments never materialize an n x (n-1) table and
stay cheap at n = 10**5.  Random and explicit assignments are materialized
and therefore capped in size.  The random table is built in place as one
copy: the canonical rows are written in closed form, and each row is then
shuffled by the generator of its (seed, vertex id).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import derive_key

# materialized assignments above this many cells would not fit in memory
_MAX_TABLE_CELLS = 1 << 26


class GraphKind(str, Enum):
    COMPLETE = "complete"
    STAR = "star"


class ListStrategy(str, Enum):
    CANONICAL = "canonical"
    REVERSED = "reversed"
    RANDOM = "random"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class Topology:
    kind: GraphKind
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        if self.kind is GraphKind.STAR and self.n < 3:
            raise ValueError(f"star needs n >= 3, got n={self.n}")

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return int(self.degrees(v))

    def degrees(self, vertices: np.ndarray) -> np.ndarray | int:
        """Degree of each given vertex; the one degree rule (a scalar on the complete graph)."""
        if self.kind is GraphKind.COMPLETE:
            return self.n - 1
        return np.where(vertices == 0, self.n - 1, 1)

    def live_senders(self, informed: np.ndarray) -> np.ndarray | None:
        """If every trial is settled, the rows that can still inform a vertex.

        informed holds trials of n rows, each with an uninformed vertex.  A
        trial is settled when no uninformed vertex has an uninformed neighbor:
        on the complete graph when one is left, which every informed vertex
        neighbors, and on the star when the center, each leaf's one neighbor,
        is informed.  Returns None while some trial is not settled.
        """
        if self.kind is GraphKind.COMPLETE:  # one left in each trial: as many as trials
            settled = len(informed) - np.count_nonzero(informed) == len(informed) // self.n
            return informed.nonzero()[0] if settled else None
        centers = np.arange(0, len(informed), self.n)
        return centers if informed[centers].all() else None

    def neighbors(self, v: int) -> np.ndarray:
        """Canonical (ascending id) neighbor array of one vertex."""
        self.check_vertex(v)
        if self.kind is GraphKind.COMPLETE:
            return np.concatenate(
                [np.arange(v, dtype=np.int64), np.arange(v + 1, self.n, dtype=np.int64)]
            )
        if v == 0:
            return np.arange(1, self.n, dtype=np.int64)
        return np.zeros(1, dtype=np.int64)

    def neighbors_at(self, vertices: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Vectorized canonical lookup: the indices-th neighbor of each vertex."""
        vertices = np.asarray(vertices, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if self.kind is GraphKind.COMPLETE:
            return indices + (indices >= vertices)
        return np.where(vertices == 0, indices + 1, 0).astype(np.int64)


def complete_graph(n: int) -> Topology:
    return Topology(GraphKind.COMPLETE, n)


def star_graph(n: int) -> Topology:
    return Topology(GraphKind.STAR, n)


class ListAssignment:
    """A cyclic neighbor list per vertex, realized from a strategy.

    Realization is deterministic in (strategy, seed, vertex id): vertex v's
    random permutation depends only on those, never on other vertices or on
    how many rows were asked for before.  Canonical and reversed lists are
    closed-form index maps; random and explicit lists are one materialized
    table, an (n, n-1) array for the complete graph and the center's row
    alone, shape (1, n-1), for the star, whose leaves can only list 0.
    """

    def __init__(
        self,
        topology: Topology,
        strategy: ListStrategy,
        seed: int = 0,
        table: np.ndarray | None = None,
    ):
        self.topology = topology
        self.strategy = strategy
        self.seed = seed
        self._table = table

    def row(self, v: int) -> np.ndarray:
        """The full cyclic list of one vertex, mostly for tests and oracles."""
        self.topology.check_vertex(v)
        if self.strategy is ListStrategy.CANONICAL:
            return self.topology.neighbors(v)
        if self.strategy is ListStrategy.REVERSED:
            return self.topology.neighbors(v)[::-1].copy()
        if v < len(self._table):
            return self._table[v].copy()
        return np.zeros(1, dtype=np.int64)

    def targets_at(self, vertices: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized: the list entry at the given position of each vertex."""
        vertices = np.asarray(vertices, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        topo = self.topology
        if self.strategy is ListStrategy.CANONICAL:
            return topo.neighbors_at(vertices, positions)
        if self.strategy is ListStrategy.REVERSED:
            return topo.neighbors_at(vertices, topo.degrees(vertices) - 1 - positions)
        flat = self._table.ravel()  # row v starts at v * (n - 1)
        if topo.kind is GraphKind.COMPLETE:
            return flat[vertices * (topo.n - 1) + positions]
        return np.where(vertices == 0, flat[positions], 0)  # a leaf's one slot lists 0


def _validate_row(topology: Topology, v: int, row) -> np.ndarray:
    row = np.asarray(row, dtype=np.int64)
    expected = np.sort(topology.neighbors(v))
    if row.shape != expected.shape or not np.array_equal(np.sort(row), expected):
        raise ValueError(f"row for vertex {v} is not a permutation of its neighbor set")
    return row


def realize_lists(
    topology: Topology,
    strategy: ListStrategy,
    seed: int = 0,
    explicit_rows: dict | None = None,
) -> ListAssignment:
    """Build the neighbor-list assignment one protocol run walks.

    RANDOM shuffles each canonical row with a generator keyed by
    (seed, vertex id).  EXPLICIT takes caller rows, validated to be
    permutations of the true neighbor sets.
    """
    if strategy in (ListStrategy.CANONICAL, ListStrategy.REVERSED):
        if explicit_rows is not None:
            raise ValueError("explicit_rows only makes sense with the explicit strategy")
        return ListAssignment(topology, strategy, seed)

    n = topology.n
    if topology.kind is GraphKind.COMPLETE and n * (n - 1) > _MAX_TABLE_CELLS:
        raise ValueError(
            f"materialized lists need {n * (n - 1)} cells; use canonical or reversed"
        )
    height = n if topology.kind is GraphKind.COMPLETE else 1  # star leaves are forced
    if strategy is ListStrategy.EXPLICIT:
        if explicit_rows is None:
            raise ValueError("explicit strategy needs explicit_rows")
        rows = {int(v): _validate_row(topology, int(v), r) for v, r in explicit_rows.items()}
        for v in range(n):
            if v not in rows:
                raise ValueError(f"explicit rows missing vertex {v}")
        table = np.stack([rows[v] for v in range(height)])
        return ListAssignment(topology, strategy, seed, table)

    if explicit_rows is not None:
        raise ValueError("explicit_rows only makes sense with the explicit strategy")
    # canonical rows in closed form, then each shuffled in place; shuffling a
    # row draws what Generator.permutation draws for it, as that copies and shuffles
    table = topology.neighbors_at(np.arange(height)[:, None], np.arange(n - 1))
    for v in range(height):
        np.random.default_rng(derive_key(seed, v)).shuffle(table[v])
    return ListAssignment(topology, strategy, seed, table)


def load_lists_file(topology: Topology, path: str) -> ListAssignment:
    """Read explicit rows from a text file, one comma-separated row per vertex."""
    with open(path) as fh:
        lines = [
            (lineno, ln.strip())
            for lineno, ln in enumerate(fh, start=1)
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
    if len(lines) != topology.n:
        raise ValueError(
            f"lists file has {len(lines)} rows, topology has {topology.n} vertices"
        )
    rows = {}
    for v, (lineno, line) in enumerate(lines):
        try:
            rows[v] = np.array([int(x) for x in line.split(",")], dtype=np.int64)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return realize_lists(topology, ListStrategy.EXPLICIT, explicit_rows=rows)
