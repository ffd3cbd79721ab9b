"""Graph families and cyclic neighbor-list assignments.

Two topologies are supported: the complete graph on n vertices and the star
with center 0 and leaves 1..n-1.  Neighbor lists are what the list-based
protocols walk cyclically; the canonical order is ascending vertex id, and a
strategy picks the actual cyclic order per vertex.

For the complete graph and the star the canonical and reversed orders have a
closed form, so those assignments never materialize an n x (n-1) table and
stay cheap at n = 10**5.  Random and explicit assignments are materialized
and therefore capped in size.  A table holds vertex ids below n, so it is
stored in the narrowest unsigned type that holds n - 1
(``np.min_scalar_type``): one byte a cell up to n = 256, two up to
n = 65,536 (which covers every complete graph under the cap) and four beyond,
which only a star's center row reaches.  Row v of a random table is exactly
v's canonical row shuffled by ``default_rng(derive_key(seed, v))``: one PCG64
bit generator, set in turn to each row's state (all derived in one array
pass), drives a legacy ``RandomState`` whose shuffle makes the same swaps
from the same draws as ``Generator.shuffle`` and runs faster; it shuffles an
int64 buffer holding the row, which is then copied into the table.  That
relies on numpy's SeedSequence and PCG64 streams staying stable, as
tests/test_rng.py checks, and on RandomState's methods, which NEP 19 freezes.

Every output file is written by ``_write_text``, at the os level and in
place: see there.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import _check_integer
from .rng import _MASK, _derive_keys, _pcg64_states

# materialized assignments above this many cells would not fit in memory; the
# cap admits complete graphs up to n = 8,192, whose cells take 2 bytes each,
# so a table at the cap takes 128 MiB
_MAX_TABLE_CELLS = 1 << 26


class GraphKind(str, Enum):
    COMPLETE = "complete"
    STAR = "star"


class ListStrategy(str, Enum):
    CANONICAL = "canonical"
    REVERSED = "reversed"
    RANDOM = "random"
    EXPLICIT = "explicit"


# the members that per-round code compares with, read as globals: under Python
# 3.11 a class lookup of an enum member costs about 0.1 us, several times a round
_COMPLETE, _CANONICAL, _REVERSED = GraphKind.COMPLETE, ListStrategy.CANONICAL, ListStrategy.REVERSED


@dataclass(frozen=True)
class Topology:
    kind: GraphKind
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, GraphKind):  # a value runs as its member
            object.__setattr__(self, "kind", GraphKind(self.kind))
        _check_integer("n", self.n, 3 if self.kind is GraphKind.STAR else 1)

    def check_vertex(self, v: int) -> None:
        _check_integer("vertex", v, 0, self.n - 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return int(self.degrees(v))

    def degrees(self, vertices: np.ndarray) -> np.ndarray | np.integer:
        """Degree of each given vertex; the one degree rule (a numpy scalar on
        the complete graph, which arrays of its width read without a cast)."""
        width = np.int32 if self.n <= 2**31 else np.int64  # the engine's, where n - 1 fits
        if self.kind is _COMPLETE:
            return width(self.n - 1)
        return np.where(vertices, width(1), width(self.n - 1))  # a leaf's is 1

    def live_senders(self, informed: np.ndarray) -> np.ndarray | None:
        """If every trial is settled, the rows that can still inform a vertex.

        informed holds trials of n rows, each with an uninformed vertex.  A
        star's trial is settled once its center, each leaf's one neighbor, is
        informed: from then on only the center can inform anyone, so this
        returns the centers, and None while some trial's center is not
        informed.  On the complete graph it returns None: there a trial is
        settled only with one vertex left, about 1/p rounds of a (1/p) ln n
        tail, which one round a step runs about as fast.
        """
        if self.kind is _COMPLETE:
            return None
        centers = np.arange(0, len(informed), self.n)
        return centers if np.count_nonzero(informed[::self.n]) == len(centers) else None

    def neighbors(self, v: int) -> np.ndarray:
        """Canonical (ascending id) neighbor array of one vertex."""
        self.check_vertex(v)
        if self.kind is _COMPLETE:
            return np.concatenate(
                [np.arange(v, dtype=np.int64), np.arange(v + 1, self.n, dtype=np.int64)]
            )
        if v == 0:
            return np.arange(1, self.n, dtype=np.int64)
        return np.zeros(1, dtype=np.int64)

    def neighbors_at(self, vertices: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Vectorized canonical lookup: the indices-th neighbor of each vertex."""
        if self.kind is _COMPLETE:
            return indices + (indices >= vertices)
        return np.where(vertices == 0, indices + 1, 0)


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
        self.strategy = strategy if isinstance(strategy, ListStrategy) else ListStrategy(strategy)
        self.seed = seed
        self._table = table

    def row(self, v: int) -> np.ndarray:
        """The full cyclic list of one vertex as int64, mostly for tests and oracles."""
        self.topology.check_vertex(v)
        if self.strategy is _CANONICAL:
            return self.topology.neighbors(v)
        if self.strategy is _REVERSED:
            return self.topology.neighbors(v)[::-1].copy()
        if v < len(self._table):
            return self._table[v].astype(np.int64)
        return np.zeros(1, dtype=np.int64)

    def targets_at(self, vertices: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Vectorized: the list entry at the given position of each vertex.

        On canonical and reversed lists, in the width of the arguments; on a
        table, in the table's own dtype, which the engine widens when it adds
        the row offset.
        """
        topo = self.topology
        if self.strategy is _CANONICAL:
            return topo.neighbors_at(vertices, positions)
        if self.strategy is _REVERSED:
            return topo.neighbors_at(vertices, topo.degrees(vertices) - 1 - positions)
        flat = self._table.ravel()  # row v starts at v * (n - 1)
        if topo.kind is _COMPLETE:  # take: a plain gather, faster than indexing
            cells = vertices * np.intp(topo.n - 1)  # intp, which take would convert int32 to
            cells += positions
            return flat.take(cells)
        return np.where(vertices == 0, flat.take(positions), 0)  # a leaf's one slot lists 0


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

    RANDOM shuffles each canonical row as default_rng(derive_key(seed, v))
    would, with one generator set to each row's state in turn.  EXPLICIT
    takes caller rows, validated to be permutations of the true neighbor sets.
    Both tables are stored as np.min_scalar_type(n - 1).
    """
    if not isinstance(strategy, ListStrategy):  # a value runs as its member
        strategy = ListStrategy(strategy)
    if (explicit_rows is not None) != (strategy is ListStrategy.EXPLICIT):
        raise ValueError("explicit_rows: must be given with the explicit strategy, and only then")
    if strategy in (ListStrategy.CANONICAL, ListStrategy.REVERSED):
        return ListAssignment(topology, strategy, seed)

    n = topology.n
    if topology.kind is GraphKind.COMPLETE and n * (n - 1) > _MAX_TABLE_CELLS:
        raise ValueError(
            f"lists: {strategy.value} lists at n={n} need {n * (n - 1)} table cells, "
            f"over the cap of {_MAX_TABLE_CELLS}; use canonical or reversed"
        )
    height = n if topology.kind is GraphKind.COMPLETE else 1  # star leaves are forced
    table = np.empty((height, n - 1), dtype=np.min_scalar_type(n - 1))
    if strategy is ListStrategy.EXPLICIT:
        rows = {int(v): _validate_row(topology, int(v), r) for v, r in explicit_rows.items()}
        for v in range(n):
            if v not in rows:
                raise ValueError(f"explicit rows missing vertex {v}")
        for v in range(height):
            table[v] = rows[v]
        return ListAssignment(topology, strategy, seed, table)

    _check_integer("seed", seed)
    # row v, every id but v (the star's center row too), shuffled as
    # default_rng(derive_key(seed, v)).permutation would shuffle a copy; the
    # int64 buffer keeps numpy's fast shuffle of 8-byte items
    ids = np.arange(n, dtype=np.int64)
    keys = _derive_keys(np.array([int(seed) & _MASK], dtype=np.uint64), ids[:height].astype(np.uint64))
    row = np.empty(n - 1, dtype=np.int64)
    bits = np.random.PCG64(0)
    shuffle = np.random.RandomState(bits).shuffle  # the same swaps as Generator.shuffle's
    for v, state in enumerate(_pcg64_states(keys)):
        row[:v], row[v:] = ids[:v], ids[v + 1:]
        bits.state = state
        shuffle(row)
        table[v] = row
    return ListAssignment(topology, strategy, seed, table)


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:  # name the file that does not decode
            raise ValueError(f"{path}: {exc}") from None


def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, str]]:
    """(line number from 1, line, line stripped) for each line of a text file
    that is neither blank nor a comment, one whose first non-blank is #."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path in place; every output file is written here.

    Unlike open(path, "w"), the open does not truncate: each chunk is encoded
    and written with os.write, from the file's first byte, and once the last
    one is written a regular file left longer than the text is cut to its
    length.  Truncating a file to zero on open frees its blocks and, on ext4
    (auto_da_alloc), starts writeback when it is closed, which costs more than
    rewriting a small file; a truncate that frees nothing is skipped, since
    ext4 charges one even then.  A path that is not a regular file (/dev/null,
    /dev/stdout, a pipe) is written without truncation, which such a file
    would refuse, and a write that a pipe takes in part is continued.  The mode
    and umask apply as with open(path, "w"), and newlines are written as given.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = 0
        for chunk in chunks:
            data = chunk.encode()
            done = os.write(fd, data)
            while done < len(data):
                done += os.write(fd, memoryview(data)[done:])
            size += done
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def load_lists_file(topology: Topology, path: str) -> ListAssignment:
    """Read explicit rows from a text file, one comma-separated row per vertex."""
    lines = [(lineno, line) for lineno, _, line in _content_lines(_read_lines(path))]
    if len(lines) != topology.n:
        raise ValueError(
            f"lists file has {len(lines)} rows, topology has {topology.n} vertices"
        )
    rows = {}
    for v, (lineno, line) in enumerate(lines):
        try:
            rows[v] = np.array([int(x) for x in line.split(",")], dtype=np.int64)
        except (ValueError, OverflowError) as exc:  # overflow: beyond int64
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return realize_lists(topology, ListStrategy.EXPLICIT, explicit_rows=rows)
