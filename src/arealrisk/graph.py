"""Adjacency structure over areal units and the CAR prior's pairwise sum.

Regions are identified by string labels; adjacency is binary and symmetric
with no self-loops. Every region must have at least one neighbor: the
spatial random-effect full conditionals divide by the neighbor count, so an
isolated region is rejected at load time rather than allowed to degenerate
during sampling. Disconnected (but island-free) maps are accepted with a
warning and receive a single global sum-to-zero centering downstream.
"""

from __future__ import annotations

import warnings
from itertools import chain

import numpy as np

from .model import _read_csv

__all__ = [
    "AdjacencyGraph",
    "GraphStructureError",
    "load_adjacency",
    "car_pairwise_sum",
]


class GraphStructureError(ValueError):
    """Raised for structurally invalid adjacency input."""


class AdjacencyGraph:
    """Symmetric binary neighbor structure over ``n_regions`` areal units.

    Immutable after construction and safe to share across concurrent fits.

    Parameters
    ----------
    region_ids : sequence of str
        Unique, order-defining region labels.
    edges : iterable of (int, int)
        Unordered index pairs; duplicates and reversed duplicates collapse
        to a single edge.
    """

    def __init__(self, region_ids, edges):
        ids = tuple(str(r) for r in region_ids)
        if len(set(ids)) != len(ids):
            raise GraphStructureError("region ids must be unique")
        n = len(ids)

        pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
        bad = np.flatnonzero(out_of_range | (pairs[:, 0] == pairs[:, 1]))
        if bad.size:  # the first bad edge in input order is named
            i, j = pairs[bad[0]]
            if out_of_range[bad[0]]:
                raise GraphStructureError(f"edge ({i},{j}) out of range")
            raise GraphStructureError(f"self-loop at region {ids[i]!r}")
        pairs.sort(axis=1)
        key = np.unique(pairs[:, 0] * n + pairs[:, 1])  # sorts (lo, hi) pairs
        edge_arr = np.stack([key // n, key % n]).T  # contiguous columns, to gather

        degrees = np.bincount(edge_arr.ravel(), minlength=n)
        islands = [ids[i] for i in np.nonzero(degrees == 0)[0]]
        if islands:
            raise GraphStructureError(
                "isolated region(s) with no neighbors: " + ", ".join(islands)
            )

        self.region_ids = ids
        self.n_regions = n
        self.edges = edge_arr
        self.degrees = degrees
        self._index = {r: i for i, r in enumerate(ids)}

        # compressed sparse rows: row i's neighbours, ascending, are
        # _indices[_indptr[i]:_indptr[i + 1]]
        rows = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        cols = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        self._indptr = np.concatenate([[0], np.cumsum(degrees)])
        self._indices = cols[np.lexsort((cols, rows))]
        for arr in (self.edges, self.degrees, self._indptr, self._indices):
            arr.setflags(write=False)

        if self.n_components > 1:
            warnings.warn(
                f"adjacency graph has {self.n_components} connected components; "
                "a single global sum-to-zero constraint will be applied",
                stacklevel=2,
            )

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_components(self) -> int:
        if not hasattr(self, "_n_components"):
            # Each region points at a smaller-or-equal one; a root points at
            # itself. Every round hooks each root that borders a smaller root
            # under the smallest such, then points every region at its root,
            # until no edge joins two trees: the roots are the components.
            u, v = self.edges.T
            root = np.arange(self.n_regions)
            while True:
                ru, rv = root[u], root[v]
                if np.array_equal(ru, rv):
                    break
                np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
                while not np.array_equal(root[root], root):
                    root = root[root]
            self._n_components = int(np.count_nonzero(root == np.arange(self.n_regions)))
        return self._n_components

    def index(self, region_id: str) -> int:
        return self._index[str(region_id)]

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of the regions adjacent to region ``i``, ascending."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    def coloring(self) -> list[np.ndarray]:
        """Partition regions into classes with no within-class adjacency.

        Greedy coloring in decreasing-degree order; deterministic for a
        given graph. Within a class the spatial-effect full conditionals
        are mutually independent, so a Metropolis sweep may update a whole
        class at once (equivalent to a sequential scan in class order).
        """
        if not hasattr(self, "_coloring"):
            # plain lists: the same loop over NumPy scalars takes about 3.5x as long
            indptr, indices = self._indptr.tolist(), self._indices.tolist()
            color = [-1] * self.n_regions  # -1: not coloured yet
            for i in np.argsort(-self.degrees, kind="stable").tolist():
                used = {color[j] for j in indices[indptr[i]:indptr[i + 1]]}
                c = 0
                while c in used:
                    c += 1
                color[i] = c
            color = np.array(color)
            self._coloring = [np.nonzero(color == c)[0] for c in range(color.max() + 1)]
        return self._coloring


def car_pairwise_sum(graph: AdjacencyGraph, phi: np.ndarray) -> float:
    """Sum of squared differences of ``phi`` across adjacent pairs.

    Each unordered neighbor pair contributes once. Zero exactly when phi is
    constant on every connected component; invariant under adding a constant.
    Summed by ``einsum``, not BLAS ``ddot``, whose rounding depends on the
    number of BLAS threads.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (graph.n_regions,):
        raise ValueError(
            f"phi has shape {phi.shape}, expected ({graph.n_regions},)"
        )
    d = phi.take(graph.edges[:, 0]) - phi.take(graph.edges[:, 1])
    return float(np.einsum("i,i->", d, d))


def _parse_edge_list(lines):
    named = []  # every region the file names, in file order
    ends = []  # both ends of every edge, edge after edge
    with lines as rows:
        for row in rows:
            if len(row) > 2:
                raise ValueError(f"edge row has {len(row)} fields, expected at most 2")
            if len(row) < 2 or row[1] == "":
                # a row naming only one region declares it without neighbors
                named.append(row[0])
                continue
            a, b = row[0], row[1]
            if a == "":
                raise ValueError(f"incomplete edge row {row}")
            named += (a, b)
            ends += (a, b)
    return list(dict.fromkeys(named)), ends


def _parse_matrix(path, header, lines):
    ids = header[1:]
    n = len(ids)
    matrix = []
    with lines as rows:
        for row in rows:
            if len(row) != n + 1:
                raise ValueError(f"expected {n + 1} columns, got {len(row)}")
            bad = [cell for cell in row[1:] if cell not in ("0", "1")]
            if bad:
                raise ValueError(f"adjacency entries must be 0 or 1, got {bad[0]!r}")
            matrix.append(row)
    if [row[0] for row in matrix] != ids:
        raise GraphStructureError(
            f"{path}: matrix row labels do not match the header region ids"
        )
    mat = np.array([row[1:] for row in matrix], dtype=np.int64).reshape(n, n)
    if np.any(np.diag(mat) != 0):
        bad = ids[int(np.nonzero(np.diag(mat))[0][0])]
        raise GraphStructureError(f"{path}: self-loop at region {bad!r}")
    if not np.array_equal(mat, mat.T):
        i, j = np.argwhere(mat != mat.T)[0]
        raise GraphStructureError(
            f"{path}: asymmetric adjacency: entry ({ids[i]},{ids[j]}) != "
            f"({ids[j]},{ids[i]})"
        )
    return ids, [ids[v] for v in np.argwhere(np.triu(mat, 1)).ravel()]


def load_adjacency(path, region_ids=None) -> AdjacencyGraph:
    """Load an adjacency file.

    Two CSV forms are accepted: an edge list with header ``from,to`` and at
    most two fields a row, or a square 0/1 matrix whose header row and first
    column carry the region ids. Edge lists are symmetrized and deduplicated;
    matrices must be symmetric. If ``region_ids`` is given, the file must name
    no other region, and every listed region must appear with a neighbor.
    """
    header, lines = _read_csv(path, GraphStructureError)
    if not header:
        raise GraphStructureError(f"{path}: empty adjacency file")
    # either form gives the regions in file order and the edges' ends, flat
    if [c.lower() for c in header[:2]] == ["from", "to"]:
        if len(header) != 2:
            raise GraphStructureError(f"{path}: edge-list header must be from,to; "
                                      f"got {header}")
        order, ends = _parse_edge_list(lines)
    else:
        order, ends = _parse_matrix(path, header, lines)

    if region_ids is not None:
        wanted = dict.fromkeys(map(str, region_ids))
        extra = [r for r in order if r not in wanted]
        if extra:
            raise GraphStructureError(f"{path}: regions not in the dataset: "
                                      + ", ".join(map(repr, extra[:5]))
                                      + (", ..." if extra[5:] else ""))
        order = list(dict.fromkeys([*order, *wanted]))

    # a region without an edge is an island; AdjacencyGraph rejects it by name
    index = {r: i for i, r in enumerate(order)}
    ends = [index[r] for r in ends]
    try:
        return AdjacencyGraph(order, zip(ends[::2], ends[1::2]))
    except GraphStructureError as exc:
        raise GraphStructureError(f"{path}: {exc}") from None
