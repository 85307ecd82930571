import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from arealrisk.graph import (
    AdjacencyGraph,
    GraphStructureError,
    car_pairwise_sum,
    load_adjacency,
)
from arealrisk.model import Dataset, ModelSpec
from arealrisk.sampler import _FitContext
from arealrisk.simstudy import lattice_graph
from tests.test_sampler import car_log_kernel


def path_graph():
    return AdjacencyGraph(["A", "B", "C"], [(0, 1), (1, 2)])


def cycle_graph(n):
    return AdjacencyGraph([str(i) for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng, n):
    # random connected-ish graph: a path plus random extra edges, no islands
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.integers(0, n)):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((int(i), int(j)))
    return AdjacencyGraph([f"r{i}" for i in range(n)], edges)


def brute_force_pairwise_sum(graph, phi):
    # double loop over all ordered pairs, halved
    W = np.zeros((graph.n_regions, graph.n_regions))
    W[graph.edges[:, 0], graph.edges[:, 1]] = 1.0
    W[graph.edges[:, 1], graph.edges[:, 0]] = 1.0
    total = 0.0
    for i in range(graph.n_regions):
        for j in range(graph.n_regions):
            total += W[i, j] * (phi[i] - phi[j]) ** 2
    return total / 2.0


class TestConstruction:
    def test_edge_list_counts(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("from,to\nA,B\nB,C\n")
        g = load_adjacency(f)
        assert g.n_regions == 3
        assert list(g.degrees) == [1, 2, 1]

    def test_reversed_duplicate_collapses(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("from,to\nA,B\nB,A\n")
        g = load_adjacency(f)
        assert g.n_edges == 1
        assert list(g.degrees) == [1, 1]

    def test_isolated_region_named(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("from,to\nA,B\nD,\n")
        with pytest.raises(GraphStructureError, match="D"):
            load_adjacency(f)

    def test_isolated_region_via_required_ids(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("from,to\nA,B\n")
        with pytest.raises(GraphStructureError, match="D"):
            load_adjacency(f, region_ids=["A", "B", "D"])

    def test_matrix_form(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("region,A,B,C\nA,0,1,0\nB,1,0,1\nC,0,1,0\n")
        g = load_adjacency(f)
        assert g.region_ids == ("A", "B", "C")
        assert list(g.degrees) == [1, 2, 1]

    def test_matrix_asymmetry_rejected(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("region,A,B\nA,0,1\nB,0,0\n")
        with pytest.raises(GraphStructureError, match="asymmetric"):
            load_adjacency(f)

    def test_matrix_island_rejected(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("region,A,B,C\nA,0,1,0\nB,1,0,0\nC,0,0,0\n")
        with pytest.raises(GraphStructureError, match="C"):
            load_adjacency(f)

    @pytest.mark.parametrize("text, line, message", [
        ("from,to\nA,B\n,A\n", 3, "incomplete edge row ['', 'A']"),
        ("region,A,B\nA,0,1\nB,1,2\n", 3, "adjacency entries must be 0 or 1, got '2'"),
        ("region,A,B\nA,0,1\n\nB,1\n", 4, "expected 3 columns, got 2"),
    ])
    def test_row_errors_name_file_and_line(self, tmp_path, text, line, message):
        f = tmp_path / "adj.csv"
        f.write_text(text)
        with pytest.raises(GraphStructureError) as exc:
            load_adjacency(f)
        assert str(exc.value) == f"{f}, line {line}: {message}"

    @pytest.mark.parametrize("header", ["from,to,weight", "From,TO,weight", "from,to,"])
    def test_edge_list_header_beyond_from_to_rejected(self, tmp_path, header):
        # a weight column is not read, so its zero-weight pairs would load as edges
        f = tmp_path / "adj.csv"
        f.write_text(f"{header}\nA,B,1\nB,C,0\nA,C,0\n")
        with pytest.raises(GraphStructureError) as exc:
            load_adjacency(f)
        assert str(exc.value) == (f"{f}: edge-list header must be from,to; "
                                  f"got {header.split(',')}")

    def test_edge_row_beyond_two_fields_rejected(self, tmp_path):
        f = tmp_path / "adj.csv"
        f.write_text("FROM,To\nA,B\nB,C,0\n")
        with pytest.raises(GraphStructureError) as exc:
            load_adjacency(f)
        assert str(exc.value) == f"{f}, line 3: edge row has 3 fields, expected at most 2"

    @pytest.mark.parametrize("text", [
        "from,to\nA,B\nB,C\nC,D\n",
        "region,A,B,C\nA,0,1,0\nB,1,0,1\nC,0,1,0\n",
    ])
    def test_whitespace_rows_skipped(self, tmp_path, text):
        lines = text.splitlines()
        f = tmp_path / "adj.csv"
        f.write_text("\n".join(lines[:2] + ["  ", " , "] + lines[2:] + ["\t"]) + "\n")
        g = load_adjacency(f)
        (tmp_path / "clean.csv").write_text(text)
        clean = load_adjacency(tmp_path / "clean.csv")
        assert g.region_ids == clean.region_ids
        assert np.array_equal(g.edges, clean.edges)

    @pytest.mark.parametrize("text, message", [
        ("from,to\nA,B\nD,\n", "isolated region(s) with no neighbors: D"),
        ("from,to\nA,B\nB,B\n", "self-loop at region 'B'"),
        ("region,A,A\nA,0,1\nA,1,0\n", "region ids must be unique"),
    ])
    def test_graph_errors_name_file(self, tmp_path, text, message):
        f = tmp_path / "adj.csv"
        f.write_text(text)
        with pytest.raises(GraphStructureError) as exc:
            load_adjacency(f)
        assert str(exc.value) == f"{f}: {message}"

    @pytest.mark.parametrize("extra, named", [
        (["A,D"], "'D'"),
        ([f"A,X{i}" for i in range(7)], "'X0', 'X1', 'X2', 'X3', 'X4', ..."),
    ])
    def test_regions_outside_the_dataset_named(self, tmp_path, extra, named):
        f = tmp_path / "adj.csv"
        f.write_text("\n".join(["from,to", "A,B", "B,C"] + extra) + "\n")
        with pytest.raises(GraphStructureError) as exc:
            load_adjacency(f, region_ids=["A", "B", "C"])
        assert str(exc.value) == f"{f}: regions not in the dataset: {named}"

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError, match="self-loop"):
            AdjacencyGraph(["A", "B"], [(0, 0), (0, 1)])

    @pytest.mark.parametrize("edges, bad", [
        ([(7, 7)], "(7,7)"),
        ([(-1, -1), (0, 1), (1, 2)], "(-1,-1)"),
        ([(0, 1), (1, 3)], "(1,3)"),
    ])
    def test_out_of_range_edge_named(self, edges, bad):
        # the range is checked before the self-loop, which would index ids
        with pytest.raises(GraphStructureError, match=re.escape(f"edge {bad} out of range")):
            AdjacencyGraph(["a", "b", "c"], edges)

    @settings(max_examples=100, deadline=None)
    @given(n=hst.integers(2, 9), data=hst.data())
    def test_edges_are_the_sorted_set_of_pairs(self, n, data):
        node = hst.integers(0, n - 1)
        pairs = data.draw(hst.lists(hst.tuples(node, node).filter(lambda p: p[0] != p[1]),
                                    max_size=25))
        # reversed copies and repeats of the drawn pairs, and a path so no region
        # is an island, in random order
        extra = data.draw(hst.lists(hst.sampled_from(pairs), max_size=10)) if pairs else []
        edges = data.draw(hst.permutations(
            pairs + [(j, i) for i, j in extra] + [(i, i + 1) for i in range(n - 1)]))
        g = AdjacencyGraph([f"r{i}" for i in range(n)], edges)
        expected = sorted({(min(i, j), max(i, j)) for i, j in edges})
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [list(p) for p in expected]

    @settings(max_examples=100, deadline=None)
    @given(edges=hst.lists(hst.tuples(hst.integers(-2, 4), hst.integers(-2, 4)),
                           min_size=1, max_size=12))
    def test_first_bad_edge_named(self, edges):
        ids = ["a", "b", "c"]
        expected = None
        for i, j in edges:  # input order; the range before the self-loop
            if not (0 <= i < 3 and 0 <= j < 3):
                expected = f"edge ({i},{j}) out of range"
            elif i == j:
                expected = f"self-loop at region {ids[i]!r}"
            if expected:
                break
        if expected is None:
            return  # no bad edge in this list
        with pytest.raises(GraphStructureError) as err:
            AdjacencyGraph(ids, edges)
        assert str(err.value) == expected

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphStructureError, match="unique"):
            AdjacencyGraph(["A", "A"], [(0, 1)])

    def test_disconnected_warns_but_loads(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = AdjacencyGraph(["A", "B", "C", "D"], [(0, 1), (2, 3)])
        assert g.n_components == 2
        assert any("components" in str(w.message) for w in caught)


class TestPairwiseSum:
    def test_two_node(self):
        g = AdjacencyGraph(["A", "B"], [(0, 1)])
        assert car_pairwise_sum(g, np.array([1.0, -1.0])) == 4.0

    def test_constant_zero(self):
        g = cycle_graph(6)
        assert car_pairwise_sum(g, np.full(6, -2.3)) == 0.0

    def test_three_cycle(self):
        g = cycle_graph(3)
        assert car_pairwise_sum(g, np.array([0.0, 1.0, 2.0])) == 6.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)))
            phi = rng.normal(size=g.n_regions)
            assert car_pairwise_sum(g, phi) == pytest.approx(
                brute_force_pairwise_sum(g, phi), rel=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 8)
        phi = rng.normal(size=8)
        perm = rng.permutation(8)
        inv = np.argsort(perm)
        ids = [g.region_ids[p] for p in perm]
        edges = [(int(inv[i]), int(inv[j])) for i, j in g.edges]
        g2 = AdjacencyGraph(ids, edges)
        assert car_pairwise_sum(g2, phi[perm]) == pytest.approx(
            car_pairwise_sum(g, phi), rel=1e-12
        )

    def test_degree_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 12)))
            assert g.degrees.sum() == 2 * g.n_edges


class TestLogKernel:
    def test_two_node_value(self):
        g = AdjacencyGraph(["A", "B"], [(0, 1)])
        val = car_log_kernel(g, np.array([1.0, -1.0]), 2.0)
        assert val == pytest.approx(np.log(2.0) - 4.0, rel=1e-12)

    def test_constant_phi(self):
        g = cycle_graph(5)
        assert car_log_kernel(g, np.zeros(5), 3.0) == pytest.approx(
            2.5 * np.log(3.0), rel=1e-12
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 7)
        phi = rng.normal(size=7)
        for c in (-5.0, 0.3, 100.0):
            assert car_log_kernel(g, phi + c, 1.7) == pytest.approx(
                car_log_kernel(g, phi, 1.7), rel=1e-9
            )

    def test_nonpositive_tau_rejected(self):
        g = path_graph()
        with pytest.raises(ValueError):
            car_log_kernel(g, np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            car_log_kernel(g, np.zeros(3), -1.0)

    def test_matches_exponent_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 9)))
            phi = rng.normal(size=g.n_regions)
            tau = float(rng.uniform(0.1, 5.0))
            expected = 0.5 * g.n_regions * np.log(tau) - 0.5 * tau * (
                brute_force_pairwise_sum(g, phi)
            )
            assert car_log_kernel(g, phi, tau) == pytest.approx(expected, rel=1e-12)


class TestColoring:
    def test_classes_are_independent_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 15)))
            classes = g.coloring()
            covered = np.concatenate(classes)
            assert sorted(covered) == list(range(g.n_regions))
            for cls in classes:
                members = set(cls.tolist())
                for i in cls:
                    assert not members & set(g.neighbors(i).tolist())

    def test_lattice_is_two_colorable(self):
        edges = []
        for r in range(4):
            for c in range(4):
                i = 4 * r + c
                if c + 1 < 4:
                    edges.append((i, i + 1))
                if r + 1 < 4:
                    edges.append((i, i + 4))
        g = AdjacencyGraph([str(i) for i in range(16)], edges)
        assert len(g.coloring()) == 2


@hst.composite
def hub_graphs(draw):
    """Random island-free graphs, possibly disconnected, with a hub of degree > 8."""
    n = draw(hst.integers(12, 40))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    hub = int(rng.integers(n))
    others = np.delete(np.arange(n), hub)
    edges = [(hub, int(j)) for j in rng.choice(others, size=draw(hst.integers(9, n - 1)),
                                                replace=False)]
    # every other region gets one random partner; extra edges and duplicates too
    edges += [(int(i), int(rng.choice(np.delete(np.arange(n), i)))) for i in range(n)]
    edges += [tuple(int(v) for v in rng.choice(n, 2, replace=False))
              for _ in range(draw(hst.integers(0, n)))]
    edges += edges[: draw(hst.integers(0, 5))]
    # a few separate paths, then the indices shuffled
    for size in draw(hst.lists(hst.integers(2, 5), max_size=3)):
        edges += [(n + k, n + k + 1) for k in range(size - 1)]
        n += size
    perm = rng.permutation(n)
    edges = [(int(perm[i]), int(perm[j])) for i, j in edges]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # disconnected maps warn
        return AdjacencyGraph([f"r{i}" for i in range(n)], edges)


def scipy_csr(graph):
    e = graph.edges
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    n = graph.n_regions
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


class TestOwnCsrAgainstScipy:
    """The graph's CSR kernels equal SciPy's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(graph=hub_graphs(), seed=hst.integers(0, 2**32 - 1))
    def test_class_neighbor_sums(self, graph, seed):
        assert graph.degrees.max() > 8
        ctx = _FitContext(Dataset(graph.region_ids, np.ones(graph.n_regions, int),
                                  np.ones(graph.n_regions), np.ones((graph.n_regions, 1))),
                          graph, ModelSpec("is"))
        phi = np.random.default_rng(seed).normal(scale=3.0, size=graph.n_regions)
        W = scipy_csr(graph)
        for k, idx in enumerate(graph.coloring()):
            assert np.array_equal(ctx.neighbor_sums(k, phi), W[idx] @ phi)

    @settings(max_examples=60, deadline=None)
    @given(graph=hub_graphs())
    def test_class_neighbor_index_is_the_per_region_concatenation(self, graph):
        ctx = _FitContext(Dataset(graph.region_ids, np.ones(graph.n_regions, int),
                                  np.ones(graph.n_regions), np.ones((graph.n_regions, 1))),
                          graph, ModelSpec("is"))
        for (rows, cols), idx in zip(ctx.color_nbrs, graph.coloring()):
            assert np.array_equal(rows, np.repeat(np.arange(idx.size), graph.degrees[idx]))
            assert np.array_equal(cols, np.concatenate([graph.neighbors(i) for i in idx]))
            assert cols.dtype == graph._indices.dtype

    @settings(max_examples=60, deadline=None)
    @given(graph=hub_graphs())
    def test_neighbors_and_components(self, graph):
        W = scipy_csr(graph)
        for i in range(graph.n_regions):
            assert np.array_equal(graph.neighbors(i), W.indices[W.indptr[i]:W.indptr[i + 1]])
        n_comp, _ = sp.csgraph.connected_components(W, directed=False)
        assert graph.n_components == n_comp


def reference_coloring(graph):
    """The greedy colouring as first written, over NumPy scalars.

    The classes fix the order of the sampler's random draws, so the graph's
    own colouring must give exactly these.
    """
    order = np.argsort(-graph.degrees, kind="stable")
    color = np.full(graph.n_regions, -1, dtype=np.int64)
    for i in order:
        used = {color[j] for j in graph.neighbors(i) if color[j] >= 0}
        c = 0
        while c in used:
            c += 1
        color[i] = c
    return [np.nonzero(color == c)[0] for c in range(color.max() + 1)]


class TestColoringMatchesReference:
    def assert_same(self, graph):
        got, want = graph.coloring(), reference_coloring(graph)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    @settings(max_examples=100, deadline=None)
    @given(graph=hub_graphs())
    def test_hub_graphs(self, graph):
        self.assert_same(graph)

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 60))
    def test_random_graphs(self, seed, n):
        self.assert_same(random_graph(np.random.default_rng(seed), n))

    def test_100x100_lattice(self):
        self.assert_same(lattice_graph(100))
