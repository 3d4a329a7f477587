from collections import deque

import numpy as np
import pytest

from bisectsdp import (
    Assignment,
    BisectionInstance,
    Graph,
    InstanceFormatError,
    cut_value,
    gen_gnp,
    gen_johnson,
    gen_lcf,
    generate,
    laplacian,
    parse_instance,
    serialize_instance,
)
from bisectsdp.graphs import named_lcf_codes


def test_parse_basic():
    inst = parse_instance("4 3 3 1\n1 2\n2 3\n2 4\n")
    assert inst.n == 4 and (inst.m1, inst.m2) == (3, 1)
    assert inst.graph.edges == ((0, 1), (1, 2), (1, 3))[0:0] or inst.graph.num_edges == 3
    assert inst.graph.integral_weights


def test_parse_single_edge():
    inst = parse_instance("2 1 1 1\n1 2\n")
    assert inst.n == 2 and inst.graph.edges == ((0, 1, 1.0),)


def test_parse_rejects_bad_part_sizes():
    with pytest.raises(InstanceFormatError, match="does not match"):
        parse_instance("3 1 2 2\n1 2\n")
    with pytest.raises(InstanceFormatError, match="positive"):
        parse_instance("3 1 3 0\n1 2\n")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(InstanceFormatError, match="out of range"):
        parse_instance("3 1 2 1\n1 5\n")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(InstanceFormatError, match="edge lines"):
        parse_instance("3 2 2 1\n1 2\n")


def test_parse_merges_duplicate_edges_and_skips_comments():
    inst = parse_instance("# demo\n3 3 2 1\n1 2 1.5\n# mid comment\n2 1 2.0\n2 3\n")
    assert inst.graph.num_edges == 2
    weights = {e[:2]: e[2] for e in inst.graph.edges}
    assert weights[(0, 1)] == 3.5
    assert not inst.graph.integral_weights


def test_serialize_round_trip():
    g = gen_gnp(9, 0.5, 17)
    inst = BisectionInstance(g, 6, 3, name="rt")
    back = parse_instance(serialize_instance(inst), name="rt")
    assert back.graph.edges == inst.graph.edges
    assert (back.m1, back.m2) == (inst.m1, inst.m2)


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(1, ())
    with pytest.raises(ValueError):
        Graph(3, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    assert Graph.from_edges(3, [(0, 1, 0.5)]).integral_weights is False


def test_laplacian_small_cases():
    g = Graph.from_edges(2, [(0, 1)])
    assert np.array_equal(laplacian(g), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert np.array_equal(laplacian(k3), 3 * np.eye(3) - np.ones((3, 3)))


def test_laplacian_row_sums_and_psd():
    g = gen_gnp(12, 0.4, 5)
    L = laplacian(g)
    assert np.array_equal(L @ np.ones(12), np.zeros(12))  # exact for integer weights
    assert np.linalg.eigvalsh(L)[0] >= -1e-12


def test_cut_value_star(star4):
    # enumeration over all four (3,1) bisections gives cuts {1, 3, 3, 3}
    leaf_alone = Assignment.from_part1(4, [0, 1, 2])
    center_alone = Assignment.from_part1(4, [1, 2, 3])
    assert cut_value(star4, leaf_alone) == 1.0
    assert cut_value(star4, center_alone) == 3.0


def test_cut_value_equals_laplacian_quadratic_form():
    rng = np.random.default_rng(0)
    g = gen_gnp(10, 0.5, 9)
    L = laplacian(g)
    for _ in range(20):
        part1 = rng.choice(10, size=6, replace=False)
        a = Assignment.from_part1(10, part1)
        z = a.indicator()
        assert cut_value(g, a) == pytest.approx(z @ L @ z, abs=1e-12)


def test_cut_value_size_mismatch(star4):
    with pytest.raises(ValueError):
        cut_value(star4, Assignment.from_part1(3, [0]))


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment((1, 2, 3))
    with pytest.raises(ValueError):
        Assignment.from_part1(3, [5])


def _bfs_distances(g):
    adj = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    D = np.full((g.n, g.n), -1, dtype=int)
    for s in range(g.n):
        D[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if D[s, v] < 0:
                    D[s, v] = D[s, u] + 1
                    queue.append(v)
    return D, adj


def _is_distance_regular(g):
    D, adj = _bfs_distances(g)
    if D.min() < 0:
        return False
    inter = {}
    for s in range(g.n):
        for v in range(g.n):
            d = D[s, v]
            b = sum(1 for w in adj[v] if D[s, w] == d + 1)
            c = sum(1 for w in adj[v] if D[s, w] == d - 1)
            if d in inter and inter[d] != (b, c):
                return False
            inter[d] = (b, c)
    return True


@pytest.mark.parametrize(
    "name,n,m,diameter",
    [("pappus", 18, 27, 4), ("desargues", 20, 30, 5), ("biggs-smith", 102, 153, 7)],
)
def test_named_lcf_graphs(name, n, m, diameter):
    g = generate(name)
    assert g.n == n and g.num_edges == m
    assert set(g.degree_sequence()) == {3}
    D, _ = _bfs_distances(g)
    assert D.max() == diameter
    assert _is_distance_regular(g)


def test_lcf_rejects_unpaired_chords():
    with pytest.raises(ValueError, match="parallel"):
        gen_lcf([2], 4)


def test_lcf_rejects_bad_jumps():
    with pytest.raises(ValueError, match="out of range"):
        gen_lcf([1, -1], 3)
    with pytest.raises(ValueError, match="even"):
        gen_lcf([2, 3, -3], 1)


def test_lcf_codes_file_lists_expected_graphs():
    codes = named_lcf_codes()
    assert set(codes) == {"pappus", "desargues", "biggs-smith"}


def test_johnson_graphs():
    g = gen_johnson(7, 2)
    assert g.n == 21 and g.num_edges == 105
    assert set(g.degree_sequence()) == {10}
    k3 = gen_johnson(3, 1)
    assert k3.n == 3 and k3.num_edges == 3
    octa = gen_johnson(4, 2)
    assert octa.n == 6 and octa.num_edges == 12
    assert set(octa.degree_sequence()) == {4}
    with pytest.raises(ValueError):
        gen_johnson(2, 2)


def test_gnp_endpoints_and_determinism():
    assert gen_gnp(5, 0.0, 1).num_edges == 0
    assert gen_gnp(5, 1.0, 1).num_edges == 10
    assert gen_gnp(30, 0.3, 42).edges == gen_gnp(30, 0.3, 42).edges
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 1)


def test_gnp_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="gnp seed must be non-negative, got -1"):
        gen_gnp(10, 0.5, -1)


def test_generator_registry():
    assert generate("johnson:7,2").n == 21
    assert generate("gnp:30,0.3,42").n == 30
    with pytest.raises(InstanceFormatError):
        generate("petersen")
    with pytest.raises(InstanceFormatError):
        generate("pappus:3")
    with pytest.raises(InstanceFormatError):
        generate("gnp:30,0.3")
