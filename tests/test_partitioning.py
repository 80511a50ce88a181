"""Tests for the multilevel k-way and hierarchical graph partitioners."""

from __future__ import annotations

import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.placements import hmetis_assignment, metis_assignment
from repro.config import ClusterSpec, FlatClusterSpec
from repro.exceptions import PartitioningError
from repro.partitioning import coarsen, kway
from repro.partitioning.coarsen import (
    _shuffled_range,
    coarsen_once,
    coarsen_to_size,
    pack_weights,
)
from repro.partitioning.hierarchical import hierarchical_partition
from repro.partitioning.kway import (
    index_rows,
    partition_indexed,
    partition_kway,
    random_partition,
    subgraph_cutter,
)
from repro.partitioning.quality import balance_ratio, edge_cut, part_weights, validate_partition
from repro.partitioning.refine import rebalance_partition, refine_partition
from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.socialgraph.graph import SocialGraph
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology


def two_cliques(size: int = 8) -> dict[int, dict[int, int]]:
    """Two cliques connected by a single bridge edge."""
    adjacency: dict[int, dict[int, int]] = {i: {} for i in range(2 * size)}
    for offset in (0, size):
        for i in range(size):
            for j in range(i + 1, size):
                adjacency[offset + i][offset + j] = 1
                adjacency[offset + j][offset + i] = 1
    adjacency[0][size] = 1
    adjacency[size][0] = 1
    return adjacency


def shifted(adjacency: dict[int, dict[int, int]], offset: int) -> dict[int, dict[int, int]]:
    """``adjacency`` under ids moved by ``offset``: at 0 the ids stay
    ``0..n-1`` and the relabelling pass is the identity, otherwise it
    builds its id -> position dict."""
    return {
        node + offset: {neighbour + offset: weight for neighbour, weight in row.items()}
        for node, row in adjacency.items()
    }


class TestQuality:
    def test_edge_cut_of_perfect_split(self):
        adjacency = two_cliques(6)
        assignment = {node: 0 if node < 6 else 1 for node in adjacency}
        assert edge_cut(adjacency, assignment) == 1

    def test_edge_cut_of_interleaved_split(self):
        adjacency = two_cliques(6)
        assignment = {node: node % 2 for node in adjacency}
        assert edge_cut(adjacency, assignment) > 10

    def test_balance_ratio_perfect(self):
        adjacency = two_cliques(4)
        assignment = {node: 0 if node < 4 else 1 for node in adjacency}
        assert balance_ratio(assignment, 2) == pytest.approx(1.0)

    def test_validate_partition_detects_missing_nodes(self):
        with pytest.raises(PartitioningError):
            validate_partition({1: 0}, {1, 2}, parts=2)

    def test_validate_partition_detects_bad_part(self):
        with pytest.raises(PartitioningError):
            validate_partition({1: 5}, {1}, parts=2)


def by_value(rows):
    """``rows`` with every weight sequence as a tuple: a packed (``bytes``)
    row and a tuple row of the same ints compare equal."""
    return [(targets, tuple(weights)) for targets, weights in rows]


def indexed(adjacency):
    """Index-space rows of a test graph plus unit weights and identity order."""
    _, rows = index_rows(adjacency)
    return rows, [1] * len(rows), list(range(len(rows)))


class TestCoarsening:
    def test_coarsen_once_halves_clique(self):
        rows, weights, _ = indexed(two_cliques(8))
        coarse = coarsen_once(rows, weights, random.Random(1), max_node_weight=16)
        assert len(coarse.rows) < len(rows)
        assert sum(coarse.weights) == len(rows)

    def test_coarsen_preserves_total_weight(self):
        graph = facebook_like(users=200, seed=5)
        rows, weights, _ = indexed(graph.undirected_adjacency())
        levels = coarsen_to_size(rows, weights, 50, random.Random(2), max_node_weight=8)
        for level in levels:
            assert sum(level.weights) == 200

    def test_coarsen_to_size_reaches_target_or_stalls(self):
        graph = facebook_like(users=300, seed=6)
        rows, weights, _ = indexed(graph.undirected_adjacency())
        levels = coarsen_to_size(rows, weights, 60, random.Random(3), max_node_weight=10)
        assert levels, "at least one coarsening level expected"
        assert len(levels[-1].rows) < 300

    def test_fine_to_coarse_covers_all_nodes(self):
        rows, weights, _ = indexed(two_cliques(10))
        coarse = coarsen_once(rows, weights, random.Random(4), max_node_weight=20)
        assert sorted(coarse.fine_order) == list(range(len(rows)))
        assert all(0 <= c < len(coarse.rows) for c in coarse.fine_to_coarse)
        # Matching order: a representative, then its partner, share an id.
        assert [coarse.fine_to_coarse[fine] for fine in coarse.fine_order] == sorted(
            coarse.fine_to_coarse
        )

    def test_visit_order_draws_what_random_shuffle_draws(self):
        for size in (0, 1, 2, 3, 64, 1000, 4097):
            for seed in (1, 7):
                expected = list(range(size))
                random.Random(seed).shuffle(expected)
                rng = random.Random(seed)
                assert _shuffled_range(size, rng) == expected
                # ... and leaves the generator where shuffle leaves it.
                reference = random.Random(seed)
                reference.shuffle(list(range(size)))
                assert rng.random() == reference.random()

    def test_coarse_rows_are_the_summed_member_rows(self):
        """Every frozen coarse row equals the dict row the contraction sums,
        entry order included, with all coarse rows built side by side."""
        graph = facebook_like(users=300, seed=6)
        rows, weights, _ = indexed(graph.undirected_adjacency())
        coarse = coarsen_once(rows, weights, random.Random(3), max_node_weight=10)
        expected: list[dict[int, int]] = [{} for _ in coarse.rows]
        for fine in coarse.fine_order:
            owner = coarse.fine_to_coarse[fine]
            for neighbour, weight in zip(*rows[fine]):
                target = coarse.fine_to_coarse[neighbour]
                if target != owner:
                    expected[owner][target] = expected[owner].get(target, 0) + weight
        assert by_value(coarse.rows) == [(tuple(row), tuple(row.values())) for row in expected]


class TestPackWeights:
    def test_byte_sized_ints_pack_into_bytes(self):
        packed = pack_weights((1, 0, 255, 2))
        assert type(packed) is bytes
        assert tuple(packed) == (1, 0, 255, 2)
        assert pack_weights(()) == b""

    @pytest.mark.parametrize("weights", [(1, 256), (3, -1), (1, 0.5), (2.0,)])
    def test_other_weights_stay_a_tuple_of_the_same_values(self, weights):
        packed = pack_weights(weights)
        assert type(packed) is tuple
        assert packed == weights

    def test_a_failed_packing_loses_no_weight(self):
        """``bytes()`` fails at the third value, after reading two; the
        fallback iterates the view again from the start."""
        assert pack_weights({1: 2, 5: 7, 3: 300, 4: 1}.values()) == (2, 7, 300, 1)


class TestRefinement:
    def test_refine_improves_bad_partition(self):
        adjacency = two_cliques(8)
        rows, weights, order = indexed(adjacency)
        part = [node % 2 for node in order]
        before = edge_cut(adjacency, dict(enumerate(part)))
        refine_partition(rows, part, 2, weights, max_part_weight=8 * 1.05)
        after = edge_cut(adjacency, dict(enumerate(part)))
        assert after <= before

    def test_refine_respects_balance(self):
        rows, weights, order = indexed(two_cliques(8))
        part = [node % 2 for node in order]
        refine_partition(rows, part, 2, weights, max_part_weight=9)
        assert max(part.count(0), part.count(1)) <= 9

    def test_rebalance_fixes_overweight_part(self):
        rows, weights, order = indexed(two_cliques(8))
        part = [0] * len(rows)
        rebalance_partition(rows, part, order, 2, weights, tolerance=1.1)
        assert balance_ratio(dict(enumerate(part)), 2) <= 1.15


def reference_refine(adjacency, assignment, parts, node_weights, max_part_weight, passes):
    """The full-sweep refinement the worklist kernel replaced, verbatim but
    for the evaluation counter: every pass re-evaluates every node."""
    weights = node_weights
    part_weight = [0.0] * parts
    for node, part in assignment.items():
        part_weight[part] += weights[node]
    evaluations = 0
    for _ in range(passes):
        moved = 0
        for node, neighbours in adjacency.items():
            current = assignment[node]
            if not neighbours:
                continue
            evaluations += 1
            # Connectivity of the node towards each part it touches.
            connectivity: dict[int, int] = {}
            for neighbour, weight in neighbours.items():
                part = assignment[neighbour]
                connectivity[part] = connectivity.get(part, 0) + weight
            internal = connectivity.get(current, 0)
            best_part = current
            best_gain = 0
            for part, external in connectivity.items():
                if part == current:
                    continue
                gain = external - internal
                if gain <= best_gain:
                    continue
                if part_weight[part] + weights[node] > max_part_weight:
                    continue
                best_part = part
                best_gain = gain
            if best_part != current:
                assignment[node] = best_part
                part_weight[current] -= weights[node]
                part_weight[best_part] += weights[node]
                moved += 1
        if moved == 0:
            break
    return evaluations


def full_sweep_refine(rows, part, parts, weights, max_part_weight, passes=4):
    """``reference_refine`` behind the index-space kernel's signature: the
    ``(targets, weights)`` rows go back to the dict rows it was written for."""
    assignment = dict(enumerate(part))
    evaluations = reference_refine(
        {node: dict(zip(*row)) for node, row in enumerate(rows)},
        assignment,
        parts,
        dict(enumerate(weights)),
        max_part_weight,
        passes,
    )
    for node, target in assignment.items():
        part[node] = target
    return evaluations


@st.composite
def refinement_inputs(draw):
    size = draw(st.integers(min_value=4, max_value=28))
    adjacency: dict[int, dict[int, int]] = {node: {} for node in range(size)}
    # Edge weights 1-2 make equal gains common: ties among targets, and
    # nodes whose external weight equals their internal weight.  A unit of
    # 0.1 gives float weights whose sums round (0.1 + 0.2 != 0.3).
    heaviest = draw(st.sampled_from([2, 5]))
    unit = draw(st.sampled_from([1, 1, 0.1]))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1), st.integers(1, heaviest)
            ),
            max_size=size * 4,
        )
    )
    for left, right, weight in edges:
        # left == right is a self-loop: weight that moves with the node.
        adjacency[left][right] = weight * unit
        adjacency[right][left] = weight * unit
    parts = draw(st.integers(min_value=2, max_value=9))
    weights = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    part = draw(st.lists(st.integers(0, parts - 1), min_size=size, max_size=size))
    # From "no part may grow" to a limit that never binds.
    slack = draw(st.floats(min_value=0.7, max_value=1.6))
    passes = draw(st.integers(min_value=1, max_value=4))
    return adjacency, weights, parts, part, slack, passes


@given(data=refinement_inputs())
@settings(max_examples=300, deadline=None)
def test_worklist_refinement_equals_full_sweep(data):
    """The worklist kernel moves exactly what a full sweep moves — same
    assignment after every pass budget — and never evaluates more nodes."""
    adjacency, weights, parts, part, slack, passes = data
    _, rows = index_rows(adjacency)
    limit = max(sum(weights) / parts * slack, max(weights))
    expected = list(part)
    full = full_sweep_refine(rows, expected, parts, weights, limit, passes)
    evaluations = refine_partition(rows, part, parts, weights, limit, passes)
    assert part == expected
    assert evaluations <= full


def test_moved_node_is_evaluated_again():
    """Re-queue rule (b), which random graphs rarely isolate: node 0 is
    refused its best target (part 2 is full) and settles for part 1; node 4
    — no neighbour of it — then leaves part 2, and the next pass must
    look at node 0 again although none of its neighbours moved."""
    adjacency = {0: {1: 5, 3: 3}, 1: {0: 5, 2: 9}, 2: {1: 9}, 3: {0: 3}, 4: {5: 4}, 5: {4: 4}}
    rows, weights, _ = indexed(adjacency)
    part = [0, 2, 2, 1, 2, 0]
    expected = list(part)
    full_sweep_refine(rows, expected, 3, weights, max_part_weight=3)
    refine_partition(rows, part, 3, weights, max_part_weight=3)
    assert part == expected == [2, 2, 2, 1, 0, 0]


@pytest.mark.parametrize("first,second,winner", [(1, 2, 2), (2, 1, 1)])
def test_equal_gains_go_to_the_part_seen_first(first, second, winner):
    """The one order-dependent outcome: node 0 (part 0, no internal edge)
    gains 1 towards part 2 (neighbour 1) and towards part 1 (neighbour 2);
    both fit, and the tie goes to the part of the neighbour its row lists
    first, whatever the part indices.  Nodes 1 and 2 are held by heavier
    edges to nodes 3 and 4."""
    adjacency = {
        0: {first: 1, second: 1},
        1: {0: 1, 3: 5},
        2: {0: 1, 4: 5},
        3: {1: 5},
        4: {2: 5},
    }
    rows, weights, _ = indexed(adjacency)
    part = [0, 2, 1, 2, 1]
    expected = list(part)
    full_sweep_refine(rows, expected, 3, weights, max_part_weight=5)
    refine_partition(rows, part, 3, weights, max_part_weight=5)
    assert part == expected == [winner, 2, 1, 2, 1]


def test_float_weights_are_summed_afresh_at_every_evaluation():
    """Node 2 leaves part 0 for part 1 (0.3 against 0.1).  Kept up to date
    across that move, node 0's internal minus external weight would read
    2 x 0.4 - 0.6 - 2 x 0.1 = 5.6e-17, not negative, and its next
    evaluation would be skipped; summed from its row it has 0.3 inside
    against 0.2 + 0.1 = 0.30000000000000004 towards part 1, a positive
    gain, and node 0 follows, as does node 1 after it."""
    adjacency = {
        0: {3: 0.2, 1: 0.3, 2: 0.1},
        1: {0: 0.3},
        2: {3: 0.3, 0: 0.1},
        3: {0: 0.2, 2: 0.3},
    }
    rows, weights, _ = indexed(adjacency)
    part = [0, 0, 0, 1]
    expected = list(part)
    full_sweep_refine(rows, expected, 2, weights, max_part_weight=4)
    refine_partition(rows, part, 2, weights, max_part_weight=4)
    assert part == expected == [1, 1, 1, 1]


def test_worklist_skips_two_fifths_of_the_full_sweep(monkeypatch):
    """A count, not a timing: on a 2 000-user graph at 4 parts the multilevel
    run evaluates at most 0.6 x the gains a full sweep per pass would."""
    ids, rows = index_rows(livejournal_like(users=2000, seed=7).undirected_adjacency())
    assignment, evaluations = partition_indexed(ids, rows, 4, seed=7)
    monkeypatch.setattr(kway, "refine_partition", full_sweep_refine)
    reference, full = partition_indexed(ids, rows, 4, seed=7)
    assert list(assignment.items()) == list(reference.items())
    assert 0 < evaluations <= 0.6 * full


def reference_induced_rows(adjacency, nodes):
    """The dict-based sub-graph indexing the cutter replaced, verbatim: the
    rows ``nodes`` induce, in their iteration order, read from the
    adjacency dict."""
    ids = list(nodes)
    index_of = {node: index for index, node in enumerate(ids)}
    rows = []
    for node in ids:
        row = {index_of[n]: w for n, w in adjacency[node].items() if n in index_of}
        rows.append((tuple(row), tuple(row.values())))
    return ids, rows


@st.composite
def induced_subgraph_inputs(draw):
    size = draw(st.integers(min_value=1, max_value=30))
    adjacency: dict[int, dict[int, int]] = {node: {} for node in range(size)}
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), st.integers(1, 5)),
            max_size=size * 3,
        )
    )
    for left, right, weight in edges:
        if left != right:
            adjacency[left][right] = adjacency[right][left] = weight
    # Dense ids take the identity relabelling; shifted ones the dict.
    adjacency = shifted(adjacency, draw(st.sampled_from([0, 1000])))
    subsets = draw(
        st.lists(st.sets(st.sampled_from(sorted(adjacency))), min_size=1, max_size=4)
    )
    return adjacency, subsets


@given(data=induced_subgraph_inputs())
@settings(max_examples=300, deadline=None)
def test_cut_sub_rows_equal_the_dict_reference(data):
    """A sub-graph cut from the parent's rows is the one indexed from the
    adjacency dict — ids, row order and entry order — cut after cut from
    one cutter, isolated nodes and edgeless subsets included."""
    adjacency, subsets = data
    cut = subgraph_cutter(*index_rows(adjacency))
    for nodes in subsets:
        sub_ids, sub_rows = cut(nodes)
        assert (sub_ids, by_value(sub_rows)) == reference_induced_rows(adjacency, nodes)


class TestKWay:
    def test_partition_covers_all_nodes(self):
        graph = facebook_like(users=300, seed=7)
        adjacency = graph.undirected_adjacency()
        result = partition_kway(adjacency, parts=6, seed=1)
        assert set(result.assignment) == set(adjacency)

    def test_partition_is_balanced(self):
        graph = facebook_like(users=400, seed=8)
        adjacency = graph.undirected_adjacency()
        result = partition_kway(adjacency, parts=8, seed=1)
        assert result.balance <= 1.25

    def test_partition_beats_random_cut(self):
        graph = facebook_like(users=400, seed=9)
        adjacency = graph.undirected_adjacency()
        clever = partition_kway(adjacency, parts=8, seed=1)
        rand = random_partition(list(adjacency), parts=8, seed=1)
        assert clever.edge_cut < edge_cut(adjacency, rand.assignment)

    def test_two_cliques_are_separated(self):
        adjacency = two_cliques(12)
        result = partition_kway(adjacency, parts=2, seed=1)
        parts_of_first = {result.assignment[node] for node in range(12)}
        parts_of_second = {result.assignment[node] for node in range(12, 24)}
        assert len(parts_of_first) == 1
        assert len(parts_of_second) == 1
        assert parts_of_first != parts_of_second

    def test_single_part(self):
        adjacency = two_cliques(4)
        result = partition_kway(adjacency, parts=1)
        assert set(result.assignment.values()) == {0}

    def test_more_parts_than_nodes(self):
        adjacency = {1: {}, 2: {}, 3: {}}
        result = partition_kway(adjacency, parts=10, seed=1)
        assert set(result.assignment) == {1, 2, 3}

    def test_empty_graph(self):
        result = partition_kway({}, parts=4)
        assert result.assignment == {}

    def test_invalid_parts(self):
        with pytest.raises(PartitioningError):
            partition_kway({1: {}}, parts=0)

    def test_edgeless_graph_is_spread_evenly(self):
        result = partition_kway({node: {} for node in range(90)}, parts=3, seed=1)
        assert sorted(part_weights(result.assignment, 3)) == [30, 30, 30]
        assert result.edge_cut == 0

    def test_single_part_and_empty_graph_report_a_perfect_partition(self):
        for adjacency in ({}, two_cliques(4)):
            result = partition_kway(adjacency, parts=1)
            assert (result.edge_cut, result.balance) == (0, 1.0)
            assert set(result.assignment) == set(adjacency)

    def test_dangling_neighbour_fails_in_the_relabelling_pass(self):
        adjacency = two_cliques(40)
        adjacency[3][999] = 1
        with pytest.raises(PartitioningError, match="node 3 lists neighbour 999"):
            partition_kway(adjacency, parts=2)
        spec = ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3)
        with pytest.raises(PartitioningError, match="neighbour 999"):
            hierarchical_partition(adjacency, spec)
        # Ids 0..79 with a neighbour one past the end or below zero: the
        # identity relabelling range-checks what it does not look up.  The
        # same graph under ids 1000..1079 goes through the dict lookup.
        for offset in (0, 1000):
            for neighbour in (80, -1):
                adjacency = shifted(two_cliques(40), offset)
                adjacency[3 + offset][neighbour] = 1
                with pytest.raises(
                    PartitioningError, match=f"node {3 + offset} lists neighbour {neighbour},"
                ):
                    partition_kway(adjacency, parts=2)
                with pytest.raises(PartitioningError, match=f"neighbour {neighbour},"):
                    hierarchical_partition(adjacency, spec)

    @pytest.mark.parametrize("weight", [0, -2, -math.inf])
    def test_non_positive_edge_weight_fails_in_the_relabelling_pass(self, weight):
        adjacency = two_cliques(40)
        adjacency[5][6] = adjacency[6][5] = weight
        with pytest.raises(PartitioningError, match="non-positive weight"):
            partition_kway(adjacency, parts=2)
        spec = ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3)
        with pytest.raises(PartitioningError, match="node 5 has an edge of non-positive"):
            hierarchical_partition(adjacency, spec)
        # Ids 0..n-1 (above) take the identity relabelling; sparse ids the
        # dict lookup.  Both check every weight.
        adjacency = shifted(adjacency, 1000)
        with pytest.raises(PartitioningError, match="node 1005 has an edge of non-positive"):
            partition_kway(adjacency, parts=2)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_edge_weight_fails_in_the_relabelling_pass(self, weight):
        """``min`` passes over a NaN and an infinity is positive, so the
        tuple rows that can hold either are checked for finiteness."""
        spec = ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3)
        for offset in (0, 1000):
            adjacency = shifted(two_cliques(40), offset)
            adjacency[5 + offset][6 + offset] = adjacency[6 + offset][5 + offset] = weight
            message = f"node {5 + offset} has an edge of non-finite weight"
            with pytest.raises(PartitioningError, match=message):
                partition_kway(adjacency, parts=2)
            with pytest.raises(PartitioningError, match=message):
                hierarchical_partition(adjacency, spec)

    def test_identity_labels_index_like_any_other_labels(self):
        adjacency = two_cliques(10)
        ids, rows = index_rows(adjacency)
        sparse_ids, sparse_rows = index_rows(shifted(adjacency, 1000))
        assert sparse_ids == [node + 1000 for node in ids]
        assert sparse_rows == rows

    def test_random_partition_balance(self):
        result = random_partition(list(range(100)), parts=10, seed=2)
        weights = part_weights(result.assignment, 10)
        assert max(weights) - min(weights) <= 1

    def test_nodes_by_part_matches_assignment(self):
        graph = facebook_like(users=300, seed=7)
        result = partition_kway(graph.undirected_adjacency(), parts=6, seed=1)
        groups = result.nodes_by_part()
        assert len(groups) == 6
        assert sorted(node for group in groups for node in group) == sorted(
            result.assignment
        )
        for part in range(6):
            assert all(result.assignment[node] == part for node in groups[part])
            assert result.nodes_in_part(part) == list(groups[part])
        # The grouping is built once and reused.
        assert result.nodes_by_part() is groups

    def test_nodes_in_part_range_check(self):
        result = partition_kway(two_cliques(4), parts=2, seed=1)
        with pytest.raises(PartitioningError):
            result.nodes_in_part(2)
        with pytest.raises(PartitioningError):
            result.nodes_in_part(-1)


class TestHierarchical:
    def test_assignment_within_server_range(self):
        graph = facebook_like(users=300, seed=10)
        spec = ClusterSpec(
            intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4
        )
        result = hierarchical_partition(graph.undirected_adjacency(), spec, seed=1)
        assert set(result.server_assignment) == set(graph.users)
        assert all(0 <= s < spec.total_servers for s in result.server_assignment.values())

    def test_rack_consistent_with_server(self):
        graph = facebook_like(users=200, seed=11)
        spec = ClusterSpec(
            intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4
        )
        result = hierarchical_partition(graph.undirected_adjacency(), spec, seed=1)
        for node, server in result.server_assignment.items():
            assert result.rack_assignment[node] == server // spec.servers_per_rack

    def test_intermediate_consistent_with_rack(self):
        graph = facebook_like(users=200, seed=12)
        spec = ClusterSpec(
            intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4
        )
        result = hierarchical_partition(graph.undirected_adjacency(), spec, seed=1)
        for node, rack in result.rack_assignment.items():
            assert result.intermediate_assignment[node] == rack // spec.racks_per_intermediate

    def test_empty_graph(self):
        spec = ClusterSpec(
            intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4
        )
        result = hierarchical_partition({}, spec)
        assert result.server_assignment == {}

    def test_sub_part_smaller_than_its_fan_out(self):
        """2 users on a cluster of 3-server racks: every level below the
        first partitions fewer nodes than it has parts."""
        spec = ClusterSpec(
            intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4
        )
        result = hierarchical_partition({10: {20: 2}, 20: {10: 2}}, spec)
        assert set(result.server_assignment) == {10, 20}
        for node, server in result.server_assignment.items():
            assert result.rack_assignment[node] == server // 3
            assert result.intermediate_assignment[node] == server // 6
        assert result.balance == pytest.approx(12.0)


def shifted_graph(graph: SocialGraph, offset: int) -> SocialGraph:
    """``graph`` under user ids moved by ``offset``."""
    moved = SocialGraph(user + offset for user in graph.users)
    for follower, followee in graph.edges():
        moved.add_edge(follower + offset, followee + offset)
    return moved


ORDER_GRAPHS = {
    "twitter": lambda: twitter_like(users=600, seed=3),
    "facebook": lambda: facebook_like(users=600, seed=3),
    "livejournal": lambda: livejournal_like(users=600, seed=3),
    "shifted": lambda: shifted_graph(facebook_like(users=400, seed=4), 1000),
}


@pytest.mark.parametrize("name", sorted(ORDER_GRAPHS))
def test_placement_entry_points_return_the_public_partition_in_order(name):
    """Initial placement iterates the assignment dict, so the index-once
    placement helpers must return the public partitioners' assignments in
    the same order, not just with the same contents."""
    graph = ORDER_GRAPHS[name]()
    spec = ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)
    tree, flat = TreeTopology(spec), FlatTopology(FlatClusterSpec(machines=10))
    hierarchical = hierarchical_partition(graph.undirected_adjacency(), spec, seed=7)
    assert list(hmetis_assignment(graph, tree, seed=7).items()) == list(
        hierarchical.server_assignment.items()
    )
    for topology in (tree, flat):
        expected = partition_kway(graph.undirected_adjacency(), len(topology.servers), seed=7)
        assert list(metis_assignment(graph, topology, seed=7).items()) == list(
            expected.assignment.items()
        )
    assert hmetis_assignment(graph, flat, seed=7) == metis_assignment(graph, flat, seed=7)


def scaled(graph: SocialGraph, factor: float) -> dict[int, dict[int, float]]:
    """``graph``'s undirected adjacency with every edge weight times ``factor``."""
    return {
        node: {neighbour: weight * factor for neighbour, weight in row.items()}
        for node, row in graph.undirected_adjacency().items()
    }


LAYOUT_GRAPHS = {
    # Weights 1 and 2: every finest row packs into bytes.
    "livejournal": lambda: livejournal_like(users=2500, seed=7).undirected_adjacency(),
    # Weights 300 and 600: every row of every level stays a tuple.
    "heavy": lambda: scaled(livejournal_like(users=1000, seed=5), 300),
    # Weights 0.75 and 1.5: floats never pack.
    "float": lambda: scaled(livejournal_like(users=1000, seed=5), 0.75),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_GRAPHS))
def test_packed_and_tuple_rows_partition_alike(name, monkeypatch):
    """A row's weights read back the same from ``bytes`` as from a tuple, so
    all four entry points return the same assignment, in the same order,
    with packing switched off."""
    adjacency = LAYOUT_GRAPHS[name]()
    graph = SimpleNamespace(undirected_adjacency=lambda: adjacency)
    spec = ClusterSpec(intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4)
    tree = TreeTopology(spec)

    def assignments():
        return [
            list(partition_kway(adjacency, parts=8, seed=7).assignment.items()),
            list(hierarchical_partition(adjacency, spec, seed=7).server_assignment.items()),
            list(hmetis_assignment(graph, tree, seed=7).items()),
            list(metis_assignment(graph, tree, seed=7).items()),
        ]

    layouts = {type(weights) for targets, weights in index_rows(adjacency)[1] if targets}
    assert layouts == ({bytes} if name == "livejournal" else {tuple})
    packed = assignments()
    monkeypatch.setattr(coarsen, "pack_weights", tuple)
    monkeypatch.setattr(kway, "pack_weights", tuple)
    assert {type(weights) for _, weights in index_rows(adjacency)[1]} == {tuple}
    assert assignments() == packed


def assignment_peak_per_entry(
    assign,
    spec=ClusterSpec(intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4),
):
    """``tracemalloc`` peak of ``assign(graph, topology, seed=7)`` on a
    2 500-user LiveJournal-like graph and the tree of ``spec`` (by default
    24 servers), the undirected adjacency included, in bytes per adjacency
    entry."""
    graph = livejournal_like(users=2500, seed=7)
    topology = TreeTopology(spec)
    entries = sum(map(len, graph.undirected_adjacency().values()))
    tracemalloc.start()
    try:
        assignment = assign(graph, topology, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(assignment) == graph.num_users
    return peak / entries


def test_hmetis_set_up_stays_under_70_bytes_per_adjacency_entry():
    """Absolute ceiling on the hierarchical partitioner's peak.

    About 59 B/entry measured with ``(targets, weights)`` rows whose
    weights are packed into ``bytes`` at every level they fit, and the
    adjacency dict freed once it is indexed; weights as tuples cost about
    84, keeping the dict alive through the top split (sub-splits indexed
    from it) about 129, and rows stored as dicts about 200.
    """
    per_entry = assignment_peak_per_entry(hmetis_assignment)
    assert per_entry <= 70, f"{per_entry:.0f} bytes per adjacency entry"


def test_metis_assignment_memory_ceiling():
    """The flat partitioner's peak: about 57 B/entry with byte-packed
    weights and the adjacency dict freed once it is indexed, about 77 with
    tuple weights, about 120 with the dict alive through coarsening."""
    per_entry = assignment_peak_per_entry(metis_assignment)
    assert per_entry <= 68, f"{per_entry:.0f} bytes per adjacency entry"


def test_metis_assignment_memory_ceiling_at_225_servers():
    """The flat partitioner at one part per server of the paper's cluster
    (``ClusterSpec()``, 225 servers): about 96 B/entry measured, hMETIS
    about 52 there.  Refinement state that grew with nodes x parts — a
    per-node connectivity table over all 225 parts — would add about 62."""
    per_entry = assignment_peak_per_entry(metis_assignment, ClusterSpec())
    assert per_entry <= 110, f"{per_entry:.0f} bytes per adjacency entry"
