import itertools

import numpy as np
import pytest

from hinstruct.mutations import (
    ComponentLimits,
    EmptyNeighborhoodError,
    build_component_library,
    neighbors_deletion,
    neighbors_grafting,
    neighbors_insertion,
    one_step_neighbors,
)
from hinstruct.structure import MetaStructure, canonical_key, validate

from conftest import random_structure

U, B, A, I = 0, 1, 2, 3
RATES, RATED_BY, FRIEND, BELONGS, CONTAINS, LOCATED, HOSTS = range(7)


@pytest.fixture(scope="module")
def lib(schema):
    return build_component_library(schema)


def schema_paths_oracle(schema, max_nodes):
    """Exhaustive schema-walk enumeration, independent of the library builder."""
    found = set()
    frontier = [((t.id,), ()) for t in schema.node_types]
    while frontier:
        nodes, etypes = frontier.pop()
        if len(nodes) >= 2:
            found.add((nodes, etypes))
        if len(nodes) == max_nodes:
            continue
        for et in schema.edge_types:
            if et.src == nodes[-1]:
                frontier.append((nodes + (et.dst,), etypes + (et.id,)))
    return found


class TestComponentLibrary:
    def test_matches_exhaustive_walk(self, schema, lib):
        oracle = schema_paths_oracle(schema, 3)
        got = {(p.node_types, p.edge_types) for p in lib.grafting}
        assert got == oracle

    def test_insertion_limit_zero_interior(self, schema):
        small = build_component_library(schema, ComponentLimits(insertion_max_interior=0))
        assert all(p.n_nodes == 2 for p in small.insertion)
        assert {(p.node_types, p.edge_types) for p in small.insertion} == schema_paths_oracle(
            schema, 2
        )

    def test_contains_expected_components(self, schema, lib):
        pairs = {(p.node_types, p.edge_types) for p in lib.grafting}
        assert ((U, B), (RATES,)) in pairs
        assert ((U, U, B), (FRIEND, RATES)) in pairs

    def test_empty_edge_set(self):
        from hinstruct.hin import schema_from_dict

        bare = schema_from_dict(
            {"node_types": [{"id": 0, "name": "x", "noun": "X"}], "edge_types": []}
        )
        libx = build_component_library(bare)
        assert libx.insertion == () and libx.grafting == ()

    def test_deterministic_order(self, schema, lib):
        again = build_component_library(schema)
        assert again.insertion == lib.insertion
        assert again.grafting == lib.grafting


class TestInsertion:
    def test_friend_hop_insertion(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        results = neighbors_insertion(origin, lib, schema)
        expect = canonical_key(
            MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        )
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_origin_recreation_filtered(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        keys = {canonical_key(ms) for ms, _ in neighbors_insertion(origin, lib, schema)}
        assert canonical_key(origin) not in keys

    def test_unmatched_component_contributes_nothing(self, schema, lib):
        # category-to-category edges have no matching components at all
        origin = MetaStructure((A, B), ((0, 1, CONTAINS),), 0, 1)
        for ms, desc in neighbors_insertion(origin, lib, schema):
            comp = desc["component"]
            assert comp[0] == A and comp[-1] == B

    def test_all_results_valid(self, schema, lib):
        origin = MetaStructure((U, B, A), ((0, 1, RATES), (1, 2, BELONGS)), 0, 2)
        for ms, _ in neighbors_insertion(origin, lib, schema):
            assert validate(ms, schema) == []


class TestGrafting:
    def test_direct_edge_graft(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        results = neighbors_grafting(origin, lib, schema)
        expect = canonical_key(
            MetaStructure(
                (U, U, B), ((0, 1, FRIEND), (1, 2, RATES), (0, 2, RATES)), 0, 2
            )
        )
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_never_into_source_or_out_of_target(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        for ms, _ in neighbors_grafting(origin, lib, schema):
            assert all(b != ms.source for _, b, _ in ms.edges)
            assert all(a != ms.target for a, _, _ in ms.edges)

    def test_absent_endpoint_type_contributes_nothing(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        for ms, desc in neighbors_grafting(origin, lib, schema):
            comp = desc["component"]
            assert comp[0] in (U, B) and comp[-1] in (U, B)

    def test_respects_max_size(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        for ms, _ in neighbors_grafting(origin, lib, schema, max_nodes=3):
            assert ms.n_nodes <= 3


class TestDeletion:
    def test_delete_middle_friend(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        results = neighbors_deletion(origin, schema)
        expect = canonical_key(MetaStructure((U, B), ((0, 1, RATES),), 0, 1))
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_single_edge_no_deletions(self, schema):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        assert neighbors_deletion(origin, schema) == []

    def test_branch_node_removal(self, schema, lib):
        # city decoration collapses away cleanly
        origin = MetaStructure(
            (U, B, I),
            ((0, 1, RATES), (1, 2, LOCATED)),
            0,
            2,
        )
        results = neighbors_deletion(origin, schema)
        # deleting the business reconnects nothing (no U->I type): no valid result
        assert all(validate(ms, schema) == [] for ms, _ in results)

    def test_reconnection_edge_recorded(self, schema):
        origin = MetaStructure(
            (U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2
        )
        results = neighbors_deletion(origin, schema)
        reconnects = [tuple(desc["reconnect"][0]) for _, desc in results if desc["reconnect"]]
        assert (0, 2, RATES) in reconnects


class TestOneStepNeighbors:
    def test_under_cap_not_sampled(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        rng = np.random.default_rng(0)
        cs = one_step_neighbors(origin, lib, schema, rng, cap=1000)
        assert not cs.sampled
        keys = [c.key for c in cs.candidates]
        assert len(keys) == len(set(keys))
        assert canonical_key(origin) not in keys

    # five-position structure with friend, co-rating, and a direct arm: its
    # neighborhood exceeds the default cap of 20
    RICH = MetaStructure(
        (U, U, B, U, B),
        ((0, 1, FRIEND), (1, 2, RATES), (2, 3, RATED_BY), (3, 4, RATES), (0, 4, RATES)),
        0,
        4,
    )

    def test_over_cap_sampled_exactly(self, schema, lib):
        full = one_step_neighbors(self.RICH, lib, schema, np.random.default_rng(0), cap=10_000)
        assert len(full.candidates) > 20
        cs = one_step_neighbors(self.RICH, lib, schema, np.random.default_rng(0), cap=20)
        assert cs.sampled and len(cs.candidates) == 20

    def test_seeded_sampling_deterministic(self, schema, lib):
        a = one_step_neighbors(self.RICH, lib, schema, np.random.default_rng(5), cap=20)
        b = one_step_neighbors(self.RICH, lib, schema, np.random.default_rng(5), cap=20)
        assert [c.key for c in a.candidates] == [c.key for c in b.candidates]

    def test_empty_neighborhood_raises(self, mini_schema):
        # mini schema has no category-outgoing edges: B->A single edge is stuck
        from hinstruct.mutations import build_component_library as build

        small_lib = build(mini_schema, ComponentLimits(0, 2))
        origin = MetaStructure((1, 2), ((0, 1, 1),), 0, 1)
        with pytest.raises(EmptyNeighborhoodError):
            one_step_neighbors(origin, small_lib, mini_schema, np.random.default_rng(0), cap=5)

    def test_union_is_first_occurrence_over_operations(self, schema, lib):
        rng = np.random.default_rng(17)
        for _ in range(40):
            origin = random_structure(schema, rng, max_nodes=6)
            expect, seen = [], {canonical_key(origin)}
            for ms, desc in itertools.chain(
                neighbors_insertion(origin, lib, schema),
                neighbors_grafting(origin, lib, schema),
                neighbors_deletion(origin, schema),
            ):
                key = canonical_key(ms)
                if key not in seen:
                    seen.add(key)
                    expect.append((ms, key, desc))
            if not expect:
                continue
            cs = one_step_neighbors(origin, lib, schema, np.random.default_rng(0), cap=10_000)
            assert [(c.structure, c.key, c.descriptor) for c in cs.candidates] == expect

    def test_descriptors_tagged_by_operation(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        cs = one_step_neighbors(origin, lib, schema, np.random.default_rng(1), cap=1000)
        ops = {c.descriptor["op"] for c in cs.candidates}
        assert ops <= {"insertion", "grafting", "deletion"}
        assert "deletion" in ops and "grafting" in ops


class TestProperties:
    def test_fuzz_all_neighbors_valid(self, schema, lib):
        rng = np.random.default_rng(7)
        draws = 0
        for _ in range(120):
            origin = random_structure(schema, rng, max_nodes=7)
            for op in (
                lambda: neighbors_insertion(origin, lib, schema),
                lambda: neighbors_grafting(origin, lib, schema),
                lambda: neighbors_deletion(origin, schema),
            ):
                for ms, _ in op():
                    assert validate(ms, schema) == []
                draws += 1
        assert draws == 360

    def test_deletion_partially_inverts_insertion(self, schema, lib):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            origin = random_structure(schema, rng, max_nodes=6)
            okey = canonical_key(origin)
            for ms, desc in neighbors_insertion(origin, lib, schema):
                if len(desc["component"]) != 5:  # single-interior components only
                    continue
                back = {canonical_key(n) for n, _ in neighbors_deletion(ms, schema)}
                assert okey in back, (origin, ms, desc)
                checked += 1
                break
        assert checked > 10

    def test_purity(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        first = [(c.key, c.descriptor) for c in one_step_neighbors(
            origin, lib, schema, np.random.default_rng(3), cap=50).candidates]
        second = [(c.key, c.descriptor) for c in one_step_neighbors(
            origin, lib, schema, np.random.default_rng(3), cap=50).candidates]
        assert first == second
