import copy
import itertools
import time
from collections import Counter

import numpy as np
import pytest

from hinstruct import evolution, mutations, structure
from hinstruct.cli import EXIT_OK, main
from hinstruct.grammar import encode_metastructure
from hinstruct.hin import DataError, LruMemo
from hinstruct.mutations import (
    UNION_MEMO_ENTRIES,
    EmptyNeighborhoodError,
    _graftings,
    _insertions,
    build_component_library,
    neighbors_deletion,
    neighbors_grafting,
    neighbors_insertion,
    one_step_neighbors,
)
from hinstruct.structure import (
    MAX_SCHEMA_WALKS,
    MetaPath,
    MetaStructure,
    canonical_key,
    isomorphism_invariant,
    validate,
)
from hinstruct.synth import write_demo_config

from conftest import enumerate_corpus, neighbors_oracle, random_structure, raw_graftings

U, B, A, I = 0, 1, 2, 3
RATES, RATED_BY, FRIEND, BELONGS, CONTAINS, LOCATED, HOSTS = range(7)


@pytest.fixture(scope="module")
def lib(schema):
    return build_component_library(schema, 10, 1, 3)


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
        small = build_component_library(schema, 10, 0, 3)
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
        libx = build_component_library(bare, 10, 1, 3)
        assert libx.insertion == () and libx.grafting == ()

    def test_deterministic_order(self, schema, lib):
        again = build_component_library(schema, 10, 1, 3)
        assert again.insertion == lib.insertion
        assert again.grafting == lib.grafting

    @pytest.mark.parametrize("limit", [2, 3, 6, 10])
    def test_walks_ordered_by_size_then_types(self, schema, lib, limit):
        expect = sorted(schema_paths_oracle(schema, limit), key=lambda p: (len(p[0]), MetaPath(*p).type_sequence()))
        walks = structure.schema_walks(schema, [t.id for t in schema.node_types], limit)
        got = [(p.node_types, p.edge_types) for p in walks]
        assert got == expect
        if limit == 3:  # the default library
            assert [(p.node_types, p.edge_types) for p in lib.grafting] == expect

    def test_walk_budget_stops_a_runaway_limit(self, schema):
        # the demo schema's walk count doubles per level; 1000 would never end
        start = time.perf_counter()
        with pytest.raises(DataError, match=f"component limit 1000: .* more than {MAX_SCHEMA_WALKS:,}"):
            build_component_library(schema, 10, 1, 1000)
        assert time.perf_counter() - start < 1.0


class TestInsertion:
    def test_friend_hop_insertion(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        results = neighbors_insertion(origin, lib)
        expect = canonical_key(
            MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        )
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_origin_recreation_filtered(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        keys = {canonical_key(ms) for ms, _ in neighbors_insertion(origin, lib)}
        assert canonical_key(origin) not in keys

    def test_unmatched_component_contributes_nothing(self, schema, lib):
        # category-to-category edges have no matching components at all
        origin = MetaStructure((A, B), ((0, 1, CONTAINS),), 0, 1)
        for ms, desc in neighbors_insertion(origin, lib):
            comp = desc["component"]
            assert comp[0] == A and comp[-1] == B

    def test_all_results_valid(self, schema, lib):
        origin = MetaStructure((U, B, A), ((0, 1, RATES), (1, 2, BELONGS)), 0, 2)
        for ms, _ in neighbors_insertion(origin, lib):
            assert validate(ms, schema) == []


class TestGrafting:
    def test_direct_edge_graft(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        results = neighbors_grafting(origin, lib)
        expect = canonical_key(
            MetaStructure(
                (U, U, B), ((0, 1, FRIEND), (1, 2, RATES), (0, 2, RATES)), 0, 2
            )
        )
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_never_into_source_or_out_of_target(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        for ms, _ in neighbors_grafting(origin, lib):
            assert all(b != ms.source for _, b, _ in ms.edges)
            assert all(a != ms.target for a, _, _ in ms.edges)

    def test_absent_endpoint_type_contributes_nothing(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        for ms, desc in neighbors_grafting(origin, lib):
            comp = desc["component"]
            assert comp[0] in (U, B) and comp[-1] in (U, B)

    def test_respects_max_size(self, schema):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        for ms, _ in neighbors_grafting(origin, build_component_library(schema, 3, 1, 3)):
            assert ms.n_nodes <= 3


class TestDeletion:
    def test_delete_middle_friend(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        results = neighbors_deletion(origin, lib)
        expect = canonical_key(MetaStructure((U, B), ((0, 1, RATES),), 0, 1))
        assert expect in {canonical_key(ms) for ms, _ in results}

    def test_single_edge_no_deletions(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        assert neighbors_deletion(origin, lib) == []

    def test_branch_node_removal(self, schema, lib):
        # city decoration collapses away cleanly
        origin = MetaStructure(
            (U, B, I),
            ((0, 1, RATES), (1, 2, LOCATED)),
            0,
            2,
        )
        results = neighbors_deletion(origin, lib)
        # deleting the business reconnects nothing (no U->I type): no valid result
        assert all(validate(ms, schema) == [] for ms, _ in results)

    def test_reconnection_edge_recorded(self, schema, lib):
        origin = MetaStructure(
            (U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2
        )
        results = neighbors_deletion(origin, lib)
        reconnects = [tuple(desc["reconnect"][0]) for _, desc in results if desc["reconnect"]]
        assert (0, 2, RATES) in reconnects


class TestOneStepNeighbors:
    def test_under_cap_not_sampled(self, schema, lib):
        origin = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        rng = np.random.default_rng(0)
        cs = one_step_neighbors(origin, lib, rng, cap=1000)
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
        full = one_step_neighbors(self.RICH, lib, np.random.default_rng(0), cap=10_000)
        assert len(full.candidates) > 20
        cs = one_step_neighbors(self.RICH, lib, np.random.default_rng(0), cap=20)
        assert cs.sampled and len(cs.candidates) == 20

    def test_seeded_sampling_deterministic(self, schema, lib):
        a = one_step_neighbors(self.RICH, lib, np.random.default_rng(5), cap=20)
        b = one_step_neighbors(self.RICH, lib, np.random.default_rng(5), cap=20)
        assert [c.key for c in a.candidates] == [c.key for c in b.candidates]

    def test_empty_neighborhood_raises(self, mini_schema):
        # mini schema has no category-outgoing edges: B->A single edge is stuck
        from hinstruct.mutations import build_component_library as build

        small_lib = build(mini_schema, 10, 0, 2)
        origin = MetaStructure((1, 2), ((0, 1, 1),), 0, 1)
        with pytest.raises(EmptyNeighborhoodError):
            one_step_neighbors(origin, small_lib, np.random.default_rng(0), cap=5)

    def test_union_is_first_occurrence_over_operations(self, schema, lib):
        rng = np.random.default_rng(17)
        for _ in range(40):
            origin = random_structure(schema, rng, max_nodes=6)
            expect, seen = [], {canonical_key(origin)}
            for ms, desc in itertools.chain(
                neighbors_insertion(origin, lib),
                neighbors_grafting(origin, lib),
                neighbors_deletion(origin, lib),
            ):
                key = canonical_key(ms)
                if key not in seen:
                    seen.add(key)
                    expect.append((ms, key, desc))
            if not expect:
                continue
            cs = one_step_neighbors(origin, lib, np.random.default_rng(0), cap=10_000)
            assert [(c.structure, c.key, c.descriptor) for c in cs.candidates] == expect

    def test_descriptors_tagged_by_operation(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        cs = one_step_neighbors(origin, lib, np.random.default_rng(1), cap=1000)
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
                lambda: neighbors_insertion(origin, lib),
                lambda: neighbors_grafting(origin, lib),
                lambda: neighbors_deletion(origin, lib),
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
            for ms, desc in neighbors_insertion(origin, lib):
                if len(desc["component"]) != 5:  # single-interior components only
                    continue
                back = {canonical_key(n) for n, _ in neighbors_deletion(ms, lib)}
                assert okey in back, (origin, ms, desc)
                checked += 1
                break
        assert checked > 10

    def test_purity(self, schema, lib):
        origin = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        first = [(c.key, c.descriptor) for c in one_step_neighbors(
            origin, lib, np.random.default_rng(3), cap=50).candidates]
        second = [(c.key, c.descriptor) for c in one_step_neighbors(
            origin, lib, np.random.default_rng(3), cap=50).candidates]
        assert first == second


def validity_origins(schema):
    """The 4-node corpus plus random valid structures of up to 10 nodes."""
    rng = np.random.default_rng(23)
    randoms = [random_structure(schema, rng, max_nodes=n) for n in range(3, 11) for _ in range(25)]
    return list(enumerate_corpus(schema, 4).values()) + randoms


def grafting_id(desc):
    return tuple(desc["anchors"]), tuple(desc["component"])


class TestValidByConstruction:
    """Insertion and grafting skip ``validate``; these checks show they may."""

    def test_insertions_and_graftings_pass_validate(self, schema, lib):
        built = 0
        for origin in validity_origins(schema):
            for cand, desc in itertools.chain(
                _insertions(origin, lib), _graftings(origin, lib)
            ):
                assert validate(cand, schema) == [], (origin, desc)
                built += 1
        assert built > 5_000

    def test_skipped_anchor_pairs_are_all_invalid(self, schema, lib):
        skipped = 0
        for origin in validity_origins(schema):
            kept = {grafting_id(desc) for _, desc in _graftings(origin, lib)}
            for cand, desc in raw_graftings(origin, lib):
                if grafting_id(desc) not in kept:
                    assert validate(cand, schema), (origin, desc)
                    skipped += 1
        assert skipped > 1_000

    @pytest.fixture(scope="class")
    def demo_calls(self, planted_dir, tmp_path_factory):
        """Every one_step_neighbors call of the seed-0 demo search, with the
        RNG state before and after it and its result."""
        root = tmp_path_factory.mktemp("demo-neighbors")
        config = root / "config.json"
        write_demo_config(config, planted_dir, root / "out", seed=0, generations=30)
        calls = []

        def recording(ms, lib, rng, cap):
            before = copy.deepcopy(rng.bit_generator.state)
            try:
                result = one_step_neighbors(ms, lib, rng, cap)
            except EmptyNeighborhoodError:
                result = None
            calls.append((ms, lib, cap, before, result, copy.deepcopy(rng.bit_generator.state)))
            if result is None:
                raise EmptyNeighborhoodError("structure has no valid one-step neighbors")
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "one_step_neighbors", recording)
            assert main(["search", "--config", str(config)]) == EXIT_OK
        return calls

    def test_demo_search_matches_oracle(self, demo_calls):
        assert len(demo_calls) > 100
        assert len({call[0] for call in demo_calls}) < len(demo_calls)  # memo hits occur
        for ms, lib, cap, before, result, after in demo_calls:
            rng = np.random.default_rng()
            rng.bit_generator.state = before
            expect = neighbors_oracle(ms, lib, rng, cap)
            assert rng.bit_generator.state == after
            if expect is None:
                assert result is None
                continue
            got = [(c.structure, c.key, c.descriptor) for c in result.candidates]
            assert (got, result.sampled) == expect


class TestMemo:
    RICH = TestOneStepNeighbors.RICH

    def test_repeat_call_equal_and_same_draws(self, schema):
        lib = build_component_library(schema, 10, 1, 3)
        for cap in (20, 10_000):
            rngs = [np.random.default_rng(9) for _ in range(3)]
            fresh = one_step_neighbors(self.RICH, build_component_library(schema, 10, 1, 3), rngs[0], cap=cap)
            first = one_step_neighbors(self.RICH, lib, rngs[1], cap=cap)
            again = one_step_neighbors(self.RICH, lib, rngs[2], cap=cap)
            for cs in (first, again):
                assert cs == fresh
                assert [c.descriptor for c in cs.candidates] == [c.descriptor for c in fresh.candidates]
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state

    def test_memo_hit_draws_each_call(self, schema):
        lib = build_component_library(schema, 10, 1, 3)
        rng = np.random.default_rng(4)
        picks = [one_step_neighbors(self.RICH, lib, rng, cap=5) for _ in range(6)]
        assert len(lib.unions) == 1
        assert len({tuple(c.key for c in cs.candidates) for cs in picks}) > 1

    def test_memo_hit_keys_only_offered(self, schema, monkeypatch):
        lib = build_component_library(schema, 10, 1, 3)
        full = one_step_neighbors(self.RICH, lib, np.random.default_rng(0), cap=10_000)
        keyed = []
        monkeypatch.setattr(mutations, "canonical_key", lambda ms: keyed.append(ms) or canonical_key(ms))
        cs = one_step_neighbors(self.RICH, lib, np.random.default_rng(0), cap=7)
        assert keyed == [c.structure for c in cs.candidates]
        assert len(keyed) == 7 < len(full.candidates)

    def test_build_keys_only_invariant_collisions(self, schema, lib, monkeypatch):
        keyed = []
        monkeypatch.setattr(mutations, "canonical_key", lambda ms: keyed.append(ms) or canonical_key(ms))
        rng = np.random.default_rng(61)
        built = colliding = 0
        for _ in range(100):
            origin = random_structure(schema, rng, max_nodes=7)
            pairs = list(itertools.chain(_insertions(origin, lib), _graftings(origin, lib)))
            members = Counter(isomorphism_invariant(cand) for cand, _ in [*pairs, (origin, None)])
            keyed.clear()
            mutations._distinct(pairs, origin)
            assert all(members[isomorphism_invariant(ms)] > 1 for ms in keyed)
            built += len(pairs)
            colliding += len(keyed)
        assert 0 < colliding < built and built > 1_500

    def test_keyed_by_size_limit(self, schema):
        # a library holds one size limit, so each limit's unions live in its own library
        wide_lib = build_component_library(schema, 10, 1, 3)
        narrow_lib = build_component_library(schema, 5, 1, 3)
        rng = np.random.default_rng(0)
        wide = one_step_neighbors(self.RICH, wide_lib, rng, cap=10_000)
        narrow = one_step_neighbors(self.RICH, narrow_lib, rng, cap=10_000)
        assert len(wide_lib.unions) == len(narrow_lib.unions) == 1
        assert all(c.structure.n_nodes <= 5 for c in narrow.candidates)
        assert len(narrow.candidates) < len(wide.candidates)

    def test_fresh_library_starts_empty(self, schema, lib):
        one_step_neighbors(self.RICH, lib, np.random.default_rng(0), 20)
        lib.sentence(self.RICH)
        fresh = build_component_library(schema, 10, 1, 3)
        assert len(fresh.unions) == 0 and len(fresh.sentences) == 0
        assert fresh == lib

    def test_unions_bounded_least_recent_evicted(self, schema):
        lib = build_component_library(schema, 10, 1, 3)
        rng = np.random.default_rng(31)
        origins = []
        while len(origins) < 3 * UNION_MEMO_ENTRIES:
            origin = random_structure(schema, rng, max_nodes=6)
            if origin not in origins:
                origins.append(origin)
        for i, origin in enumerate(origins):
            try:
                one_step_neighbors(origin, lib, rng, 20)
            except EmptyNeighborhoodError:
                pass
            if i > 0:  # touching the first origin keeps it the most recently used
                try:
                    one_step_neighbors(origins[0], lib, rng, 20)
                except EmptyNeighborhoodError:
                    pass
            assert len(lib.unions) <= UNION_MEMO_ENTRIES
        assert len(lib.unions) == UNION_MEMO_ENTRIES
        kept = [o for o in origins if o in lib.unions]
        assert kept == [origins[0], *origins[-(UNION_MEMO_ENTRIES - 1):]]

    def test_lru_memo_evicts_least_recently_used(self):
        memo = LruMemo(2)
        made = []

        def make(value):
            return lambda: made.append(value) or value

        assert memo.get("a", make(1)) == 1
        assert memo.get("b", make(2)) == 2
        assert memo.get("a", make(99)) == 1  # hit: refreshes "a", makes nothing
        assert memo.get("c", make(3)) == 3
        assert "b" not in memo and "a" in memo and "c" in memo and len(memo) == 2
        assert made == [1, 2, 3]
        assert memo.get("b") is None
        assert memo.get("a") == 1  # refreshes "a"
        memo.put("d", 4)
        assert "c" not in memo and memo.get("d") == 4 and len(memo) == 2

    def test_lru_memo_keeps_nothing_when_make_fails(self):
        memo = LruMemo(2)

        def fail():
            raise EmptyNeighborhoodError("no")

        with pytest.raises(EmptyNeighborhoodError):
            memo.get("a", fail)
        assert len(memo) == 0

    def test_memoised_sentence_equals_fresh_encode(self, schema):
        lib = build_component_library(schema, 10, 1, 3)
        rng = np.random.default_rng(12)
        origins = list(enumerate_corpus(schema, 4).values())
        origins += [random_structure(schema, rng, max_nodes=8) for _ in range(100)]
        for ms in origins:
            expect = encode_metastructure(ms, schema)
            assert lib.sentence(ms) == expect
            assert lib.sentence(ms) == expect
            # the reversed position order is the same structure, and the same sentence
            n = ms.n_nodes
            flipped = MetaStructure(
                tuple(reversed(ms.nodes)),
                tuple((n - 1 - a, n - 1 - b, e) for a, b, e in ms.edges),
                n - 1 - ms.source, n - 1 - ms.target,
            )
            assert lib.sentence(flipped) == expect
        assert 0 < len(lib.sentences) <= len(origins)
