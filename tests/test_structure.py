import itertools

import numpy as np
import pytest

from hinstruct.structure import (
    MetaPath,
    MetaStructure,
    StructureError,
    canonical_key,
    contains_substructure,
    enumerate_paths,
    seed_population,
    validate,
)
from hinstruct.synth import planted_structure

from conftest import brute_force_paths, brute_isomorphic, enumerate_corpus, random_structure

U, B, A, I = 0, 1, 2, 3
RATES, RATED_BY, FRIEND, BELONGS, CONTAINS, LOCATED, HOSTS = range(7)


def linear(*pairs):
    """Build a linear structure from (node type, edge type) steps."""
    nodes = [pairs[0][0]]
    edges = []
    for i, (nt, et) in enumerate(pairs[1:]):
        edges.append((i, i + 1, et))
        nodes.append(nt)
    return MetaStructure(tuple(nodes), tuple(edges), 0, len(nodes) - 1)


class TestValidate:
    def test_minimal_metapath_ok(self, schema):
        ms = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        assert validate(ms, schema) == []

    def test_cycle_detected(self, schema):
        ms = MetaStructure((U, B, U), ((0, 1, RATES), (1, 2, RATED_BY), (2, 1, RATES)), 0, 1)
        violations = validate(ms, schema)
        assert any("cycle" in v for v in violations)

    def test_dangling_node_off_paths(self, schema):
        ms = MetaStructure((U, B, A), ((0, 1, RATES),), 0, 1)
        violations = validate(ms, schema)
        assert any("off all source-target paths" in v for v in violations)

    def test_edge_type_mismatch(self, schema):
        ms = MetaStructure((U, A), ((0, 1, RATES),), 0, 1)
        assert any("does not connect" in v for v in validate(ms, schema))

    def test_no_edges(self, schema):
        ms = MetaStructure((U, B), (), 0, 1)
        assert any("no edges" in v for v in validate(ms, schema))

    def test_source_with_incoming(self, schema):
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 0, FRIEND), (0, 2, RATES)), 0, 2)
        violations = validate(ms, schema)
        assert violations  # cycle plus source in-degree

    def test_duplicate_edge(self, schema):
        ms = MetaStructure((U, B), ((0, 1, RATES), (0, 1, RATES)), 0, 1)
        assert any("duplicate edge" in v for v in validate(ms, schema))

    def test_random_structures_valid(self, schema):
        rng = np.random.default_rng(0)
        for _ in range(300):
            assert validate(random_structure(schema, rng), schema) == []


class TestEnumeratePaths:
    def test_linear_single_path(self, schema):
        ms = linear((U, None), (B, RATES), (A, BELONGS))
        paths = enumerate_paths(ms)
        assert len(paths) == 1
        assert paths[0].node_types == (U, B, A)

    def test_diamond_two_paths(self, schema):
        # two distinct B positions between the same endpoints
        ms = MetaStructure(
            (U, B, B, A),
            ((0, 1, RATES), (0, 2, RATES), (1, 3, BELONGS), (2, 3, BELONGS)),
            0,
            3,
        )
        assert validate(ms, schema) == []
        paths = enumerate_paths(ms)
        assert len(paths) == 2
        assert paths[0].type_sequence() == paths[1].type_sequence()

    def test_matches_bruteforce_on_random_dags(self, schema):
        rng = np.random.default_rng(1)
        for _ in range(300):
            ms = random_structure(schema, rng)
            got = sorted((p.node_types, p.edge_types) for p in enumerate_paths(ms))
            assert got == brute_force_paths(ms)

    def test_deterministic_order(self, schema):
        ms = planted_structure()
        assert enumerate_paths(ms) == enumerate_paths(ms)


class TestCanonicalKey:
    def test_permutation_invariance(self, schema):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ms = random_structure(schema, rng)
            perm = list(rng.permutation(ms.n_nodes))
            relabeled = MetaStructure(
                nodes=tuple(ms.nodes[perm.index(i)] for i in range(ms.n_nodes)),
                edges=tuple(sorted((perm[a], perm[b], e) for a, b, e in ms.edges)),
                source=perm[ms.source],
                target=perm[ms.target],
            )
            assert canonical_key(relabeled) == canonical_key(ms)

    def test_distinct_structures_distinct_keys(self, schema):
        a = linear((U, None), (B, RATES))
        b = linear((U, None), (U, FRIEND), (B, RATES))
        assert canonical_key(a) != canonical_key(b)

    def test_exhaustive_small_corpus_iso_oracle(self, schema):
        corpus = list(enumerate_corpus(schema, 4).values())
        # canonical dedup already collapsed isomorphs; all pairs must be
        # genuinely non-isomorphic per the independent permutation oracle
        by_invariant = {}
        for ms in corpus:
            inv = (ms.n_nodes, ms.n_edges, tuple(sorted(ms.nodes)))
            by_invariant.setdefault(inv, []).append(ms)
        checked = 0
        for group in by_invariant.values():
            for x, y in itertools.combinations(group, 2):
                assert not brute_isomorphic(x, y), (x, y)
                checked += 1
        assert checked > 100

    def test_sampled_pairs_agree_with_oracle(self, schema):
        rng = np.random.default_rng(3)
        structures = [random_structure(schema, rng, max_nodes=6) for _ in range(120)]
        for _ in range(400):
            x, y = rng.choice(len(structures), size=2, replace=False)
            a, b = structures[x], structures[y]
            assert (canonical_key(a) == canonical_key(b)) == brute_isomorphic(a, b)

    def test_stable_across_calls(self, schema):
        ms = planted_structure()
        assert canonical_key(ms) == canonical_key(MetaStructure.from_dict(ms.to_dict()))


class TestSeedPopulation:
    def test_toy_task_seeds(self, schema):
        seeds = seed_population(schema, U, B, 5)
        assert len(seeds) == 5
        for ms in seeds:
            assert validate(ms, schema) == []
            assert ms.nodes[ms.source] == U and ms.nodes[ms.target] == B
        # shortest first: the single rates edge, then friend-rates
        assert seeds[0].n_edges == 1
        assert seeds[1].nodes == (U, U, B)

    def test_single_seed(self, schema):
        seeds = seed_population(schema, U, B, 1)
        assert len(seeds) == 1 and seeds[0].n_edges == 1

    def test_disconnected_types_error(self, mini_schema):
        # mini schema has no edges out of category
        with pytest.raises(StructureError, match="no schema path"):
            seed_population(mini_schema, 2, 3, 3)

    def test_padding_with_duplicates(self, mini_schema):
        # only one meta-path of each length from category? business->category only
        seeds = seed_population(mini_schema, 1, 2, 4, max_nodes=2)
        assert len(seeds) == 4
        assert len({canonical_key(s) for s in seeds}) == 1

    def test_self_task_seeds(self, schema):
        seeds = seed_population(schema, U, U, 3)
        for ms in seeds:
            assert ms.nodes[ms.source] == U and ms.nodes[ms.target] == U


class TestContainment:
    def test_self_containment(self):
        ms = planted_structure()
        assert contains_substructure(ms, ms)

    def test_smaller_not_containing_larger(self, schema):
        small = linear((U, None), (B, RATES))
        assert not contains_substructure(small, planted_structure())

    def test_decorated_superset_contains(self, schema):
        ms = planted_structure()
        decorated = MetaStructure(
            nodes=ms.nodes + (A,),
            edges=ms.edges + ((2, 4, BELONGS), (4, 3, CONTAINS)),
            source=ms.source,
            target=ms.target,
        )
        assert validate(decorated, schema) == []
        assert contains_substructure(decorated, ms)

    def test_same_size_different_wiring(self, schema):
        ms = planted_structure()
        other = MetaStructure(
            nodes=(U, U, B, B),
            edges=((0, 1, FRIEND), (1, 3, RATES), (1, 2, RATES), (2, 3, RATED_BY)),
            source=0,
            target=3,
        )
        # other routes the co-rating through the friend's own rating
        if validate(other, schema) == []:
            assert not contains_substructure(other, ms) or brute_isomorphic(other, ms)


class TestMetaPath:
    def test_type_sequence(self):
        mp = MetaPath((U, B, A), (RATES, BELONGS))
        assert mp.type_sequence() == (U, RATES, B, BELONGS, A)

    def test_arity_validation(self):
        with pytest.raises(StructureError):
            MetaPath((U,), ())

    def test_schema_validity(self, schema):
        assert validate(MetaStructure.from_path(MetaPath((U, B), (RATES,))), schema) == []
        assert validate(MetaStructure.from_path(MetaPath((U, A), (RATES,))), schema)
