import itertools
import re

import numpy as np
import pytest

from hinstruct import mutations, structure
from hinstruct.cli import EXIT_OK, main
from hinstruct.grammar import GrammarError, encode_metastructure
from hinstruct.hin import schema_from_dict
from hinstruct.structure import (
    EXACT_CANONICAL_NODES,
    MetaPath,
    MetaStructure,
    StructureError,
    canonical_key,
    enumerate_paths,
    isomorphism_invariant,
    seed_population,
    sub_logics,
    validate,
)
from hinstruct.synth import planted_structure, write_demo_config

from conftest import (
    brute_force_paths,
    brute_isomorphic,
    canonicalize_reference,
    contains_substructure,
    encode_reference,
    enumerate_corpus,
    random_structure,
    reference_colors,
    reference_refinement,
    relabeled,
    sub_logics_reference,
)

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


class TestSubLogics:
    def test_paths_match_bruteforce_on_random_dags(self, schema):
        rng = np.random.default_rng(4)
        for _ in range(300):
            ms = random_structure(schema, rng)
            logics = sub_logics(ms)
            got = sorted((path.node_types, path.edge_types) for _, _, path in logics)
            assert got == brute_force_paths(ms)
            assert [seq for seq, _, path in logics] == [path.type_sequence() for _, _, path in logics]
            assert logics == sorted(logics, key=lambda logic: logic[:2])

    def test_relabelling_leaves_them_unchanged(self, schema):
        rng = np.random.default_rng(6)
        for _ in range(300):
            ms = random_structure(schema, rng, max_nodes=EXACT_CANONICAL_NODES)
            assert sub_logics(relabeled(ms, rng)) == sub_logics(ms)


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


class TestFromDict:
    @pytest.mark.parametrize(
        "field, value, says",
        [
            ("nodes", [0.7, 1], "node type: 0.7"),
            ("nodes", [0, True], "node type: True"),
            ("edges", [[0, 1.9, 0]], "edge entry: 1.9"),
            ("edges", [[0, 1, "0"]], "edge entry: '0'"),
            ("source", 0.0, "source: 0.0"),
            ("target", 1.5, "target: 1.5"),
        ],
    )
    def test_ids_must_be_integers(self, field, value, says):
        payload = {"nodes": [U, B], "edges": [[0, 1, RATES]], "source": 0, "target": 1, field: value}
        with pytest.raises(StructureError, match=f"invalid literal for integer {re.escape(says)}$"):
            MetaStructure.from_dict(payload)


@pytest.fixture(scope="module")
def demo_structures(planted_dir, tmp_path_factory):
    """Every structure a seed-0 demo search labels or gives an invariant:
    the keyed ones and every distinct valid candidate of its unions."""
    root = tmp_path_factory.mktemp("demo-labels")
    config = root / "config.json"
    write_demo_config(config, planted_dir, root / "out", seed=0, generations=30)
    seen = set()

    def recording(fn):
        def wrapper(ms):
            seen.add(ms)
            return fn(ms)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_canonicalize", recording(structure._canonicalize))
        mp.setattr(mutations, "isomorphism_invariant", recording(isomorphism_invariant))
        assert main(["search", "--config", str(config)]) == EXIT_OK
    return sorted(seen, key=lambda ms: (ms.n_nodes, ms.nodes, ms.edges, ms.source, ms.target))


def random_corpus(schema, seed, max_nodes, count):
    """``count`` random structures of up to ``max_nodes`` positions, each
    followed by a random relabelling of itself."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ms = random_structure(schema, rng, max_nodes=max_nodes)
        out += [ms, relabeled(ms, rng)]
    return out


def twinned(ms, rng):
    """``ms`` plus a twin of a random interior position: same type, same
    neighbours, so the two never part in refinement; None without an
    interior position."""
    interior = [p for p in range(ms.n_nodes) if p not in (ms.source, ms.target)]
    if not interior:
        return None
    v, twin = interior[int(rng.integers(len(interior)))], ms.n_nodes
    copies = [(twin if a == v else a, twin if b == v else b, e) for a, b, e in ms.edges if v in (a, b)]
    return MetaStructure(ms.nodes + (ms.nodes[v],), ms.edges + tuple(copies), ms.source, ms.target)


def repeated_type_corpus(schema):
    """Random structures within the exact range and their relabellings,
    plus twinned ones, whose twins never part in refinement."""
    rng = np.random.default_rng(41)
    corpus = random_corpus(schema, 41, EXACT_CANONICAL_NODES, 200)
    for ms in random_corpus(schema, 42, EXACT_CANONICAL_NODES - 1, 200):
        twin = twinned(ms, rng)
        if twin is not None:
            corpus += [twin, relabeled(twin, rng)]
    return corpus


def fallback_corpus(schema):
    """Random structures beyond the exact range and their relabellings."""
    return [ms for ms in random_corpus(schema, 43, 16, 200) if ms.n_nodes > EXACT_CANONICAL_NODES]


def discrete(ms):
    return len(set(reference_colors(ms))) == ms.n_nodes


class TestLabelling:
    """``_canonicalize`` against the plain algorithm in ``conftest``: the
    discrete early exit and the single-ordering path change no byte."""

    @staticmethod
    def assert_matches_reference(corpus):
        for ms in corpus:
            key, form = structure._canonicalize.__wrapped__(ms)
            assert (key, form) == canonicalize_reference(ms), ms
            assert canonical_key(ms) == key

    def test_demo_search_structures(self, demo_structures):
        assert len(demo_structures) > 5_000
        assert any(not discrete(ms) for ms in demo_structures)
        self.assert_matches_reference(demo_structures)

    def test_random_structures_with_repeated_types(self, schema):
        corpus = repeated_type_corpus(schema)
        assert all(ms.n_nodes <= EXACT_CANONICAL_NODES for ms in corpus)
        assert sum(len(set(ms.nodes)) < ms.n_nodes for ms in corpus) > 900
        assert sum(not discrete(ms) for ms in corpus) > 600  # the permutation branch runs
        assert all(validate(ms, schema) == [] for ms in corpus)
        self.assert_matches_reference(corpus)

    def test_fallback_beyond_exact_range(self, schema):
        corpus = fallback_corpus(schema)
        assert len(corpus) > 100
        keys = [structure._canonicalize.__wrapped__(ms)[0] for ms in corpus]
        assert all(key.startswith("wl|") for key in keys)
        self.assert_matches_reference(corpus)

    def test_corpora_need_three_rounds(self, schema, demo_structures):
        """Refinement that splits classes in two or more rounds and then
        stops at a round that adds none: the class-count stopping rule,
        short of a discrete coloring."""
        for corpus in (demo_structures, repeated_type_corpus(schema), fallback_corpus(schema)):
            assert any(reference_refinement(ms)[1] >= 3 and not discrete(ms) for ms in corpus)


class TestDecompositionReference:
    """``sub_logics`` and ``encode_metastructure`` against verbatim copies of
    their earlier code in ``conftest``: the one-pass walk and the direct
    rendering change no byte."""

    @staticmethod
    def assert_matches_reference(corpus, schema):
        tagged = 0
        for ms in corpus:
            assert sub_logics(ms) == sub_logics_reference(ms), ms
            sentence = encode_metastructure(ms, schema)
            assert sentence == encode_reference(ms, schema), ms
            tagged += " (a)" in sentence
        return tagged

    def test_demo_search_structures(self, schema, demo_structures):
        assert self.assert_matches_reference(demo_structures, schema) > 1_000

    def test_random_corpora(self, schema):
        corpus = repeated_type_corpus(schema) + fallback_corpus(schema)
        assert self.assert_matches_reference(corpus, schema) > 500

    def test_first_unusable_word_raises(self, schema):
        """With two unusable words the first one a sub-logic reads, verbs
        before nouns, names the error, as before."""
        payload = schema.to_dict()
        payload["node_types"][B]["noun"] = "Business AND shop"
        payload["edge_types"][BELONGS]["verb"] = ""
        bad = schema_from_dict(payload)
        corpus = random_corpus(schema, 61, EXACT_CANONICAL_NODES, 100)
        raised = set()
        for ms in corpus:
            try:
                expected = encode_reference(ms, bad)
            except GrammarError as exc:
                with pytest.raises(GrammarError) as got:
                    encode_metastructure(ms, bad)
                assert str(got.value) == str(exc)
                raised.add(str(exc))
            else:
                assert encode_metastructure(ms, bad) == expected
        assert len(raised) == 2


class TestIsomorphismInvariant:
    def test_relabelling_keeps_invariant(self, schema):
        rng = np.random.default_rng(47)
        for max_nodes in (4, 8, 14):
            for _ in range(60):
                ms = random_structure(schema, rng, max_nodes=max_nodes)
                for _ in range(3):
                    assert isomorphism_invariant(relabeled(ms, rng)) == isomorphism_invariant(ms)

    def test_equal_keys_imply_equal_invariants(self, schema, demo_structures):
        corpus = (
            demo_structures
            + random_corpus(schema, 53, EXACT_CANONICAL_NODES, 200)
            + random_corpus(schema, 59, 16, 200)
        )
        by_key = {}
        for ms in corpus:
            by_key.setdefault(canonical_key(ms), set()).add(isomorphism_invariant(ms))
        assert all(len(invariants) == 1 for invariants in by_key.values())
        assert len(by_key) < len(corpus)  # some keys repeat
        assert any(key.startswith("wl|") for key in by_key)


class TestSeedPopulation:
    def test_toy_task_seeds(self, schema):
        seeds = seed_population(schema, U, B, 5, 10)
        assert len(seeds) == 5
        for ms in seeds:
            assert validate(ms, schema) == []
            assert ms.nodes[ms.source] == U and ms.nodes[ms.target] == B
        # shortest first: the single rates edge, then friend-rates
        assert seeds[0].n_edges == 1
        assert seeds[1].nodes == (U, U, B)

    def test_single_seed(self, schema):
        seeds = seed_population(schema, U, B, 1, 10)
        assert len(seeds) == 1 and seeds[0].n_edges == 1

    def test_disconnected_types_error(self, mini_schema):
        # mini schema has no edges out of category
        with pytest.raises(StructureError, match="no schema path"):
            seed_population(mini_schema, 2, 3, 3, 10)

    def test_padding_with_duplicates(self, mini_schema):
        # only one meta-path of each length from category? business->category only
        seeds = seed_population(mini_schema, 1, 2, 4, 2)
        assert len(seeds) == 4
        assert len({canonical_key(s) for s in seeds}) == 1

    def test_self_task_seeds(self, schema):
        seeds = seed_population(schema, U, U, 3, 10)
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
