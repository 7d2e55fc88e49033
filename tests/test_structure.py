import itertools
import json
import logging
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from hinstruct import mutations, structure
from hinstruct.cli import EXIT_OK, main
from hinstruct.grammar import GrammarError, encode_metastructure
from hinstruct.hin import DataError, schema_from_dict
from hinstruct.structure import (
    MAX_SCHEMA_WALKS,
    PERMUTATION_BUDGET,
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
from hinstruct.synth import planted_structure, toy_schema, write_demo_config

from conftest import (
    MINI_SCHEMA_DICT,
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
# the demo search's default size limit, where random relabellings stay within
# the permutation budget
SMALL_NODES = 10


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
            ms = random_structure(schema, rng, max_nodes=SMALL_NODES)
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

    def test_friend_cycles_within_budget_get_two_keys(self, schema):
        """Twelve positions whose friend layer is one 10-cycle or a 4-cycle
        and a 6-cycle: refinement cannot tell them apart, the 5!·5!
        orderings fit the budget, and each structure keeps its key under
        relabelling."""
        rng = np.random.default_rng(71)
        pair = friend_layers(5), friend_layers(2, 3)
        keys = []
        for ms in pair:
            assert ms.n_nodes == 12 and validate(ms, schema) == [] and not over_budget(ms)
            keys.append(canonical_key(ms))
            for _ in range(2):
                assert canonical_key(relabeled(ms, rng)) == keys[-1]
        assert keys[0] != keys[1]
        assert encode_metastructure(pair[0], schema) != encode_metastructure(pair[1], schema)

    def test_over_budget_pair_gets_two_color_order_keys(self, schema, caplog):
        """An 18-cycle against an 8-cycle and a 10-cycle, 9!·9! orderings:
        each key spells out the structure in color order, so the two differ."""
        pair = friend_layers(9), friend_layers(4, 5)
        keys = []
        for ms in pair:
            assert validate(ms, schema) == [] and over_budget(ms)
            with caplog.at_level(logging.WARNING, logger="hinstruct.structure"):
                keys.append(structure._canonicalize.__wrapped__(ms)[0])
            assert keys[-1] == structure._exact_key(color_order_form(ms))
        assert keys[0] != keys[1]
        assert sum("falling back" in r.getMessage() for r in caplog.records) == 2

    def test_search_beyond_ten_positions_needs_no_fallback(self, planted_dir, tmp_path, caplog, monkeypatch):
        config = tmp_path / "config.json"
        payload = write_demo_config(config, planted_dir, tmp_path / "out", seed=0, generations=10)
        payload["search"]["max_structure_nodes"] = 14
        config.write_text(json.dumps(payload), encoding="utf-8")
        sizes = set()
        labelling = structure._canonicalize

        def recording(ms):
            sizes.add(ms.n_nodes)
            return labelling(ms)

        monkeypatch.setattr(structure, "_canonicalize", recording)
        with caplog.at_level(logging.WARNING, logger="hinstruct.structure"):
            assert main(["search", "--config", str(config)]) == EXIT_OK
        assert max(sizes) > SMALL_NODES
        assert not [r for r in caplog.records if "falling back" in r.getMessage()]


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
    """Random structures of up to ten positions and their relabellings, plus
    twinned ones, whose twins never part in refinement."""
    rng = np.random.default_rng(41)
    corpus = random_corpus(schema, 41, SMALL_NODES, 200)
    for ms in random_corpus(schema, 42, SMALL_NODES - 1, 200):
        twin = twinned(ms, rng)
        if twin is not None:
            corpus += [twin, relabeled(twin, rng)]
    return corpus


def large_corpus(schema):
    """Random structures of more than ten positions and their relabellings,
    plus the over-budget pair of ``friend_layers`` and their relabellings."""
    rng = np.random.default_rng(43)
    corpus = [ms for ms in random_corpus(schema, 43, 16, 200) if ms.n_nodes > SMALL_NODES]
    for ms in (friend_layers(9), friend_layers(4, 5)):
        corpus += [ms, relabeled(ms, rng)]
    return corpus


def friend_layers(*cycles):
    """A user source, two layers of user positions and a business target:
    the source befriends each first-layer position and each second-layer one
    rates the target. Friend edges between the layers form one cycle through
    ``2 * m`` positions, ``m`` per layer, for each ``m`` in ``cycles``.
    Refinement parts no two positions of one layer."""
    width = sum(cycles)
    target = 2 * width + 1
    edges = [(0, 1 + i, FRIEND) for i in range(width)]
    edges += [(1 + width + i, target, RATES) for i in range(width)]
    start = 0
    for m in cycles:
        for i in range(m):
            tail = 1 + start + i
            edges += [(tail, 1 + width + start + i, FRIEND), (tail, 1 + width + start + (i + 1) % m, FRIEND)]
        start += m
    return MetaStructure((U,) * target + (B,), tuple(edges), 0, target)


def over_budget(ms):
    sizes = Counter(reference_colors(ms)).values()
    return math.prod(math.factorial(size) for size in sizes) > PERMUTATION_BUDGET


def color_order_form(ms):
    """``ms`` relabelled by refined color, ties by position."""
    colors = reference_colors(ms)
    ordering = sorted(range(ms.n_nodes), key=lambda p: (colors[p], p))
    at = {p: i for i, p in enumerate(ordering)}
    return MetaStructure(
        nodes=tuple(ms.nodes[p] for p in ordering),
        edges=tuple(sorted((at[a], at[b], e) for a, b, e in ms.edges)),
        source=at[ms.source],
        target=at[ms.target],
    )


def discrete(ms):
    return len(set(reference_colors(ms))) == ms.n_nodes


def eight_twins():
    """A user source befriending eight users who each rate the business
    target (10 positions)."""
    edges = [(0, i, FRIEND) for i in range(1, 9)] + [(i, 9, RATES) for i in range(1, 9)]
    return MetaStructure((U,) * 9 + (B,), tuple(edges), 0, 9)


def two_twin_pairs():
    """One color class of two twin pairs: the source befriends users 1 to 4;
    users 1 and 2 rate business 5, users 3 and 4 rate business 6, and both
    businesses are rated by the user target."""
    edges = [(0, i, FRIEND) for i in range(1, 5)]
    edges += [(1, 5, RATES), (2, 5, RATES), (3, 6, RATES), (4, 6, RATES), (5, 7, RATED_BY), (6, 7, RATED_BY)]
    return MetaStructure((U, U, U, U, U, B, B, U), tuple(edges), 0, 7)


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
        assert all(ms.n_nodes <= SMALL_NODES for ms in corpus)
        assert sum(len(set(ms.nodes)) < ms.n_nodes for ms in corpus) > 900
        assert sum(not discrete(ms) for ms in corpus) > 600  # the permutation branch runs
        assert all(validate(ms, schema) == [] for ms in corpus)
        self.assert_matches_reference(corpus)

    def test_beyond_ten_positions(self, schema):
        corpus = large_corpus(schema)
        assert len(corpus) > 100
        assert any(over_budget(ms) for ms in corpus)
        self.assert_matches_reference(corpus)

    def test_twins_are_labelled_once(self):
        """Eight interior users, each befriended by the source and each
        rating the target, are twins: one class of 8! orderings that all
        relabel the edges alike, so one of them is tried."""
        ms = eight_twins()
        times = []
        for _ in range(3):
            start = time.perf_counter()
            got = structure._canonicalize.__wrapped__(ms)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.010
        assert got == canonicalize_reference(ms)

    @pytest.mark.parametrize("name", ["eight_twins", "two_twin_pairs"])
    def test_relabelled_twins_keep_their_key(self, name):
        ms = {"eight_twins": eight_twins, "two_twin_pairs": two_twin_pairs}[name]()
        key, form = structure._canonicalize.__wrapped__(ms)
        assert (key, form) == canonicalize_reference(ms)
        rng = np.random.default_rng(29)
        for _ in range(10):
            assert structure._canonicalize.__wrapped__(relabeled(ms, rng)) == (key, form)

    def test_corpora_need_three_rounds(self, schema, demo_structures):
        """Refinement that splits classes in two or more rounds and then
        stops at a round that adds none: the class-count stopping rule,
        short of a discrete coloring."""
        for corpus in (demo_structures, repeated_type_corpus(schema), large_corpus(schema)):
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
        corpus = repeated_type_corpus(schema) + large_corpus(schema)
        assert self.assert_matches_reference(corpus, schema) > 500

    def test_first_unusable_word_raises(self, schema):
        """With two unusable words the first one a sub-logic reads, verbs
        before nouns, names the error, as before."""
        payload = schema.to_dict()
        payload["node_types"][B]["noun"] = "Business AND shop"
        payload["edge_types"][BELONGS]["verb"] = ""
        bad = schema_from_dict(payload)
        corpus = random_corpus(schema, 61, SMALL_NODES, 100)
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
        """One key format for every structure: equal keys mean isomorphic
        structures, so they share the invariant, beyond ten positions and
        beyond the permutation budget too."""
        corpus = demo_structures + random_corpus(schema, 53, SMALL_NODES, 200) + large_corpus(schema)
        assert any(over_budget(ms) for ms in corpus)
        by_key = {}
        for ms in corpus:
            by_key.setdefault(canonical_key(ms), []).append(ms)
        for group in by_key.values():
            assert len({isomorphism_invariant(ms) for ms in group}) == 1, group[0]
        assert len(by_key) < len(corpus)  # some keys repeat
        assert any(len(group) > 1 and group[0].n_nodes > SMALL_NODES for group in by_key.values())


# papers cite papers: ``cites`` and ``cited_by`` are two self-relations, each
# the other's inverse
CITATION_SCHEMA_DICT = {
    "node_types": [
        {"id": 0, "name": "paper", "noun": "Paper"},
        {"id": 1, "name": "author", "noun": "Author"},
        {"id": 2, "name": "venue", "noun": "Venue"},
    ],
    "edge_types": [
        {"id": 0, "name": "cites", "src": 0, "dst": 0, "verb": "cites", "inverse": 1},
        {"id": 1, "name": "cited_by", "src": 0, "dst": 0, "verb": "is cited by", "inverse": 0},
        {"id": 2, "name": "writes", "src": 1, "dst": 0, "verb": "writes", "inverse": 3},
        {"id": 3, "name": "written_by", "src": 0, "dst": 1, "verb": "is written by", "inverse": 2},
        {"id": 4, "name": "published_in", "src": 0, "dst": 2, "verb": "is published in"},
    ],
}


def chain_schema():
    """14 node types: three self-relations on type 0, and a 13-edge chain
    from type 0 to type 13, the one way between them."""
    return schema_from_dict(
        {
            "node_types": [{"id": t, "name": f"t{t}"} for t in range(14)],
            "edge_types": [{"id": e, "name": f"loop{e}", "src": 0, "dst": 0} for e in range(3)]
            + [{"id": 3 + t, "name": f"step{t}", "src": t, "dst": t + 1} for t in range(13)],
        }
    )


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

    @pytest.mark.parametrize(
        "payload", [toy_schema().to_dict(), MINI_SCHEMA_DICT, CITATION_SCHEMA_DICT], ids=["toy", "mini", "citation"]
    )
    def test_seeds_are_the_first_walks(self, payload):
        """The seeds are the first source-to-target walks of the one schema
        walk, padded by repeating them."""
        schema = schema_from_dict(payload)
        for source, target in itertools.product(range(schema.n_node_types), repeat=2):
            for limit in range(2, 11):
                walks = [
                    MetaStructure.from_path(p)
                    for p in structure.schema_walks(schema, [source], limit)
                    if p.node_types[-1] == target
                ]
                for size in range(1, 9):
                    if not walks:
                        with pytest.raises(StructureError, match="no schema path"):
                            seed_population(schema, source, target, size, limit)
                        continue
                    first = walks[:size]
                    padded = [first[i % len(first)] for i in range(size)]
                    assert seed_population(schema, source, target, size, limit) == padded

    def test_walk_cap_names_the_structure_limit(self):
        """The source type's self-relations make its walks pass the cap long
        before the chain reaches the target: the error names the limit and
        the cap, not a missing path."""
        message = f"structure limit 20: schema walks of up to 11 positions number more than {MAX_SCHEMA_WALKS:,}"
        with pytest.raises(DataError, match=message):
            seed_population(chain_schema(), 0, 13, 5, 20)


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


class TestCompactStructures:
    def test_instances_have_no_dict(self):
        path = MetaPath((U, B), (RATES,))
        for obj in (path, MetaStructure.from_path(path)):
            assert not hasattr(obj, "__dict__")

    def test_canonical_forms_share_edge_triples(self, schema):
        """Across structures, discrete, permuted and color-order forms alike
        take each equal triple as one object."""
        first, edges = {}, 0
        for ms in repeated_type_corpus(schema) + large_corpus(schema):
            for edge in structure.canonical_form(ms).edges:
                assert first.setdefault(edge, edge) is edge
                edges += 1
        assert len(first) < edges
