import numpy as np
import pytest

from hinstruct.grammar import AND, THAT, GrammarError, encode_metastructure
from hinstruct.hin import schema_from_dict
from hinstruct.structure import MetaPath, MetaStructure, canonical_key, enumerate_paths

from conftest import decode_sentence, enumerate_corpus, random_structure

U, B, A, I = 0, 1, 2, 3
RATES, RATED_BY, FRIEND, BELONGS, CONTAINS, LOCATED, HOSTS = range(7)


def encode_path(path, schema):
    return encode_metastructure(MetaStructure.from_path(path), schema)


class TestEncodePath:
    def test_single_clause(self, schema):
        sentence = encode_path(MetaPath((U, B), (RATES,)), schema)
        assert sentence == "User rates Business"
        assert THAT not in sentence

    def test_nested_clause(self, schema):
        sentence = encode_path(MetaPath((U, B, A), (RATES, BELONGS)), schema)
        assert sentence == "User rates Business THAT belongs to Category"

    def test_four_node_path_two_thats(self, schema):
        sentence = encode_path(MetaPath((U, U, B, A), (FRIEND, RATES, BELONGS)), schema)
        assert sentence.count(THAT) == 2

    def test_missing_verb(self):
        bare = schema_from_dict(
            {
                "node_types": [
                    {"id": 0, "name": "a", "noun": "A"},
                    {"id": 1, "name": "b", "noun": "B"},
                ],
                "edge_types": [{"id": 0, "name": "x", "src": 0, "dst": 1, "verb": ""}],
            }
        )
        with pytest.raises(GrammarError, match="no verb"):
            encode_path(MetaPath((0, 1), (0,)), bare)

    @pytest.mark.parametrize(
        "noun, verb",
        [
            ("A THAT B", "x"),
            ("A", "links AND joins"),
            ("AND", "x"),
            ("A (b)", "x"),
            ("A", "(b) links"),
        ],
    )
    def test_ambiguous_vocabulary(self, noun, verb):
        bare = schema_from_dict(
            {
                "node_types": [
                    {"id": 0, "name": "a", "noun": noun},
                    {"id": 1, "name": "b", "noun": "B"},
                ],
                "edge_types": [{"id": 0, "name": "x", "src": 0, "dst": 1, "verb": verb}],
            }
        )
        with pytest.raises(GrammarError, match="ambiguous vocabulary"):
            encode_path(MetaPath((0, 1), (0,)), bare)
        with pytest.raises(GrammarError, match="ambiguous vocabulary"):
            encode_metastructure(MetaStructure((0, 1), ((0, 1, 0),), 0, 1), bare)

    def test_ambiguous_word_raises_only_where_used(self):
        bare = schema_from_dict(
            {
                "node_types": [
                    {"id": 0, "name": "a", "noun": "A"},
                    {"id": 1, "name": "b", "noun": "B"},
                    {"id": 2, "name": "c", "noun": "C AND D"},
                ],
                "edge_types": [
                    {"id": 0, "name": "x", "src": 0, "dst": 1, "verb": "x"},
                    {"id": 1, "name": "y", "src": 1, "dst": 2, "verb": "y"},
                ],
            }
        )
        clean = MetaStructure((0, 1), ((0, 1, 0),), 0, 1)
        uses_c = MetaStructure((0, 1, 2), ((0, 1, 0), (1, 2, 1)), 0, 2)
        assert encode_metastructure(clean, bare) == "A x B"
        for _ in range(2):  # every use raises, not only the first
            with pytest.raises(GrammarError, match="node type 'c' has ambiguous vocabulary"):
                encode_metastructure(uses_c, bare)
        assert encode_metastructure(clean, bare) == "A x B"

    def test_words_checked_once_per_schema(self, schema, monkeypatch):
        from hinstruct import grammar

        checked = []
        real = grammar._ambiguity
        monkeypatch.setattr(grammar, "_ambiguity", lambda owner, word: checked.append(word) or real(owner, word))
        grammar._vocabulary.cache_clear()
        rng = np.random.default_rng(8)
        for _ in range(30):
            encode_metastructure(random_structure(schema, rng), schema)
        grammar._vocabulary.cache_clear()
        assert len(checked) == schema.n_node_types + schema.n_edge_types


class TestEncodeMetastructure:
    def test_single_path_no_and(self, schema):
        ms = MetaStructure((U, B), ((0, 1, RATES),), 0, 1)
        sentence = encode_metastructure(ms, schema)
        assert sentence == "User rates Business"
        assert AND not in sentence

    def test_two_path_diamond_one_and(self, schema):
        ms = MetaStructure(
            (U, B, B, A),
            ((0, 1, RATES), (0, 2, RATES), (1, 3, BELONGS), (2, 3, BELONGS)),
            0,
            3,
        )
        assert encode_metastructure(ms, schema).count(f" {AND} ") == 1

    def test_isomorphic_structures_encode_identically(self, schema):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ms = random_structure(schema, rng)
            perm = list(rng.permutation(ms.n_nodes))
            relabeled = MetaStructure(
                nodes=tuple(ms.nodes[perm.index(i)] for i in range(ms.n_nodes)),
                edges=tuple(sorted((perm[a], perm[b], e) for a, b, e in ms.edges)),
                source=perm[ms.source],
                target=perm[ms.target],
            )
            assert encode_metastructure(relabeled, schema) == encode_metastructure(ms, schema)

    def test_token_counts_on_corpus(self, schema):
        corpus = enumerate_corpus(schema, 4)
        for ms in corpus.values():
            sentence = encode_metastructure(ms, schema)
            paths = enumerate_paths(ms)
            assert sentence.count(f" {AND} ") == len(paths) - 1
            for sub, path in zip(
                sentence.split(f" {AND} "),
                sorted(paths, key=lambda p: p.type_sequence()),
            ):
                assert sub.count(THAT) == len(path.edge_types) - 1

    def test_sentence_equality_characterizes_path_multiset(self, schema):
        # a sentence determines the multiset of typed paths: referent tags
        # add which positions the paths share, never a different path
        corpus = enumerate_corpus(schema, 4)
        by_sentence = {}
        for ms in corpus.values():
            sentence = encode_metastructure(ms, schema)
            multiset = tuple(sorted(p.type_sequence() for p in enumerate_paths(ms)))
            by_sentence.setdefault(sentence, set()).add(multiset)
        for sentence, multisets in by_sentence.items():
            assert len(multisets) == 1, sentence


class TestReferentTags:
    def test_shared_position_tagged(self, schema):
        # 0->1->3 and 0->1->2->3, all friendships: position 1 lies on both paths
        ms = MetaStructure(
            (U, U, U, U), ((0, 1, FRIEND), (1, 3, FRIEND), (1, 2, FRIEND), (2, 3, FRIEND)), 0, 3
        )
        assert encode_metastructure(ms, schema) == (
            "User is friend of User (a) THAT is friend of User AND "
            "User is friend of User (a) THAT is friend of User THAT is friend of User"
        )

    def test_sharing_pattern_distinguishes_path_multiset(self, schema):
        # same two typed paths, but position 2 (not 1) is the shared one
        ms = MetaStructure(
            (U, U, U, U), ((0, 2, FRIEND), (2, 3, FRIEND), (0, 1, FRIEND), (1, 2, FRIEND)), 0, 3
        )
        assert encode_metastructure(ms, schema) == (
            "User is friend of User (a) THAT is friend of User AND "
            "User is friend of User THAT is friend of User (a) THAT is friend of User"
        )

    def test_unshared_positions_untagged(self, schema):
        ms = MetaStructure(
            (U, B, B, A),
            ((0, 1, RATES), (0, 2, RATES), (1, 3, BELONGS), (2, 3, BELONGS)),
            0,
            3,
        )
        assert encode_metastructure(ms, schema) == (
            "User rates Business THAT belongs to Category AND "
            "User rates Business THAT belongs to Category"
        )

    def test_single_path_matches_encode_path(self, schema):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ms = random_structure(schema, rng)
            paths = enumerate_paths(ms)
            if len(paths) == 1:
                assert encode_metastructure(ms, schema) == encode_path(paths[0], schema)


class TestDecodeRoundTrip:
    def test_random_structures_up_to_eight_nodes(self, schema):
        rng = np.random.default_rng(11)
        for _ in range(300):
            ms = random_structure(schema, rng, max_nodes=8)
            decoded = decode_sentence(encode_metastructure(ms, schema), schema)
            assert canonical_key(decoded) == canonical_key(ms), ms

    def test_corpus(self, schema):
        for key, ms in enumerate_corpus(schema, 4).items():
            assert canonical_key(decode_sentence(encode_metastructure(ms, schema), schema)) == key
