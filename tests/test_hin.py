import copy
import json
import re

import numpy as np
import pytest

from hinstruct.hin import (
    DataError,
    HinGraph,
    LruMemo,
    SchemaError,
    _parse_edge_lines,
    binarize_ratings,
    load_graph,
    load_labels,
    load_ratings,
    load_schema,
    schema_from_dict,
)

from conftest import MINI_SCHEMA_DICT, from_dense, triplets


def write_dataset(tmp_path, schema_dict, counts, edge_files, ratings=None, labels=None):
    (tmp_path / "schema.json").write_text(json.dumps(schema_dict))
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    for name, lines in edge_files.items():
        (tmp_path / f"{name}.edges").write_text("\n".join(lines) + "\n")
    if ratings is not None:
        (tmp_path / "ratings.tsv").write_text("\n".join(ratings) + "\n")
    if labels is not None:
        (tmp_path / "labels.tsv").write_text("\n".join(labels) + "\n")
    return tmp_path


class TestSchema:
    def test_toy_schema_counts(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(MINI_SCHEMA_DICT))
        schema = load_schema(path)
        assert schema.n_node_types == 4
        assert schema.n_edge_types == 4
        assert schema.edge_type_by_name("rates").verb == "rates"
        assert schema.node_type_by_name("user").noun == "User"

    def test_dangling_node_type_reference(self):
        bad = {
            "node_types": [{"id": 0, "name": "user", "noun": "User"}],
            "edge_types": [{"id": 0, "name": "r", "src": 0, "dst": 7, "verb": "v"}],
        }
        with pytest.raises(SchemaError, match="unknown node type"):
            schema_from_dict(bad)

    def test_empty_node_types(self):
        with pytest.raises(SchemaError, match="no node types"):
            schema_from_dict({"node_types": [], "edge_types": []})

    def test_non_dense_ids(self):
        bad = {"node_types": [{"id": 1, "name": "a", "noun": "A"}], "edge_types": []}
        with pytest.raises(SchemaError, match="dense"):
            schema_from_dict(bad)

    def test_asymmetric_inverse(self):
        bad = {
            "node_types": [
                {"id": 0, "name": "a", "noun": "A"},
                {"id": 1, "name": "b", "noun": "B"},
            ],
            "edge_types": [
                {"id": 0, "name": "x", "src": 0, "dst": 1, "verb": "v", "inverse": 1},
                {"id": 1, "name": "y", "src": 0, "dst": 1, "verb": "w", "inverse": 0},
            ],
        }
        with pytest.raises(SchemaError, match="asymmetric inverse"):
            schema_from_dict(bad)

    def test_self_inverse_symmetric_relation(self):
        ok = {
            "node_types": [{"id": 0, "name": "u", "noun": "U"}],
            "edge_types": [
                {"id": 0, "name": "friend", "src": 0, "dst": 0, "verb": "knows", "inverse": 0}
            ],
        }
        assert schema_from_dict(ok).edge_type(0).inverse == 0

    @pytest.mark.parametrize("text, kind", [("[]", "list"), ("5", "int"), ('"x"', "str")])
    def test_top_level_not_object(self, tmp_path, text, kind):
        path = tmp_path / "schema.json"
        path.write_text(text)
        says = f"schema file {re.escape(str(path))}: the top level must be an object, not {kind}"
        with pytest.raises(SchemaError, match=says):
            load_schema(path)

    def test_node_type_id_not_a_number(self):
        with pytest.raises(SchemaError, match="malformed node type entry: invalid literal"):
            schema_from_dict({"node_types": [{"id": "x", "name": "a"}]})

    @pytest.mark.parametrize(
        "part, field, value",
        [("node_types", "id", 0.7), ("node_types", "id", True), ("edge_types", "id", 0.2),
         ("edge_types", "src", 0.9), ("edge_types", "dst", "1"), ("edge_types", "inverse", 3.0)],
    )
    def test_id_not_an_integer(self, part, field, value):
        payload = copy.deepcopy(MINI_SCHEMA_DICT)
        payload[part][-1][field] = value
        entry = "node type" if part == "node_types" else "edge type"
        says = f"malformed {entry} entry: invalid literal for integer {field} of .*: {re.escape(repr(value))}$"
        with pytest.raises(SchemaError, match=says):
            schema_from_dict(payload)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match=f"schema file {re.escape(str(path))} is not valid JSON"):
            load_schema(path)


class TestLoadGraph:
    def counts(self):
        return {"user": 3, "business": 2, "category": 1, "city": 1}

    def edges(self):
        return {
            "rates": ["0\t0", "1\t1", "2\t0"],
            "belongs_to": ["0\t0", "1\t0"],
            "located_in": ["0\t0", "1\t0"],
            "friend": ["0\t1", "1\t0"],
        }

    def test_load_and_shapes(self, tmp_path, mini_schema):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), self.edges())
        graph = load_graph(mini_schema, tmp_path)
        rates = graph.adjacency_of(0)
        assert (rates.rows, rates.cols) == (3, 2)
        assert rates.nnz == 3
        assert all(v == 1.0 for _, _, v in triplets(rates))

    def test_duplicate_lines_collapse(self, tmp_path, mini_schema):
        edges = self.edges()
        edges["rates"] = ["0\t1", "0\t1", "0\t1  # dup with comment"]
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), edges)
        graph = load_graph(mini_schema, tmp_path)
        assert graph.adjacency_of(0).nnz == 1

    def test_nnz_equals_dedup_line_count(self, tmp_path, mini_schema):
        edges = self.edges()
        edges["rates"] = ["0\t0", "1\t1", "0\t0", "2\t1", "1\t1"]
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), edges)
        graph = load_graph(mini_schema, tmp_path)
        assert graph.adjacency_of(0).nnz == len({("0", "0"), ("1", "1"), ("2", "1")})

    def test_out_of_range_index(self, tmp_path, mini_schema):
        edges = self.edges()
        edges["rates"] = ["5\t0"]
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), edges)
        with pytest.raises(DataError, match="out of range"):
            load_graph(mini_schema, tmp_path)

    def test_missing_relation_file(self, tmp_path, mini_schema):
        edges = self.edges()
        del edges["belongs_to"]
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), edges)
        with pytest.raises(DataError, match="missing relation file"):
            load_graph(mini_schema, tmp_path)

    def test_inverse_transpose_fallback(self, tmp_path, schema):
        # toy schema declares rated_by/contains/hosts as inverses; omit their files
        counts = {"user": 2, "business": 2, "category": 1, "city": 1}
        write_dataset(
            tmp_path,
            schema.to_dict(),
            counts,
            {
                "rates": ["0\t0", "1\t1"],
                "friend": ["0\t1"],
                "belongs_to": ["0\t0"],
                "located_in": ["0\t0", "1\t0"],
            },
        )
        graph = load_graph(schema, tmp_path)
        rated_by = graph.adjacency_of(schema.edge_type_by_name("rated_by").id)
        assert (rated_by.rows, rated_by.cols) == (2, 2)
        assert sorted(triplets(rated_by)) == [(0, 0, 1.0), (1, 1, 1.0)]

    def test_missing_counts(self, tmp_path, mini_schema):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), self.edges())
        (tmp_path / "counts.json").unlink()
        with pytest.raises(DataError, match="counts"):
            load_graph(mini_schema, tmp_path)

    def test_out_of_range_target_index(self, tmp_path, mini_schema):
        edges = self.edges()
        edges["rates"] = ["0\t0", "1\t-1", "9\t0"]
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), edges)
        with pytest.raises(DataError, match="rates.edges: target index -1 out of range for 'rates'"):
            load_graph(mini_schema, tmp_path)

    @pytest.mark.parametrize("value", ["abc", [1], 12.7, True, -1, None])
    def test_count_not_a_non_negative_integer(self, tmp_path, mini_schema, value):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, {**self.counts(), "city": value}, self.edges())
        path = re.escape(str(tmp_path / "counts.json"))
        with pytest.raises(DataError, match=f"{path}: count of node type 'city' is"):
            load_graph(mini_schema, tmp_path)

    def test_counts_not_an_object(self, tmp_path, mini_schema):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, [1, 2, 3, 4], self.edges())
        with pytest.raises(DataError, match=re.escape(str(tmp_path / "counts.json"))):
            load_graph(mini_schema, tmp_path)

    def test_counts_not_json(self, tmp_path, mini_schema):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, self.counts(), self.edges())
        (tmp_path / "counts.json").write_text('{"user": 3,')
        path = re.escape(str(tmp_path / "counts.json"))
        with pytest.raises(DataError, match=f"^node counts file {path} is not valid JSON: Expecting property name"):
            load_graph(mini_schema, tmp_path)


class TestHinGraph:
    def graph(self, mini_schema, tmp_path):
        write_dataset(tmp_path, MINI_SCHEMA_DICT, TestLoadGraph().counts(), TestLoadGraph().edges())
        return load_graph(mini_schema, tmp_path)

    @pytest.mark.parametrize("value", [2.0, 0.5])
    def test_adjacency_values_must_be_one(self, mini_schema, tmp_path, value):
        graph = self.graph(mini_schema, tmp_path)
        weighted = from_dense(np.array([[value, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DataError, match="'rates' holds a value other than 1"):
            graph.with_adjacency(0, weighted)
        with pytest.raises(DataError, match="'rates' holds a value other than 1"):
            HinGraph(mini_schema, graph.node_counts, {**graph.adjacency, 0: weighted})

    def test_transposed_formed_once_per_graph(self, mini_schema, tmp_path):
        graph = self.graph(mini_schema, tmp_path)
        first = graph.transposed(0)
        assert sorted(triplets(first)) == sorted((c, r, v) for r, c, v in triplets(graph.adjacency_of(0)))
        assert graph.transposed(0) is first
        swapped = graph.with_adjacency(0, from_dense(np.ones((3, 2))))
        assert sorted(triplets(swapped.transposed(0))) == [(c, r, 1.0) for c in range(2) for r in range(3)]
        assert graph.transposed(0) is first


class TestRatingsLabels:
    def test_binarize_strict_threshold(self):
        labeled = binarize_ratings([(0, 1, 3), (0, 2, 1), (0, 3, 2)], threshold=2)
        assert labeled.dtype == np.int64 and not labeled.flags.writeable
        assert labeled.tolist() == [[0, 1, 1], [0, 2, 0], [0, 3, 0]]

    def test_binarize_custom_threshold(self):
        assert binarize_ratings([(0, 0, 3)], threshold=3).tolist() == [[0, 0, 0]]

    def test_binarize_negative_rating(self):
        with pytest.raises(DataError, match="negative rating"):
            binarize_ratings([(0, 0, -1)])

    def test_load_ratings(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("0\t1\t5\n# comment\n2\t0\t1\n")
        ratings = load_ratings(path, 3, 2)
        assert ratings.dtype == np.int64 and not ratings.flags.writeable
        assert ratings.tolist() == [[0, 1, 5], [2, 0, 1]]

    @pytest.mark.parametrize(
        "row, says",
        [
            ("3\t1\t5", "source id 3 out of range for 3 nodes"),
            ("-1\t1\t5", "source id -1 out of range for 3 nodes"),
            ("0\t2\t5", "target id 2 out of range for 2 nodes"),
            ("9\t-4\t5", "source id 9 out of range for 3 nodes"),  # the first bad id of the row
        ],
    )
    def test_rating_id_out_of_range(self, tmp_path, row, says):
        path = tmp_path / "r.tsv"
        path.write_text(f"0\t1\t5\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {says}$"):
            load_ratings(path, 3, 2)

    def test_load_labels(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("0\t1\n3\t0\n")
        assert load_labels(path, 4).tolist() == [[0, 1], [3, 0]]

    def test_conflicting_labels(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("0\t1\n0\t2\n")
        with pytest.raises(DataError, match="conflicting"):
            load_labels(path, 1)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_text("0\t1\t9\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_labels(path, 1)

    @pytest.mark.parametrize("node", [-1, 3])
    def test_label_node_out_of_range(self, tmp_path, node):
        path = tmp_path / "l.tsv"
        path.write_text(f"0\t1\n{node}\t0\n")
        with pytest.raises(DataError, match=f"{re.escape(str(path))}: node id {node} out of range for 3 nodes"):
            load_labels(path, 3)


def scan_lines(path, n_fields):
    """The line-by-line parser that ingest used before the one-pass parse."""
    rows = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            rows.append(tuple(int(p) for p in parts))
    return rows


class TestParseEdgeLines:
    @pytest.mark.parametrize(
        "text, n_fields",
        [
            pytest.param(b"# header\n0\t1\n# middle\n2\t3\n", 2, id="comments"),
            pytest.param(b"\n0 1\n\n   \n2 3\n\n", 2, id="blank-lines"),
            pytest.param(b"0\t1\r\n\r\n2\t3\r\n", 2, id="crlf"),
            pytest.param(b"0\t\t1\n\t2\t3\t\n", 2, id="tabs"),
            pytest.param(b"0 1 # a comment\n2 3#tight\n", 2, id="trailing-comment"),
            pytest.param(b"", 2, id="empty"),
            pytest.param(b"# only\n# comments\n", 2, id="comment-only"),
            pytest.param(b"+1 -2\n-0 +0\n", 2, id="signed"),
            pytest.param(b"0 1\n2 3", 2, id="no-final-newline"),
            pytest.param(b"# src dst rating\n0\t1\t5\r\n\n2 0 -1 # signed\n", 3, id="three-fields"),
        ],
    )
    def test_valid_files_equal_line_scan(self, tmp_path, text, n_fields):
        path = tmp_path / "pairs.edges"
        path.write_bytes(text)
        rows = _parse_edge_lines(path, n_fields)
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.shape == (len(scan_lines(path, n_fields)), n_fields)
        assert rows.tolist() == [list(row) for row in scan_lines(path, n_fields)]

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            pytest.param(b"# c\n\n0 1\n0 1 2\n", 4, "expected 2 fields, got 3", id="extra-field"),
            pytest.param(b"# c\n\n0\n0 1\n", 3, "expected 2 fields, got 1", id="first-row-short"),
            pytest.param(b"# c\n\n0 1 2\n3 4 5\n", 3, "expected 2 fields, got 3", id="every-row-long"),
            pytest.param(b"# c\n\n0 1\n0 x\n", 4, "non-integer field", id="letter"),
            pytest.param(b"# c\r\n\r\n0 1\r\n1.5 2\r\n", 4, "non-integer field", id="float-crlf"),
            # Python's int() takes these two; the one-pass parser does not
            pytest.param("# c\n\n1_0 2\n".encode(), 3, "non-integer field", id="underscore"),
            pytest.param("# c\n\n\u0661 2\n".encode(), 3, "non-integer field", id="arabic-digit"),
            pytest.param(b"# c\n\n99999999999999999999 2\n", 3, "non-integer field", id="over-int64"),
            pytest.param(b"# c\n\n0 1\n0 1\xff\n", 4, "byte 0xff is not UTF-8", id="not-utf8"),
            pytest.param(b"# caf\xe9\n0 1\n", 1, "byte 0xe9 is not UTF-8", id="latin1-comment"),
        ],
    )
    def test_malformed_files_name_their_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "pairs.edges"
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{lineno}: {message}$"):
            _parse_edge_lines(path, 2)


class TestLruMemo:
    @staticmethod
    def start(weighting):
        """A memo whose bound holds three values of one weight, a maker of
        distinct values of that weight, and a value of another weight."""
        if weighting == "entries":  # the union, sentence and chain memos
            return LruMemo(3), lambda i: f"value {i}", "light"

        def eye(scale):  # 5 * 8 + 4 * 16 bytes whatever the scale
            return from_dense(scale * np.eye(4))

        # a graph's product and read caches
        return LruMemo(3 * eye(1).nbytes, lambda m: m.nbytes), eye, from_dense(np.eye(1))

    @pytest.mark.parametrize("weighting", ["entries", "bytes"])
    def test_evicts_least_recently_used(self, weighting):
        memo, value, light = self.start(weighting)
        unit = memo.weigh(value(1))
        a, b, c, d, e = (value(i) for i in range(1, 6))
        made = []

        def make(v):
            return lambda: made.append(v) or v

        assert memo.get("a", make(a)) is a
        assert memo.get("b", make(b)) is b
        assert memo.get("c", make(c)) is c
        assert memo.get("a", make(e)) is a  # hit: refreshes "a", makes nothing
        assert made == [a, b, c] and memo.total == 3 * unit
        memo.put("d", d)
        assert "b" not in memo and all(k in memo for k in "acd") and len(memo) == 3
        assert memo.get("b") is None
        assert memo.get("c") is c  # refreshes "c"
        memo.put("e", e)
        assert "a" not in memo and all(k in memo for k in "cde")
        assert memo.get("e") is e and memo.total == 3 * unit
        if weighting == "bytes":  # a value heavier than the whole bound is not kept
            memo.put("huge", from_dense(np.eye(40)))
            assert "huge" not in memo and memo.total == 3 * unit
        memo.put("c", light)
        assert memo.total == 2 * unit + memo.weigh(light)

        def fail():
            raise ValueError("no")

        fresh = self.start(weighting)[0]
        with pytest.raises(ValueError):
            fresh.get("a", fail)
        assert len(fresh) == 0 and fresh.total == 0
