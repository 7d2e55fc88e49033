import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hinstruct import agents
from hinstruct.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from hinstruct.hin import load_schema
from hinstruct.mutations import build_component_library, one_step_neighbors
from hinstruct.structure import MetaStructure
from hinstruct.synth import BIZ_PER_TASTE, N_BIZ, planted_structure, toy_schema, write_demo_config

U, B = 0, 1
RATES, RATED_BY, FRIEND = 0, 1, 2


@pytest.fixture(scope="module")
def workspace(planted_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    write_demo_config(config_path, planted_dir, root / "out", seed=0, generations=3)
    schema_path = planted_dir / "schema.json"
    return {"root": root, "config": config_path, "schema": schema_path, "data": planted_dir}


def write_structure(path, ms):
    path.write_text(json.dumps(ms.to_dict()))
    return path


@pytest.fixture
def run_dir(workspace, capsys):
    """The output directory of the workspace's search, run once."""
    run = workspace["root"] / "out"
    if not (run / "result.json").is_file():
        assert main(["search", "--config", str(workspace["config"])]) == EXIT_OK
        capsys.readouterr()
    return run


def config_with_search(workspace, path, **search):
    """The workspace config with ``search`` updated by ``search``, written to ``path``."""
    payload = json.loads(workspace["config"].read_text())
    payload["search"].update(search)
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def structure_files(workspace):
    root = workspace["root"]
    direct = write_structure(root / "direct.json", MetaStructure((U, B), ((0, 1, RATES),), 0, 1))
    friend = write_structure(
        root / "friend.json",
        MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2),
    )
    planted = write_structure(root / "planted.json", planted_structure())
    cyclic = write_structure(
        root / "cyclic.json",
        MetaStructure((U, B, U), ((0, 1, RATES), (1, 2, RATED_BY), (2, 1, RATES)), 0, 1),
    )
    return {"direct": direct, "friend": friend, "planted": planted, "cyclic": cyclic}


class TestTranslate:
    def test_single_edge(self, workspace, structure_files, capsys):
        code = main(["translate", str(structure_files["direct"]), "--schema", str(workspace["schema"])])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "User rates Business"

    def test_planted_has_one_and(self, workspace, structure_files, capsys):
        code = main(["translate", str(structure_files["planted"]), "--schema", str(workspace["schema"])])
        assert code == EXIT_OK
        assert capsys.readouterr().out.count(" AND ") == 1

    def test_cyclic_rejected(self, workspace, structure_files, capsys):
        code = main(["translate", str(structure_files["cyclic"]), "--schema", str(workspace["schema"])])
        assert code == EXIT_DATA
        assert "cycle" in capsys.readouterr().err

    def test_missing_file(self, workspace, capsys):
        code = main(["translate", "/nonexistent.json", "--schema", str(workspace["schema"])])
        assert code == EXIT_DATA


class TestEvaluate:
    def test_planted_perfect(self, workspace, structure_files, capsys):
        code = main(["evaluate", str(structure_files["planted"]), "--config", str(workspace["config"])])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("auc ")
        assert float(out.split()[1]) == 1.0

    def test_zero_scoring_structure_half(self, workspace, structure_files, capsys):
        code = main(["evaluate", str(structure_files["direct"]), "--config", str(workspace["config"])])
        assert code == EXIT_OK
        assert float(capsys.readouterr().out.split()[1]) == 0.5

    def test_test_split_flag(self, workspace, structure_files, capsys):
        code = main(
            [
                "evaluate", str(structure_files["friend"]),
                "--config", str(workspace["config"]), "--split", "test",
            ]
        )
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.split()[1])
        assert 0.0 <= value <= 1.0

    def test_type_mismatch_diagnosed(self, workspace, capsys):
        bad = workspace["root"] / "uu.json"
        write_structure(bad, MetaStructure((U, U), ((0, 1, FRIEND),), 0, 1))
        code = main(["evaluate", str(bad), "--config", str(workspace["config"])])
        assert code == EXIT_DATA
        assert "structure joins node types 0 and 0; the task joins node types 0 and 1" in capsys.readouterr().err


class TestNeighbors:
    def test_friend_insertion_present(self, workspace, structure_files, capsys):
        code = main(
            ["neighbors", str(structure_files["direct"]), "--config", str(workspace["config"])]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        header, *lines = out.strip().splitlines()
        assert header.startswith("neighbors=")
        assert any(
            '"op": "insertion"' in line and "User is friend of User THAT rates Business" in line
            for line in lines
        )

    def test_single_edge_no_deletions(self, workspace, structure_files, capsys):
        main(["neighbors", str(structure_files["direct"]), "--config", str(workspace["config"])])
        out = capsys.readouterr().out
        assert '"op": "deletion"' not in out

    def test_cap_and_sampled_header(self, workspace, capsys):
        rich = workspace["root"] / "rich.json"
        write_structure(
            rich,
            MetaStructure(
                (U, U, B, U, B),
                ((0, 1, FRIEND), (1, 2, RATES), (2, 3, RATED_BY), (3, 4, RATES), (0, 4, RATES)),
                0,
                4,
            ),
        )
        code = main(
            ["neighbors", str(rich), "--config", str(workspace["config"]), "--seed", "0"]
        )
        assert code == EXIT_OK
        header, *lines = capsys.readouterr().out.strip().splitlines()
        assert "sampled=true" in header
        assert len(lines) == 20

    def test_deterministic_given_seed(self, workspace, structure_files, capsys):
        argv = ["neighbors", str(structure_files["friend"]), "--config", str(workspace["config"]), "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]])
    def test_prints_the_configured_neighbourhood(self, workspace, structure_files, tmp_path, capsys, seed_flag):
        config = config_with_search(
            workspace, tmp_path / "config.json",
            candidate_cap=5, seed=7, max_structure_nodes=6, insertion_max_interior=2, grafting_max_nodes=4,
        )
        assert main(["neighbors", str(structure_files["friend"]), "--config", str(config), *seed_flag]) == EXIT_OK
        lib = build_component_library(load_schema(workspace["schema"]), 6, 2, 4)
        rng = np.random.default_rng(int(seed_flag[1]) if seed_flag else 7)
        ms = MetaStructure((U, U, B), ((0, 1, FRIEND), (1, 2, RATES)), 0, 2)
        cands = one_step_neighbors(ms, lib, rng, 5)
        assert cands.sampled
        expected = ["neighbors=5 sampled=true"] + [
            f"{json.dumps(c.descriptor, sort_keys=True)}\t{c.key}\t{lib.sentence(c.structure)}"
            for c in cands.candidates
        ]
        assert capsys.readouterr().out.splitlines() == expected


class TestSearch:
    def test_end_to_end(self, workspace, capsys):
        code = main(["search", "--config", str(workspace["config"])])
        assert code == EXIT_OK
        out_dir = workspace["root"] / "out"
        for name in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"):
            assert (out_dir / name).is_file(), name
        result = json.loads((out_dir / "result.json").read_text())
        assert result["final_best"]["fitness"] >= 0.95
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "generation,best_fitness,mean_fitness"
        assert len(curve) == 3 + 2  # header + generations 0..3
        assert "final best" in capsys.readouterr().out

    def test_seed_determinism_byte_identical(self, workspace, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["search", "--config", str(workspace["config"]), "--out", str(out_a)]) == EXIT_OK
        assert main(["search", "--config", str(workspace["config"]), "--out", str(out_b)]) == EXIT_OK
        for name in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_log_level_info_reports_agent_chains_on_stderr(self, workspace, tmp_path):
        assert build_parser().parse_args(["search", "--config", "c"]).log_level == "warning"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "hinstruct.cli", "--log-level", "info", "search",
             "--config", str(workspace["config"]), "--out", str(tmp_path / "logged")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        chains = [line for line in proc.stderr.splitlines() if "agent chain(s)" in line]
        assert [line.split(":")[2] for line in chains] == ["generation 0", "generation 1", "generation 2"]
        assert all("took" in line and "from the memo" in line for line in chains)
        assert main(["search", "--config", str(workspace["config"]), "--out", str(tmp_path / "plain")]) == EXIT_OK
        for name in ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl"):
            assert (tmp_path / "logged" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    def test_missing_dataset_dir_names_path(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.json"
        payload = json.loads(workspace["config"].read_text())
        payload["dataset_dir"] = "/nonexistent/dataset"
        config.write_text(json.dumps(payload))
        code = main(["search", "--config", str(config)])
        assert code == EXIT_DATA
        assert "/nonexistent/dataset" in capsys.readouterr().err

    def test_output_path_that_is_a_file(self, workspace, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        result_path = workspace["root"] / "out" / "result.json"
        if not result_path.is_file():
            main(["search", "--config", str(workspace["config"])])
        capsys.readouterr()
        for argv in (["search"], ["explain", str(result_path)]):
            assert main([*argv, "--config", str(workspace["config"]), "--out", str(taken)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"cannot create output directory {taken}: File exists" in err
            assert "Traceback" not in err
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize("name", ["result.json", "transcripts.jsonl"])
    def test_artifact_that_cannot_be_written(self, workspace, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["search", "--config", str(workspace["config"]), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: cannot write {out / name}: Is a directory" in err
        assert "Traceback" not in err
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("name", ["result.json", "curve.csv", "events.jsonl", "explanations.json"])
    def test_unwritable_artifact_refused_before_the_search(self, workspace, tmp_path, capsys, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("hinstruct.cli.run_search", refuse)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["search", "--config", str(workspace["config"]), "--out", str(out)]) == EXIT_DATA
        assert f"error: cannot write {out / name}: Is a directory" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == [name]

    def test_unknown_search_key_rejected(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad2.json"
        payload = json.loads(workspace["config"].read_text())
        payload["search"]["typo_field"] = 1
        config.write_text(json.dumps(payload))
        assert main(["search", "--config", str(config)]) == EXIT_DATA


class TestMalformedInput:
    """Bad outside input exits 2 with a message naming the file and the field;
    a flag value out of range is a usage error, exit 1, naming the flag."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rating_threshold", "high"),
            ("split_ratio", [0, 0, 0]),
            ("split_ratio", "abc"),
            ("split_ratio", [3, 1]),
            ("search.retries", 0),
            ("search.backoff", -1),
            ("search.max_structure_nodes", 1),
            ("search.insertion_max_interior", -1),
            ("search.grafting_max_nodes", 1),
            ("search.insertion_max_interior", 9),  # 11 positions > max_structure_nodes 10
            ("search.grafting_max_nodes", 11),
            ("search.generations", 1.5),
            ("search.candidate_cap", 2.5),
            ("search.pool_sample_size", 2.5),
            ("search.retries", 1.5),
            ("search.seed", "0"),
            ("search.seed", True),
            ("search.elimination_rate", "0.2"),
            ("search.backoff", float("inf")),
            ("task", "recommendation"),
            ("search", [1]),
            ("backend", "stub"),
            ("dataset_dir", 5),
            ("output_dir", 5),
            ("prompt_dir", 3),
            ("rating_threshold", 2.7),
            ("rating_threshold", "2"),
            ("rating_threshold", True),
            ("rating_treshold", 3),  # unknown key
            ("task.target", "rates"),  # unknown key
            ("task.kind", "regression"),
            ("task.target_relation", None),
            ("task.target_relation", 5),
            ("task.target_relation", [1]),
            ("task.target_relation", ""),
            ("task", {"kind": "classification", "target_type": 5}),
            ("task", {"kind": "classification", "target_type": [1]}),
            ("search.seed", -1),
        ],
    )
    def test_bad_config_field(self, workspace, tmp_path, capsys, field, value):
        payload = json.loads(workspace["config"].read_text())
        section, _, name = field.rpartition(".")
        (payload[section] if section else payload)[name] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert main(["search", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert name in err and str(config) in err

    def test_config_top_level_not_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        assert main(["search", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(config) in err and "top level" in err

    @pytest.mark.parametrize("part, field", [("pool", "sentence"), ("generations", "population")])
    def test_result_missing_field(self, workspace, tmp_path, capsys, part, field):
        payload = {
            "generations": [{"population": ["k"]}],
            "pool": [
                {"key": "k", "sentence": "s", "fitness": 0.5, "generation": 0,
                 "structure": MetaStructure((U, B), ((0, 1, RATES),), 0, 1).to_dict()}
            ],
        }
        del payload[part][-1][field]
        result = tmp_path / "result.json"
        result.write_text(json.dumps(payload))
        argv = ["explain", str(result), "--config", str(workspace["config"]), "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(result) in err and repr(field) in err

    def test_result_pool_repeats_key(self, workspace, tmp_path, capsys):
        record = {"key": "k", "sentence": "s", "fitness": 0.5, "generation": 0,
                  "structure": MetaStructure((U, B), ((0, 1, RATES),), 0, 1).to_dict()}
        payload = {"generations": [{"population": ["k"]}], "pool": [record, dict(record)]}
        result = tmp_path / "result.json"
        result.write_text(json.dumps(payload))
        argv = ["explain", str(result), "--config", str(workspace["config"]), "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(result) in err and "pool[1]" in err and repr("k") in err

    @staticmethod
    def explain_result(workspace, tmp_path, capsys, payload):
        """Exit code and stderr of ``explain`` on a result file holding ``payload``."""
        result = tmp_path / "result.json"
        result.write_text(json.dumps(payload))
        argv = ["explain", str(result), "--config", str(workspace["config"]), "--out", str(tmp_path / "x")]
        return main(argv), capsys.readouterr().err.replace(str(result), "RESULT")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key", ["k"]),
            ("sentence", 3),
            ("fitness", "high"),
            ("fitness", True),
            ("fitness", 1.5),
            ("generation", 0.5),
            ("structure", "x"),
            ("structure", {"nodes": [0, 99], "edges": [[0, 1, 0]], "source": 0, "target": 1}),
            ("structure", {"nodes": [0, 1], "edges": [[0, 1.9, 0]], "source": 0, "target": 1}),
        ],
    )
    def test_result_bad_pool_field(self, workspace, tmp_path, capsys, field, value):
        record = {"key": "k", "sentence": "s", "fitness": 0.5, "generation": 0,
                  "structure": MetaStructure((U, B), ((0, 1, RATES),), 0, 1).to_dict()}
        record[field] = value
        final = [] if field == "key" else ["k"]
        payload = {"generations": [{"population": final}], "pool": [record]}
        code, err = self.explain_result(workspace, tmp_path, capsys, payload)
        assert code == EXIT_DATA
        assert "result file RESULT: pool[0]" in err and repr(field) in err

    @pytest.mark.parametrize(
        "payload, says",
        [
            ([{"generations": []}], "no generations"),
            ({"generations": {"population": ["k"]}}, "no generations"),
            ({"generations": ["population"]}, "'population'"),
            ({"generations": [{"population": 5}]}, "'population'"),
            ({"generations": [{"population": []}], "pool": 3}, "'pool'"),
            ({"generations": [{"population": []}], "pool": [["key", "sentence", "fitness"]]},
             "pool[0] is not an object"),
            ({"generations": [{"population": ["gone"]}], "pool": []}, "'population' lists 'gone'"),
        ],
    )
    def test_result_bad_shape(self, workspace, tmp_path, capsys, payload, says):
        code, err = self.explain_result(workspace, tmp_path, capsys, payload)
        assert code == EXIT_DATA and "RESULT" in err and says in err

    @pytest.mark.parametrize(
        "field, value",
        [("temperature", "hot"), ("temperature", None), ("timeout", "abc"), ("timeout", 0),
         ("timeout", -1), ("url", 5), ("model", [1]), ("api_key_env", [1]),
         ("temprature", 0.5), ("url", "file:///etc/passwd"), ("url", "ftp://127.0.0.1/v1")],
    )
    def test_bad_backend_setting(self, workspace, tmp_path, capsys, field, value):
        payload = json.loads(workspace["config"].read_text())
        payload["backend"] = {"kind": "http", "url": "http://127.0.0.1:9/v1", "model": "m", field: value}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert main(["search", "--config", str(config), "--out", str(tmp_path / "x")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(config) in err and f"backend.{field}" in err

    @staticmethod
    def search_copied_data(workspace, tmp_path, edit, task=None):
        """Exit status and stderr of a search over a copy of the demo data that
        ``edit(data_dir)`` has changed."""
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        edit(data)
        payload = json.loads(workspace["config"].read_text())
        payload["dataset_dir"] = str(data)
        payload["task"] = task or payload["task"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        return main(["search", "--config", str(config), "--out", str(tmp_path / "out")]), data

    @pytest.mark.parametrize("value", ["abc", [1], 12.7, True, -3])
    def test_bad_node_count(self, workspace, tmp_path, capsys, value):
        def edit(data):
            counts = json.loads((data / "counts.json").read_text())
            (data / "counts.json").write_text(json.dumps({**counts, "city": value}))

        status, data = self.search_copied_data(workspace, tmp_path, edit)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert f"{data / 'counts.json'}: count of node type 'city' is {value!r}" in err

    @pytest.mark.parametrize("node", [-1, 150, 1000])
    def test_label_node_out_of_range(self, workspace, tmp_path, capsys, node):
        def edit(data):
            lines = [f"{b}\t{b // BIZ_PER_TASTE}\n" for b in range(N_BIZ)]
            lines.insert(7, f"{node}\t0\n")
            (data / "labels.tsv").write_text("".join(lines))

        task = {"kind": "classification", "target_type": "business"}
        status, data = self.search_copied_data(workspace, tmp_path, edit, task)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert f"{data / 'labels.tsv'}: node id {node} out of range for {N_BIZ} nodes" in err

    def test_classification_split_too_small(self, workspace, tmp_path, capsys):
        def edit(data):
            (data / "labels.tsv").write_text("".join(f"{b}\t{b % 2}\n" for b in range(3)))

        task = {"kind": "classification", "target_type": "business"}
        status, _ = self.search_copied_data(workspace, tmp_path, edit, task)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert "split too small: 3 labeled nodes" in err

    @pytest.mark.parametrize(
        "row, says",
        [("9999\t0\t5", "source id 9999"), ("-1\t0\t5", "source id -1"), ("0\t144\t5", "target id 144")],
    )
    def test_rating_id_out_of_range(self, workspace, tmp_path, capsys, row, says):
        def edit(data):
            lines = (data / "ratings.tsv").read_text().splitlines(keepends=True)
            lines[1] = row + "\n"
            (data / "ratings.tsv").write_text("".join(lines))

        status, data = self.search_copied_data(workspace, tmp_path, edit)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert f"{data / 'ratings.tsv'}: {says} out of range for " in err

    def test_edge_file_not_utf8(self, workspace, tmp_path, capsys):
        def edit(data):
            with open(data / "friend.edges", "ab") as fh:
                fh.write(b"\xff")

        status, data = self.search_copied_data(workspace, tmp_path, edit)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert f"{data / 'friend.edges'}:" in err and "byte 0xff is not UTF-8" in err

    def test_counts_not_json(self, workspace, tmp_path, capsys):
        def edit(data):
            (data / "counts.json").write_text('{"user": 288,')

        status, data = self.search_copied_data(workspace, tmp_path, edit)
        err = capsys.readouterr().err
        assert status == EXIT_DATA
        assert f"node counts file {data / 'counts.json'} is not valid JSON: Expecting property name" in err

    @pytest.mark.parametrize(
        "command, what",
        [("search", "config file"), ("explain", "result file"), ("translate", "structure file"),
         ("evaluate", "structure file"), ("neighbors", "structure file")],
    )
    def test_file_not_json(self, workspace, tmp_path, capsys, command, what):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [0,')
        config, schema = str(workspace["config"]), str(workspace["schema"])
        argv = {
            "search": ["search", "--config", str(bad)],
            "explain": ["explain", str(bad), "--config", config, "--out", str(tmp_path / "x")],
            "translate": ["translate", str(bad), "--schema", schema],
            "evaluate": ["evaluate", str(bad), "--config", config],
            "neighbors": ["neighbors", str(bad), "--config", config],
        }[command]
        assert main(argv) == EXIT_DATA
        assert f"{what} {bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [("[]", "list"), ("5", "int"), ('"x"', "str")])
    def test_schema_top_level_not_object(self, workspace, structure_files, tmp_path, capsys, text, kind):
        schema = tmp_path / "schema.json"
        schema.write_text(text)
        assert main(["translate", str(structure_files["direct"]), "--schema", str(schema)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"schema file {schema}: the top level must be an object, not {kind}" in err
        assert "Traceback" not in err

    def test_schema_id_not_an_integer(self, workspace, structure_files, tmp_path, capsys):
        payload = json.loads(workspace["schema"].read_text())
        payload["node_types"][0]["id"] = 0.7
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(payload))
        assert main(["translate", str(structure_files["direct"]), "--schema", str(schema)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"schema file {schema}: malformed node type entry: invalid literal for integer id" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, says",
        [({"nodes": [0, 1]}, "missing field 'edges'"), ([1], "must be an object, not list"),
         (5, "must be an object, not int"),
         ({"nodes": [0.7, True], "edges": [[0, 1.9, "0"]], "source": 0, "target": 1.5},
          "invalid literal for integer node type: 0.7")],
    )
    def test_structure_file_not_a_structure(self, workspace, tmp_path, capsys, payload, says):
        bad = tmp_path / "structure.json"
        bad.write_text(json.dumps(payload))
        assert main(["translate", str(bad), "--schema", str(workspace["schema"])]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"structure file {bad}: malformed meta-structure payload: {says}" in err

    def test_missing_dataset_dir(self, workspace, tmp_path, capsys):
        payload = json.loads(workspace["config"].read_text())
        del payload["dataset_dir"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert main(["search", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(config) in err and "dataset_dir is missing" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command, flag", [("explain", "--top-k")])
    def test_count_flag_below_one(self, workspace, capsys, command, flag, value):
        argv = ["explain", str(workspace["root"] / "result.json"), "--config", str(workspace["config"])]
        assert main(argv + [flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least 1, not {value}" in captured.err

    @pytest.mark.parametrize(
        "search, message",
        [
            ({"candidate_cap": 0}, "candidate_cap must be at least 1, not 0"),
            ({"candidate_cap": -1}, "candidate_cap must be at least 1, not -1"),
            ({"max_structure_nodes": 0}, "max_structure_nodes must be at least 2, not 0"),
            ({"max_structure_nodes": -3}, "max_structure_nodes must be at least 2, not -3"),
            ({"insertion_max_interior": -1}, "insertion_max_interior must be at least 0, not -1"),
            ({"grafting_max_nodes": 1}, "grafting_max_nodes must be at least 2, not 1"),
            ({"grafting_max_nodes": 1000}, "grafting_max_nodes must not exceed max_structure_nodes (10), not 1000"),
            ({"max_structure_nodes": 3, "insertion_max_interior": 2},
             "insertion_max_interior plus 2 must not exceed max_structure_nodes (3), not 2"),
        ],
        ids=["cap-0", "cap--1", "max-nodes-0", "max-nodes--3", "interior--1", "grafting-1", "grafting-1000",
             "interior-over-max-nodes"],
    )
    def test_neighbors_search_key_out_of_range(self, workspace, structure_files, tmp_path, capsys, search, message):
        config = config_with_search(workspace, tmp_path / "config.json", **search)
        assert main(["neighbors", str(structure_files["friend"]), "--config", str(config)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config {config}: invalid search config: {message}" in captured.err

    @pytest.mark.parametrize("command", ["search", "evaluate", "neighbors"])
    def test_negative_seed_flag(self, workspace, structure_files, tmp_path, capsys, command):
        config = str(workspace["config"])
        argv = {
            "search": ["search", "--config", config, "--out", str(tmp_path / "out")],
            "evaluate": ["evaluate", str(structure_files["friend"]), "--config", config],
            "neighbors": ["neighbors", str(structure_files["friend"]), "--config", config],
        }[command]
        assert main([*argv, "--seed", "-1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "invalid search config: seed must be nonnegative" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, text, says",
        [
            pytest.param("predictor", "\n$typo\n",
                         "unknown placeholder $typo; predictor fills $pool_block, $candidate_block", id="unknown"),
            pytest.param("explainer_step2", "\ncosts $5\n", "Invalid placeholder in string", id="invalid"),
        ],
    )
    def test_bad_prompt_template_is_data_error(self, workspace, run_dir, tmp_path, capsys, name, text, says):
        prompts = tmp_path / "prompts"
        shutil.copytree(Path(agents.__file__).parent / "prompts", prompts)
        with open(prompts / f"{name}.txt", "a", encoding="utf-8") as f:
            f.write(text)
        payload = json.loads(workspace["config"].read_text())
        payload["prompt_dir"] = str(prompts)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "out"
        for argv in (["search"], ["explain", str(run_dir / "result.json")]):
            assert main([*argv, "--config", str(config), "--out", str(out)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"prompt template {prompts / (name + '.txt')}: {says}" in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["neighbors", "search"])
    def test_runaway_component_limit_is_data_error(self, workspace, structure_files, tmp_path, capsys, command):
        config = config_with_search(
            workspace, tmp_path / "config.json", max_structure_nodes=1000, grafting_max_nodes=1000
        )
        if command == "neighbors":
            argv = ["neighbors", str(structure_files["friend"]), "--config", str(config)]
        else:
            argv = ["search", "--config", str(config), "--out", str(tmp_path / "out")]
        start = time.perf_counter()
        assert main(argv) == EXIT_DATA
        assert time.perf_counter() - start < 1.0
        assert "component limit 1000" in capsys.readouterr().err

    def test_explain_rejects_size_limits(self, workspace, tmp_path, capsys):
        payload = json.loads(workspace["config"].read_text())
        payload["search"]["grafting_max_nodes"] = 11
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        argv = ["explain", str(workspace["root"] / "result.json"), "--config", str(config)]
        assert main(argv) == EXIT_DATA
        assert "grafting_max_nodes must not exceed max_structure_nodes (10), not 11" in capsys.readouterr().err


class TestExplain:
    def test_rerun_explainer(self, workspace, tmp_path, capsys):
        out = tmp_path / "explain-out"
        result_path = workspace["root"] / "out" / "result.json"
        if not result_path.is_file():
            main(["search", "--config", str(workspace["config"])])
            capsys.readouterr()
        code = main(
            ["explain", str(result_path), "--config", str(workspace["config"]), "--out", str(out)]
        )
        assert code == EXIT_OK
        reports = json.loads((out / "explain-explanations.json").read_text())
        assert reports
        for report in reports:
            assert report["comprehension"] and report["attribution"]
            assert report["neighbors"]

    def test_top_k_larger_than_finals(self, workspace, tmp_path, capsys, caplog):
        out = tmp_path / "explain-k"
        result_path = workspace["root"] / "out" / "result.json"
        if not result_path.is_file():
            main(["search", "--config", str(workspace["config"])])
            capsys.readouterr()
        code = main(
            [
                "explain", str(result_path), "--config", str(workspace["config"]),
                "--out", str(out), "--top-k", "50",
            ]
        )
        assert code == EXIT_OK
        reports = json.loads((out / "explain-explanations.json").read_text())
        assert len(reports) <= 5

    def test_rerun_into_search_directory_keeps_artifacts(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        write_demo_config(config, workspace["data"], tmp_path / "run", seed=0, generations=3)
        assert main(["search", "--config", str(config)]) == EXIT_OK
        run = tmp_path / "run"
        names = ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl")
        before = {name: (run / name).read_bytes() for name in names}
        assert main(["explain", str(run / "result.json"), "--config", str(config)]) == EXIT_OK
        assert json.loads((run / "explain-explanations.json").read_text())
        for name in names:
            assert (run / name).read_bytes() == before[name], name

    def test_second_explain_replaces_transcripts(self, workspace, tmp_path, capsys):
        result_path = workspace["root"] / "out" / "result.json"
        if not result_path.is_file():
            main(["search", "--config", str(workspace["config"])])
        out = tmp_path / "twice"
        argv = ["explain", str(result_path), "--config", str(workspace["config"]), "--out", str(out)]
        for _ in range(2):
            assert main(argv) == EXIT_OK
            reports = json.loads((out / "explain-explanations.json").read_text())
            lines = (out / "explain-transcripts.jsonl").read_text().splitlines()
            # the explainer's two steps, one exchange each with the stub
            assert reports and len(lines) == 2 * len(reports)

    def test_reports_that_cannot_be_written(self, workspace, run_dir, tmp_path, capsys):
        out = tmp_path / "explain-out"
        (out / "explain-explanations.json").mkdir(parents=True)
        argv = ["explain", str(run_dir / "result.json"), "--config", str(workspace["config"]), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: cannot write {out / 'explain-explanations.json'}: Is a directory" in err
        assert "Traceback" not in err
        assert not (out / "explain-explanations.json.tmp").exists()

    def test_unwritable_reports_refused_before_the_backend(self, workspace, run_dir, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("explain asked the backend")

        monkeypatch.setattr(agents.StubBackend, "complete", refuse)
        out = tmp_path / "explain-out"
        (out / "explain-explanations.json").mkdir(parents=True)
        argv = ["explain", str(run_dir / "result.json"), "--config", str(workspace["config"]), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert f"error: cannot write {out / 'explain-explanations.json'}: Is a directory" in capsys.readouterr().err
        assert not (out / "explain-transcripts.jsonl").exists()

    def test_missing_result_file(self, workspace, capsys):
        code = main(["explain", "/no/such/result.json", "--config", str(workspace["config"])])
        assert code == EXIT_DATA

    def test_rerun_reproduces_search_reports(self, workspace, run_dir, tmp_path, capsys):
        out = tmp_path / "fresh"
        argv = ["explain", str(run_dir / "result.json"), "--config", str(workspace["config"]), "--out", str(out)]
        assert main(argv) == EXIT_OK
        reports = (run_dir / "explanations.json").read_bytes()
        assert (out / "explain-explanations.json").read_bytes() == reports
        n = len(json.loads(reports))
        assert n > 0
        tail = (run_dir / "transcripts.jsonl").read_text().splitlines()[-2 * n:]
        assert (out / "explain-transcripts.jsonl").read_text().splitlines() == tail

    def test_does_not_load_the_graph(self, workspace, run_dir, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("explain loaded the graph")

        monkeypatch.setattr("hinstruct.cli.load_graph", refuse)
        argv = ["explain", str(run_dir / "result.json"), "--config", str(workspace["config"]),
                "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_OK

    def test_task_of_another_kind_refused(self, workspace, run_dir, tmp_path, capsys):
        payload = json.loads(workspace["config"].read_text())
        payload["task"] = {"kind": "classification", "target_type": "business"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        result = run_dir / "result.json"
        argv = ["explain", str(result), "--config", str(config), "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"result file {result}: pool[" in err
        assert "joins node types 0 and 1; the configured classification task joins (1, 1)" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("case", ["missing", "[1, 2]", "{oops", "origin", "chosen"])
    def test_bad_event_log(self, workspace, run_dir, tmp_path, capsys, case):
        shutil.copy(run_dir / "result.json", tmp_path / "result.json")
        events = tmp_path / "events.jsonl"
        lines = (run_dir / "events.jsonl").read_text().splitlines()
        if case == "missing":
            says = f"cannot read event log {events}"
        elif case in ("origin", "chosen"):
            i = next(i for i, line in enumerate(lines) if json.loads(line)["event"] == "mutation")
            event = json.loads(lines[i])
            event[case] = "nowhere"
            lines[i] = json.dumps(event)
            says = f"{events}:{i + 1}: mutation field {case!r} is 'nowhere', not a pool key"
        else:
            lines[4] = case
            says = f"{events}:5: not a JSON object"
        if case != "missing":
            events.write_text("\n".join(lines) + "\n")
        argv = ["explain", str(tmp_path / "result.json"), "--config", str(workspace["config"]),
                "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        code = main(["search", "--config", str(workspace["config"]), "--bogus"])
        assert code == EXIT_USAGE

    def test_evaluate_takes_no_out_flag(self, workspace, structure_files, tmp_path, capsys):
        argv = ["evaluate", str(structure_files["planted"]), "--config", str(workspace["config"])]
        assert main([*argv, "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    def test_explain_takes_no_seed_flag(self, workspace, tmp_path, capsys):
        argv = ["explain", str(workspace["root"] / "result.json"), "--config", str(workspace["config"])]
        assert main([*argv, "--seed", "0", "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--schema", "--cap", "--max-nodes"])
    def test_neighbors_takes_its_settings_from_the_config(self, workspace, structure_files, capsys, flag):
        argv = ["neighbors", str(structure_files["friend"]), "--config", str(workspace["config"])]
        assert main([*argv, flag, "3"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero_and_lists_commands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("search", "translate", "evaluate", "neighbors", "explain"):
            assert command in out

    def test_subcommand_help_lists_flags(self, capsys):
        assert main(["search", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--seed", "--out"):
            assert flag in out

    def test_backend_error_exit_code(self, workspace, tmp_path, capsys):
        # http backend pointed at a dead port fails after retries
        config = tmp_path / "http.json"
        payload = json.loads(workspace["config"].read_text())
        payload["backend"] = {"kind": "http", "url": "http://127.0.0.1:9/v1", "model": "m"}
        payload["search"]["retries"] = 1
        payload["search"]["backoff"] = 0.0
        config.write_text(json.dumps(payload))
        result_path = workspace["root"] / "out" / "result.json"
        if not result_path.is_file():
            main(["search", "--config", str(workspace["config"])])
            capsys.readouterr()
        code = main(
            ["explain", str(result_path), "--config", str(config), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_BACKEND


class TestStartup:
    def test_cli_import_loads_no_third_party_http_client(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = "import sys, hinstruct.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_stub_run_loads_no_http_stack(self, planted_dir, tmp_path):
        """A stub config loads and searches without ``http.client``, ``ssl``
        or ``urllib.request``; the HTTP backend loads them as it is made."""
        config = tmp_path / "config.json"
        write_demo_config(config, planted_dir, tmp_path / "out", seed=0, generations=1)
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "import hinstruct.cli as cli\n"
            "loaded = lambda: sorted({'http.client', 'ssl', 'urllib.request'} & set(sys.modules))\n"
            "cli.RunConfig.load(sys.argv[1])\n"
            "assert cli.main(['search', '--config', sys.argv[1]]) == cli.EXIT_OK\n"
            "print(loaded())\n"
            "cli.make_backend({'kind': 'http', 'url': 'http://127.0.0.1:9/'})\n"
            "print(loaded())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        stub, http = proc.stdout.strip().splitlines()[-2:]
        assert stub == "[]"
        assert "'urllib.request'" in http
