"""Search benchmark for hinstruct: end-to-end metrics, correctness gate, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload rec-demo --seed 0 --seconds 50 --trace 0

Workloads (see ``inputs.py`` for the data and what the seed does):

* ``rec-demo``: the ROADMAP's pinned demo search -- recommendation (AUC), 30
  generations, population 5, in-process stub backend. Bound by evaluation.
* ``cls-slow-agent``: node classification (Macro-F1) of businesses on the same
  network, 30 generations, population 5, ``kind: http`` backend pointed at
  ``fake_chat.py``, which answers like the stub after a simulated model delay.
  Bound by waiting on the model.

Each search runs in a fresh interpreter (``workload.py``). With ``--trace 0`` a
run measures five set-ups on their own, then searches until the next one would
end after ``--seconds``, at least one, and reports medians: ``setup_s``,
``search_s``, ``run_s``, ``peak_rss_mb``, ``best_val_fitness``,
``best_test_fitness``. It also prints ``failed_frac``, which is 0 on a healthy
run, so the result line carries it as ``failed`` over ``attempted``. An
operation is one fresh structure evaluation or one agent call. With
``--trace 1`` a run makes one untraced and one traced search and reports the
per-layer metrics of ``layers.PER_LAYER``.

Every search passes the correctness gate or the run reports ``"correct":
false`` and counts all its operations as failed: exit code 0, ``"aborted":
null``, the final best's val fitness equal to ``REFERENCE_VAL`` and to a
re-evaluation of the same structure, and one sha256 over the five artifacts
for all searches of the run. The last line of standard output is the result
JSON; each run is also appended to ``.bench_results/runs.jsonl`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("rec-demo", "cls-slow-agent")
# Final best val fitness of both workloads at synth seed 0, which every
# benchmark seed keeps: renumbering the network leaves every score unchanged.
REFERENCE_VAL = {"rec-demo": 1.0, "cls-slow-agent": 1.0}
ARTIFACTS = ("result.json", "curve.csv", "events.jsonl", "explanations.json", "transcripts.jsonl")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"), ("search_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
    ("best_val_fitness", "score"), ("best_test_fitness", "score"),
]


class RunFailed(Exception):
    pass


def environment(backend: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "backend": backend,
    }


class FakeChat:
    """The fake chat-model server, one process for the whole run."""

    def __init__(self, work: Path):
        self.log = work / "chat.log"
        self.log.touch()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_chat.py"), "--log", str(self.log)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RunFailed("fake chat server did not report a port")
        self.url = f"http://127.0.0.1:{port}/v1/chat/completions"
        self.seen = 0

    def new_lines(self) -> list:
        lines = self.log.read_text(encoding="utf-8").splitlines()
        fresh, self.seen = lines[self.seen:], len(lines)
        return [json.loads(line) for line in fresh]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_child(work: Path, config: Path, tag: str, deadline: float, *extra) -> dict:
    report = work / f"{tag}.json"
    env = dict(os.environ, NO_PROXY="127.0.0.1", no_proxy="127.0.0.1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--config", str(config),
           "--out", str(work / tag), "--report", str(report), *extra, "--started-at"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for {tag}")
    try:
        proc = subprocess.run(cmd + [repr(time.time())], env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{tag} did not finish in time") from exc
    if proc.returncode != 0 or not report.is_file():
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"{tag} exited with {proc.returncode}")
    return json.loads(report.read_text(encoding="utf-8"))


def check_search(workload: str, report: dict, out_dir: Path, server_lines) -> dict:
    """Gate one search; count its operations from the artifacts and the server log."""
    problems = []
    if report.get("exit_code") != 0:
        problems.append(f"search exited with {report.get('exit_code')}")
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return {"problems": problems + [f"missing artifacts {missing}"], "attempted": 1, "failed": 1}
    digest = hashlib.sha256()
    for name in ARTIFACTS:
        digest.update(f"{name} {hashlib.sha256((out_dir / name).read_bytes()).hexdigest()}\n".encode())
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    if result["aborted"] is not None:
        problems.append(f"search aborted: {result['aborted']}")
    best = report.get("best_val")
    if best != REFERENCE_VAL[workload]:
        problems.append(f"best val fitness {best} != reference {REFERENCE_VAL[workload]}")
    if report.get("recheck_val") != best:
        problems.append(f"re-evaluated best {report.get('recheck_val')} != reported {best}")

    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    transcripts = len((out_dir / "transcripts.jsonl").read_text().splitlines())
    fresh = sum(1 for e in events if e["event"] == "evaluation" and not e["cached"])
    agent_failures = sum(1 for e in events if e.get("note", "").startswith("agent failure"))
    if server_lines is None:
        calls, failed_calls = transcripts + agent_failures, agent_failures
    else:  # every attempt reaches the server; the ones without a transcript entry failed
        calls = max(len(server_lines), transcripts)
        failed_calls = calls - transcripts
    attempted = fresh + calls + (result["aborted"] is not None)
    failed = attempted if problems else failed_calls + (result["aborted"] is not None)
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "sha256": digest.hexdigest()}


def measure(args, work: Path, config: Path, chat: FakeChat | None, deadline: float):
    """Run the searches of one benchmark run; return (reports, checks, set-up samples, spans)."""
    reports, checks = [], []

    def search(tag, *extra):
        report = run_child(work, config, tag, deadline, *extra)
        lines = chat.new_lines() if chat else None
        report["server_lines"] = lines
        reports.append(report)
        checks.append(check_search(args.workload, report, work / tag, lines))

    if args.trace:
        search("untraced")
        search("traced", "--trace", str(work / "spans.json"))
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        return reports, checks, [], spans

    run_child(work, config, "warmup", deadline, "--setup-only")  # compiles bytecode once
    setups = [run_child(work, config, f"setup{i}", deadline, "--setup-only")["setup_s"]
              for i in range(SETUP_SAMPLES)]
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        search(f"search{len(reports)}")
        last = time.monotonic() - t0
        if time.monotonic() - started + last > args.seconds:
            break
    return reports, checks, setups, None


def summarize(args, reports, checks, setups, spans, work: Path):
    problems = [p for c in checks for p in c["problems"]]
    hashes = {c.get("sha256") for c in checks}
    if len(hashes) != 1:
        problems.append(f"artifacts differ between searches of one run: {sorted(map(str, hashes))}")
    correct = not problems
    attempted = sum(c["attempted"] for c in checks)
    failed = attempted if not correct else sum(c["failed"] for c in checks)

    if args.trace:
        import layers

        untraced, traced = reports
        values = layers.per_layer(spans, untraced, traced, work / "traced", traced["server_lines"])
        units = dict(layers.PER_LAYER, **{"evaluator.p90_ms": "ms"})
        print("self time by boundary, traced search (s): " + json.dumps(
            {k: round(v, 4) for k, v in sorted(layers.self_times(spans).items(), key=lambda kv: -kv[1])}))
        table = [(name, values[name], units[name]) for name in units if name in values]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        def median(key):  # a failed search may lack a figure; the run is then incorrect
            return statistics.median([r[key] for r in reports if key in r] or [0.0])

        setups = setups + [r["setup_s"] for r in reports if "setup_s" in r]
        medians = {
            "setup_s": statistics.median(setups),
            "search_s": median("search_s"),
            "run_s": median("run_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "best_val_fitness": median("best_val"),
            "best_test_fitness": median("best_test"),
        }
        print(f"samples: {len(reports)} search(es), {len(setups)} set-ups")
        table = [(name, medians[name], unit) for name, unit in END_TO_END]
        table.append(("failed_frac", failed / attempted, f"ratio ({failed} of {attempted} ops)"))
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}
    for name, value, unit in table:
        print(f"  {name:32s} {value:>16.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generations", type=int, default=30)
    args = parser.parse_args(argv)
    if not (SRC / "hinstruct" / "__init__.py").is_file():
        print(f"error: no hinstruct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import make_inputs

    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    chat = None
    try:
        if args.workload == "cls-slow-agent":
            chat = FakeChat(work)
        config = make_inputs(work, args.workload, args.seed, args.generations,
                             chat.url if chat else None)
        reports, checks, setups, spans = measure(args, work, config, chat, deadline)
        env = environment(reports[0]["backend"])
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print(f"artifacts sha256 {checks[0].get('sha256')}")
        result, problems = summarize(args, reports, checks, setups, spans, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if chat:
            chat.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    with (results / "runs.jsonl").open("a", encoding="utf-8") as fh:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                  "sha256": checks[0].get("sha256"), **result}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
