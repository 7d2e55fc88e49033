"""Fake chat-model server for the cls-slow-agent workload.

Speaks the chat-completion wire format that ``hinstruct.agents.HttpChatBackend``
sends and answers with the reply ``StubBackend`` would give, after a simulated
model delay of ``DELAY_MS`` plus ``PER_CHAR_MS`` for each reply character.
At most as many requests as there are usable CPUs are served at once; later
ones queue.
Every reply names the model ``MODEL``, so transcripts stay deterministic.

Each request appends one JSON line to ``--log``: its sequence number, the HTTP
status, the reply length and ``server_s``, the server's own time for the
request from the moment it was read, queueing included.

Usage: python3 bench/fake_chat.py --log FILE
It binds an ephemeral port on 127.0.0.1, prints the port as its first line of
standard output, and serves until its standard input closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL = "bench-fake-chat"
DELAY_MS = 40.0
PER_CHAR_MS = 0.2


class FakeChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, log_path):
        super().__init__(("127.0.0.1", 0), _Handler)
        from hinstruct.agents import StubBackend

        self.stub = StubBackend()
        self.slots = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))
        self.log_lock = threading.Lock()
        self.log_file = open(log_path, "a", encoding="utf-8")
        self.requests_seen = 0

    def record(self, status, reply_chars, server_s):
        with self.log_lock:
            self.requests_seen += 1
            entry = {"n": self.requests_seen, "status": status,
                     "reply_chars": reply_chars, "server_s": server_s}
            self.log_file.write(json.dumps(entry) + "\n")
            self.log_file.flush()

    def server_close(self):
        super().server_close()
        self.log_file.close()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        from hinstruct.agents import BackendError

        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        started = time.perf_counter()
        status, reply = 200, ""
        with server.slots:
            try:
                messages = json.loads(body)["messages"]
                system = next(m["content"] for m in messages if m["role"] == "system")
                user = next(m["content"] for m in messages if m["role"] == "user")
                reply = server.stub.complete(system, user)
            except (BackendError, KeyError, StopIteration, TypeError, ValueError):
                status = 500
            time.sleep((DELAY_MS + PER_CHAR_MS * len(reply)) / 1000)
        payload = {"model": MODEL, "choices": [{"message": {"role": "assistant", "content": reply}}]}
        data = json.dumps(payload).encode() if status == 200 else b'{"error": "bad request"}'
        server.record(status, len(reply), time.perf_counter() - started)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # keep stderr quiet; the log file has the record
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    server = FakeChatServer(args.log)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # the parent closes our stdin (or dies) to stop us
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
