"""Runs CLI calls on the frozen baseline copy of coordline (perfbench/baseline).

    python3 perfbench/refworker.py WORKDIR

Started by bench.py as a child process. Each line on stdin is one call,
{"command": ..., "config": ...}; for each, one line goes back on stdout,
{"seconds": <wall time of the call>, "code": <its exit code>}. Ends when
stdin closes. The baseline runs in its own process so that its modules,
caches and memory stay apart from the code being measured.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "baseline"))

from coordline import cli  # noqa: E402  (the baseline copy, from the path above)


def serve(workdir: Path) -> None:
    reply = sys.stdout
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path, out = workdir / "call.json", workdir / "out"
    with open(os.devnull, "w") as sink:
        for line in sys.stdin:
            call = json.loads(line)
            cfg_path.write_text(json.dumps(call["config"]))
            shutil.rmtree(out, ignore_errors=True)
            argv = [call["command"], "--config", str(cfg_path), "--out", str(out),
                    "--threads", "1"]
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.run_command(argv)
            except Exception:  # reported to the parent as a missing exit code
                code = None
            seconds = time.perf_counter() - start
            reply.write(json.dumps({"seconds": seconds, "code": code}) + "\n")
            reply.flush()


if __name__ == "__main__":
    serve(Path(sys.argv[1]))
