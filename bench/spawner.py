"""Starts the cold interpreters of the benchmark on behalf of run.py.

On Linux a child's ru_maxrss starts from the resident size of the process
that forked it, so a job forked by the benchmark process itself (which
holds numpy, the package and the pass outputs) would report the
benchmark's memory as its own.  This small process, which imports only
the standard library, forks the jobs instead.

Protocol: one JSON request per line on stdin, {"args": [...], "cwd": ...,
"env": {...}}; one JSON reply per line on stdout, {"s": seconds from spawn
to exit, "rc": exit code, "rss_mb": ru_maxrss of the child, "out": its
stdout, "err": its stderr}.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def serve(requests, replies, scratch: str) -> None:
    for line in requests:
        req = json.loads(line)
        with tempfile.TemporaryFile(dir=scratch) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *req["args"]], cwd=req["cwd"],
                                    env=req["env"], stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            reply = {"s": dt, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
                     "out": out.decode("utf-8", "replace"),
                     "err": err.read().decode("utf-8", "replace")}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout, sys.argv[1])
