"""One benchmark worker: a fresh interpreter that serves exactly one command.

Usage: python3 bench/worker.py <src dir>

Imports equisyz from <src dir>, prints one "ready" JSON line with the import
time and the machine slowdown (calib.py), then reads one request line
{"argv": [...], "trace": bool, "op": id} from stdin, runs
``equisyz.cli.run(argv)`` under the speed sampler and prints one reply line
with the exit code, the run's wall time without the sampler's kernel runs,
the slowdown during the run, the peak resident set, the report and, when
traced, the spans.  A worker never serves a second command, so every
command pays process-global memos and per-object caches cold, as a user's
CLI invocation does.
"""

import json
import os
import resource
import sys
import time

from calib import SpeedSampler, slowdown_now


def main():
    src = os.path.abspath(sys.argv[1])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import equisyz.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(equisyz.cli.__file__).startswith(src + os.sep):
        raise SystemExit("equisyz was not imported from %s" % src)
    print(json.dumps({"import_s": import_s, "slowdown": slowdown_now()}),
          flush=True)

    request = json.loads(sys.stdin.readline())
    recorder = None
    if request["trace"]:
        from tracer import Tracer
        recorder = Tracer()
        recorder.install()
        recorder.op = request["op"]
    with SpeedSampler() as speed:
        code, report = equisyz.cli.run(request["argv"])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"code": code, "seconds": speed.seconds,
                      "slowdown": speed.slowdown, "rss_kb": rss_kb,
                      "report": report,
                      "spans": recorder.spans if recorder else None}))


if __name__ == "__main__":
    main()
