"""equisyz benchmark: CLI workloads in a closed loop, checked by an oracle.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

One client runs one op at a time.  An op is the workload's fixed list of
CLI commands; each command is one ``equisyz.cli.run`` call on one generated
JSON input, made in a fresh worker process that has served nothing before
(see worker.py), so process-global memos and per-object caches are paid
cold on every call, as by a user's CLI invocation.  Set-up of an op is
input generation, file writing, interpreter start and ``import equisyz``
for each of its workers; the op time is the sum of its ``cli.run`` times.
All times are reported at a fixed reference machine speed: calib.py times
a fixed kernel inside every worker and divides each wall time by the
slowdown it measured, because the host's speed drifts by up to 2x.

With ``--trace 0`` the run reports the end-to-end metrics; tracing is off:

    ops_per_s    correct ops per second of op time
    op_s.p50     median op time
    setup_s      median set-up time of an op
    peak_rss_mb  largest peak resident set of any worker (interpreter,
                 import and the command's own memos and caches)
    ok_ratio     ops passing the oracle / ops attempted, i.e. one minus
                 the fail ratio (a metric must never read 0)

An op fails on a nonzero exit code, a status other than "pass", or a
report the oracle (oracle.py) rejects.

With ``--trace 1`` ops alternate between untraced and traced (tracer.py)
and the run reports per-layer medians per traced op plus the tracing
overhead and the machine slowdown.  Spans are written to
bench/out/<workload>-seed<n>/spans.jsonl.

The last stdout line is the JSON result; the line before it is the report
digest, identical for every op of the run, so that two versions of the
program can be compared byte for byte at the same seed.

``--self-check`` runs toy-sized workloads through the generators, the
oracle and the tracer in a few seconds.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import gen
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# A run stops starting ops once the next one would end after --seconds,
# but always makes MIN_OPS (trace mode: two traced, two untraced) while it
# is before SOFT_LIMIT_S; workers still running at HARD_LIMIT_S are killed
# and their op fails, so the process ends well within three minutes.
MIN_OPS = {0: 3, 1: 4}
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 165.0


class Command(NamedTuple):
    label: str
    argv: list          # CLI argv without the input path: [command, *options]
    obj: dict           # the generated JSON input
    check: Callable     # oracle: (report, exit code) -> list of problems


def gkm(label, obj, poincare, checks):
    return Command(label, ["gkm", "--check", ",".join(checks)], obj,
                   oracle.gkm(poincare, checks))


def module(label, obj, check):
    return Command(label, ["module-analyze"], obj, check)


def _seed(seed, label):
    return "%d/%s" % (seed, label)


# Workloads: seed -> commands of one op.  Each loads one layer; costs and
# shares were measured on a 2-core x86 VM, on the program as the benchmark
# was introduced.
WORKLOADS = {
    # Module-GB kernel path: polyring.divide self time is about 93 % of the
    # op; weyl does no work and equivtop.integrate is never called.
    # Flag(4) (about 21 s) is left out until it is affordable to repeat.
    "gkm-kernel": lambda s: [
        gkm("gr25", gen.grassmannian(2, 5, _seed(s, "gr25")),
            oracle.poincare_grassmannian(2, 5), ["cs"]),
        gkm("p6", gen.projective_space(6, _seed(s, "p6")),
            oracle.poincare_projective(6), ["cs"]),
    ],
    # gradmod work repeats on one module (9-10 minimal_resolution and 5-6
    # ext_module calls per module), and ideal GBs with coefficient growth
    # load polyring a second way.  No weyl or equivtop work.
    "module-analyze": lambda s: [
        module("k5", gen.residue_field(5, _seed(s, "k5")),
               oracle.residue_field(5)),
    ] + [
        module("q%d" % d, gen.quadric_ideal(d, _seed(s, "q%d" % d)),
               oracle.cyclic_quotient(gen.QUADRIC_VARS))
        for d in range(3)
    ],
    # Localization and the Gram determinant: equivtop.integrate self time
    # is about 70 %, polyring about 25 %, weyl nothing.
    "gkm-pairing": lambda s: [
        gkm("fl3", gen.flag_variety(3, _seed(s, "fl3")),
            oracle.poincare_flag(3), ["pairing"]),
        gkm("p1cubed", gen.p1_power(3, _seed(s, "p1cubed")),
            oracle.poincare_p1_power(3), ["pairing"]),
    ],
    # weyl.expand and weyl.invariants cover about 99 %: their own self time
    # plus many small polyring.divide reductions against one fixed
    # invariant GB.  gkm_cohomology runs twice per op.
    "weyl-descent": lambda s: [
        gkm("p3", gen.projective_space(3, _seed(s, "p3"), symmetric=True),
            oracle.poincare_projective(3), ["descend"]),
    ],
}

# Toy sizes for --self-check.
TOY_WORKLOADS = {
    "toy-descend": lambda s: [
        gkm("p2", gen.projective_space(2, _seed(s, "p2"), symmetric=True),
            oracle.poincare_projective(2), ["descend"]),
    ],
    "toy-pairing": lambda s: [
        gkm("p1squared", gen.p1_power(2, _seed(s, "p1squared")),
            oracle.poincare_p1_power(2), ["pairing"]),
    ],
    "toy-residue": lambda s: [
        module("k3", gen.residue_field(3, _seed(s, "k3")),
               oracle.residue_field(3)),
    ],
    "toy-flag-descend": lambda s: [
        gkm("fl3", gen.flag_variety(3, _seed(s, "fl3"), symmetric=True),
            oracle.poincare_flag(3), ["descend"]),
    ],
}

END_TO_END = ["ops_per_s", "op_s.p50", "setup_s", "peak_rss_mb", "ok_ratio"]
PER_LAYER = tracer.metric_names() + ["trace.overhead"]


class WorkerError(RuntimeError):
    pass


def _start_worker():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), SRC],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise WorkerError("worker exited with %s before it was ready"
                          % proc.returncode)
    return proc, json.loads(line)


def _stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def run_op(make_commands, seed, op_id, trace, workdir, deadline):
    """Set up and run one op; returns its record (see the keys below)."""
    t0 = time.perf_counter()
    commands = make_commands(seed)
    paths = []
    for c in commands:
        path = os.path.join(workdir, c.label + ".json")
        with open(path, "w") as fh:
            json.dump(c.obj, fh)
        paths.append(path)
    procs, ready = [], []
    try:
        for _ in commands:
            proc, info = _start_worker()
            procs.append(proc)
            ready.append(info)
        start_slowdown = statistics.mean(r["slowdown"] for r in ready)
        setup_s = (time.perf_counter() - t0) / start_slowdown
        import_s = sum(r["import_s"] for r in ready) / start_slowdown
        wall_s, op_s, rss_kb = 0.0, 0.0, 0
        reports, problems, summaries, spans = [], [], [], []
        for c, path, proc in zip(commands, paths, procs):
            request = {"argv": [c.argv[0], path] + c.argv[1:],
                       "trace": trace, "op": op_id}
            try:
                out, _ = proc.communicate(
                    json.dumps(request) + "\n",
                    timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise WorkerError("%s: killed at the run's time limit" % c.label)
            if proc.returncode != 0 or not out:
                raise WorkerError("%s: worker exited with %s"
                                  % (c.label, proc.returncode))
            reply = json.loads(out)
            wall_s += reply["seconds"]
            op_s += reply["seconds"] / reply["slowdown"]
            rss_kb = max(rss_kb, reply["rss_kb"])
            reports.append(reply["report"])
            problems += ["%s: %s" % (c.label, p)
                         for p in c.check(reply["report"], reply["code"])]
            if trace:
                summaries.append(
                    tracer.summarize(reply["spans"], reply["slowdown"]))
                spans += [[c.label] + s for s in reply["spans"]]
    except WorkerError as exc:
        wall_s = time.perf_counter() - t0
        return {"ok": False, "problems": [str(exc)], "setup_s": None,
                "op_s": wall_s, "wall_s": wall_s, "rss_kb": 0, "digest": None,
                "traced": trace, "layers": None, "spans": []}
    finally:
        _stop(procs)
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    layers = None
    if trace:
        layers = tracer.op_metrics(summaries, import_s, wall_s / op_s)
    return {"ok": not problems, "problems": problems, "setup_s": setup_s,
            "op_s": op_s, "wall_s": wall_s, "rss_kb": rss_kb, "digest": digest,
            "traced": trace, "layers": layers, "spans": spans}


def measure(make_commands, seed, seconds, trace, workdir):
    """Closed loop of ops for about `seconds`; returns the op records."""
    start = time.perf_counter()
    hard = start + HARD_LIMIT_S
    ops = []
    last = 0.0
    while True:
        now = time.perf_counter()
        if now + last > start + seconds and (
                len(ops) >= MIN_OPS[trace] or now + last > start + SOFT_LIMIT_S):
            break
        traced = bool(trace and len(ops) % 2)
        ops.append(run_op(make_commands, seed, len(ops), traced, workdir, hard))
        last = time.perf_counter() - now
        op = ops[-1]
        print("op %d%s: %.3f s at reference speed (%.3f s wall), %s" % (
            len(ops) - 1, " traced" if traced else "", op["op_s"], op["wall_s"],
            "ok" if op["ok"] else "FAILED: " + "; ".join(op["problems"])),
            file=sys.stderr)
    return ops


def timed_metrics(ops):
    good = [op for op in ops if op["ok"]]
    total = sum(op["op_s"] for op in ops)
    return {
        "ops_per_s": (len(good) / total, "1/s"),
        "op_s.p50": (statistics.median(op["op_s"] for op in ops), "s"),
        "setup_s": (statistics.median(op["setup_s"] for op in good), "s"),
        "peak_rss_mb": (max(op["rss_kb"] for op in good) / 1024, "MB"),
        "ok_ratio": (len(good) / len(ops), "ratio"),
    }


def traced_metrics(ops):
    traced = [op for op in ops if op["ok"] and op["traced"]]
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    out = {}
    for name in tracer.metric_names():
        values = [op["layers"][name] for op in traced]
        unit = ("count" if name.endswith(".calls") else
                "ratio" if name.endswith(("_frac", "slowdown")) else "s")
        out[name] = (statistics.median(values), unit)
    out["trace.overhead"] = (
        statistics.median(op["op_s"] for op in traced)
        / statistics.median(op["op_s"] for op in plain), "ratio")
    return out


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(OUT, "%s-seed%d" % (name, seed))
    os.makedirs(workdir, exist_ok=True)
    ops = measure(WORKLOADS[name], seed, seconds, trace, workdir)
    good = [op for op in ops if op["ok"]]
    digests = sorted({op["digest"] for op in good})
    if len(digests) > 1:
        print("ops of one run gave different reports", file=sys.stderr)
    kinds = {op["traced"] for op in good}
    enough = kinds == {False, True} if trace else bool(good)
    metrics = {}
    if enough:
        metrics = traced_metrics(ops) if trace else timed_metrics(ops)
    if trace:
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for op in ops:
                for span in op["spans"]:
                    fh.write(json.dumps(span) + "\n")
    print("digest %s" % " ".join(digests))
    failed = len(ops) - len(good)
    print(json.dumps({
        "correct": enough and failed == 0 and len(digests) == 1,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def _expect(ok, what):
    if not ok:
        raise SystemExit("self-check failed: %s" % (what,))


def self_check():
    """Toy workloads through generators, oracle and tracer; exits 1 on error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for key, names in (("workloads", list(WORKLOADS)),
                       ("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        _expect([m["name"] for m in spec[key]] == names,
                "BENCHMARK.json %s differ from run.py" % key)
    for name, make in TOY_WORKLOADS.items():
        workdir = os.path.join(OUT, "self-check", name)
        os.makedirs(workdir, exist_ok=True)
        calls = []
        digests = set()
        for seed in (0, 1):
            ops = measure(make, seed, 0, 1, workdir)
            for op in ops:
                _expect(op["ok"], (name, seed, op["problems"]))
            if seed == 0:
                digests |= {op["digest"] for op in ops}
            calls += [{k: v for k, v in op["layers"].items()
                       if k.endswith(".calls")}
                      for op in ops if op["traced"]]
            traced_metrics(ops)
            timed_metrics(ops)
        _expect(len(digests) == 1, (name, "reports differ", digests))
        # deterministic work; orientation and sign flips change no count
        _expect(all(c == calls[0] for c in calls), (name, "calls differ"))
        _expect(sum(calls[0].values()) > 0, (name, "nothing traced"))
        print("self-check %s: ok (%d traced ops, %d calls each)"
              % (name, len(calls), sum(calls[0].values())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "equisyz", "cli.py")):
        sys.exit("equisyz source not found under %s" % SRC)
    if args.self_check:
        self_check()
    elif args.workload:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parser.error("give --workload or --self-check")


if __name__ == "__main__":
    main()
