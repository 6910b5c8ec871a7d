"""CLI reports are byte-for-byte those whose sha256 digests are committed.

Covers every shipped input under every command in both formats, one
integrate class, module-analyze on 25 seeded random modules, on
helpers.module_3028 and helpers.module_3003, whose Groebner bases grow
large coefficients, and on bench/gen.py's residue fields in 6 and 7
variables and quadric ideals of draws 0, 1 and 2, whose Cohen-Macaulay
tests read Ext along the longest resolutions; the pairing check on the
full flag variety Fl(4) of bench/gen.py (24 vertices, a 24 x 24 Gram
matrix) and on the Grassmannian Gr(3,6) (20 vertices, a 20 x 20 Gram
matrix), the descent check on the symmetric Fl(4), P^4 (120 coinvariant
monomials), P^5 and P^6 (the last in text too, its digests those of the
selection that made a Reynolds image of every candidate) and on Fl(3)
over the rank-2 torus of SL_3 (helpers.sum_zero_flag3, in both formats),
whose group is not one of signed permutations, and the
Chang-Skjelbred check on
Gr(3,6), Gr(3,6) with its edges shuffled, Gr(3,6) with its vertices
shuffled (a large staircase for the free-kernel test), Gr(3,7) and Fl(5),
and both the Chang-Skjelbred and the pairing check on Fl(4) with its
vertices shuffled (helpers.shuffled_vertices, seed 5); cartan
on the circle model plus an acyclic pair, whose differential is nonzero,
on a point plus a free circle (not Cohen-Macaulay, so the collapse check
is not applicable) and on the acyclic pair alone (zero cohomology); and
filtration-verify on s2_filtration without its augmentation, homology
module and truncations, and without Poincare duality, the data whose
absence makes the ext, partial, gap and ses checks not applicable.
Every report must take under CPU_BOUND_S seconds of CPU.  A changed
digest must be explained in CHANGES.md.

Running this file as a script adds the digests of new cases to
golden_reports.json.  It never rewrites an existing digest: when one has
changed, or a key no case produces is left, it lists those keys, leaves
the file as it is and exits nonzero.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "bench"))

from equisyz.cartan import GStarModule  # noqa: E402
from equisyz.cli import COMMANDS, main  # noqa: E402
from equisyz.polyring import GradedPolynomialRing  # noqa: E402
from helpers import (  # noqa: E402
    circle_plus_acyclic_json, module_3003, module_3028, random_module, shuffled_edges,
    shuffled_vertices, sum_zero_flag3,
)
import gen  # noqa: E402  (the benchmark's input generators, read only)

DATA = os.path.join(HERE, "..", "data")
GOLDEN = os.path.join(HERE, "golden_reports.json")
RANDOM_MODULES = 25
CPU_BOUND_S = 10


def _cases(workdir):
    """(key, argv) for every report, in a fixed order."""
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        for fmt in ("text", "json"):
            for command in COMMANDS:
                yield ("%s data/%s %s" % (command, name, fmt),
                       [command, path, "--format", fmt])
            yield ("integrate-klass data/%s %s" % (name, fmt),
                   ["integrate", path, "--klass", '["t", "0"]',
                    "--format", fmt])
    with open(os.path.join(DATA, "s2_filtration.json")) as fh:
        s2_filtration = json.load(fh)
    bare = {k: v for k, v in s2_filtration.items()
            if k not in ("augmentation", "homology_module", "truncations")}
    for command, name, obj in (
            ("cartan", "circle_plus_acyclic", circle_plus_acyclic_json()),
            ("cartan", "point_plus_circle", dict(GStarModule(
                (0, 0, 1), [[0] * 3] * 3, [[[0, 0, 0], [0, 0, 1], [0, 0, 0]]]).to_json(),
                rank=1)),
            ("cartan", "acyclic_pair", dict(GStarModule(
                (1, 2), [[0, 0], [1, 0]], [[[0, 0], [0, 0]]]).to_json(), rank=1)),
            ("filtration-verify", "s2_filtration_bare", bare),
            ("filtration-verify", "s2_filtration_no_duality",
             dict(s2_filtration, poincare_duality=False))):
        path = os.path.join(workdir, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        for fmt in ("text", "json"):
            yield ("%s %s %s" % (command, name, fmt), [command, path, "--format", fmt])
    ring = GradedPolynomialRing(["x", "y"])
    for seed in range(RANDOM_MODULES):
        path = os.path.join(workdir, "random_module_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(random_module(ring, random.Random(seed)).to_json(), fh)
        yield ("module-analyze random_module %d json" % seed,
               ["module-analyze", path, "--seed", "3", "--format", "json"])
    for name, module in (("3028", module_3028), ("3003", module_3003)):
        path = os.path.join(workdir, "random_module_%s.json" % name)
        with open(path, "w") as fh:
            json.dump(module().to_json(), fh)
        yield ("module-analyze random_module_%s json" % name,
               ["module-analyze", path, "--seed", "5", "--format", "json"])
    for name, obj in ([("residue_field_%d" % n, gen.residue_field(n, "0")) for n in (6, 7)]
                      + [("quadric_ideal_%d" % d, gen.quadric_ideal(d, "0")) for d in range(3)]):
        path = os.path.join(workdir, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        yield ("module-analyze %s json" % name,
               ["module-analyze", path, "--seed", "5", "--format", "json"])
    for name, graph, check, formats in (
            ("flag_variety_4", gen.flag_variety(4, "0"), "pairing", ("json",)),
            ("grassmannian_3_6", gen.grassmannian(3, 6, "0"), "pairing", ("json",)),
            ("flag_variety_4_symmetric", gen.flag_variety(4, "0", symmetric=True), "descend",
             ("json",)),
            ("projective_4_symmetric", gen.projective_space(4, "0", symmetric=True), "descend",
             ("json",)),
            ("projective_5_symmetric", gen.projective_space(5, "0", symmetric=True), "descend",
             ("json",)),
            ("projective_6_symmetric", gen.projective_space(6, "0", symmetric=True), "descend",
             ("text", "json")),
            ("flag_variety_3_sum_zero", sum_zero_flag3(), "descend", ("text", "json")),
            ("grassmannian_3_6", gen.grassmannian(3, 6, "0"), "cs", ("json",)),
            ("grassmannian_3_7", gen.grassmannian(3, 7, "0"), "cs", ("json",)),
            ("grassmannian_3_6_shuffled", shuffled_edges(gen.grassmannian(3, 6, "0"), 0), "cs",
             ("json",)),
            ("grassmannian_3_6_vertices_shuffled",
             shuffled_vertices(gen.grassmannian(3, 6, "0"), 5), "cs", ("json",)),
            ("flag_variety_5", gen.flag_variety(5, "0"), "cs", ("json",)),
            ("flag_variety_4_vertices_shuffled",
             shuffled_vertices(gen.flag_variety(4, "0"), 5), "cs", ("json",)),
            ("flag_variety_4_vertices_shuffled",
             shuffled_vertices(gen.flag_variety(4, "0"), 5), "pairing", ("json",))):
        path = os.path.join(workdir, "%s_%s.json" % (name, check))
        with open(path, "w") as fh:
            json.dump(graph, fh)
        for fmt in formats:
            yield ("gkm %s %s %s" % (name, check, fmt),
                   ["gkm", path, "--check", check, "--format", fmt])


def _expire(signum, frame):
    raise TimeoutError("over %d s of CPU" % CPU_BOUND_S)


def _digest(argv):
    """The digest of argv's exit code and report; raises if the command
    takes CPU_BOUND_S seconds of CPU or more.  A profiling timer stops a
    runaway: the CLI reports its TimeoutError as an internal error."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGPROF, _expire)
    signal.setitimer(signal.ITIMER_PROF, CPU_BOUND_S)
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    spent = time.process_time() - start
    if spent >= CPU_BOUND_S:
        raise AssertionError("%s took %.1f s of CPU, over the bound of %d s"
                             % (" ".join(argv), spent, CPU_BOUND_S))
    blob = "%d\n%s" % (code, out.getvalue())
    return hashlib.sha256(blob.encode()).hexdigest()


def digests():
    with tempfile.TemporaryDirectory() as workdir:
        return {key: _digest(argv) for key, argv in _cases(workdir)}


def test_reports_match_golden_digests():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = digests()
    assert sorted(got) == sorted(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, changed


def _bless():
    """Add the digests of new cases to golden_reports.json; 1, changing
    nothing, when an existing digest changed or a key is stale."""
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = digests()
    changed = sorted(k for k in want if k in got and got[k] != want[k])
    stale = sorted(k for k in want if k not in got)
    if changed or stale:
        for title, keys in (("changed", changed), ("produced by no case", stale)):
            if keys:
                print("%s:\n  %s" % (title, "\n  ".join(keys)))
        print("%s left unchanged" % os.path.relpath(GOLDEN))
        return 1
    added = sorted(k for k in got if k not in want)
    want.update((k, got[k]) for k in added)
    with open(GOLDEN, "w") as fh:
        json.dump(want, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("added:\n  %s" % "\n  ".join(added) if added else "no new cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(_bless())
