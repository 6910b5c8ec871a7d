"""CLI reports are byte-for-byte those whose sha256 digests are committed.

Covers every shipped input under every command in both formats, one
integrate class, and module-analyze on 25 seeded random modules and on
helpers.module_3028, whose Groebner bases grow large coefficients.  A
changed digest must be explained in CHANGES.md; running this file as a
script rewrites golden_reports.json from the current code.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from equisyz.cli import COMMANDS, main  # noqa: E402
from equisyz.polyring import GradedPolynomialRing  # noqa: E402
from helpers import module_3028, random_module  # noqa: E402

DATA = os.path.join(HERE, "..", "data")
GOLDEN = os.path.join(HERE, "golden_reports.json")
RANDOM_MODULES = 25


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
    ring = GradedPolynomialRing(["x", "y"])
    for seed in range(RANDOM_MODULES):
        path = os.path.join(workdir, "random_module_%d.json" % seed)
        with open(path, "w") as fh:
            json.dump(random_module(ring, random.Random(seed)).to_json(), fh)
        yield ("module-analyze random_module %d json" % seed,
               ["module-analyze", path, "--seed", "3", "--format", "json"])
    path = os.path.join(workdir, "random_module_3028.json")
    with open(path, "w") as fh:
        json.dump(module_3028().to_json(), fh)
    yield ("module-analyze random_module_3028 json",
           ["module-analyze", path, "--seed", "5", "--format", "json"])


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
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


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
