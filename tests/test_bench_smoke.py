"""The benchmark's self-check runs its toy workloads end to end, and every
function its tracer wraps still exists under the name it wraps."""

import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import tracer  # noqa: E402  (the benchmark's tracer)


def test_bench_self_check():
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_targets_resolve():
    # Tracer.install looks each path up on equisyz.<layer>; a renamed or
    # removed function would only show when the traced benchmark runs
    for layer, name, path in tracer.TARGETS:
        owner = importlib.import_module("equisyz." + layer)
        for attr in path.split("."):
            assert hasattr(owner, attr), (layer, path)
            owner = getattr(owner, attr)
        assert callable(owner), (layer, path)
    # the tracer reads divide's remainder as result[1]
    from equisyz.polyring import GradedPolynomialRing, Vector, divide
    ring = GradedPolynomialRing(["x"])
    x = Vector.from_polys([ring.var(0)], 1)
    assert divide(x, [x])[1].is_zero()
