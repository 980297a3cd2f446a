import os
import subprocess
import sys
from pathlib import Path

import hitset


def test_import_loads_no_optional_dependency():
    # scipy alone adds tens of MiB to a solve's peak RSS; the others are test-only
    code = (
        "import sys, hitset; "
        "print(' '.join(m for m in ('scipy', 'networkx', 'hypothesis', 'pytest') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hitset.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "\n"


def test_solves_import_no_module():
    # peak RSS counts every module a solve loads on first use: np.unique, for one,
    # imports numpy.ma (a MiB or more).  The hosts are built before the snapshot.
    code = """
import sys
from fractions import Fraction
from hitset import Graph, Pattern, WeightedGraph, random_graph, solve, unit_weights
from hitset.cli import solution_document

p4 = Pattern(Graph(4, [(0, 1), (1, 2), (2, 3)]))
paw = Pattern(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
k15 = Pattern(Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]))
weights = tuple(Fraction(1 + v % 9) for v in range(20))
instances = [
    (WeightedGraph(random_graph(20, 0.2, 1), weights), p4),
    (unit_weights(random_graph(640, 4 / 640, 1)), paw),
    (unit_weights(random_graph(14, 0.3, 1)), k15),
]
before = set(sys.modules)
for g, h in instances:
    assert solution_document(solve(g, h), explain=True)
print(" ".join(sorted(set(sys.modules) - before)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(hitset.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "\n"
