"""scripts/profile_backend.py takes every network of
``repro.dse.spec.NETWORKS`` as ``--network``, tiled ones included."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SCRIPT = os.path.join(ROOT, "scripts", "profile_backend.py")

sys.path.insert(0, os.path.join(ROOT, "src"))
from repro.dse.spec import NETWORKS  # noqa: E402

sys.path.pop(0)


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, SCRIPT, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


def test_help_lists_every_shipped_network():
    proc = run_cli("--help")
    assert proc.returncode == 0, proc.stderr
    for name in NETWORKS:
        assert name in proc.stdout


def test_a_tiled_network_profiles_in_one_command():
    proc = run_cli("--backend", "analytic", "--network", "vgg11", "--top", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("backend=analytic network=vgg11 ")
    assert "function calls" in proc.stdout


def test_unknown_network_is_rejected_by_argparse():
    proc = run_cli("--network", "alexnet")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
