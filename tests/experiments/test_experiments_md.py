"""EXPERIMENTS.md's measured tables are the runner's own output.

Each experiment of :data:`repro.experiments.runner.REGISTRY` owns one
fenced ``text`` block of EXPERIMENTS.md, between
``<!-- experiment: NAME -->`` and ``<!-- /experiment -->``.  The block
holds exactly :func:`~repro.experiments.report.format_table` of the
experiment's default serial run, which is what ``maicc-experiments``
prints.  The tests below compare every block byte for byte.

After an intended change to a model's output, rewrite the blocks and
review the diff::

    PYTHONPATH=src python tests/experiments/test_experiments_md.py
"""

import os
import re

import pytest

from repro.experiments.report import format_table
from repro.experiments.runner import REGISTRY, run_experiment

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "EXPERIMENTS.md")

BLOCK = re.compile(
    r"<!-- experiment: (?P<name>[\w-]+) -->\n```text\n(?P<table>(?:(?!```).)*)\n```\n"
    r"<!-- /experiment -->",
    re.DOTALL,
)


def read():
    with open(PATH, encoding="utf-8") as f:
        return f.read()


def tables(text):
    """Experiment name -> the table text of its block, in file order."""
    return {m["name"]: m["table"] for m in BLOCK.finditer(text)}


def block(name, table):
    return f"<!-- experiment: {name} -->\n```text\n{table}\n```\n<!-- /experiment -->"


def rewrite(text, rendered):
    """``text`` with every block's table replaced by ``rendered[name]``."""
    return BLOCK.sub(lambda m: block(m["name"], rendered[m["name"]]), text)


def test_one_block_per_experiment():
    names = [m["name"] for m in BLOCK.finditer(read())]
    assert sorted(names) == sorted(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_block_is_the_runner_output(name, experiment):
    assert tables(read()).get(name) == format_table(experiment(name))


if __name__ == "__main__":
    text = read()
    rendered = {name: format_table(run_experiment(name)) for name in tables(text)}
    with open(PATH, "w", encoding="utf-8") as f:
        f.write(rewrite(text, rendered))
