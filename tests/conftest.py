"""One default serial run of each registered experiment per test session.

The claim tests (``tests/experiments/`` and
``tests/integration/test_paper_claims.py``), the EXPERIMENTS.md pin and
the serial-vs-parallel pins all read the
:class:`~repro.experiments.report.ExperimentResult` that
``maicc-experiments`` prints, so each experiment is run at most once.
"""

import pytest

from repro.experiments.runner import run_experiment


@pytest.fixture(scope="session")
def experiment():
    """``experiment(name)``: the memoized default serial run of ``name``."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = run_experiment(name)
        return runs[name]

    return get
