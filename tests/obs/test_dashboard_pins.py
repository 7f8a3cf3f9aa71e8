"""Byte pins of the HTML dashboard on seven checked-in report documents.

Each ``reports/<name>.json`` is a ``maicc-obs-report/1`` document stored
as compact sorted JSON, and :data:`PINS` holds the sha256 of
:func:`repro.obs.html.render_html` on it.  Between them the seven pages
draw every card of the four report kinds, so any change to a dashboard's
bytes shows up here as a hash mismatch.

After an intended visual change, print the new hashes and paste them
into :data:`PINS`::

    PYTHONPATH=src python tests/obs/test_dashboard_pins.py

``--regen`` first rebuilds the documents from the simulators (needed
only when the report schema or the simulated numbers change).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro.obs.html import render_html
from repro.obs.report import validate_report

HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(HERE, "reports")
REPORT_SCRIPT = os.path.join(HERE, "..", "..", "scripts", "report.py")

#: Document name -> the ``scripts/report.py`` arguments that generate it
#: (``None``: built in-process by :func:`mesh_sweep_doc`).
SOURCES = {
    "serving-mixed-rate-overloaded-elastic": [
        "serving", "--scenario", "mixed-rate-overloaded", "--policy", "elastic",
    ],
    "serving-bursty-static": [
        "serving", "--scenario", "bursty", "--policy", "static",
    ],
    "fleet-chip-crash": ["fleet", "--scenario", "chip-crash"],
    "fleet-autoscale-burst": ["fleet", "--scenario", "autoscale-burst"],
    "xcheck-tiny": ["xcheck", "--workload", "tiny"],
    "dse-smoke": ["dse", "--sweep", "smoke"],
    "dse-mesh-sweep": None,
}

#: sha256 of ``render_html`` on each document.
PINS = {
    "dse-mesh-sweep": "1fd99fde0e7262962730d90501de13db0c8c62d20740884ad48a1f147210324d",
    "dse-smoke": "8d29e3b0f6fa9f86a7c23ff741a94199a85cdfaced80a746fc309598b8ebf04f",
    "fleet-autoscale-burst": "c794e63b3e93d5057e5d105471da4f0d2ff63957707562ec3fd1dfa1f4d77a84",
    "fleet-chip-crash": "1e35374fd46bb6e08e9c6c7efd1eae9eec8c30674210292e55f5c2b96b239712",
    "serving-bursty-static": "5c75ca188ebb2166104e9339355c29d0fccb497493730d36367f170e713e86ac",
    "serving-mixed-rate-overloaded-elastic": "8e6de3dbd4e1087503d5cf469fd02b1b35fd79be30709d7c79357a3329e3ffbc",
    "xcheck-tiny": "96ade6ea46958c96a301511e7972993e2c49f79cfdaca60a929e33823c61515d",
}

#: Cards only some runs draw; each must appear on at least one page.
CONDITIONAL_CARDS = (
    "Shed requests per window",
    "Server utilization",
    "SLO alerts",
    "Crash recoveries",
    "Autoscale events",
    "Single-node baselines",
    "Non-simulable points",
)


def mesh_sweep_doc():
    """small_cnn + vgg11 on 12x12 and 16x16 meshes: vgg11's fc6 does not
    fit the 12x12 array, so one of the four points is infeasible."""
    from repro.dse.engine import run_sweep
    from repro.dse.spec import SweepSpec
    from repro.obs.report import build_dse_report

    spec = SweepSpec(
        name="mesh-infeasible", networks=("small_cnn", "vgg11"),
        backends=("analytic",), meshes=((12, 12), (16, 16)),
    )
    return build_dse_report(run_sweep(spec))


def regenerate(name):
    """Rebuild one document from its run and store it compact and sorted."""
    argv = SOURCES[name]
    if argv is None:
        doc = mesh_sweep_doc()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            subprocess.run(
                [sys.executable, REPORT_SCRIPT, *argv, "--json-out", path],
                check=True, stdout=subprocess.DEVNULL,
            )
            with open(path) as f:
                doc = json.load(f)
    with open(os.path.join(REPORTS, f"{name}.json"), "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def load(name):
    with open(os.path.join(REPORTS, f"{name}.json")) as f:
        return json.load(f)


def page(name):
    return render_html(load(name))


def digest(name):
    return hashlib.sha256(page(name).encode("utf-8")).hexdigest()


def test_every_document_is_pinned():
    assert sorted(PINS) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(PINS))
def test_document_validates(name):
    validate_report(load(name))


@pytest.mark.parametrize("name", sorted(PINS))
def test_dashboard_bytes_are_pinned(name):
    assert digest(name) == PINS[name]


def test_pages_cover_every_conditional_card():
    pages = [page(name) for name in sorted(PINS)]
    for card in CONDITIONAL_CARDS:
        assert any(f"<h2>{card}" in html for html in pages), card


if __name__ == "__main__":
    for name in sorted(SOURCES):
        if "--regen" in sys.argv[1:]:
            regenerate(name)
        print(f'    "{name}": "{digest(name)}",')
