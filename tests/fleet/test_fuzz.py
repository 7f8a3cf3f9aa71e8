"""The fleet's conservation identity on drawn runs, not only the shipped
scenarios.

One bounded property over ``fleet-smoke``-sized runs: 2 to 6 chips, up to
one replica of each model per two chips (so most draws fit), each
balancer, one chip crash and one chip degradation at drawn chips and
times, and the epoch autoscaler on or off.  On every completed run each
model accounts every generated request exactly once::

    generated == completed + overrun + shed + failed + router_shed

computed from the counts, not read from ``ModelRollup.conserved``.  A run
may refuse its drawn scenario, but only with a :mod:`repro.errors` type.
"""

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ReproError  # noqa: E402
from repro.fleet import (  # noqa: E402
    BALANCERS,
    AutoscaleConfig,
    ChipCrash,
    ChipDegradation,
    FailureScenario,
    build_scenario,
)


@st.composite
def _scenarios(draw):
    chips = draw(st.integers(2, 6))
    # fleet_smoke refuses fewer chips than its own replicas need; this
    # draws its own replica counts below.
    scenario = replace(build_scenario("fleet-smoke"), n_chips=chips)
    window = st.floats(min_value=0.01, max_value=scenario.duration_ms)
    failures = FailureScenario(
        crashes=[ChipCrash(draw(st.integers(0, chips - 1)), draw(window))],
        degradations=[
            ChipDegradation(
                draw(st.integers(0, chips - 1)),
                draw(window),
                draw(st.floats(min_value=0.25, max_value=4.0)),
            )
        ],
    )
    return replace(
        scenario,
        models=[
            replace(model, replicas=draw(st.integers(1, max(1, chips // 2))))
            for model in scenario.models
        ],
        balancer=draw(st.sampled_from(sorted(BALANCERS))),
        failures=failures,
        autoscale=AutoscaleConfig() if draw(st.booleans()) else None,
    )


@settings(max_examples=100, deadline=2000)
@given(scenario=_scenarios(), seed=st.integers(0, 2**16))
def test_every_generated_request_is_accounted_once(scenario, seed):
    try:
        result = scenario.simulator(seed=seed).run(scenario.duration_ms)
    except ReproError:
        return
    for name, model in result.models.items():
        assert model.generated == (
            model.completed
            + model.overrun
            + model.shed
            + model.failed
            + model.router_shed
        ), name
