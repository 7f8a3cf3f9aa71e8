"""Canonical serving load scenarios, shared by scripts and CI.

``scripts/serve.py`` and ``scripts/report.py`` replay these against the
serving policies (built by name through :func:`build_policy`) and
``scripts/lint_plan.py`` statically analyzes their partition layouts;
all must see *exactly* the same tenants and policies, so the builders
live here rather than in any script.  The CI ``serving-smoke`` job diffs
two runs of the ``smoke`` scenario byte-for-byte and the
``analysis-smoke`` job does the same for lint JSON — keep every seed and
rate stable.

* ``mixed-rate`` — three sensor-fusion tenants (camera / lidar / radar)
  with Poisson arrivals whose rates are mismatched with their models'
  MAC weights: the regime where elastic partitions beat a static split.
* ``mixed-rate-overloaded`` — the same trio pushed past saturation with
  tightened deadlines; the variant the SLO monitor's burn-rate alerts
  are pinned against (``obs-smoke``).
* ``smoke`` — two tiny tenants far below saturation; finishes in well
  under a second and must shed nothing.
* ``bursty`` — a steady tenant beside one whose trace fires a dense
  mid-run burst; exercises queue bounds (the burst overflows its
  bounded queue, which sheds) and, on the time-shared policy's one
  server, ranking both tenants' queue heads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.multi_dnn import MultiDNNScheduler
from repro.errors import SimulationError
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.serving.arrivals import PoissonArrivals, TraceArrivals
from repro.serving.policies import (
    ElasticPolicy,
    ServingPolicy,
    StaticPartitionPolicy,
    TimeSharedPolicy,
)
from repro.serving.service import ServiceModel
from repro.serving.tenancy import TenantSpec


def conv_net(name: str, m: int, h: int, layers: int = 2) -> NetworkSpec:
    """A small conv stack used as a synthetic tenant model."""
    specs = tuple(
        ConvLayerSpec(i + 1, f"{name}{i}", h=h, w=h, c=64, m=m)
        for i in range(layers)
    )
    return NetworkSpec(name=name, layers=specs)


def mixed_rate_tenants() -> List[TenantSpec]:
    """Heavy slow-rate model beside light hot ones (the acceptance run)."""
    return [
        TenantSpec("camera", conv_net("camera", m=64, h=28),
                   PoissonArrivals(400, seed=1), deadline_ms=6.0),
        TenantSpec("lidar", conv_net("lidar", m=32, h=14),
                   PoissonArrivals(1500, seed=2), deadline_ms=3.0),
        TenantSpec("radar", small_cnn_spec(),
                   PoissonArrivals(2500, seed=3), deadline_ms=2.0),
    ]


def mixed_rate_overloaded_tenants() -> List[TenantSpec]:
    """The mixed-rate trio pushed past saturation (tight deadlines, hot
    arrival rates): the SLO monitor must raise burn-rate alerts here —
    the observability acceptance scenario."""
    return [
        TenantSpec("camera", conv_net("camera", m=64, h=28),
                   PoissonArrivals(900, seed=1), deadline_ms=3.0),
        TenantSpec("lidar", conv_net("lidar", m=32, h=14),
                   PoissonArrivals(3000, seed=2), deadline_ms=1.5),
        TenantSpec("radar", small_cnn_spec(),
                   PoissonArrivals(5000, seed=3), deadline_ms=1.0),
    ]


def smoke_tenants() -> List[TenantSpec]:
    """Two tiny tenants far below saturation: zero shed expected."""
    return [
        TenantSpec("alpha", small_cnn_spec(),
                   PoissonArrivals(150, seed=7), deadline_ms=20.0),
        TenantSpec("beta", conv_net("beta", m=32, h=14, layers=1),
                   PoissonArrivals(100, seed=8), deadline_ms=20.0),
    ]


def bursty_tenants() -> List[TenantSpec]:
    """A steady stream beside a mid-run burst on a bounded queue."""
    burst = [float(t) for t in range(0, 40)]            # 1 kHz warm-up
    burst += [40.0 + 0.05 * i for i in range(400)]      # 20 kHz burst
    burst += [60.0 + float(t) for t in range(40)]       # cool-down
    return [
        TenantSpec("steady", conv_net("steady", m=32, h=14),
                   PoissonArrivals(800, seed=4), deadline_ms=4.0),
        TenantSpec("bursty", small_cnn_spec(),
                   TraceArrivals(burst), deadline_ms=2.0,
                   queue_capacity=32, priority=1),
    ]


#: Scenario name -> (tenant factory, default run window in ms).
SCENARIOS: Dict[str, Tuple[Callable[[], List[TenantSpec]], float]] = {
    "mixed-rate": (mixed_rate_tenants, 120.0),
    "mixed-rate-overloaded": (mixed_rate_overloaded_tenants, 120.0),
    "smoke": (smoke_tenants, 80.0),
    "bursty": (bursty_tenants, 100.0),
}

#: Chip-model-backed policy names :func:`build_policy` accepts.
POLICIES = ("static", "time-shared", "elastic")


def build_policy(
    name: str,
    scheduler: MultiDNNScheduler,
    *,
    decision_backend: Optional[str] = None,
) -> ServingPolicy:
    """The named serving policy over ``scheduler`` (the CLIs' switch).

    ``decision_backend`` gates elastic resizes on a cheap tier (see
    :class:`~repro.serving.policies.ElasticPolicy`); the other policies
    ignore it.
    """
    if name == "static":
        return StaticPartitionPolicy(scheduler)
    if name == "time-shared":
        return TimeSharedPolicy(scheduler)
    if name == "elastic":
        return ElasticPolicy(
            ServiceModel(scheduler),
            control_interval_ms=10.0,
            decision_backend=decision_backend,
        )
    raise SimulationError(
        f"unknown serving policy {name!r}; choose from {list(POLICIES)}"
    )
