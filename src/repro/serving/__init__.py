"""Online multi-tenant serving of the MAICC array.

Turns the chip simulator into an online inference service: per-tenant
load generators replay arrivals on the discrete-event kernel, admission
control bounds each tenant's queue (shedding is counted, never silent),
a :class:`ServingPolicy` decides who owns which cores — statically,
time-shared, or elastically resized against observed demand — and SLO
accounting reports per-tenant latency percentiles, deadline misses,
goodput, and utilization through the telemetry registry and trace.

Quickstart::

    from repro.serving import (
        ElasticPolicy, PoissonArrivals, ServingSimulator, TenantSpec,
    )
    from repro.nn.workloads import small_cnn_spec

    tenants = [
        TenantSpec("cam", small_cnn_spec(), PoissonArrivals(800, seed=1),
                   deadline_ms=2.0),
        TenantSpec("lidar", small_cnn_spec(h=16), PoissonArrivals(200, seed=2),
                   deadline_ms=5.0),
    ]
    result = ServingSimulator(ElasticPolicy()).run(tenants, duration_ms=100.0)
    print(result.reports["cam"].p99_ms, result.total_shed)

See ``docs/SERVING.md`` for policies, elasticity knobs, and how to read
the Perfetto serving timeline.
"""

from repro.serving.arrivals import (
    ArrivalProcess,
    PeriodicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serving.policies import (
    ElasticPolicy,
    FixedServicePolicy,
    ResizeAction,
    SHARED_SERVER,
    ServingPolicy,
    StaticPartitionPolicy,
    TenantObservation,
    TimeSharedPolicy,
)
from repro.serving.chip import ChipHandle
from repro.serving.queues import AdmissionQueue, DISCIPLINES
from repro.serving.scenarios import (
    SCENARIOS,
    bursty_tenants,
    mixed_rate_tenants,
    smoke_tenants,
)
from repro.serving.service import ServiceModel
from repro.serving.simulator import ServingSimulator
from repro.serving.slo import (
    ResizeEvent,
    SLO_LATENCY_BUCKETS_MS,
    ServingRunResult,
    TenantReport,
)
from repro.serving.tenancy import Request, TenantSpec

__all__ = [
    "AdmissionQueue",
    "ArrivalProcess",
    "ChipHandle",
    "DISCIPLINES",
    "ElasticPolicy",
    "FixedServicePolicy",
    "PeriodicArrivals",
    "PoissonArrivals",
    "Request",
    "ResizeAction",
    "ResizeEvent",
    "SCENARIOS",
    "SHARED_SERVER",
    "SLO_LATENCY_BUCKETS_MS",
    "ServiceModel",
    "ServingPolicy",
    "ServingRunResult",
    "ServingSimulator",
    "StaticPartitionPolicy",
    "TenantObservation",
    "TenantReport",
    "TenantSpec",
    "TimeSharedPolicy",
    "TraceArrivals",
    "bursty_tenants",
    "mixed_rate_tenants",
    "smoke_tenants",
]
