"""NoC route-set checking — the ``NOC7xx`` rules.

Wormhole routing acquires a path's links one by one and holds every
earlier link until the tail flit clears the last one (hold-and-wait).
The classical static soundness condition (Dally & Seitz) is on the
*channel-dependency graph*: one node per directed link, one edge for
every consecutive link pair of every route.  A cycle in that graph is a
set of flows that can each hold the link the next one needs — a
deadlock reachable under some timing.  X-Y dimension-ordered routes
(:func:`repro.noc.router.xy_route`) can never close such a cycle (a
Y-link is never followed by an X-link), so only explicitly routed paths
— wildcard placements, hand-built route tables — can trip ``NOC701``.

Checks:

* ``NOC701`` — channel-dependency cycle (one diagnostic per cycle,
  offending links named).
* ``NOC702`` — statically hot link: summed sustained flit demand
  exceeds the link's capacity of one flit per cycle (warning).
* ``NOC703`` — malformed route: endpoint off the mesh, self-loop,
  discontinuous path, or a path that re-acquires a link it already
  holds (self-deadlock).

The checker and the replay take the mesh of the chip they are given
(:class:`~repro.core.chip.ChipConfig`), and the plan route sets are
placed on that chip's compute region.

:func:`replay_routes` is the dynamic twin: it replays hold-and-wait
link acquisition on the discrete-event kernel, so a route set the
checker calls cyclic demonstrably stalls the event tier too
(``tests/analysis/test_noc_check.py`` pins the agreement).

:func:`plan_route_flows` and :func:`resident_route_flows` derive a
plan's (or a co-resident set's) route set from the steady-state wave
that :func:`repro.core.traffic.segment_wave` defines, the same wave
:func:`repro.core.traffic.simulate_segment_traffic` replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import LintReport
from repro.analysis.plan import ResidentPlan
from repro.analysis.rules import rule
from repro.core.chip import ChipConfig
from repro.core.traffic import segment_wave
from repro.errors import NoCError, PlacementError
from repro.mapping.placement import zigzag_placement
from repro.mapping.segmentation import SegmentPlan
from repro.noc.router import xy_route
from repro.utils.events import EventQueue

Coord = Tuple[int, int]
#: A directed mesh link (the unit of wormhole arbitration).
Link = Tuple[Coord, Coord]
#: Flits per cycle one link carries; ``NOC702`` fires above it.
LINK_CAPACITY = 1.0


@dataclass(frozen=True)
class RouteFlow:
    """One sustained flow of a plan's route set.

    ``path`` is the explicit tile sequence (inclusive of ``src`` and
    ``dst``); ``None`` means the deterministic X-Y route.  ``rate`` is
    the sustained demand in flits/cycle the hot-link check sums; 0 opts
    the flow out of ``NOC702``.
    """

    name: str
    src: Coord
    dst: Coord
    flits: int = 1
    rate: float = 0.0
    path: Optional[Tuple[Coord, ...]] = None

    def resolved_path(self, width: int, height: int) -> List[Coord]:
        if self.path is not None:
            return list(self.path)
        return xy_route(self.src, self.dst, width, height)


def path_links(path: Sequence[Coord]) -> List[Link]:
    """The directed links a path acquires, in order."""
    return [(a, b) for a, b in zip(path, path[1:])]


def _fmt_link(link: Link) -> str:
    return f"{link[0]}->{link[1]}"


class RouteChecker:
    """Static checks over a set of route flows on one chip's mesh."""

    def __init__(self, chip: ChipConfig) -> None:
        self.width = chip.mesh_width
        self.height = chip.mesh_height
        self.report = LintReport(program_length=0)

    def _emit(self, rule_id: str, message: str, *, where: str = "") -> None:
        self.report.add(rule(rule_id).diag(message, opcode=where))

    # -- the pass --------------------------------------------------------------

    def check(self, flows: Sequence[RouteFlow]) -> LintReport:
        self.report.program_length = len(flows)
        links_of: Dict[str, List[Link]] = {}
        for flow in flows:
            links = self._validate(flow)
            if links is not None:
                links_of[flow.name] = links
        self._check_hot_links(flows, links_of)
        self._check_cycles(links_of)
        return self.report

    # -- NOC703: malformed routes ----------------------------------------------

    def _validate(self, flow: RouteFlow) -> Optional[List[Link]]:
        for label, coord in (("src", flow.src), ("dst", flow.dst)):
            x, y = coord
            if not (0 <= x < self.width and 0 <= y < self.height):
                self._emit(
                    "NOC703",
                    f"{label} {coord} is outside the "
                    f"{self.width}x{self.height} mesh",
                    where=flow.name,
                )
                return None
        if flow.src == flow.dst:
            self._emit(
                "NOC703",
                f"route is a self-loop at {flow.src} (a wildcard placement "
                f"mapped chain neighbours onto one tile)",
                where=flow.name,
            )
            return None
        try:
            path = flow.resolved_path(self.width, self.height)
        except NoCError as exc:
            self._emit("NOC703", str(exc), where=flow.name)
            return None
        if path[0] != flow.src or path[-1] != flow.dst:
            self._emit(
                "NOC703",
                f"path endpoints {path[0]}->{path[-1]} do not match "
                f"src/dst {flow.src}->{flow.dst}",
                where=flow.name,
            )
            return None
        for a, b in zip(path, path[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
                self._emit(
                    "NOC703",
                    f"path is discontinuous: {a} and {b} are not "
                    f"mesh neighbours",
                    where=flow.name,
                )
                return None
            if not (0 <= b[0] < self.width and 0 <= b[1] < self.height):
                self._emit(
                    "NOC703",
                    f"path leaves the mesh at {b}",
                    where=flow.name,
                )
                return None
        links = path_links(path)
        seen: Set[Link] = set()
        for link in links:
            if link in seen:
                self._emit(
                    "NOC703",
                    f"path re-acquires link {_fmt_link(link)} it already "
                    f"holds (self-deadlock under wormhole hold-and-wait)",
                    where=flow.name,
                )
                return None
            seen.add(link)
        return links

    # -- NOC702: hot links -----------------------------------------------------

    def _check_hot_links(
        self,
        flows: Sequence[RouteFlow],
        links_of: Dict[str, List[Link]],
    ) -> None:
        rates = {flow.name: flow.rate for flow in flows}
        demand: Dict[Link, float] = {}
        for name, links in links_of.items():
            for link in links:
                demand[link] = demand.get(link, 0.0) + rates[name]
        for link in sorted(demand):
            if demand[link] > LINK_CAPACITY:
                users = sorted(
                    name for name, links in links_of.items() if link in links
                )
                self._emit(
                    "NOC702",
                    f"link {_fmt_link(link)} carries "
                    f"{demand[link]:.2f} flits/cycle "
                    f"(capacity {LINK_CAPACITY:.2f}) from "
                    f"{', '.join(users)}",
                    where=_fmt_link(link),
                )

    # -- NOC701: channel-dependency cycles -------------------------------------

    def _check_cycles(self, links_of: Dict[str, List[Link]]) -> None:
        edges: Dict[Link, Set[Link]] = {}
        nodes: Set[Link] = set()
        for links in links_of.values():
            nodes.update(links)
            for a, b in zip(links, links[1:]):
                edges.setdefault(a, set()).add(b)
        for scc in _strongly_connected(nodes, edges):
            if len(scc) < 2:
                continue  # single-link SCCs: self-edges are NOC703 cases
            cycle = _order_cycle(scc, edges)
            named = " -> ".join(_fmt_link(link) for link in cycle)
            flows = sorted(
                name
                for name, links in links_of.items()
                if any(link in scc for link in links)
            )
            self._emit(
                "NOC701",
                f"channel-dependency cycle over {len(scc)} links: "
                f"{named} (flows {', '.join(flows)}); every flow waits "
                f"on a link the next one holds",
                where=flows[0] if flows else "",
            )


def _strongly_connected(
    nodes: Set[Link], edges: Dict[Link, Set[Link]]
) -> List[List[Link]]:
    """Iterative Tarjan SCC, deterministic over sorted nodes."""
    index: Dict[Link, int] = {}
    lowlink: Dict[Link, int] = {}
    on_stack: Set[Link] = set()
    stack: List[Link] = []
    sccs: List[List[Link]] = []
    counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work: List[Tuple[Link, List[Link]]] = [
            (root, sorted(edges.get(root, ())))
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs = work[-1]
            advanced = False
            while succs:
                succ = succs.pop(0)
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: List[Link] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def _order_cycle(scc: List[Link], edges: Dict[Link, Set[Link]]) -> List[Link]:
    """Walk one cycle through the SCC for a readable diagnostic."""
    members = set(scc)
    start = scc[0]
    cycle = [start]
    seen = {start}
    node = start
    while True:
        nexts = sorted(n for n in edges.get(node, ()) if n in members)
        if not nexts:
            break
        node = nexts[0]
        if node in seen:
            break
        cycle.append(node)
        seen.add(node)
    return cycle


def check_routes(flows: Sequence[RouteFlow], chip: ChipConfig) -> LintReport:
    """Run the ``NOC7xx`` pass over a route set on ``chip``'s mesh."""
    return RouteChecker(chip).check(flows)


# -- deriving a plan's route set ------------------------------------------------


def plan_route_flows(
    plan: SegmentPlan,
    chip: ChipConfig,
    *,
    start_offset: int = 0,
    prefix: str = "",
) -> List[RouteFlow]:
    """The sustained flows of one mapped plan's steady-state waves.

    Each segment is zig-zag placed at ``start_offset`` of ``chip``'s
    compute region and each stream of its
    :func:`~repro.core.traffic.segment_wave` becomes one flow.
    Rates are flits per cycle of the segment's bottleneck interval, so
    a well-balanced plan stays far under link capacity.
    """
    flows: List[RouteFlow] = []
    region = chip.compute_region
    for k, segment in enumerate(plan.segments):
        placement = zigzag_placement(segment, region, start_offset=start_offset)
        interval = max(1.0, segment.allocation.bottleneck_time)
        for hops, stores in segment_wave(segment, placement):
            for stream in hops + stores:
                flows.append(
                    RouteFlow(
                        name=f"{prefix}seg{k}/{stream.name}",
                        src=stream.packet.src,
                        dst=stream.packet.dst,
                        flits=stream.flits,
                        rate=stream.flits / interval,
                    )
                )
    return flows


def resident_route_flows(
    residents: Sequence[ResidentPlan], chip: ChipConfig
) -> List[RouteFlow]:
    """The route set of a co-resident deployment on ``chip``, tenant by
    tenant.

    A resident whose region overflows the snake walk has no placement to
    route; it is skipped (``PLAN602`` already reports it).
    """
    flows: List[RouteFlow] = []
    for resident in residents:
        try:
            flows.extend(
                plan_route_flows(
                    resident.plan,
                    chip,
                    start_offset=resident.region_start,
                    prefix=f"{resident.name}/",
                )
            )
        except PlacementError:
            continue
    return flows


# -- the dynamic twin: hold-and-wait replay on the event kernel ------------------


@dataclass
class RouteReplay:
    """Outcome of replaying a route set with wormhole hold-and-wait."""

    completed: List[str]
    stalled: List[str]
    time: float

    @property
    def deadlocked(self) -> bool:
        return bool(self.stalled)


class _FlowState:
    def __init__(self, name: str, links: List[Link]) -> None:
        self.name = name
        self.links = links
        self.held = 0
        self.done = False


def replay_routes(flows: Sequence[RouteFlow], chip: ChipConfig) -> RouteReplay:
    """Replay wormhole link acquisition on the discrete-event kernel.

    Every flow acquires its links in path order, holding each until the
    whole path is owned, then releases them all (one worm per flow).  A
    flow blocked on a busy link parks in that link's FIFO and schedules
    nothing — so a channel-dependency cycle leaves the event queue empty
    with flows still holding links: the kernel *stalls*, which is
    exactly what the static ``NOC701`` check predicts.  The clock is
    logical: one unit per acquired link, so ``time`` counts hops, not
    cycles.
    """
    width, height = chip.mesh_width, chip.mesh_height
    states = [
        _FlowState(f.name, path_links(f.resolved_path(width, height)))
        for f in flows
    ]
    holders: Dict[Link, _FlowState] = {}
    waiters: Dict[Link, List[_FlowState]] = {}
    queue = EventQueue()
    completed: List[str] = []

    def advance(flow: _FlowState) -> None:
        if flow.done:
            return
        if flow.held == len(flow.links):
            finish(flow)
            return
        link = flow.links[flow.held]
        holder = holders.get(link)
        if holder is None:
            holders[link] = flow
            flow.held += 1
            queue.schedule_in(1.0, lambda: advance(flow), tag="noc/advance")
        else:
            # Hold-and-wait: park without an event.  Only a release can
            # wake the flow — a cyclic route set never produces one.
            waiters.setdefault(link, []).append(flow)

    def finish(flow: _FlowState) -> None:
        flow.done = True
        completed.append(flow.name)
        for link in flow.links:
            if holders.get(link) is flow:
                del holders[link]
                parked = waiters.get(link)
                if parked:
                    queue.schedule_in(
                        0.0, lambda f=parked.pop(0): advance(f), tag="noc/grant"
                    )

    for state in states:
        queue.schedule_in(0.0, lambda f=state: advance(f), tag="noc/inject")
    queue.run()
    stalled = [s.name for s in states if not s.done]
    return RouteReplay(completed=completed, stalled=stalled, time=queue.now)
