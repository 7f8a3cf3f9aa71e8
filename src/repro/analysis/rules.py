"""Catalog of verifier rules.

Every diagnostic the verifier can emit has a stable ID here, grouped by
prefix:

* ``PROG`` — program structure (decode, control flow, reachability);
* ``HAZ``  — register hazards from the symbolic scoreboard replay;
* ``CMEM`` — CMem geometry and operand legality (the 8x(64x256b) design
  point, Table 2 widths, slice-0 reservation);
* ``LOCK`` — the Algorithm-1 ``p``/``nextp`` vector-lock protocol;
* ``MEM``  — statically resolvable data-memory accesses (Table 1 map);
* ``PLAN`` — whole-chip plan verification (CMem capacity, core budgets,
  staging footprint, DRAM bandwidth, tenant co-residency);
* ``NOC``  — mesh route sets (channel-dependency deadlock cycles, hot
  links, malformed routes).

``docs/ANALYSIS.md`` documents each rule with an example diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Rule:
    """One verifier rule: stable ID, default severity, and description."""

    id: str
    severity: Severity
    title: str
    description: str

    def diag(
        self,
        message: str,
        *,
        index: int = -1,
        opcode: str = "",
        source_line: int = -1,
    ) -> Diagnostic:
        """Instantiate a diagnostic for this rule."""
        return Diagnostic(
            rule=self.id,
            severity=self.severity,
            message=message,
            index=index,
            opcode=opcode,
            source_line=source_line,
        )


_ALL = [
    # -- program structure -----------------------------------------------------
    Rule("PROG101", Severity.ERROR, "unknown-opcode",
         "An instruction's opcode has no entry in the ISA table."),
    Rule("PROG102", Severity.ERROR, "bad-branch-target",
         "A branch target is unresolved or outside the program."),
    Rule("PROG103", Severity.ERROR, "fall-off-end",
         "Control can run past the last instruction (no halt on some path)."),
    Rule("PROG104", Severity.WARNING, "unreachable-code",
         "A basic block is unreachable from the program entry."),
    # -- register hazards ------------------------------------------------------
    Rule("HAZ201", Severity.INFO, "raw-stall",
         "A reader issues long after fetch because a multi-cycle producer "
         "is still in flight; independent work could fill the gap."),
    Rule("HAZ202", Severity.INFO, "waw-stall",
         "A writer stalls on a prior in-flight write to the same register "
         "(the scoreboard has no renaming)."),
    Rule("HAZ203", Severity.WARNING, "dead-write",
         "A register is written but the value can never be read."),
    Rule("HAZ204", Severity.WARNING, "use-before-def",
         "A register is read on some path before any instruction defines it."),
    # -- CMem geometry and operands -------------------------------------------
    Rule("CMEM301", Severity.ERROR, "slice-out-of-range",
         "A slice operand is outside [0, num_slices)."),
    Rule("CMEM302", Severity.ERROR, "mac-on-slice0",
         "MAC.C targets slice 0, which is reserved as the transpose buffer "
         "(byte-addressed ifmap staging); MACs run in slices 1+."),
    Rule("CMEM303", Severity.ERROR, "row-out-of-range",
         "A row operand (or the n-row vector it starts) exceeds the 64-row "
         "slice."),
    Rule("CMEM304", Severity.ERROR, "illegal-operand-width",
         "The operand width n is outside [1, 32] (32-bit word granularity "
         "of a CMem row)."),
    Rule("CMEM305", Severity.ERROR, "mac-operand-overlap",
         "The two MAC.C operand row ranges overlap; dual-word-line "
         "activation of a row against itself is undefined."),
    Rule("CMEM306", Severity.ERROR, "move-overlap",
         "Move.C source and destination row ranges overlap within one "
         "slice; the row-by-row copy would read already-clobbered rows."),
    Rule("CMEM307", Severity.WARNING, "setrow-value",
         "SetRow.C fills a row with all zeros or all ones; other values "
         "do not describe a bit pattern."),
    Rule("CMEM308", Severity.ERROR, "shiftrow-out-of-range",
         "ShiftRow.C word count shifts by >= the 256-bit row width."),
    Rule("CMEM309", Severity.WARNING, "csr-mask-truncated",
         "SetCSR.C mask has bits above the 8 column-group lanes; hardware "
         "truncates to 8 bits."),
    # -- vector-lock protocol --------------------------------------------------
    Rule("LOCK401", Severity.WARNING, "remote-row-outside-lock",
         "In a program that uses the p/nextp vector locks, a remote row "
         "transfer happens before the first lock acquire; row-level "
         "atomicity alone does not protect multi-row vectors."),
    Rule("LOCK402", Severity.WARNING, "lock-never-released",
         "A vector lock is acquired but no store that could release it "
         "follows; a peer core spinning on p/nextp would deadlock."),
    # -- memory map ------------------------------------------------------------
    Rule("MEM501", Severity.ERROR, "unmapped-address",
         "A statically known address (imm(zero)) falls outside every "
         "region of the Table 1 memory map."),
    Rule("MEM502", Severity.ERROR, "misaligned-access",
         "A statically known address violates the access-size alignment."),
    # -- whole-chip plan verification -------------------------------------------
    Rule("PLAN601", Severity.ERROR, "cmem-over-capacity",
         "A layer's node group cannot hold its filters in CMem even with "
         "split-filter placement; the stager would overflow the slices."),
    Rule("PLAN602", Severity.ERROR, "core-over-subscription",
         "A segment (or the co-resident tenants together) needs more "
         "compute tiles than the array provides."),
    Rule("PLAN603", Severity.ERROR, "no-ifmap-reservation",
         "The layer's precision reserves every row of each compute slice "
         "for the incoming ifmap vector, leaving no slots for filters "
         "(the slice-0 transpose reservation has no compute twin)."),
    Rule("PLAN604", Severity.ERROR, "staging-footprint",
         "A segment stages more weight bytes than the CMem bytes of the "
         "nodes allocated to it can hold."),
    Rule("PLAN605", Severity.WARNING, "dram-bandwidth",
         "The plan's sustained DRAM demand (filter loads plus boundary "
         "fmap staging across co-resident tenants) exceeds the aggregate "
         "channel bandwidth budget."),
    Rule("PLAN606", Severity.ERROR, "tenant-region-overlap",
         "Two co-resident tenants' snake-walk regions overlap; their node "
         "groups would be placed onto the same mesh tiles."),
    # -- NoC route sets ---------------------------------------------------------
    Rule("NOC701", Severity.ERROR, "route-deadlock-cycle",
         "The channel-dependency graph of the route set has a cycle: "
         "every flow in it waits on a link held by the next, and none "
         "can drain."),
    Rule("NOC702", Severity.WARNING, "hot-link",
         "The summed static flit demand on a link exceeds its capacity; "
         "the link saturates and upstream flows back-pressure."),
    Rule("NOC703", Severity.ERROR, "bad-route",
         "A route is malformed: an endpoint off the mesh, a self-loop "
         "(a wildcard placement mapped chain neighbours to one tile), a "
         "discontinuous path, or a path that re-acquires a link it "
         "already holds (self-deadlock)."),
]

RULES: Dict[str, Rule] = {rule.id: rule for rule in _ALL}


def rule(rule_id: str) -> Rule:
    """Look up a rule by ID."""
    return RULES[rule_id]
