"""The DET8xx determinism checker: batch commutativity and replay diffs."""

from repro.analysis import EventAccess, check_batches, check_replay


def rules_of(report):
    return {d.rule for d in report.diagnostics}


class TestBatchCommutativity:
    def test_write_write_conflict_is_det801(self):
        report = check_batches([
            EventAccess(0.0, "a", writes=("queue/x",)),
            EventAccess(0.0, "b", writes=("queue/x",)),
        ])
        assert "DET801" in rules_of(report)
        assert not report.ok

    def test_cross_actor_read_write_is_det802(self):
        report = check_batches([
            EventAccess(1.0, "writer", writes=("bank0",)),
            EventAccess(1.0, "reader", reads=("bank0",)),
        ])
        assert "DET802" in rules_of(report)
        assert report.ok  # warning, not error

    def test_same_actor_pairs_are_commutative(self):
        # One actor's events dispatch in sequence order — no conflict.
        report = check_batches([
            EventAccess(0.0, "a", writes=("q",)),
            EventAccess(0.0, "a", writes=("q",)),
            EventAccess(0.0, "a", reads=("q",)),
        ])
        assert report.clean, report.render()

    def test_different_timestamps_never_conflict(self):
        report = check_batches([
            EventAccess(0.0, "a", writes=("q",)),
            EventAccess(1.0, "b", writes=("q",)),
        ])
        assert report.clean

    def test_disjoint_resources_are_commutative(self):
        report = check_batches([
            EventAccess(0.0, "a", writes=("qa",)),
            EventAccess(0.0, "b", writes=("qb",)),
        ])
        assert report.clean

    def test_diagnostic_names_actors_and_resource(self):
        report = check_batches([
            EventAccess(2.5, "cam", writes=("server0",)),
            EventAccess(2.5, "lidar", writes=("server0",)),
        ])
        message = report.by_rule("DET801")[0].message
        assert "cam" in message and "lidar" in message
        assert "server0" in message

    def test_deterministic_report_order(self):
        accesses = [
            EventAccess(0.0, "b", writes=("r2",)),
            EventAccess(0.0, "a", writes=("r2",)),
            EventAccess(0.0, "d", writes=("r1",)),
            EventAccess(0.0, "c", writes=("r1",)),
        ]
        first = check_batches(accesses).render()
        second = check_batches(accesses).render()
        assert first == second


class TestReplay:
    def test_deterministic_run_is_clean(self):
        report = check_replay(lambda: "signature", runs=3)
        assert report.clean

    def test_divergent_run_is_det803(self):
        counter = {"n": 0}

        def run():
            counter["n"] += 1
            return f"trace-{counter['n']}"

        report = check_replay(run, label="drift")
        assert "DET803" in rules_of(report)
        assert not report.ok
        assert report.by_rule("DET803")[0].opcode == "drift"

    def test_divergence_message_localizes_difference(self):
        signatures = iter(["aXb", "aYb"])
        report = check_replay(lambda: next(signatures))
        assert "offset 1" in report.by_rule("DET803")[0].message
