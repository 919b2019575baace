"""Tests for repro.hlu.audit: recording, validation, and checked replay."""

import json

import pytest

from repro.errors import AuditError, EvaluationError, VocabularyError
from repro.hlu import audit
from repro.hlu.session import IncompleteDatabase


@pytest.fixture(autouse=True)
def clean_audit():
    audit.disable()
    yield
    audit.disable()


def _scripted_trail():
    """A trail exercising updates, queries, undo, and a rejection."""
    trail = audit.enable()
    db = IncompleteDatabase.over(5)
    db.assert_("~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5")
    db.insert("A1 | A2")
    db.is_certain("A1 | A2")
    db.is_possible("~A1")
    db.undo()
    with pytest.raises(VocabularyError):
        db.insert("A9")  # unknown letter: rejected inside apply
    return trail, db


class TestCountersLeaveOutTheAudit:
    """The fingerprints convert an instance state to clauses (CNF plus a
    reduce); that work must not show in the operations' obs counters."""

    @staticmethod
    def _run(audited: bool):
        from repro.obs import core as obs

        obs.reset()
        obs.enable()
        try:
            trail = audit.enable() if audited else None
            db = IncompleteDatabase.over(5, backend="instance")
            db.assert_("~A1 | A3", "A1 | A4", "A4 | A5")
            before = obs.counters().snapshot()
            db.insert("A1 | A2")
            insert_delta = obs.counters().delta(before)
            db.is_certain("A1 | A2")
            db.undo()
            return obs.counters().snapshot(), insert_delta, trail
        finally:
            obs.disable()
            obs.reset()
            audit.disable()

    def test_audited_updates_count_what_unaudited_ones_do(self):
        plain, plain_insert, _ = self._run(audited=False)
        audited, audited_insert, trail = self._run(audited=True)
        assert plain_insert  # the insert does count kernel work
        assert audited == plain
        assert audited_insert == plain_insert
        (insert,) = [
            record for record in trail
            if record["kind"] == "op" and record["args"].startswith("(insert")
        ]
        assert insert["counters"] == plain_insert


class TestRecording:
    def test_session_record_opens_the_trail(self):
        trail = audit.enable()
        IncompleteDatabase.over(3)
        assert len(trail) == 1
        record = trail.records[0]
        assert record["kind"] == "session"
        assert record["schema"] == audit.AUDIT_SCHEMA_VERSION
        assert record["backend"] == "clausal"
        assert len(record["letters"]) == 3

    def test_disabled_sessions_record_nothing(self):
        db = IncompleteDatabase.over(3)
        trail = audit.enable()
        db.insert("A1")  # created before enable, never attached
        assert len(trail) == 0

    def test_attach_audit_registers_late(self):
        db = IncompleteDatabase.over(3)
        db.insert("A1")
        trail = audit.enable()
        db.attach_audit()
        db.insert("A2")
        kinds = [record["kind"] for record in trail]
        assert kinds == ["session", "op"]
        # The session record captures the state at attach time.
        assert trail.records[0]["initial"] == ["A1"]

    def test_attach_audit_requires_enable(self):
        db = IncompleteDatabase.over(3)
        with pytest.raises(EvaluationError):
            db.attach_audit()

    def test_ops_carry_contiguous_seq_and_fingerprints(self):
        trail, _ = _scripted_trail()
        ops = [record for record in trail if record["kind"] == "op"]
        assert [record["seq"] for record in ops] == list(range(1, len(ops) + 1))
        for record in ops:
            assert set(record["pre"]) == {"n", "mask", "digest"}
            assert record["wall_ms"] >= 0

    def test_rejected_update_is_recorded_and_reraised(self):
        trail, _ = _scripted_trail()
        rejected = [r for r in trail if r.get("outcome") == "rejected"]
        assert len(rejected) == 1
        assert rejected[0]["op"] == "apply"
        assert "insert" in rejected[0]["args"]
        assert "error" in rejected[0]
        assert "post" not in rejected[0]

    def test_query_outcomes_are_true_false(self):
        trail, _ = _scripted_trail()
        outcomes = {
            record["op"]: record["outcome"]
            for record in trail
            if record["kind"] == "op" and record["op"].startswith("query")
        }
        assert outcomes == {"query_certain": "true", "query_possible": "true"}

    def test_inconsistent_outcome(self):
        # The outcome check is representational: an empty world set (or an
        # explicit empty clause) -- the instance backend makes it evident.
        trail = audit.enable()
        db = IncompleteDatabase.over(2, backend="instance")
        db.assert_("A1")
        db.assert_("~A1")
        assert trail.records[-1]["outcome"] == "inconsistent"

    def test_writer_appends_jsonl(self, tmp_path):
        path = tmp_path / "audit_test.jsonl"
        audit.enable(path)
        IncompleteDatabase.over(2).insert("A1")
        audit.disable()
        audit.enable(path)  # append-only: a second segment accumulates
        IncompleteDatabase.over(2).insert("A2")
        audit.disable()
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(isinstance(json.loads(line), dict) for line in lines)


class TestReadValidate:
    def test_round_trip_through_file(self, tmp_path):
        trail, _ = _scripted_trail()
        path = tmp_path / "audit_trail.jsonl"
        trail.save(path)
        records = audit.read_audit(path)
        assert records == trail.records
        assert audit.validate_audit(records) == []

    def test_schema_drift_raises(self):
        trail, _ = _scripted_trail()
        records = list(trail.records)
        records[2] = dict(records[2], schema=99)
        with pytest.raises(AuditError):
            audit.read_audit(records)

    def test_bad_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1, "kind": "session"}\nnot json\n')
        with pytest.raises(AuditError):
            audit.read_audit(path)

    def test_validate_catches_seq_gap(self):
        trail, _ = _scripted_trail()
        records = [dict(record) for record in trail.records]
        for record in records:
            if record["kind"] == "op" and record["seq"] == 2:
                record["seq"] = 5
        assert any("seq" in problem for problem in audit.validate_audit(records))

    def test_validate_catches_orphan_op_and_unknown_kind(self):
        trail, _ = _scripted_trail()
        op = next(r for r in trail.records if r["kind"] == "op")
        orphan = dict(op, session="s0-99")
        assert audit.validate_audit([orphan])
        assert audit.validate_audit([{"schema": 1, "kind": "mystery"}])


class TestReplay:
    def test_replay_reproduces_the_whole_trajectory(self):
        trail, _ = _scripted_trail()
        report = audit.replay_audit(trail)
        assert report.ok
        assert report.sessions == 1
        assert report.ops == len(trail) - 1

    def test_replay_reproduces_final_fingerprint_exactly(self):
        trail, db = _scripted_trail()
        # The last op record's post fingerprint is the live session's.
        posts = [r["post"] for r in trail if r.get("post") is not None]
        assert posts[-1] == audit.fingerprint_json(db.clauses().fingerprint)
        assert audit.replay_audit(trail).ok

    def test_tampered_post_fingerprint_is_detected(self):
        trail, _ = _scripted_trail()
        records = [dict(record) for record in trail.records]
        for record in records:
            if record.get("post") is not None:
                record["post"] = dict(record["post"], digest="00" * 8)
                break
        report = audit.replay_audit(records)
        assert not report.ok
        assert any("post fingerprint" in m for m in report.mismatches)

    def test_forged_query_outcome_is_detected(self):
        trail, _ = _scripted_trail()
        records = [dict(record) for record in trail.records]
        for record in records:
            if record.get("op") == "query_certain":
                record["outcome"] = "false"
        report = audit.replay_audit(records)
        assert any("query_certain" in m for m in report.mismatches)

    def test_replay_covers_instance_backend_and_constraints(self):
        trail = audit.enable()
        db = IncompleteDatabase.over(
            3, constraints=["A1 -> A2"], backend="instance",
            enforce_constraints=True,
        )
        db.insert("A1")
        db.is_certain("A2")
        assert audit.replay_audit(trail).ok

    def test_replay_does_not_append_to_the_active_trail(self):
        trail, _ = _scripted_trail()
        before = len(trail)
        audit.replay_audit(trail)
        assert len(trail) == before
        assert audit.is_enabled()

    def test_structurally_invalid_trail_refuses_to_replay(self):
        trail, _ = _scripted_trail()
        records = [dict(record) for record in trail.records][1:]  # drop session
        with pytest.raises(AuditError):
            audit.replay_audit(records)
