"""The persistent job queue: claims, journal replay, kill -9 resume."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.serve.queue import JobError, JobQueue
from repro.serve.service import spec_to_dict
from tests.serve.helpers import make_grid


def wire_cells() -> list[dict]:
    return [spec_to_dict(spec) for spec in make_grid()]


def dead_pid() -> int:
    """A pid guaranteed dead: a child that already exited."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout.strip())


class TestSubmitLoad:
    def test_round_trip(self, tmp_path):
        queue = JobQueue(tmp_path)
        cells = wire_cells()
        job_id = queue.submit(cells, {"include_results": False})
        state = queue.load(job_id)
        assert state.cells == cells
        assert state.options == {"include_results": False}
        assert state.pending == list(range(len(cells)))
        assert not state.complete
        assert state.duplicate_done == 0

    def test_status_dict_shape(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        status = queue.load(job_id).status_dict()
        assert status["kind"] == "repro-serve-job"
        assert status["cells"] == 4
        assert status["done"] == 0
        assert status["pending"] == 4
        assert status["complete"] is False

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobError):
            JobQueue(tmp_path).load("no-such-job")

    def test_half_submitted_job_is_invisible(self, tmp_path):
        """A crash before the job.json rename leaves nothing listed."""
        queue = JobQueue(tmp_path)
        job_dir = tmp_path / "deadbeef00000000"
        job_dir.mkdir()
        (job_dir / "job.json.tmp.99999").write_text("{}")
        assert queue.jobs() == []

    def test_jobs_lists_submitted(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = {queue.submit(wire_cells()) for _ in range(3)}
        assert set(queue.jobs()) == ids


class TestClaims:
    def test_duplicate_claim_rejected(self, tmp_path):
        """The second claimant loses while the first holder is alive --
        this is what stops two drainers running the same cell."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        assert queue.claim(job_id, 0) is True
        assert queue.claim(job_id, 0) is False

    def test_release_reopens_the_claim(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        assert queue.claim(job_id, 0)
        queue.release(job_id, 0)
        assert queue.claim(job_id, 0)

    def test_dead_holders_claim_is_broken(self, tmp_path):
        """kill -9 mid-execution: the claim names a dead pid, so a
        resuming drainer takes it over."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        claim = tmp_path / job_id / "claims" / "0.claim"
        claim.write_text(json.dumps({"pid": dead_pid(), "claimed": 0}))
        assert queue.claim(job_id, 0) is True

    def test_garbage_claim_is_broken(self, tmp_path):
        """kill -9 can only leave garbage in a claim if the writer died
        before its fsync -- which also means the writer is gone."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        claim = tmp_path / job_id / "claims" / "0.claim"
        claim.write_bytes(b"\x00partial")
        assert queue.claim(job_id, 0) is True

    def test_kill_mid_claim_leaves_only_a_prunable_tmp(self, tmp_path):
        """A writer killed between tmp-write and link leaves a
        pid-suffixed tmp; the next claimant prunes it and wins."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        claims = tmp_path / job_id / "claims"
        orphan = claims / f"0.tmp.{dead_pid()}"
        orphan.write_text(json.dumps({"pid": 12345}))
        assert queue.claim(job_id, 0) is True
        assert not orphan.exists()

    def test_steal_goes_through_a_tombstone_rename(self, tmp_path):
        """Breaking a dead holder's claim renames it away (atomic, one
        winner) rather than unlinking it -- unlink+link would let two
        racing stealers both believe they hold the cell."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        claim = tmp_path / job_id / "claims" / "0.claim"
        claim.write_text(json.dumps({"pid": dead_pid(), "claimed": 0}))
        assert queue.claim(job_id, 0) is True
        # The fresh claim names the live stealer, and no tombstone or
        # temp litter survives the steal.
        holder = json.loads(claim.read_text())
        assert holder["pid"] == os.getpid()
        leftovers = list(claim.parent.glob("*.stale.*"))
        leftovers += list(claim.parent.glob("*.tmp.*"))
        assert leftovers == []

    def test_orphan_steal_tombstone_is_pruned(self, tmp_path):
        """A stealer killed between its rename and unlink leaves a
        pid-suffixed tombstone; the next claimant prunes it and the
        slot claims clean."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        claims = tmp_path / job_id / "claims"
        tombstone = claims / f"0.claim.stale.{dead_pid()}"
        tombstone.write_text(json.dumps({"pid": 12345}))
        assert queue.claim(job_id, 0) is True
        assert not tombstone.exists()


class TestJournal:
    def test_mark_done_releases_and_records(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        assert queue.claim(job_id, 1)
        queue.mark_done(job_id, 1, "a" * 40)
        state = queue.load(job_id)
        assert state.done == {1: "a" * 40}
        assert 1 not in state.pending
        # The claim is gone: the slot could be claimed again (replay
        # makes that harmless, but it must not deadlock).
        assert queue.claim(job_id, 1)

    def test_torn_tail_is_ignored(self, tmp_path):
        """A crash mid-append tears the last journal line; replay
        treats the cell as not done instead of failing the job."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        queue.mark_done(job_id, 0, "a" * 40)
        journal = tmp_path / job_id / "journal.ndjson"
        with journal.open("a") as fh:
            fh.write('{"done": 1, "ke')  # torn mid-write
        state = queue.load(job_id)
        assert state.done == {0: "a" * 40}
        assert 1 in state.pending
        assert state.duplicate_done == 0

    def test_duplicate_journal_lines_are_counted_first_wins(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(wire_cells())
        queue.mark_done(job_id, 0, "a" * 40)
        queue.mark_done(job_id, 0, "b" * 40)
        state = queue.load(job_id)
        assert state.done[0] == "a" * 40
        assert state.duplicate_done == 1


class TestRestartResume:
    def test_restart_resume_golden(self, tmp_path):
        """The resume contract end to end, queue edition: submit, do
        half the work, 'crash' (a fresh JobQueue over the same
        directory, one cell still claimed by a dead pid), and verify
        the survivor sees exactly the remaining work -- nothing lost,
        nothing duplicated."""
        cells = wire_cells()
        first = JobQueue(tmp_path)
        job_id = first.submit(cells)
        assert first.claim(job_id, 0)
        first.mark_done(job_id, 0, "0" * 40)
        assert first.claim(job_id, 1)
        first.mark_done(job_id, 1, "1" * 40)
        # Cell 2 was claimed but never finished; fake its holder dying.
        claim = tmp_path / job_id / "claims" / "2.claim"
        claim.write_text(json.dumps({"pid": dead_pid(), "claimed": 0}))

        survivor = JobQueue(tmp_path)
        state = survivor.load(job_id)
        assert state.done == {0: "0" * 40, 1: "1" * 40}
        assert state.pending == [2, 3]
        assert state.duplicate_done == 0
        # The dead holder's claim breaks; the fresh cell claims clean.
        assert survivor.claim(job_id, 2)
        assert survivor.claim(job_id, 3)
        survivor.mark_done(job_id, 2, "2" * 40)
        survivor.mark_done(job_id, 3, "3" * 40)
        final = survivor.load(job_id)
        assert final.complete
        assert final.duplicate_done == 0


class TestDrain:
    def test_cells_with_a_null_warm_hash_still_drain(self, tmp_path):
        """Job files written before warm cells left the wire format
        carry ``"warm_hash": null`` in every cell; they must drain."""
        import asyncio

        from tests.serve.helpers import make_service

        cells = [{**cell, "warm_hash": None} for cell in wire_cells()[:2]]
        service = make_service(tmp_path / "store", jobs_dir=tmp_path / "jobs")
        try:
            job_id = service.queue.submit(cells)
            asyncio.run(service._drain_job(job_id))
        finally:
            service.close()
        state = service.queue.load(job_id)
        assert state.complete
        assert state.duplicate_done == 0

    def test_undecodable_cell_strands_no_claims(self, tmp_path):
        """A job whose cells cannot all be decoded fails its drain
        before claiming anything, so no claim outlives the attempt."""
        import asyncio

        from repro.serve.service import SweepRequestError
        from tests.serve.helpers import make_service

        cells = wire_cells()[:2]
        cells[1] = {**cells[1], "warm_hash": "ab" * 8}
        service = make_service(tmp_path / "store", jobs_dir=tmp_path / "jobs")
        try:
            job_id = service.queue.submit(cells)
            with pytest.raises(SweepRequestError, match="warm_hash"):
                asyncio.run(service._drain_job(job_id))
        finally:
            service.close()
        assert not list((tmp_path / "jobs").rglob("*.claim"))
        assert service.queue.load(job_id).pending == [0, 1]
