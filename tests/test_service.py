"""Unit coverage for the serving layer's jobs, spool store and queue.

The scheduler and socket front end have their own test modules
(``test_service_scheduler.py``, ``test_service_server.py``); this one
pins down the persistence format (atomic, versioned, crash-tolerant) and
the admission/ordering semantics of the bounded queue.
"""

import json

import pytest

from repro.core.config import VTQConfig
from repro.errors import AdmissionRejected, ServiceError
from repro.experiments.parallel import CaseSpec
from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobStore, new_job, spec_from_dict, spec_to_dict
from repro.service.queue import JobQueue


def make_job(scene="BUNNY", policy="baseline", client="a", priority=0, **kw):
    return new_job(
        CaseSpec(scene, policy), client_id=client, priority=priority, **kw
    )


class TestJobRecords:
    def test_round_trip(self):
        job = make_job(policy="vtq")
        job.spec = CaseSpec("BUNNY", "vtq", VTQConfig(queue_threshold=32))
        job.state = jobstates.DONE
        job.result = {"cycles": 123.0}
        restored = Job.from_record(json.loads(json.dumps(job.to_record())))
        assert restored == job
        assert restored.spec.vtq.queue_threshold == 32

    def test_spec_round_trip_without_vtq(self):
        spec = CaseSpec("SPNZA", "prefetch")
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_bad_record_version(self):
        record = make_job().to_record()
        record["version"] = "99"
        with pytest.raises(ServiceError, match="version"):
            Job.from_record(record)

    def test_bad_state_rejected(self):
        record = make_job().to_record()
        record["state"] = "limbo"
        with pytest.raises(ServiceError, match="state"):
            Job.from_record(record)

    def test_legacy_replay_kind_loads_as_case(self):
        record = make_job().to_record()
        record["kind"] = "replay"
        assert Job.from_record(record).kind == "case"
        record["kind"] = "bogus"
        with pytest.raises(ServiceError, match="kind"):
            Job.from_record(record)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ServiceError, match="deadline"):
            make_job(deadline_s=-1.0)

    def test_unique_ids_and_timestamps(self):
        a, b = make_job(), make_job()
        assert a.job_id != b.job_id
        assert a.submitted_at > 0
        assert a.state == jobstates.QUEUED and not a.terminal()


class TestJobStore:
    def test_save_load_list_counts(self, tmp_path):
        store = JobStore(tmp_path)
        jobs = [make_job(), make_job(), make_job()]
        jobs[1].state = jobstates.DONE
        for job in jobs:
            store.save(job)
        assert store.load(jobs[0].job_id) == jobs[0]
        assert {j.job_id for j in store.list()} == {j.job_id for j in jobs}
        counts = store.counts()
        assert counts[jobstates.QUEUED] == 2
        assert counts[jobstates.DONE] == 1

    def test_load_missing_errors(self, tmp_path):
        with pytest.raises(ServiceError, match="no such job"):
            JobStore(tmp_path).load("nope")

    def test_save_leaves_no_tmp_file(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(make_job())
        assert not list(tmp_path.glob("*.tmp"))

    def test_list_skips_corrupt_records(self, tmp_path):
        store = JobStore(tmp_path)
        good = make_job()
        store.save(good)
        (tmp_path / "torn.json").write_text('{"version": "1", "job_')
        listed = store.list()
        assert [j.job_id for j in listed] == [good.job_id]

    def test_init_sweeps_orphaned_tmp_files(self, tmp_path):
        # Simulate a crash between the tmp write and os.replace: the
        # spool holds a completed record plus leaked ``.json.tmp`` files
        # (one shadowing a real record, one for a job that never landed).
        store = JobStore(tmp_path)
        survivor = make_job()
        store.save(survivor)
        (tmp_path / f"{survivor.job_id}.json.tmp").write_text('{"torn"')
        (tmp_path / "neverlanded.json.tmp").write_text('{"version": "1"')
        # A restarting server's store init must sweep the orphans and
        # leave the real record untouched.
        reopened = JobStore(tmp_path)
        assert not list(tmp_path.glob("*.json.tmp"))
        assert reopened.load(survivor.job_id) == survivor
        # ...and a subsequent save still works (no stale tmp in the way).
        reopened.save(survivor)
        assert not list(tmp_path.glob("*.json.tmp"))

    def test_adopt_requeues_queued_and_orphaned_running(self, tmp_path):
        store = JobStore(tmp_path)
        queued, running, done = make_job(), make_job(), make_job()
        running.state = jobstates.RUNNING
        running.started_at = 1.0
        running.attempts = 1
        done.state = jobstates.DONE
        for job in (queued, running, done):
            store.save(job)
        adopted = {j.job_id: j for j in store.adopt()}
        assert set(adopted) == {queued.job_id, running.job_id}
        # The orphaned running job is reset to queued — on disk too.
        assert adopted[running.job_id].state == jobstates.QUEUED
        assert store.load(running.job_id).state == jobstates.QUEUED
        assert store.load(running.job_id).attempts == 1
        assert store.load(done.job_id).state == jobstates.DONE


class TestJobQueue:
    def test_priority_order(self):
        q = JobQueue(max_depth=8)
        low = make_job(priority=0)
        high = make_job(priority=5)
        q.submit(low)
        q.submit(high)
        assert q.pop_next().job_id == high.job_id
        assert q.pop_next().job_id == low.job_id
        assert q.pop_next() is None

    def test_fairness_interleaves_clients(self):
        q = JobQueue(max_depth=16)
        a = [make_job(client="alice") for _ in range(3)]
        b = [make_job(client="bob") for _ in range(2)]
        for job in a:  # alice bulk-submits first
            q.submit(job)
        for job in b:
            q.submit(job)
        order = [job.client_id for job in q.peek_order()]
        assert order == ["alice", "bob", "alice", "bob", "alice"]

    def test_fair_rank_survives_cancel_resubmit(self):
        # Regression: fair ranks used to be stamped from the client's
        # *current* queued-job count, so cancel-then-resubmit produced a
        # rank equal to a still-queued job's — two jobs in one interleave
        # slot, jumping the canceling client ahead of bob's later work.
        q = JobQueue(max_depth=16)
        bob = [make_job(client="bob") for _ in range(3)]
        alice = [make_job(client="alice") for _ in range(2)]
        for job in bob:
            q.submit(job)
        for job in alice:
            q.submit(job)
        q.cancel(alice[0].job_id)
        resubmitted = make_job(client="alice")
        q.submit(resubmitted)
        # Alice's queued jobs must occupy distinct interleave slots...
        alice_ranks = [
            q._entries[j.job_id][0][1] for j in (alice[1], resubmitted)
        ]
        assert len(set(alice_ranks)) == len(alice_ranks)
        # ...so the resubmission lands *after* bob's third job instead of
        # pairing up with alice's still-queued one ahead of it.
        order = [job.client_id for job in q.peek_order()]
        assert order == ["bob", "bob", "alice", "bob", "alice"]

    def test_fair_rank_resets_when_client_queue_empties(self):
        q = JobQueue(max_depth=8)
        first = make_job(client="alice")
        q.submit(first)
        q.cancel(first.job_id)
        again = make_job(client="alice")
        q.submit(again)
        # With nothing left queued the counter resets: the client is
        # indistinguishable from a fresh one.
        assert q._entries[again.job_id][0][1] == 0

    def test_queue_full_rejection_reason(self):
        q = JobQueue(max_depth=2)
        q.submit(make_job())
        q.submit(make_job())
        with pytest.raises(AdmissionRejected) as err:
            q.submit(make_job())
        assert err.value.reason == "queue-full"

    def test_client_quota_rejection_reason(self):
        q = JobQueue(max_depth=10, per_client_max=2)
        q.submit(make_job(client="greedy"))
        q.submit(make_job(client="greedy"))
        with pytest.raises(AdmissionRejected) as err:
            q.submit(make_job(client="greedy"))
        assert err.value.reason == "client-quota"
        q.submit(make_job(client="patient"))  # others still admitted

    def test_tenant_quota_rejection_reason(self):
        q = JobQueue(max_depth=10, per_tenant_max=2)
        # Two different clients of the same tenant share one bucket.
        q.submit(make_job(client="a", tenant="acme"))
        q.submit(make_job(client="b", tenant="acme"))
        with pytest.raises(AdmissionRejected) as err:
            q.submit(make_job(client="c", tenant="acme"))
        assert err.value.reason == "tenant-quota"
        assert err.value.retry_after_s is not None
        q.submit(make_job(client="c", tenant="other"))  # other tenants fine
        # Departures free the bucket again.
        q.pop_next()
        q.submit(make_job(client="c", tenant="acme"))

    def test_adopted_jobs_bypass_bounds(self):
        q = JobQueue(max_depth=1)
        q.submit(make_job())
        q.admit_adopted(make_job())
        assert len(q) == 2

    def test_cancel_queued(self):
        q = JobQueue(max_depth=4)
        job = make_job()
        q.submit(job)
        assert q.cancel(job.job_id).job_id == job.job_id
        assert q.cancel(job.job_id) is None
        assert len(q) == 0

    def test_pop_prefers_scene_affinity(self):
        q = JobQueue(max_depth=8)
        jobs = [
            make_job(scene="BUNNY"),
            make_job(scene="SPNZA"),
            make_job(scene="BUNNY"),
            make_job(scene="SPNZA"),
        ]
        for job in jobs:
            q.submit(job)
        order = []
        prefer = None
        while True:
            job = q.pop_next(prefer_key=prefer)
            if job is None:
                break
            order.append(job.scene_key())
            prefer = job.scene_key()
        assert order == ["BUNNY", "BUNNY", "SPNZA", "SPNZA"]


class TestClientDepthCounter:
    """The O(1) per-client depth counter must never drift from a recount.

    ``_client_depth`` used to recount the entries dict on every submit
    (O(n) per admission); it is now a maintained counter, so these tests
    drive every mutation path — submit, quota/full rejection, cancel,
    pop, adoption — and compare against the ground truth after each op.
    """

    @staticmethod
    def recount(q):
        counts = {}
        for job in q.peek_order():
            counts[job.client_id] = counts.get(job.client_id, 0) + 1
        return counts

    def test_counter_matches_recount_under_random_ops(self):
        import random

        rng = random.Random(1234)
        q = JobQueue(max_depth=12, per_client_max=4)
        queued = []
        for step in range(400):
            op = rng.random()
            if op < 0.45:
                job = make_job(client=rng.choice("abc"),
                               priority=rng.randrange(3))
                try:
                    q.submit(job)
                    queued.append(job.job_id)
                except AdmissionRejected:
                    pass  # rejections must leave the counter untouched
            elif op < 0.55 and queued:
                victim = rng.choice(queued)
                if q.cancel(victim) is not None:
                    queued.remove(victim)
            elif op < 0.6:
                q.cancel("no-such-job")  # miss: no state change
            else:
                job = q.pop_next(
                    prefer_key=rng.choice((None, "BUNNY/fast"))
                )
                if job is not None:
                    queued.remove(job.job_id)
            assert q._client_depths == self.recount(q), f"drift at step {step}"
        # Drain; every client key must be dropped, not left at zero.
        while q.pop_next() is not None:
            pass
        assert q._client_depths == {}

    def test_rejected_submissions_leave_depth_untouched(self):
        q = JobQueue(max_depth=2, per_client_max=2)
        q.submit(make_job(client="a"))
        q.submit(make_job(client="a"))
        before = dict(q._client_depths)
        with pytest.raises(AdmissionRejected):
            q.submit(make_job(client="a"))  # quota
        with pytest.raises(AdmissionRejected):
            q.submit(make_job(client="b"))  # full
        assert q._client_depths == before == {"a": 2}

    def test_adopted_jobs_are_counted(self):
        q = JobQueue(max_depth=1)
        q.submit(make_job(client="a"))
        q.admit_adopted(make_job(client="a"))
        assert q._client_depths == {"a": 2} == self.recount(q)
