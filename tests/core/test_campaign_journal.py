"""The campaign journal: one append-only line per epoch, resumed through the
same ingest path a live epoch takes.

A campaign killed at any instant — even mid-append — must resume to the
state the uninterrupted run had after its last complete line, and the next
epoch must leave a journal that resumes past it.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector
from repro.systems.failures import Degradation, FailureSchedule

EXPERIMENT = "saxpy/openmp"
SYSTEM = "cts1"
EPOCHS = 5


def _campaign(workdir, **kwargs):
    """Faults on epochs 0-3 (salted, so every run sees the same ones) and a
    bandwidth drop from epoch 2: the history holds retries and events."""
    return ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, workdir,
        schedule=FailureSchedule(
            [(2, Degradation("bad-dimm", memory_bw_factor=0.5))]),
        injector=TransientFaultInjector(
            {FaultKind.NODE_FAILURE: 0.2}, salt="journal-c"),
        retry_policy=RetryPolicy(max_attempts=6, jitter=0.0),
        **kwargs,
    )


def _state(loop):
    return (loop.db.to_records(), loop.attempt_history,
            [str(e) for e in loop.regressions()])


def _lines(loop):
    return loop.checkpoint_path.read_bytes().splitlines(keepends=True)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A cold campaign and a warm one replaying it, each run for EPOCHS
    epochs, with the uninterrupted state after EPOCHS - 1 of them."""
    root = tmp_path_factory.mktemp("journal")
    shared = ContentStore("epoch-results")
    out = {}
    for name in ("cold", "warm"):
        loop = _campaign(root / name, result_cache=shared).run(EPOCHS - 1)
        before = _state(loop)
        loop.run_epoch()
        out[name] = (loop, before)
    # the last line is a cold one in the first, a replayed one in the second
    assert "results" in json.loads(_lines(out["cold"][0])[-1])
    assert "replayed" in json.loads(_lines(out["warm"][0])[-1])
    assert out["cold"][1][1] and out["cold"][1][2]  # retries and events
    return out


class TestTornAppend:
    @pytest.mark.parametrize("name", ["cold", "warm"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kill_mid_append_resumes_to_last_complete_line(
            self, runs, tmp_path_factory, name, data):
        loop, before = runs[name]
        lines = _lines(loop)
        last = lines[-1]
        cut = data.draw(st.integers(0, len(last) - 1), label="cut")
        workdir = tmp_path_factory.mktemp("torn")
        journal = workdir / loop.checkpoint_path.name
        kept = b"".join(lines[:-1])
        journal.write_bytes(kept + last[:cut])

        resumed = _campaign(workdir)
        assert resumed.epochs_run == EPOCHS - 1
        assert _state(resumed) == before
        assert journal.read_bytes() == kept + last[:cut]  # opening wrote nothing

        resumed.run_epoch()  # the torn tail is cut off before the append
        grown = journal.read_bytes()
        assert grown.startswith(kept) and grown.endswith(b"\n")
        assert len(grown.splitlines()) == len(lines)
        assert _campaign(workdir).epochs_run == EPOCHS
        shutil.rmtree(workdir)


class TestJournal:
    def test_corrupt_middle_line_rejected(self, runs, tmp_path):
        lines = _lines(runs["cold"][0])
        lines[2] = b'{"entries": \n'
        (tmp_path / "campaign.jsonl").write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=r"corrupt.*resume=False"):
            _campaign(tmp_path)

    def test_version_mismatch_rejected(self, tmp_path):
        (tmp_path / "campaign.jsonl").write_text(json.dumps(
            {"version": 1, "experiment": EXPERIMENT, "system": SYSTEM}) + "\n")
        with pytest.raises(ValueError, match="has version 1; expected 2"):
            ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path)

    def test_resume_false_starts_a_fresh_journal(self, runs, tmp_path):
        shutil.copy(runs["cold"][0].checkpoint_path, tmp_path)
        fresh = _campaign(tmp_path, resume=False)
        assert fresh.epochs_run == 0
        fresh.run_epoch()
        assert len(_lines(fresh)) == 2
        assert _campaign(tmp_path).epochs_run == 1

    def test_opening_a_journal_does_not_write_it(self, runs, tmp_path):
        shutil.copy(runs["warm"][0].checkpoint_path, tmp_path)
        journal = tmp_path / "campaign.jsonl"
        before = (journal.read_bytes(), journal.stat().st_mtime_ns)
        resumed = _campaign(tmp_path)
        resumed.report()
        assert resumed.epochs_run == EPOCHS
        assert (journal.read_bytes(), journal.stat().st_mtime_ns) == before

    def test_bytes_per_epoch_stay_flat(self, tmp_path):
        """The write per epoch does not grow with the history, as a
        whole-state rewrite would (by ~51 kB an epoch for this campaign)."""
        loop = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path).run(12)
        sizes = [len(line) for line in _lines(loop)[1:]]  # after the header
        assert len(sizes) == 12
        assert max(sizes) <= 1.1 * min(sizes)
