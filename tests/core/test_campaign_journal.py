"""The campaign journal: one append-only line per epoch, after the set-up
record whose manifests it uses, resumed through the same ingest path a live
epoch takes.

A campaign killed at any instant — even mid-append, the first append's
set-up record included — must resume to the state the uninterrupted run had
after its last complete line, and the next epoch must leave a journal that
resumes past it.  Killed between epochs and resumed to the end, it must
reach the uninterrupted run's state, and count as replays exactly the
replayed lines of its own journal.  Nothing in a journal or a record names
the workdir: the same campaign writes the same bytes wherever it runs, and
a replay does not depend on the workdir of the campaign that ran it cold.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.ramble.workspace import Workspace
from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector
from repro.systems.failures import Degradation, FailureSchedule

EXPERIMENT = "saxpy/openmp"
SYSTEM = "cts1"
EPOCHS = 5
#: the longest campaign the kill/resume differential test draws, and its
#: fault rate: low enough that most of its epochs are clean and replayable
MAX_EPOCHS = 6
KILL_FAULT_RATE = 0.03


def _campaign(workdir, fault_rate=0.2, **kwargs):
    """Faults on epochs 0-3 (salted, so every run sees the same ones) and a
    bandwidth drop from epoch 2: the history holds retries and events.  At
    ``fault_rate=0.03`` epochs 1, 3, 4 and 5 are clean, the others flaky."""
    return ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, workdir,
        schedule=FailureSchedule(
            [(2, Degradation("bad-dimm", memory_bw_factor=0.5))]),
        injector=TransientFaultInjector(
            {FaultKind.NODE_FAILURE: fault_rate}, salt="journal-c"),
        retry_policy=RetryPolicy(max_attempts=6, jitter=0.0),
        **kwargs,
    )


def _state(loop):
    return (loop.db.to_records(), loop.attempt_history,
            [str(e) for e in loop.regressions()])


def _lines(loop):
    return loop.checkpoint_path.read_bytes().splitlines(keepends=True)


def _epoch_lines(loop):
    """The journal's epoch lines: neither its header nor a set-up record."""
    return [line for line in _lines(loop)[1:]
            if "setup" not in json.loads(line)]


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
    @pytest.mark.parametrize("append", ["first", "last"])
    @pytest.mark.parametrize("name", ["cold", "warm"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kill_mid_append_resumes_to_last_complete_line(
            self, runs, tmp_path_factory, name, append, data):
        """The first append holds the header, the set-up record and epoch
        0; the last holds the last epoch's line alone."""
        loop, before = runs[name]
        lines = _lines(loop)
        assert "setup" in json.loads(lines[1])
        assert not any("setup" in json.loads(line) for line in lines[2:])
        if append == "first":
            kept, torn, epochs = b"", b"".join(lines[:3]), 0
            before = ([], {}, [])
        else:
            kept, torn, epochs = b"".join(lines[:-1]), lines[-1], EPOCHS - 1
        cut = data.draw(st.integers(0, len(torn) - 1), label="cut")
        workdir = tmp_path_factory.mktemp("torn")
        journal = workdir / loop.checkpoint_path.name
        written = kept + torn[:cut]
        journal.write_bytes(written)
        complete = written[:written.rfind(b"\n") + 1]

        resumed = _campaign(workdir)
        assert resumed.epochs_run == epochs
        assert _state(resumed) == before
        assert journal.read_bytes() == written  # opening wrote nothing

        resumed.run_epoch()  # the torn tail is cut off before the append
        grown = journal.read_bytes()
        assert grown.startswith(complete) and grown.endswith(b"\n")
        assert len(grown.splitlines()) == len((kept + torn).splitlines())
        assert _campaign(workdir).epochs_run == epochs + 1
        shutil.rmtree(workdir)


@pytest.fixture(scope="module")
def cold_journal(tmp_path_factory):
    """The journal of a cold MAX_EPOCHS-epoch campaign: its clean epochs
    are what a warm campaign replays."""
    return _campaign(tmp_path_factory.mktemp("prior"),
                     KILL_FAULT_RATE).run(MAX_EPOCHS).checkpoint_path


def _store(journal, epochs, workdir):
    """A store holding the cold campaign's clean entries for its first
    ``epochs`` epochs, put back by resuming a copy of its journal: the
    header, the set-up record and that many epoch lines."""
    lines = journal.read_bytes().splitlines(keepends=True)
    workdir.mkdir()
    (workdir / "campaign.jsonl").write_bytes(b"".join(lines[:epochs + 2]))
    return _campaign(workdir, KILL_FAULT_RATE).result_cache


def _view(loop):
    """The report and the records, manifests included as they are."""
    return loop.report(), loop.db.to_records()


class TestKillResume:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_killed_campaign_resumes_to_the_uninterrupted_run(
            self, cold_journal, fixed_clock, tmp_path_factory, data):
        epochs = data.draw(st.integers(1, MAX_EPOCHS), label="epochs")
        kill = data.draw(st.integers(0, epochs), label="kill after")
        warm = data.draw(st.booleans(), label="warm")
        shared_resume = data.draw(st.booleans(), label="resume with shared")
        root = tmp_path_factory.mktemp("kill")
        shared = _store(cold_journal, epochs if warm else 0, root / "prior")
        _campaign(root / "run", KILL_FAULT_RATE, result_cache=shared).run(kill)

        before = shared.stats()
        resumed = _campaign(root / "run", KILL_FAULT_RATE,
                            result_cache=shared if shared_resume else None)
        assert shared.stats() == before  # opening makes no lookup or put
        resumed.run_until(epochs)

        # the uninterrupted run sees what the resumed one can replay: the
        # shared store's entries, or only those its journal carries
        seen = 0 if not warm else epochs if shared_resume else kill
        uninterrupted = _campaign(
            root / "uninterrupted", KILL_FAULT_RATE,
            result_cache=_store(cold_journal, seen, root / "seen"),
        ).run(epochs)
        assert _view(resumed) == _view(uninterrupted)
        replayed = sum(b'"replayed":' in line for line in _lines(resumed))
        assert f"epoch result cache: {replayed}/{epochs} hit(s)" in (
            resumed.report())
        shutil.rmtree(root)


class TestJournal:
    def test_old_stats_fields_are_ignored(self, runs, tmp_path):
        """Epoch lines written before the store's counters left the journal
        carry a ``stats`` field; a resume ignores it."""
        loop, _ = runs["warm"]
        header, setup, *lines = _lines(loop)
        old = [json.dumps(dict(json.loads(line), stats={
            "hits": 7, "misses": 7, "puts": 7})).encode() + b"\n"
            for line in lines]
        (tmp_path / "campaign.jsonl").write_bytes(
            header + setup + b"".join(old))
        resumed = _campaign(tmp_path)
        assert _state(resumed) == _state(loop)
        assert resumed.report() == loop.report()

    def test_corrupt_middle_line_rejected(self, runs, tmp_path):
        lines = _lines(runs["cold"][0])
        lines[2] = b'{"results": \n'
        (tmp_path / "campaign.jsonl").write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match=r"corrupt.*resume=False"):
            _campaign(tmp_path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version_mismatch_rejected(self, tmp_path, version):
        (tmp_path / "campaign.jsonl").write_text(json.dumps(
            {"version": version, "experiment": EXPERIMENT,
             "system": SYSTEM}) + "\n")
        with pytest.raises(ValueError,
                           match=f"has version {version}; expected 4"):
            ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path)

    def test_resume_false_starts_a_fresh_journal(self, runs, tmp_path):
        shutil.copy(runs["cold"][0].checkpoint_path, tmp_path)
        fresh = _campaign(tmp_path, resume=False)
        assert fresh.epochs_run == 0
        fresh.run_epoch()
        assert len(_lines(fresh)) == 3  # header, set-up record, epoch 0
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
        whole-state rewrite would (by ~51 kB an epoch for this campaign).
        The set-up record is written once, before epoch 0's line."""
        loop = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path).run(12)
        sizes = [len(line) for line in _epoch_lines(loop)]
        assert len(sizes) == 12
        assert max(sizes) <= 1.1 * min(sizes)

    def test_journal_holds_only_its_own_entries(self, tmp_path):
        """A warm campaign's journal carries the results its own epochs
        replayed, not the other campaigns' entries in the shared store."""
        shared = ContentStore("epoch-results")
        cold = [ContinuousBenchmarking(
            "stream/openmp", system, tmp_path / f"cold-{system}",
            result_cache=shared).run(3) for system in ("cts1", "ats4")]
        warm = ContinuousBenchmarking(
            "stream/openmp", "cts1", tmp_path / "warm",
            result_cache=shared).run(3)
        assert warm.session.regions()["epoch:replay"].visits == 3

        lines = [json.loads(line) for line in _epoch_lines(warm)]
        assert not any("entries" in line for line in lines)
        own = {warm._epoch_key(warm.schedule.system_at(warm.base_system, e),
                               e, warm._setup_key()) for e in range(3)}
        assert {line["key"] for line in lines} <= own
        size = warm.checkpoint_path.stat().st_size
        assert size <= 1.1 * cold[0].checkpoint_path.stat().st_size


#: manifest keys the loop adds to a record, beyond its set-up record's
LOOP_TAGS = ("epoch", "attempts", "flaky", "fault_kinds", "cached",
             "cache_provenance")


def _pair(root):
    """A cold campaign and a warm one replaying it, under ``root``."""
    shared = ContentStore("epoch-results")
    return [_campaign(root / name, KILL_FAULT_RATE,
                      result_cache=shared).run(MAX_EPOCHS)
            for name in ("cold", "warm")]


class TestWorkdirFree:
    def test_journal_bytes_do_not_depend_on_the_workdir(
            self, fixed_clock, tmp_path):
        short = _pair(tmp_path / "a")
        long = _pair(tmp_path / "a-workdir-whose-path-is-longer" / "b")
        for here, there in zip(short, long):
            assert (here.checkpoint_path.read_bytes()
                    == there.checkpoint_path.read_bytes())
            assert str(tmp_path).encode() not in (
                here.checkpoint_path.read_bytes())
        assert any(b'"replayed":' in line for line in _epoch_lines(short[1]))

    @pytest.mark.parametrize("fate", ["moved", "deleted"])
    def test_replay_does_not_depend_on_the_cold_workdir(
            self, fixed_clock, tmp_path, fate):
        shared = ContentStore("epoch-results")
        cold = _campaign(tmp_path / "cold", KILL_FAULT_RATE,
                         result_cache=shared).run(MAX_EPOCHS)
        warm = _campaign(tmp_path / "warm", KILL_FAULT_RATE,
                         result_cache=shared).run(MAX_EPOCHS)
        assert warm.epochs_replayed
        records = warm.db.to_records()
        if fate == "moved":
            cold.workdir.rename(tmp_path / "elsewhere")
        else:
            shutil.rmtree(cold.workdir)
        resumed = _campaign(tmp_path / "warm", KILL_FAULT_RATE)
        again = _campaign(tmp_path / "again", KILL_FAULT_RATE,
                          result_cache=shared).run(MAX_EPOCHS)
        assert resumed.db.to_records() == records
        assert again.db.to_records() == records
        assert str(tmp_path) not in json.dumps(records)

    @pytest.mark.parametrize("experiment", [
        "saxpy/openmp", "stream/openmp", "amg2023/openmp",
        "osu-micro-benchmarks/mpi"])
    def test_ingested_manifest_is_the_analyzed_one(
            self, tmp_path, monkeypatch, experiment):
        """For every cold epoch, the manifest ``_ingest`` derives from the
        set-up record equals the variables analysis reported, with the
        workdir prefix stripped; no epoch line carries variables."""
        analyzed, analyze = [], Workspace.analyze

        def recording(self):
            results = analyze(self)
            analyzed.append(results)
            return results

        monkeypatch.setattr(Workspace, "analyze", recording)
        campaign = ContinuousBenchmarking(
            experiment, SYSTEM, tmp_path,
            injector=TransientFaultInjector(
                {FaultKind.NODE_FAILURE: 0.4}, salt="journal-c"),
            retry_policy=RetryPolicy(max_attempts=6, jitter=0.0)).run(3)
        assert len(analyzed) == 3  # every epoch ran cold
        prefix = f"{tmp_path}/"
        for epoch, results in enumerate(analyzed):
            expected = {exp["name"]: {k: v.replace(prefix, "")
                                      for k, v in exp["variables"].items()}
                        for exp in results["experiments"]
                        if exp["figures_of_merit"]}
            got = {r.experiment: {k: v for k, v in r.manifest.items()
                                  if k not in LOOP_TAGS}
                   for r in campaign.db.query()
                   if r.manifest["epoch"] == str(epoch)}
            assert expected and got == expected, f"epoch {epoch}"
        assert campaign.attempt_history  # the tags had retries to carry
        for line in _epoch_lines(campaign):
            assert all("variables" not in exp
                       for exp in json.loads(line)["results"])
