"""One Caliper channel: a campaign's epochs and scans run with its session
active, so every layer they call times itself into ``campaign.session``."""

from repro.analysis.caliper import active_session
from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore

EXPERIMENT = "saxpy/openmp"
SYSTEM = "cts1"

#: the layer regions a cold epoch leaves, by path
COLD_PATHS = (
    "fingerprint",
    "epoch:setup/driver.benchpark_setup",
    "epoch:setup/workspace.setup",
    "epoch:setup/workspace.setup/concretizer.concretize_together",
    "epoch:setup/workspace.setup/installer.install",
    "epoch:run/executor.execute",
    "epoch:run/executor.execute/kernel.saxpy",
    "epoch:analyze/fom.analyze",
    "metricsdb.ingest_analysis",
    "journal.append",
)
#: ... and a replayed epoch
REPLAY_PATHS = (
    "epoch:replay/metricsdb.ingest_analysis",
    "epoch:replay/journal.append",
)
#: ... and a regression scan
SCAN_PATHS = ("analysis:scan", "analysis:scan/analysis:detect")


def _cold_then_replayed(tmp_path):
    """A campaign whose epoch 0 runs cold and whose epoch 1 replays the
    epoch another campaign ran cold into the shared store."""
    shared = ContentStore("epoch-results")
    campaign = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, tmp_path / "c", result_cache=shared)
    campaign.run_epoch()
    ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, tmp_path / "other", result_cache=shared).run(2)
    campaign.run_epoch()
    campaign.regressions()
    return campaign


class TestCampaignRegions:
    def test_every_layer_path_recorded(self, tmp_path):
        campaign = _cold_then_replayed(tmp_path)
        regions = campaign.session.regions()
        for path in COLD_PATHS + REPLAY_PATHS + SCAN_PATHS:
            assert path in regions, path
        assert regions["epoch:run"].visits == 1
        assert regions["epoch:replay"].visits == 1
        assert campaign.epochs_replayed == 1
        negative = {p: n.exclusive for p, n in regions.items()
                    if n.exclusive < -1e-9}
        assert negative == {}
        campaign.session.flush()  # every region was closed

    def test_no_session_left_active(self, tmp_path):
        campaign = _cold_then_replayed(tmp_path)
        assert active_session() is None
        campaign.report()
        assert active_session() is None

    def test_campaigns_time_only_themselves(self, tmp_path):
        """The other campaign's epochs went into its own session: this one
        saw one scan and two epochs' worth of commits."""
        campaign = _cold_then_replayed(tmp_path)
        regions = campaign.session.regions()
        assert regions["analysis:scan"].visits == 1
        assert (regions["journal.append"].visits
                + regions["epoch:replay/journal.append"].visits) == 2

    def test_resume_records_nothing(self, tmp_path):
        """Reopening a journal replays its lines outside any epoch: no
        region is recorded until the next epoch or scan."""
        _cold_then_replayed(tmp_path)
        reopened = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "c")
        assert reopened.epochs_run == 2
        assert reopened.session.regions() == {}
