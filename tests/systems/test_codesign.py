"""Tests for co-design predictions (§1's procurement modeling)."""

import dataclasses

import pytest

from repro.systems.codesign import compare_systems, predict_suite
from repro.systems.descriptor import GpuSpec, InterconnectSpec, SystemDescriptor
from repro.systems.registry import get_system


def hypothetical(name="proposal-x", mem_bw=400.0, cores=128,
                 core_gflops=30.0, net_bw=100.0, latency=0.5,
                 gpu=None) -> SystemDescriptor:
    return SystemDescriptor(
        name=name, site="vendor", nodes=512, cores_per_node=cores,
        core_gflops=core_gflops, node_mem_bw_gbs=mem_bw,
        memory_per_node_gb=512.0, cpu_target="zen3",
        interconnect=InterconnectSpec("next-gen", latency, net_bw,
                                      "binomial"),
        gpu=gpu,
    )


class TestPredictSuite:
    def test_all_foms_present(self):
        pred = predict_suite(get_system("cts1"))
        assert set(pred) >= {"saxpy_bandwidth_gbs", "stream_triad_mbs",
                             "amg_fom_per_cycle", "bcast_seconds"}
        assert all(v > 0 for v in pred.values())

    def test_more_memory_bandwidth_helps_stream(self):
        slow = predict_suite(hypothetical(mem_bw=100.0))
        fast = predict_suite(hypothetical(mem_bw=400.0))
        assert fast["stream_triad_mbs"] > slow["stream_triad_mbs"]
        assert fast["amg_fom_per_cycle"] > slow["amg_fom_per_cycle"]

    def test_better_network_helps_bcast_only(self):
        slow = predict_suite(hypothetical(net_bw=10.0, latency=2.0))
        fast = predict_suite(hypothetical(net_bw=200.0, latency=0.3))
        assert fast["bcast_seconds"] < slow["bcast_seconds"]
        assert fast["stream_triad_mbs"] == slow["stream_triad_mbs"]

    def test_gpu_system_predicted_faster(self):
        cpu_only = hypothetical()
        gpu = hypothetical(
            name="gpu", gpu=GpuSpec("H100", 4, 80.0, 30000.0, 3000.0))
        assert predict_suite(gpu)["amg_fom_per_cycle"] > \
            predict_suite(cpu_only)["amg_fom_per_cycle"]

    def test_rank_cap_respected(self):
        tiny = hypothetical(cores=2)
        tiny = dataclasses.replace(tiny, nodes=2)
        pred = predict_suite(tiny)
        assert pred["n_ranks_used"] == 4  # 2 nodes × 2 cores < workload's 512


class TestCompareSystems:
    def test_paper_systems_ranked(self):
        rows = compare_systems(
            [get_system("cts1"), get_system("ats2"), get_system("ats4")],
            reference=get_system("cts1"),
        )
        names = [r["system"] for r in rows]
        # the GPU systems beat the 2016-era CPU cluster
        assert names[-1] == "cts1"
        cts1_row = rows[-1]
        assert cts1_row["score"] == pytest.approx(1.0)  # reference vs itself

    def test_scores_sorted_descending(self):
        rows = compare_systems(
            [hypothetical(mem_bw=100.0, name="weak"),
             hypothetical(mem_bw=800.0, name="strong")],
            reference=get_system("cts1"),
        )
        assert rows[0]["system"] == "strong"
        assert rows[0]["score"] >= rows[1]["score"]

    def test_dominating_proposal_scores_above_one(self):
        monster = hypothetical(mem_bw=2000.0, core_gflops=100.0,
                               net_bw=400.0, latency=0.2, name="monster")
        rows = compare_systems([monster], reference=get_system("cts1"))
        assert rows[0]["score"] > 1.0
        assert all(s > 1.0 for s in rows[0]["speedups"].values())

    def test_empty_proposals_rejected(self):
        with pytest.raises(ValueError):
            compare_systems([], reference=get_system("cts1"))
