"""Tests for the Appendix A system-balance analysis."""

import pytest

from repro.balance import (
    NetworkBalance,
    fleet_dram_requirement,
    host_resource_table,
    mot_footprint_mib,
    network_transcode_limit_gpix_s,
    sot_footprint_mib,
    vcu_ceiling_per_host,
)
from repro.balance.host import host_headroom
from repro.vcu.spec import EncodingMode


class TestNetworkBalance:
    def test_raw_limit_near_600_gpix(self):
        assert NetworkBalance().raw_limit_gpix_s == pytest.approx(610.0, rel=0.02)

    def test_effective_limit_near_153_gpix(self):
        assert network_transcode_limit_gpix_s() == pytest.approx(153.0, rel=0.02)

    def test_pcie_control_traffic_tiny(self):
        # <4 KiB per frame: ~0.6 Gbps for all-2160p at the 153 Gpix/s
        # target (Appendix A.2).
        balance = NetworkBalance()
        frames_per_second = 153e9 / (3840 * 2160)
        gbps = balance.pcie_control_gbps(frames_per_second)
        assert gbps == pytest.approx(0.6, rel=0.1)

    def test_realtime_vcu_ceiling_is_30(self):
        ceiling = vcu_ceiling_per_host(EncodingMode.LOW_LATENCY_ONE_PASS)
        assert ceiling == 30

    def test_offline_ceiling_much_higher(self):
        offline = vcu_ceiling_per_host(EncodingMode.OFFLINE_TWO_PASS)
        realtime = vcu_ceiling_per_host(EncodingMode.LOW_LATENCY_ONE_PASS)
        assert offline > 4 * realtime  # paper: 150 with its rounder 5x figure

    def test_20_vcus_is_conservative(self):
        # Appendix A.5: the deployed 20 VCUs per host sit well under the
        # network-derived ceilings.
        assert 20 < vcu_ceiling_per_host(EncodingMode.LOW_LATENCY_ONE_PASS)


class TestDramFootprints:
    def test_paper_bands(self):
        # ~700 MiB per 2160p MOT, ~500 MiB per SOT (Appendix A.4).
        assert 500 <= mot_footprint_mib() <= 900
        assert 350 <= sot_footprint_mib() <= 650

    def test_mot_saves_footprint_per_output(self):
        from repro.video.frame import output_ladder, resolution

        ladder_px = sum(r.pixels for r in output_ladder(resolution("2160p")))
        mot_per_px = mot_footprint_mib() / ladder_px
        sot_per_px = sot_footprint_mib() / resolution("2160p").pixels
        assert mot_per_px < sot_per_px

    def test_8gib_suffices_4gib_does_not(self):
        # The appendix's capacity conclusion: 8 GiB per VCU supports the
        # worst case; 4 GiB would be insufficient.
        requirement = fleet_dram_requirement(EncodingMode.OFFLINE_TWO_PASS)
        assert requirement.fits_8gib
        assert not requirement.fits_4gib

    def test_low_latency_needs_less(self):
        low = fleet_dram_requirement(EncodingMode.LOW_LATENCY_ONE_PASS)
        offline = fleet_dram_requirement(EncodingMode.OFFLINE_TWO_PASS)
        assert low.required_gib < offline.required_gib
        assert low.fits_8gib

    def test_mot_reduces_requirement(self):
        sot = fleet_dram_requirement(EncodingMode.OFFLINE_TWO_PASS, use_mot=False)
        mot = fleet_dram_requirement(EncodingMode.OFFLINE_TWO_PASS, use_mot=True)
        assert mot.required_gib < sot.required_gib


class TestHostResources:
    def test_table2_totals(self):
        rows = host_resource_table(153.0)
        total = rows[-1]
        assert total.use == "Total"
        assert total.logical_cores == pytest.approx(55.0, rel=0.01)
        assert total.dram_bandwidth_gbps == pytest.approx(712.0, rel=0.01)

    def test_table2_printed_rows(self):
        rows = {r.use: r for r in host_resource_table(153.0)}
        assert rows["Transcoding overheads"].logical_cores == pytest.approx(42.0, rel=0.01)
        assert rows["Network & RPC"].dram_bandwidth_gbps == pytest.approx(300.0, rel=0.01)

    def test_scales_linearly(self):
        half = host_resource_table(76.5)[-1]
        assert half.logical_cores == pytest.approx(27.5, rel=0.01)

    def test_table2_scales_to_306_gpix(self):
        double = host_resource_table(306.0)[-1]
        assert double.use == "Total"
        assert round(double.logical_cores) == 110  # 2x the 55-core total

    def test_headroom_about_half_the_host(self):
        # Appendix A.3: the scaled values are about half of what the
        # target host system provides.
        headroom = host_headroom()
        assert 0.4 <= headroom["core_fraction"] <= 0.65
        assert 0.35 <= headroom["dram_fraction"] <= 0.55

    def test_rejects_bad_throughput(self):
        with pytest.raises(ValueError):
            host_resource_table(0)
