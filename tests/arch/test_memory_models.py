"""Tests for the DRAM, SRAM and area models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.area import GSCORE_AREA_MM2, AreaModel
from repro.arch.dram import DRAMModel, LPDDR3_4CH, ORIN_NX_DRAM
from repro.arch.sram import SRAMModel, default_buffers, total_sram_area_mm2
from repro.arch.technology import ORIN_NX, TECH_32NM
from repro.core.data_layout import DRAM_BURST_BYTES, _round_burst


# ---------------------------------------------------------------------------
# Technology
# ---------------------------------------------------------------------------
def test_technology_cycle_time():
    assert TECH_32NM.cycle_time_s == pytest.approx(1e-9)
    assert TECH_32NM.mac_energy_j > 0
    assert ORIN_NX.peak_flops == pytest.approx(3.7e12)
    assert ORIN_NX.dram_bandwidth_bytes == pytest.approx(102.4e9)


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------
def test_dram_validation():
    with pytest.raises(ValueError):
        DRAMModel("bad", channels=0, peak_bandwidth_bytes=1e9, efficiency=0.5, energy_per_byte_j=1e-12)
    with pytest.raises(ValueError):
        DRAMModel("bad", channels=1, peak_bandwidth_bytes=1e9, efficiency=1.5, energy_per_byte_j=1e-12)


def test_dram_transfer_time_and_energy():
    dram = LPDDR3_4CH
    time = dram.transfer_time_s(dram.sustained_bandwidth_bytes)
    assert time == pytest.approx(1.0)
    assert dram.transfer_energy_j(1e6) == pytest.approx(1e6 * dram.energy_per_byte_j)
    with pytest.raises(ValueError):
        dram.transfer_time_s(-1)


def test_dram_burst_rounding():
    # The data layout rounds streamed transfers to the DRAM model's bursts.
    assert LPDDR3_4CH.burst_bytes == DRAM_BURST_BYTES
    assert _round_burst(0) == 0
    assert _round_burst(1) == DRAM_BURST_BYTES
    assert _round_burst(DRAM_BURST_BYTES) == DRAM_BURST_BYTES


def test_dram_required_bandwidth():
    dram = ORIN_NX_DRAM
    assert dram.required_bandwidth(1e9, 90.0) == pytest.approx(90e9)
    with pytest.raises(ValueError):
        dram.required_bandwidth(1e9, 0.0)


@settings(max_examples=20, deadline=None)
@given(num_bytes=st.floats(min_value=0, max_value=1e10))
def test_dram_time_and_energy_are_linear(num_bytes):
    dram = LPDDR3_4CH
    assert dram.transfer_time_s(2 * num_bytes) == pytest.approx(2 * dram.transfer_time_s(num_bytes))
    assert dram.transfer_energy_j(2 * num_bytes) == pytest.approx(2 * dram.transfer_energy_j(num_bytes))


# ---------------------------------------------------------------------------
# SRAM
# ---------------------------------------------------------------------------
def test_sram_validation():
    with pytest.raises(ValueError):
        SRAMModel("bad", size_bytes=0)
    with pytest.raises(ValueError):
        SRAMModel("bad", size_bytes=1024, banks=0)


def test_default_buffers_match_paper():
    buffers = default_buffers()
    assert sum(buffer.size_bytes for buffer in buffers.values()) == 355 * 1024
    assert buffers["input_buffer"].size_bytes == 16 * 1024
    assert buffers["codebook_buffer"].size_bytes == 250 * 1024
    # Table I: 355 KB of SRAM occupies 1.95 mm^2.
    assert total_sram_area_mm2(buffers) == pytest.approx(1.95, rel=1e-6)


def test_sram_energy_scales_with_bank_size():
    small = SRAMModel("small", size_bytes=16 * 1024)
    large = SRAMModel("large", size_bytes=256 * 1024)
    assert large.energy_per_byte_j > small.energy_per_byte_j


# ---------------------------------------------------------------------------
# Area (Table I)
# ---------------------------------------------------------------------------
def test_table1_total_area_matches_paper():
    breakdown = AreaModel().table1()
    assert breakdown.total_mm2 == pytest.approx(5.37, abs=0.05)
    components = breakdown.components
    assert components["voxel_sorting_unit"] == pytest.approx(0.06, abs=1e-6)
    assert components["hierarchical_filtering_unit"] == pytest.approx(0.79, abs=1e-6)
    assert components["sorting_unit"] == pytest.approx(0.04, abs=1e-6)
    assert components["rendering_unit"] == pytest.approx(2.53, abs=1e-6)
    assert components["sram"] == pytest.approx(1.95, abs=1e-6)


def test_total_area_comparable_to_gscore():
    total = AreaModel().table1().total_mm2
    assert abs(total - GSCORE_AREA_MM2) / GSCORE_AREA_MM2 < 0.1


def test_area_scales_with_unit_counts():
    model = AreaModel()
    base = model.breakdown().total_mm2
    more_hfus = model.breakdown(num_hfu=8).total_mm2
    more_cfus = model.breakdown(cfus_per_hfu=8).total_mm2
    assert more_hfus > base
    assert more_cfus > base
    with pytest.raises(ValueError):
        model.breakdown(num_hfu=0)


def test_area_rows_include_total():
    rows = AreaModel().table1().as_rows()
    assert rows[-1][0] == "total"
    assert rows[-1][1] == pytest.approx(AreaModel().table1().total_mm2)
