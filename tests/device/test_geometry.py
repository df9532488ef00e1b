"""Tests for NAND geometry and timing derivations."""

import pytest

from repro.device import KiB, MiB, NandGeometry, NandTiming
from repro.device.geometry import CHANNEL_BW


def test_default_geometry_capacity():
    g = NandGeometry()
    assert g.total_blocks == 4 * 8 * 512
    assert g.capacity_bytes == g.total_pages * g.page_size
    # Cosmos+-like: tens of GB at these defaults; sanity band only.
    assert g.capacity_bytes > 1 * 1024**3


def test_derived_bandwidths_positive_and_read_faster():
    g = NandGeometry()
    assert g.peak_program_bw > 0
    assert g.peak_read_bw > 0
    # tR << tPROG, so read bandwidth must exceed program bandwidth.
    assert g.peak_read_bw >= g.peak_program_bw


def test_program_bw_scales_with_channels():
    g1 = NandGeometry(channels=1)
    g4 = NandGeometry(channels=4)
    assert g4.peak_program_bw == pytest.approx(4 * g1.peak_program_bw)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        NandGeometry(channels=0)
    with pytest.raises(ValueError):
        NandGeometry(page_size=-1)
    with pytest.raises(ValueError):
        NandTiming(t_read=0)


def test_timing_defaults_sane():
    t = NandTiming()
    assert t.t_read < t.t_program < t.t_erase
    assert CHANNEL_BW >= 100 * MiB

