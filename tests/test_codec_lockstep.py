"""Lockstep differential suite: a stream group equals one oracle per stream.

:class:`repro.codec.encoder.StreamGroup` advances several encodes of one
source -- one QP each -- block position by block position, batching every
stage across the streams.  Streams share nothing but the source, so each
one must come out bit-identical to encoding it alone with the scalar
per-block oracle, ``Encoder(fast=False)``: the same records and levels,
reconstruction, bits, SAD and PSNR, element for element.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.encoder import Encoder, StreamGroup, encode_ladder, encode_video
from repro.codec.profiles import PROFILES_BY_NAME
from repro.video.frame import Frame, RawVideo, Resolution, sequence_psnr

#: QPs on a half-step grid over the whole legal range (rate control
#: produces fractional QPs, the RD sweep integer ones).
_QPS = st.integers(0, 102).map(lambda half_steps: half_steps / 2)


def _clip(height, width, count, seed):
    """A smooth textured plane drifting a few pixels a frame, plus noise."""
    rng = np.random.default_rng(seed)
    margin = 3 * count
    base = rng.uniform(0, 255, (height + margin, width + margin))
    for _ in range(2):
        base = (
            base
            + np.roll(base, 1, 0) + np.roll(base, 1, 1)
            + np.roll(base, -1, 0) + np.roll(base, -1, 1)
        ) / 5.0
    dy, dx = rng.integers(-2, 3, size=2)
    frames = []
    for index in range(count):
        y = margin // 2 + dy * index // 2
        x = margin // 2 + dx * index // 2
        data = base[y : y + height, x : x + width]
        data = data + rng.normal(0.0, 2.0, (height, width))
        frames.append(np.clip(data, 0, 255).astype(np.float32))
    return frames


@st.composite
def _cases(draw):
    streams = draw(st.integers(1, 6))
    frames = draw(st.integers(5, 6))
    ladder = draw(st.lists(_QPS, min_size=streams, max_size=streams))
    # Each frame moves every stream's QP by its own small step, as rate
    # control does, keeping duplicates in the ladder possible.
    steps = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=streams, max_size=streams),
        min_size=frames, max_size=frames,
    ))
    qps = [
        [min(51.0, max(0.0, qp + step)) for qp, step in zip(ladder, frame_steps)]
        for frame_steps in steps
    ]
    return {
        "name": draw(st.sampled_from(sorted(PROFILES_BY_NAME))),
        "height": draw(st.integers(20, 70)),
        "width": draw(st.integers(20, 70)),
        "keyframe_interval": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2**16)),
        "qps": qps,
    }


def _assert_records_equal(group_records, oracle_records):
    assert len(group_records) == len(oracle_records)
    for a, b in zip(group_records, oracle_records):
        assert (a.y, a.x, a.size, a.mode) == (b.y, b.x, b.size, b.mode)
        assert (a.intra_mode, a.ref_index, a.mv, a.dc) == (
            b.intra_mode, b.ref_index, b.mv, b.dc
        )
        if a.mode == "split":
            _assert_records_equal(a.split, b.split)
        else:
            assert a.levels.dtype == b.levels.dtype
            assert np.array_equal(a.levels, b.levels)


@settings(max_examples=12, deadline=None)
@given(case=_cases())
def test_group_equals_one_oracle_per_stream(case):
    profile = PROFILES_BY_NAME[case["name"]]
    height, width = case["height"], case["width"]
    nominal = Resolution(pixels=height * width, width=width, height=height, name="fuzz")
    frames = [
        Frame(data, nominal, index)
        for index, data in enumerate(
            _clip(height, width, len(case["qps"]), case["seed"])
        )
    ]
    streams = len(case["qps"][0])
    group = StreamGroup(profile, streams, keyframe_interval=case["keyframe_interval"])
    oracles = [
        Encoder(profile, keyframe_interval=case["keyframe_interval"], fast=False)
        for _ in range(streams)
    ]
    recons = [[] for _ in range(streams)]
    for frame, qps in zip(frames, case["qps"]):
        for stream, (got, oracle, qp) in enumerate(
            zip(group.encode_frame(frame, qps), oracles, qps)
        ):
            want = oracle.encode_frame(frame, qp)
            assert (got.index, got.frame_type, got.qp) == (
                want.index, want.frame_type, want.qp
            )
            assert got.bits == want.bits
            assert got.sad == want.sad
            assert (got.intra_blocks, got.inter_blocks) == (
                want.intra_blocks, want.inter_blocks
            )
            assert np.array_equal(got.recon, want.recon)
            _assert_records_equal(got.records, want.records)
            recons[stream].append((got.recon, want.recon))
    for pairs in recons:
        got_psnr, want_psnr = (
            sequence_psnr(
                frames,
                [Frame(pair[side].astype(np.float32), nominal, i)
                 for i, pair in enumerate(pairs)],
            )
            for side in (0, 1)
        )
        assert got_psnr == want_psnr


def test_ladder_equals_one_chunk_per_qp():
    """``encode_ladder`` reports each QP's ``encode_video`` bitrate and
    PSNR exactly, though it never holds a chunk."""
    height, width = 37, 51
    nominal = Resolution(pixels=4 * height * width, width=2 * width,
                         height=2 * height, name="ladder")
    video = RawVideo(
        frames=[Frame(data, nominal, i)
                for i, data in enumerate(_clip(height, width, 5, seed=3))],
        nominal=nominal,
        fps=30.0,
    )
    qps = (20, 26, 26, 44)
    for name in ("libvpx", "nvenc-h264"):
        profile = PROFILES_BY_NAME[name]
        ladder = encode_ladder(video, profile, qps, keyframe_interval=3)
        for qp, (bitrate, psnr) in zip(qps, ladder):
            chunk = encode_video(video, profile, qp, keyframe_interval=3)
            assert bitrate == chunk.bitrate_bps
            assert psnr == chunk.psnr


def test_group_rejects_wrong_qp_count_and_shape_change():
    nominal = Resolution(pixels=24 * 24, width=24, height=24, name="bad")
    group = StreamGroup(PROFILES_BY_NAME["libx264"], 2)
    frame = Frame(np.full((24, 24), 100.0), nominal, 0)
    with pytest.raises(ValueError, match="QPs"):
        group.encode_frame(frame, [30.0])
    group.encode_frame(frame, [30.0, 40.0])
    with pytest.raises(ValueError, match="shape"):
        group.encode_frame(Frame(np.full((24, 32), 100.0), nominal, 1), [30.0, 40.0])
