"""Integration tests for the encoder, decoder, and their round trip."""

import numpy as np
import pytest

from repro.codec.decoder import decode_chunk
from repro.codec.encoder import Encoder, encode_video
from repro.codec.profiles import ALL_PROFILES, LIBVPX, LIBX264, VCU_H264, VCU_VP9, profile
from repro.codec.temporal_filter import build_altref, temporal_filter
from repro.video.content import ContentSpec, SyntheticVideo
from repro.video.frame import Frame, Resolution


class TestEncoderBasics:
    def test_first_frame_is_keyframe(self, tiny_video):
        encoder = Encoder(LIBX264)
        result = encoder.encode_frame(tiny_video.frames[0], qp=32)
        assert result.frame_type == "key"
        assert result.inter_blocks == 0

    def test_inter_frames_follow(self, tiny_video):
        encoder = Encoder(LIBX264)
        encoder.encode_frame(tiny_video.frames[0], qp=32)
        result = encoder.encode_frame(tiny_video.frames[1], qp=32)
        assert result.frame_type == "inter"
        assert result.inter_blocks > 0

    def test_keyframe_interval(self, tiny_video):
        encoder = Encoder(LIBX264, keyframe_interval=2)
        types = [encoder.encode_frame(f, qp=32).frame_type for f in tiny_video.frames[:4]]
        assert types == ["key", "inter", "key", "inter"]

    def test_inter_frames_cheaper_than_key(self, static_video):
        chunk = encode_video(static_video, LIBX264, qp=32)
        key = chunk.frames[0].bits
        inter = np.mean([f.bits for f in chunk.frames[1:]])
        assert inter < key

    def test_bits_positive(self, tiny_video):
        chunk = encode_video(tiny_video, LIBX264, qp=32)
        assert all(f.bits > 0 for f in chunk.frames)

    def test_reset_clears_state(self, tiny_video):
        encoder = Encoder(LIBX264)
        encoder.encode_frame(tiny_video.frames[0], qp=32)
        encoder.reset()
        result = encoder.encode_frame(tiny_video.frames[1], qp=32)
        assert result.frame_type == "key"
        assert result.index == 0

    def test_bad_keyframe_interval(self):
        with pytest.raises(ValueError):
            Encoder(LIBX264, keyframe_interval=0)

    @pytest.mark.parametrize("fast", [True, False])
    def test_frame_shape_change_rejected(self, fast):
        nominal = Resolution(pixels=96 * 64, width=96, height=64, name="shape")
        encoder = Encoder(LIBX264, fast=fast)
        encoder.encode_frame(Frame(np.full((64, 96), 128.0), nominal, 0), qp=32)
        with pytest.raises(ValueError, match="shape"):
            encoder.encode_frame(Frame(np.full((48, 80), 128.0), nominal, 1), qp=32)
        # A keyframe after reset() may start a new shape.
        encoder.reset()
        assert encoder.encode_frame(
            Frame(np.full((48, 80), 128.0), nominal, 0), qp=32
        ).frame_type == "key"


class TestRDBehaviour:
    def test_lower_qp_higher_quality_more_bits(self, tiny_video):
        low = encode_video(tiny_video, LIBX264, qp=16)
        high = encode_video(tiny_video, LIBX264, qp=44)
        assert low.psnr > high.psnr
        assert low.total_bits > high.total_bits

    def test_static_content_cheaper_than_noisy(self, static_video, noisy_video):
        easy = encode_video(static_video, LIBX264, qp=32)
        hard = encode_video(noisy_video, LIBX264, qp=32)
        assert easy.bits_per_pixel < hard.bits_per_pixel

    def test_bitrate_scales_with_nominal_resolution(self, tiny_video):
        chunk = encode_video(tiny_video, LIBX264, qp=32)
        expected_scale = tiny_video.nominal.pixels / tiny_video.frames[0].proxy_pixels
        assert chunk.total_bits == pytest.approx(chunk.total_bits_proxy * expected_scale)

    def test_temporal_filter_helps_noisy_content(self, noisy_video):
        with_altref = encode_video(noisy_video, LIBVPX, qp=32)
        import dataclasses
        no_altref = dataclasses.replace(LIBVPX, temporal_filter=False)
        without = encode_video(noisy_video, no_altref, qp=32)
        # The altref reference should not hurt; typically it reduces bits.
        assert with_altref.total_bits <= without.total_bits * 1.05


class TestRoundTrip:
    @pytest.mark.parametrize("profile_name", [p.name for p in ALL_PROFILES])
    def test_decoder_reproduces_encoder_recon(self, tiny_video, profile_name):
        prof = profile(profile_name)
        chunk = encode_video(tiny_video, prof, qp=30)
        planes = decode_chunk(chunk, prof)
        for plane, frame in zip(planes, chunk.frames):
            np.testing.assert_array_equal(plane, frame.recon)

    def test_round_trip_with_keyframes_mid_stream(self, tiny_video):
        chunk = encode_video(tiny_video, LIBVPX, qp=30, keyframe_interval=2)
        planes = decode_chunk(chunk, LIBVPX)
        for plane, frame in zip(planes, chunk.frames):
            np.testing.assert_array_equal(plane, frame.recon)


class TestProfiles:
    def test_profile_lookup(self):
        assert profile("libx264") is LIBX264
        with pytest.raises(KeyError):
            profile("libx265")

    def test_vcu_profiles_lack_trellis(self):
        assert VCU_H264.trellis_discount == 1.0
        assert VCU_VP9.trellis_discount == 1.0
        assert LIBX264.trellis_discount < 1.0

    def test_vp9_profiles_have_temporal_filter(self):
        assert VCU_VP9.temporal_filter and LIBVPX.temporal_filter
        assert not VCU_H264.temporal_filter and not LIBX264.temporal_filter

    def test_rate_control_efficiency_copy(self):
        tuned = VCU_VP9.with_rate_control_efficiency(0.9)
        assert tuned.rate_control_efficiency == 0.9
        assert VCU_VP9.rate_control_efficiency == 1.0
        assert tuned.bit_scale < VCU_VP9.bit_scale

    def test_invalid_profile_parameters_rejected(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(LIBX264, codec="h265")
        with pytest.raises(ValueError):
            dataclasses.replace(LIBX264, block_size=12)
        with pytest.raises(ValueError):
            dataclasses.replace(LIBX264, reference_frames=0)


class TestTemporalFilter:
    def test_reduces_temporal_noise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(50, 200, (24, 24))
        frames = [base + rng.normal(0, 5, base.shape) for _ in range(3)]
        filtered = temporal_filter(frames, block_size=8, search_range=2)
        noise_before = np.abs(frames[1] - base).mean()
        noise_after = np.abs(filtered - base).mean()
        assert noise_after < noise_before

    def test_requires_three_frames(self):
        with pytest.raises(ValueError):
            temporal_filter([np.zeros((8, 8))] * 2)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            temporal_filter([np.zeros((8, 8))] * 3, iterations=0)

    def test_build_altref_needs_history(self):
        with pytest.raises(ValueError):
            build_altref([np.zeros((8, 8))] * 2)
