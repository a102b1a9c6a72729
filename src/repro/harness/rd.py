"""Rate-distortion sweep harness (drives Figure 7 and Figure 10).

Encodes vbench titles across a QP ladder for each encoder profile and
collects operational RD curves; BD-rates are then computed per title and
averaged across the suite, exactly as the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.codec.encoder import encode_ladder
from repro.codec.profiles import ALL_PROFILES, EncoderProfile
from repro.metrics.quality import RDPoint, bd_rate
from repro.video.content import SyntheticVideo
from repro.video.frame import RawVideo
from repro.video.vbench import VBENCH_SUITE, VbenchVideo

#: QP ladder spanning the useful quality range (RD curves need >= 4 points).
DEFAULT_QPS: Sequence[float] = (20, 26, 32, 38, 44)


def rd_curve(
    profile: EncoderProfile,
    title: VbenchVideo,
    frame_count: int = 8,
    qps: Sequence[float] = DEFAULT_QPS,
    proxy_height: int = 72,
    seed: int = 2,
) -> List[RDPoint]:
    """One encoder's operational RD curve for one title."""
    return video_rd_curve(
        synthesize(title, frame_count, proxy_height, seed), profile, qps
    )


def synthesize(
    title: VbenchVideo, frame_count: int, proxy_height: int, seed: int
) -> RawVideo:
    """The proxy clip every RD curve of ``title`` encodes."""
    return SyntheticVideo(title.spec, seed=seed, proxy_height=proxy_height).video(
        frame_count
    )


def video_rd_curve(
    video: RawVideo, profile: EncoderProfile, qps: Sequence[float] = DEFAULT_QPS
) -> List[RDPoint]:
    """One encoder's RD curve for one clip: the QP ladder as one stream group."""
    return [
        RDPoint(bitrate=bitrate, psnr=psnr)
        for bitrate, psnr in encode_ladder(video, profile, qps)
    ]


def suite_rd_curves(
    profiles: Iterable[EncoderProfile] = tuple(ALL_PROFILES),
    titles: Iterable[VbenchVideo] = tuple(VBENCH_SUITE),
    frame_count: int = 8,
    qps: Sequence[float] = DEFAULT_QPS,
    proxy_height: int = 72,
    seed: int = 2,
) -> Dict[str, Dict[str, List[RDPoint]]]:
    """RD curves for every (title, profile): ``curves[title][profile]``."""
    curves: Dict[str, Dict[str, List[RDPoint]]] = {}
    for title in titles:
        video = synthesize(title, frame_count, proxy_height, seed)
        curves[title.name] = {
            profile.name: video_rd_curve(video, profile, qps) for profile in profiles
        }
    return curves


@dataclass(frozen=True)
class SuiteBDRates:
    """Suite-average BD-rates for the paper's three comparisons."""

    vcu_vp9_vs_libx264: float  # paper: ~-30%
    vcu_h264_vs_libx264: float  # paper: ~+11.5%
    vcu_vp9_vs_libvpx: float  # paper: ~+18%
    libvpx_vs_libx264: float  # implied by the above: ~-41%
    per_title: Dict[str, Dict[str, float]] = None


def suite_bd_rates(
    curves: Dict[str, Dict[str, List[RDPoint]]]
) -> SuiteBDRates:
    """Average the per-title BD-rates across the suite."""
    comparisons = {
        "vcu_vp9_vs_libx264": ("libx264", "vcu-vp9"),
        "vcu_h264_vs_libx264": ("libx264", "vcu-h264"),
        "vcu_vp9_vs_libvpx": ("libvpx", "vcu-vp9"),
        "libvpx_vs_libx264": ("libx264", "libvpx"),
    }
    per_title: Dict[str, Dict[str, float]] = {}
    sums = {name: [] for name in comparisons}
    for title, by_profile in curves.items():
        per_title[title] = {}
        for name, (ref, test) in comparisons.items():
            if ref not in by_profile or test not in by_profile:
                continue
            value = bd_rate(by_profile[ref], by_profile[test])
            per_title[title][name] = value
            sums[name].append(value)
    means = {
        name: float(np.mean(values)) if values else float("nan")
        for name, values in sums.items()
    }
    return SuiteBDRates(per_title=per_title, **means)
