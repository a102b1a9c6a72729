"""Resolutions, frames, and raw video sequences.

The standard 16:9 ladder from the paper (footnote 1): 144p up to 4320p (8K).
Frames carry a luma plane only -- chroma adds pixel volume but no new
behaviour for rate-distortion or throughput modelling, and the paper's
Mpix/s metric counts luma samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class Resolution:
    """A video resolution, ordered by pixel count."""

    pixels: int
    width: int
    height: int
    name: str

    @property
    def megapixels(self) -> float:
        return self.pixels / 1e6

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def _make(width: int, height: int, name: str) -> Resolution:
    return Resolution(pixels=width * height, width=width, height=height, name=name)


# The standard group of 16:9 resolutions (paper Section 2.1, footnote 1).
RESOLUTIONS: Dict[str, Resolution] = {
    r.name: r
    for r in (
        _make(256, 144, "144p"),
        _make(426, 240, "240p"),
        _make(640, 360, "360p"),
        _make(854, 480, "480p"),
        _make(1280, 720, "720p"),
        _make(1920, 1080, "1080p"),
        _make(2560, 1440, "1440p"),
        _make(3840, 2160, "2160p"),
        _make(7680, 4320, "4320p"),
    )
}

#: Full ladder ordered from smallest to largest.
LADDER: List[Resolution] = sorted(RESOLUTIONS.values())


def resolution(name: str) -> Resolution:
    """Look up a resolution by its short name (e.g. ``"1080p"``)."""
    try:
        return RESOLUTIONS[name]
    except KeyError:
        raise KeyError(f"unknown resolution {name!r}; known: {sorted(RESOLUTIONS)}") from None


def output_ladder(source: Resolution) -> List[Resolution]:
    """The MOT output set for a source: every ladder rung at or below it.

    For a 1080p input this is [1080p, 720p, 480p, 360p, 240p, 144p]
    (descending), matching Figure 2b and Section 3.1.
    """
    rungs = [r for r in LADDER if r.pixels <= source.pixels]
    return sorted(rungs, reverse=True)


@dataclass
class Frame:
    """A single raw luma frame.

    ``data`` may be a *proxy* (downscaled) plane for functional-codec speed;
    ``nominal`` records the resolution the frame logically represents so
    throughput and bitrate accounting use the true pixel counts.
    """

    data: np.ndarray
    nominal: Resolution
    index: int = 0

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"frame data must be 2-D, got shape {self.data.shape}")
        if self.data.dtype != np.float32:
            self.data = self.data.astype(np.float32)

    @property
    def proxy_shape(self) -> tuple:
        return self.data.shape

    @property
    def proxy_pixels(self) -> int:
        return int(self.data.size)

    def copy(self) -> "Frame":
        return Frame(self.data.copy(), self.nominal, self.index)


@dataclass
class RawVideo:
    """A decoded frame sequence plus its playback metadata."""

    frames: List[Frame]
    nominal: Resolution
    fps: float
    name: str = ""

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a video needs at least one frame")
        if self.fps <= 0:
            raise ValueError("fps must be positive")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def duration_seconds(self) -> float:
        return len(self.frames) / self.fps

    @property
    def nominal_pixels(self) -> int:
        """Total luma samples at the nominal resolution (for Mpix metrics)."""
        return self.nominal.pixels * len(self.frames)

    def scaled_to(self, target: Resolution) -> "RawVideo":
        """Downscale to a lower ladder rung (box filter on the proxy plane).

        Upscaling is rejected: the platform never upscales on the server
        side (clients upscale on playback, Section 2.1).
        """
        if target.pixels > self.nominal.pixels:
            raise ValueError(f"refusing to upscale {self.nominal.name} -> {target.name}")
        if target.pixels == self.nominal.pixels:
            return self
        scale = max(1, round((self.nominal.pixels / target.pixels) ** 0.5))
        scaled = [
            Frame(_box_downscale(f.data, scale), target, f.index) for f in self.frames
        ]
        return RawVideo(scaled, target, self.fps, name=f"{self.name}@{target.name}")


def _box_downscale(plane: np.ndarray, factor: int) -> np.ndarray:
    """Integer-factor box downscale, cropping any ragged edge."""
    if factor <= 1:
        return plane.copy()
    height = (plane.shape[0] // factor) * factor
    width = (plane.shape[1] // factor) * factor
    if height < factor or width < factor:
        # Too small to shrink further; return as-is rather than emit 0-size.
        return plane.copy()
    cropped = plane[:height, :width]
    view = cropped.reshape(height // factor, factor, width // factor, factor)
    return view.mean(axis=(1, 3)).astype(np.float32)


def psnr(reference: np.ndarray, test: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio between two planes, in dB."""
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch {reference.shape} vs {test.shape}")
    mse = float(np.mean((reference.astype(np.float64) - test.astype(np.float64)) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


class SequencePsnr:
    """:func:`sequence_psnr` accumulated one frame at a time, so that a
    caller can drop each decoded frame as soon as it is scored."""

    def __init__(self) -> None:
        self.total_se = 0.0
        self.total_n = 0

    def add(self, reference: Frame, test: np.ndarray) -> None:
        diff = reference.data.astype(np.float64) - test.astype(np.float64)
        self.total_se += float(np.sum(diff * diff))
        self.total_n += diff.size

    def psnr(self) -> float:
        mse = self.total_se / self.total_n
        if mse == 0:
            return float("inf")
        return 10.0 * np.log10(255.0 * 255.0 / mse)


def sequence_psnr(reference: Sequence[Frame], test: Sequence[Frame]) -> float:
    """Mean-MSE PSNR across a frame sequence (the conventional definition)."""
    if len(reference) != len(test):
        raise ValueError("sequences differ in length")
    total = SequencePsnr()
    for ref, out in zip(reference, test):
        total.add(ref, out.data)
    return total.psnr()
