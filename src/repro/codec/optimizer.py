"""Per-video rate-quality optimization (Section 2.1's "advanced encoding").

Advanced encoding systems run multiple complete passes with additional
analysis -- rate-quality curves for individual videos at multiple
operating points -- to pick better quality/compression trade-offs at
additional computational cost (the Netflix dynamic-optimizer style).

:func:`rate_quality_curve` measures a real per-video curve with the
functional codec; :func:`convex_hull_points` keeps only the operating
points on the RD convex hull (anything below it is strictly wasteful);
:func:`pick_operating_point` then selects the cheapest point meeting a
quality floor, or the best quality under a bitrate cap -- the decision
the platform makes per popularity bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.codec.encoder import encode_ladder
from repro.codec.profiles import EncoderProfile
from repro.metrics.quality import RDPoint
from repro.video.frame import RawVideo


@dataclass(frozen=True)
class OperatingPoint:
    """One encode option: its QP and the measured rate/quality."""

    qp: float
    rd: RDPoint

    @property
    def bitrate(self) -> float:
        return self.rd.bitrate

    @property
    def psnr(self) -> float:
        return self.rd.psnr


def rate_quality_curve(
    video: RawVideo,
    profile: EncoderProfile,
    qps: Sequence[float] = (18, 24, 30, 36, 42, 48),
) -> List[OperatingPoint]:
    """Measure the per-video rate-quality curve by actually encoding
    (the QP ladder as one stream group)."""
    if not qps:
        raise ValueError("need at least one QP")
    ladder = sorted(qps)
    return [
        OperatingPoint(qp=qp, rd=RDPoint(bitrate=bitrate, psnr=psnr))
        for qp, (bitrate, psnr) in zip(ladder, encode_ladder(video, profile, ladder))
    ]


def convex_hull_points(points: Sequence[OperatingPoint]) -> List[OperatingPoint]:
    """The upper-left RD convex hull, sorted by increasing bitrate.

    A point is kept only if no mixture of other points dominates it
    (higher PSNR at lower-or-equal bitrate).
    """
    ordered = sorted(points, key=lambda p: (p.bitrate, -p.psnr))
    # Drop dominated points (lower PSNR at higher bitrate).
    pareto: List[OperatingPoint] = []
    best_psnr = float("-inf")
    for point in ordered:
        if point.psnr > best_psnr:
            pareto.append(point)
            best_psnr = point.psnr
    if len(pareto) < 3:
        return pareto
    # Upper concave hull over (bitrate, psnr): slopes must decrease.
    hull: List[OperatingPoint] = []
    for point in pareto:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            slope_ab = (b.psnr - a.psnr) / (b.bitrate - a.bitrate)
            slope_ac = (point.psnr - a.psnr) / (point.bitrate - a.bitrate)
            if slope_ac >= slope_ab:
                hull.pop()
            else:
                break
        hull.append(point)
    return hull


def pick_operating_point(
    points: Sequence[OperatingPoint],
    min_psnr: Optional[float] = None,
    max_bitrate: Optional[float] = None,
) -> Optional[OperatingPoint]:
    """Choose the operating point the platform would serve.

    With ``min_psnr``: the cheapest hull point meeting the quality floor
    (the long-tail treatment -- minimize cost while staying playable).
    With ``max_bitrate``: the best-quality hull point under the cap (the
    popular-video treatment -- spend bits to save egress elsewhere).
    With both, both constraints apply.  None when nothing qualifies.
    """
    if min_psnr is None and max_bitrate is None:
        raise ValueError("specify min_psnr and/or max_bitrate")
    hull = convex_hull_points(points)
    candidates = [
        p for p in hull
        if (min_psnr is None or p.psnr >= min_psnr)
        and (max_bitrate is None or p.bitrate <= max_bitrate)
    ]
    if not candidates:
        return None
    if min_psnr is not None:
        return min(candidates, key=lambda p: p.bitrate)
    return max(candidates, key=lambda p: p.psnr)
