"""Temporal filtering for alternate reference frames (Section 3.2).

The VCU's temporal filter aligns blocks from three frames and emits
low-temporal-noise filtered blocks, used to build VP9's non-displayable
synthetic alternate reference frames.  Noise is one of our content axes,
so the filter genuinely improves prediction on noisy titles.

The hardware applies the filter iteratively to cover more than 3 frames;
``temporal_filter`` exposes the same knob via ``iterations``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.codec.prediction import SearchPlanes, motion_search

#: Centre-weighted 3-tap kernel, matching the filter's emphasis on the
#: frame being denoised.
_WEIGHTS = (0.25, 0.5, 0.25)


def temporal_filter(
    frames: Sequence[np.ndarray],
    block_size: int = 16,
    search_range: int = 4,
    iterations: int = 1,
) -> np.ndarray:
    """Motion-aligned temporal filter of 3 consecutive planes.

    ``frames`` must hold exactly three planes (prev, centre, next); the
    result is a denoised version of the centre plane.  ``iterations`` > 1
    re-applies the filter against the previous result, the iterative
    quality/speed trade-off described in the paper.
    """
    if len(frames) != 3:
        raise ValueError(f"temporal filter takes exactly 3 frames, got {len(frames)}")
    prev_plane, centre, next_plane = (f.astype(np.float64) for f in frames)
    if not (prev_plane.shape == centre.shape == next_plane.shape):
        raise ValueError("frames must share one shape")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    result = centre
    for _ in range(iterations):
        result = _filter_once(prev_plane, result, next_plane, block_size, search_range)
    return result.astype(np.float32)


def _filter_once(
    prev_plane: np.ndarray,
    centre: np.ndarray,
    next_plane: np.ndarray,
    block_size: int,
    search_range: int,
) -> np.ndarray:
    height, width = centre.shape
    output = np.empty_like(centre)
    prev_planes = SearchPlanes(prev_plane)
    next_planes = SearchPlanes(next_plane)
    for y in range(0, height, block_size):
        for x in range(0, width, block_size):
            size_y = min(block_size, height - y)
            size_x = min(block_size, width - x)
            if size_y != size_x:
                # Ragged edge: fall back to a co-located average.
                block = centre[y : y + size_y, x : x + size_x]
                aligned = [
                    prev_plane[y : y + size_y, x : x + size_x],
                    block,
                    next_plane[y : y + size_y, x : x + size_x],
                ]
            else:
                block = centre[y : y + size_y, x : x + size_x]
                aligned = [
                    _aligned_block(block, prev_planes, y, x, size_y, search_range),
                    block,
                    _aligned_block(block, next_planes, y, x, size_y, search_range),
                ]
            output[y : y + size_y, x : x + size_x] = sum(
                w * a for w, a in zip(_WEIGHTS, aligned)
            )
    return output


def _aligned_block(
    block: np.ndarray,
    neighbour: SearchPlanes,
    y: int,
    x: int,
    size: int,
    search_range: int,
) -> np.ndarray:
    _, prediction, _ = motion_search(
        block, neighbour.reference, y, x, size, search_range=search_range,
        half_pel=False, planes=neighbour,
    )
    return prediction


def build_altref(recent_recons: Sequence[np.ndarray], iterations: int = 1) -> np.ndarray:
    """Build a synthetic alternate reference from the last 3 reconstructions."""
    if len(recent_recons) < 3:
        raise ValueError("altref needs at least 3 reconstructed frames")
    return temporal_filter(list(recent_recons[-3:]), iterations=iterations)
