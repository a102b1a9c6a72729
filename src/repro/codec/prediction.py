"""Intra prediction and motion-compensated inter prediction.

Intra modes follow the classic set (DC / vertical / horizontal / TM-style
gradient) predicting from already-reconstructed neighbours.  Inter
prediction runs a diamond motion search per reference frame, optionally
refined to half-pel with bilinear interpolation -- the software profiles'
bounded search versus the VCU's wider exhaustive window is expressed
through the profile's ``search_range``.

Hot-path structure: the ``group_*`` functions score one block position
for a whole group of encoder streams at once (the lockstep encoder in
:mod:`repro.codec.encoder` advances several QPs of one source together).
:func:`group_best_intra` builds every stream's intra candidates from an
``(N, H, W)`` reconstruction stack and scores them as one batched SAD.
:func:`group_best_inter` runs one diamond walk per (stream, reference)
pair, for one block or several, in rounds.  Each walk replays the scalar
first-improvement order exactly from scored *rings* -- a centre and the
12 positions a walk may visit from it -- asking for a new ring only when
it moves, and each round scores the rings of every waiting walk as one
gather and one reduction, so the group pays one numpy pass per round
instead of one per walk and candidate.  Half-pel refinement computes
each walk's 8 candidates from its ``(S+2)^2`` integer patch with
:func:`sample_block`'s bilinear taps.

:func:`best_intra`, :func:`motion_search` and :func:`best_inter` are the
one-stream cases of the same code.  All of it is bit-exact against the
pre-batching scalar walks, preserved here as ``_best_intra_reference`` /
``_motion_search_reference`` / ``_best_inter_reference`` for the parity
suite and the perf-regression harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

INTRA_MODES = ("dc", "vertical", "horizontal", "tm")

#: Which streams of a recon stack a group call scores: all of them
#: (``slice(None)``, no other slice) or a list of stream indices.
Streams = Union[slice, Sequence[int]]


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in (half-)pel units on the proxy plane."""

    dx: float
    dy: float

    def __iter__(self):
        return iter((self.dx, self.dy))


def intra_predict(
    recon: np.ndarray, y: int, x: int, size: int, mode: str
) -> np.ndarray:
    """Predict a block from reconstructed top/left neighbours.

    Out-of-frame neighbours fall back to the mid-grey 128 convention.
    """
    top: Optional[np.ndarray] = recon[y - 1, x : x + size] if y > 0 else None
    left: Optional[np.ndarray] = recon[y : y + size, x - 1] if x > 0 else None

    if mode == "dc":
        values = []
        if top is not None:
            values.append(top)
        if left is not None:
            values.append(left)
        mean = float(np.mean(np.concatenate(values))) if values else 128.0
        return np.full((size, size), mean, dtype=np.float64)
    if mode == "vertical":
        row = top if top is not None else np.full(size, 128.0)
        return np.tile(row.astype(np.float64), (size, 1))
    if mode == "horizontal":
        col = left if left is not None else np.full(size, 128.0)
        return np.tile(col.astype(np.float64).reshape(-1, 1), (1, size))
    if mode == "tm":
        row = top if top is not None else np.full(size, 128.0)
        col = left if left is not None else np.full(size, 128.0)
        corner = float(recon[y - 1, x - 1]) if (y > 0 and x > 0) else 128.0
        prediction = (
            row.astype(np.float64).reshape(1, -1)
            + col.astype(np.float64).reshape(-1, 1)
            - corner
        )
        return np.clip(prediction, 0.0, 255.0)
    raise ValueError(f"unknown intra mode {mode!r}")


def _best_intra_reference(
    source: np.ndarray,
    recon: np.ndarray,
    y: int,
    x: int,
    size: int,
    candidate_rounds: int,
) -> Tuple[str, np.ndarray, float]:
    """Pre-batching scalar mode loop (parity/benchmark reference)."""
    modes = INTRA_MODES[: 3 + max(0, candidate_rounds - 1)]
    best: Tuple[str, np.ndarray, float] = ("dc", None, float("inf"))  # type: ignore
    for mode in modes:
        prediction = intra_predict(recon, y, x, size, mode)
        sad = float(np.sum(np.abs(source - prediction)))
        if sad < best[2]:
            best = (mode, prediction, sad)
    return best


def group_best_intra(
    source: np.ndarray,
    recons: np.ndarray,
    streams: Streams,
    y: int,
    x: int,
    size: int,
    candidate_rounds: int,
) -> Tuple[List[str], np.ndarray, List[float]]:
    """Each stream's lowest-SAD intra mode for one block position.

    ``recons`` is the ``(N, H, W)`` reconstruction stack and ``streams``
    selects the streams to score.  Returns ``(modes, predictions, sads)``
    with one entry per selected stream; ``predictions`` is an
    ``(n, size, size)`` array.

    ``candidate_rounds`` bounds how many modes are examined, modelling the
    VCU pipeline's fixed candidate budget (round 1: dc+vertical+horizontal;
    round 2 adds tm).  Every candidate row holds exactly the array
    :func:`intra_predict` builds for that stream and mode (broadcast
    assignment == tile, ``add.reduce / n`` is what ``np.mean`` computes),
    and the first minimum wins, as in the scalar loop's keep-first-winner
    rule.
    """
    modes = INTRA_MODES[: 3 + max(0, candidate_rounds - 1)]
    top = recons[streams, y - 1, x : x + size] if y > 0 else None
    left = recons[streams, y : y + size, x - 1] if x > 0 else None
    count = recons.shape[0] if isinstance(streams, slice) else len(streams)
    buf = np.empty((count, len(modes), size, size), dtype=np.float64)
    if top is not None and left is not None:
        neighbours = np.concatenate((top, left), axis=1)
        buf[:, 0] = (np.add.reduce(neighbours, axis=1) / neighbours.shape[1])[
            :, np.newaxis, np.newaxis
        ]
    elif top is not None or left is not None:
        edge = top if top is not None else left
        buf[:, 0] = (np.add.reduce(edge, axis=1) / size)[:, np.newaxis, np.newaxis]
    else:
        buf[:, 0] = 128.0
    buf[:, 1] = top[:, np.newaxis, :] if top is not None else 128.0
    buf[:, 2] = left[:, :, np.newaxis] if left is not None else 128.0
    if len(modes) > 3:
        row = top if top is not None else np.full((count, size), 128.0)
        col = left if left is not None else np.full((count, size), 128.0)
        if y > 0 and x > 0:
            corner = recons[streams, y - 1, x - 1][:, np.newaxis, np.newaxis]
        else:
            corner = 128.0
        (row[:, np.newaxis, :] + col[:, :, np.newaxis] - corner).clip(
            0.0, 255.0, out=buf[:, 3]
        )
    delta = buf - source
    np.abs(delta, out=delta)
    chosen: List[str] = []
    firsts: List[int] = []
    lowest: List[float] = []
    for sads in np.add.reduce(delta.reshape(count, len(modes), -1), axis=2).tolist():
        best_sad = min(sads)
        first = sads.index(best_sad)  # strict-< scan: the first minimum wins
        chosen.append(modes[first])
        firsts.append(first)
        lowest.append(best_sad)
    if firsts.count(firsts[0]) == count:
        return chosen, buf[:, firsts[0]], lowest
    return chosen, buf[np.arange(count), firsts], lowest


def best_intra(
    source: np.ndarray,
    recon: np.ndarray,
    y: int,
    x: int,
    size: int,
    candidate_rounds: int,
) -> Tuple[str, np.ndarray, float]:
    """Pick the intra mode with lowest SAD; returns (mode, prediction, sad).

    The one-stream case of :func:`group_best_intra`.
    """
    modes, predictions, sads = group_best_intra(
        source, recon[np.newaxis], slice(None), y, x, size, candidate_rounds
    )
    return modes[0], predictions[0], sads[0]


def _weights(fy, fx):
    """The four bilinear tap weights for fraction ``(fy, fx)``."""
    return (1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx


def _bilinear(a, b, c, d, weights):
    """The bilinear half-pel sample, term for term in one fixed order."""
    wa, wb, wc, wd = weights
    return a * wa + b * wb + c * wc + d * wd


def sample_block(
    reference: np.ndarray, y: float, x: float, size: int
) -> Optional[np.ndarray]:
    """Fetch a (possibly half-pel) block from a reference; None if outside.

    Integer positions return a *view* into the reference for speed; callers
    must not mutate the result.
    """
    if y < 0 or x < 0 or y + size > reference.shape[0] or x + size > reference.shape[1]:
        return None
    yi, xi = int(y), int(x)
    fy, fx = y - yi, x - xi
    if fy == 0 and fx == 0:
        return reference[yi : yi + size, xi : xi + size]
    if yi + size + 1 > reference.shape[0] or xi + size + 1 > reference.shape[1]:
        return None
    return _bilinear(
        reference[yi : yi + size, xi : xi + size],
        reference[yi : yi + size, xi + 1 : xi + size + 1],
        reference[yi + 1 : yi + size + 1, xi : xi + size],
        reference[yi + 1 : yi + size + 1, xi + 1 : xi + size + 1],
        _weights(fy, fx),
    )


class SearchPlanes:
    """Reference planes for motion search, shared by every block of a frame.

    Holds one plane or a ``(P, H, W)`` stack (the lockstep encoder stacks
    every stream's references), zero-padded by :data:`PAD` pixels so that
    a walk's whole ring of candidates around any in-frame centre, and the
    ``(S+2)^2`` half-pel patch around any in-frame block, lie inside the
    buffer.  Blocks are addressed by one flat offset (:meth:`offset`):
    ``windows(S)[offset(p, r, c)]`` is the ``(S, S)`` block at ``(r, c)``
    of plane ``p``, and a candidate ``dy`` rows and ``dx`` columns away
    is ``dy * stride + dx`` further on, so a round of candidates from many
    planes gathers with one integer index.  Padding pixels only ever feed
    candidates that are out of frame, whose SADs are never read.
    """

    PAD = 2

    __slots__ = (
        "reference", "height", "width", "stride", "plane_size", "ring", "_flat",
        "_windows",
    )

    def __init__(self, reference: np.ndarray):
        self.reference = reference
        stack = reference[np.newaxis] if reference.ndim == 2 else reference
        count, self.height, self.width = stack.shape
        pad = self.PAD
        padded = np.zeros((count, self.height + 2 * pad, self.width + 2 * pad))
        padded[:, pad:-pad, pad:-pad] = stack
        #: Elements per padded row, and per padded plane.
        self.stride = padded.shape[2]
        self.plane_size = padded.shape[1] * padded.shape[2]
        #: Flat offsets of a ring's positions from its centre.
        self.ring = _RING_DY * self.stride + _RING_DX
        self._flat = padded.reshape(-1)
        self._windows: Dict[int, np.ndarray] = {}

    def offset(self, plane: int, row: int, col: int) -> int:
        """Flat offset of the block at ``(row, col)`` of ``plane``."""
        return plane * self.plane_size + (row + self.PAD) * self.stride + col + self.PAD

    def windows(self, size: int) -> np.ndarray:
        """Read-only ``(size, size)`` windows, one per flat offset."""
        got = self._windows.get(size)
        if got is None:
            flat = self._flat
            got = as_strided(
                flat,
                shape=(flat.size - (size - 1) * (self.stride + 1), size, size),
                strides=(flat.itemsize, self.stride * flat.itemsize, flat.itemsize),
                writeable=False,
            )
            self._windows[size] = got
        return got

    def sample(self, y: float, x: float, size: int) -> Optional[np.ndarray]:
        """Bit-identical to ``sample_block(self.reference, y, x, size)`` for
        a single plane, read from the padded windows."""
        if y < 0 or x < 0 or y + size > self.height or x + size > self.width:
            return None
        yi, xi = int(y), int(x)
        fy, fx = y - yi, x - xi
        if fy == 0 and fx == 0:
            return self.windows(size)[self.offset(0, yi, xi)]
        if yi + size + 1 > self.height or xi + size + 1 > self.width:
            return None
        patch = self.windows(size + 1)[self.offset(0, yi, xi)]
        return _bilinear(
            patch[:-1, :-1], patch[:-1, 1:], patch[1:, :-1], patch[1:, 1:],
            _weights(fy, fx),
        )


_LARGE_DIAMOND = ((0, -2), (0, 2), (-2, 0), (2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
_SMALL_DIAMOND = ((0, -1), (0, 1), (-1, 0), (1, 0))
#: What one scored centre holds: its own SAD, then the SAD of every
#: position a walk may visit from it (``_LARGE_DIAMOND`` at ring indices
#: 1-8, ``_SMALL_DIAMOND`` at 9-12).
_RING = ((0, 0),) + _LARGE_DIAMOND + _SMALL_DIAMOND
_RING_DY = np.array([dy for dy, _ in _RING])
_RING_DX = np.array([dx for _, dx in _RING])
_HALF_PEL = (
    (-0.5, -0.5), (-0.5, 0.0), (-0.5, 0.5), (0.0, -0.5),
    (0.0, 0.5), (0.5, -0.5), (0.5, 0.0), (0.5, 0.5),
)
#: Per ``_HALF_PEL`` offset: which of the three half-pel planes of a
#: walk's patch it samples, and where its block starts in that
#: ``(S+1)^2`` plane.  A -0.5 offset floors to the previous integer with
#: fraction 0.5; the patch starts one row and column before the block.
_HP_TAPS = (
    (2, 0, 0), (1, 0, 1), (2, 0, 1), (0, 1, 0),
    (0, 1, 1), (2, 1, 0), (1, 1, 1), (2, 1, 1),
)
#: Tap weights of the three planes, (fy, fx) = (0, .5), (.5, 0), (.5, .5).
_HP_WEIGHTS = _weights(
    np.array([0.0, 0.5, 0.5]).reshape(1, 3, 1, 1),
    np.array([0.5, 0.0, 0.5]).reshape(1, 3, 1, 1),
)


@lru_cache(maxsize=None)
def _half_pel_taps(size: int) -> np.ndarray:
    """``(8, S, S)`` flat indices of the 8 half-pel candidates, in
    ``_HALF_PEL`` order, into one walk's three ``(S+1)^2`` planes laid end
    to end (frozen: shared by every caller)."""
    span = np.arange(size)
    plane = (size + 1) * (size + 1)
    taps = np.stack([
        plane * index + (row + span[:, np.newaxis]) * (size + 1) + col + span
        for index, row, col in _HP_TAPS
    ])
    taps.flags.writeable = False
    return taps

_INF = float("inf")

#: A walk's search window: (lo_cy, hi_cy, lo_cx, hi_cx), in-range and in-frame.
Bounds = Tuple[int, int, int, int]


def _sad(source: np.ndarray, candidate: Optional[np.ndarray]) -> float:
    if candidate is None:
        return float("inf")
    return float(np.abs(source - candidate).sum())


def _axis_bits(offsets: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Ring bits whose offset along one axis stays inside a window, keyed
    by the centre's room below and above it (capped at the ring's reach)."""
    return {
        (room_low, room_high): sum(
            1 << bit for bit, offset in enumerate(offsets)
            if bit and -room_low <= offset <= room_high
        )
        for room_low in range(3)
        for room_high in range(3)
    }


_Y_BITS = _axis_bits([dy for dy, _ in _RING])
_X_BITS = _axis_bits([dx for _, dx in _RING])
_LARGE_BITS = sum(1 << bit for bit in range(1, 1 + len(_LARGE_DIAMOND)))
_SMALL_BITS = sum(1 << bit for bit in range(1 + len(_LARGE_DIAMOND), len(_RING)))
#: Weights turning a ring's "beats the centre" flags into one int.
_RING_BITS = np.array([1 << bit for bit in range(1, len(_RING))])


def _inside(
    inside_bits: Dict[Tuple[int, int], int], bounds: Bounds, cy: int, cx: int
) -> int:
    """Bits of the ring positions around ``(cy, cx)`` inside the search
    window ``bounds``, cached in ``inside_bits`` for every walk sharing it."""
    bits = inside_bits.get((cy, cx))
    if bits is None:
        lo_cy, hi_cy, lo_cx, hi_cx = bounds
        bits = inside_bits[(cy, cx)] = (
            _Y_BITS[min(cy - lo_cy, 2), min(hi_cy - cy, 2)]
            & _X_BITS[min(cx - lo_cx, 2), min(hi_cx - cx, 2)]
        )
    return bits


def _diamond_walk(
    bounds: Bounds,
    inside_bits: Dict[Tuple[int, int], int],
    best_y: int,
    best_x: int,
    ring: List[float],
    beats: int,
) -> Generator[Tuple[int, int], Tuple[List[float], int], Tuple[int, int, float]]:
    """One integer-pel diamond walk, in the scalar reference's exact order.

    A scored ring is a ``(sads, beats)`` pair: the SADs of a centre and of
    every position a walk may visit from it, in ``_RING`` order, and a bit
    mask of the ring positions whose SAD is strictly below the centre's.
    The walk starts at ``(best_y, best_x)`` with that centre's scored
    ring (``beats`` already restricted to the window), yields each further
    centre whose ring it needs, is sent that ring back, and returns
    ``(best_y, best_x, best_sad)``.

    The walk only moves on strict improvement, and then the centre's SAD
    is the best so far, so the scalar walk's next move from a centre is
    the lowest set bit of ``beats`` among the in-window ring positions
    still to scan, and the walk never needs a ring twice.  Out-of-window
    candidates are skipped, as the scalar walk's infinite SAD never wins.
    """
    best_sad = ring[0]
    phase, after, improved = _LARGE_BITS, 1, False
    while True:
        ahead = (beats & phase) >> after << after
        if not ahead:
            if phase == _SMALL_BITS:
                break
            # End of a large-diamond pass: rescan it if the centre moved,
            # else go on to the small diamond.
            if not improved:
                phase = _SMALL_BITS
            after, improved = 1, False
            continue
        bit = (ahead & -ahead).bit_length() - 1
        dy, dx = _RING[bit]
        best_y += dy
        best_x += dx
        best_sad = ring[bit]
        after = bit + 1
        inside = _inside(inside_bits, bounds, best_y, best_x)
        if phase == _LARGE_BITS:
            improved = True
        elif not (inside & phase) >> after:
            break  # no small-diamond candidate left to score
        ring, beats = yield best_y, best_x
        beats &= inside
    return best_y, best_x, best_sad


class _Found:
    """What a group of walks found: every walk's SAD, with its motion
    vector and prediction block built only when asked for.  Dropped walks
    (see :func:`_search`) have an infinite SAD and no result."""

    __slots__ = (
        "sads", "_integer", "_slots", "_windows", "_centres", "_winners", "_half",
    )

    def __init__(self, sads, integer, slots, windows, centres, winners=None, half=None):
        self.sads: List[float] = sads
        self._integer = integer
        self._slots = slots
        self._windows = windows
        self._centres = centres
        self._winners = winners
        self._half = half

    def result(self, index: int) -> Tuple[MotionVector, np.ndarray, float]:
        """``(mv, prediction_block, sad)`` of walk ``index``."""
        best_y, best_x, _ = self._integer[index]
        slot = self._slots[index]
        winner = -1 if self._winners is None else self._winners[slot]
        if winner < 0:
            return (
                MotionVector(dx=float(best_x), dy=float(best_y)),
                self._windows[self._centres[slot]],
                self.sads[index],
            )
        dy, dx = _HALF_PEL[winner]
        plane, row, col = _HP_TAPS[winner]
        size = self._windows.shape[-1]
        return (
            MotionVector(dx=best_x + dx, dy=best_y + dy),
            self._half[slot, plane, row : row + size, col : col + size],
            self.sads[index],
        )


def _search(
    planes: SearchPlanes,
    sources: np.ndarray,
    positions: Sequence[Tuple[int, int]],
    size: int,
    search_range: int,
    half_pel: bool,
    searches: Sequence[Tuple[Sequence[int], int, MotionVector]],
    good_enough: float = -1.0,
) -> _Found:
    """Diamond walks (plus optional half-pel) for many blocks at once.

    ``sources`` is a ``(B, S, S)`` stack of source blocks at
    ``positions``.  Each search is ``(plane_ids, block, predicted_mv)``
    and walks each of ``plane_ids`` in turn (one stream's references, in
    the order :func:`best_inter` tries them); the walks of all searches
    are numbered in that order.  Once a walk's integer-pel SAD is within
    ``good_enough`` the later walks of its search are dropped: the
    half-pel SAD can only be lower, so :func:`best_inter`'s early exit
    never reads them.

    A candidate's SAD is a pure function of its position, so walks
    advance in rounds: each round gathers the rings every waiting walk
    asked for as one ``(k, 13, S, S)`` stack, reduced over its trailing
    axes (bit-identical to the per-candidate sums), and every walk then
    replays its first-improvement order until it needs another ring.
    """
    windows = planes.windows(size)
    stride = planes.stride
    ring = planes.ring
    height, width = planes.height, planes.width
    one_source = len(sources) == 1

    def score(
        centres: List[int], owners: List[int]
    ) -> List[Tuple[List[float], int]]:
        """The scored rings around block offsets ``centres``."""
        gathered = windows[np.add.outer(centres, ring)]  # (k, 13, S, S)
        if one_source:
            np.subtract(gathered, sources[0], out=gathered)
        else:
            np.subtract(gathered, sources[owners][:, np.newaxis], out=gathered)
        np.abs(gathered, out=gathered)
        sads = np.add.reduce(gathered.reshape(len(centres), len(_RING), -1), axis=2)
        return list(zip(
            sads.tolist(), (sads[:, 1:] < sads[:, :1]).dot(_RING_BITS).tolist()
        ))

    # Per block: its search window, its offset in plane 0, and the
    # in-window ring bits its walks share.
    per_block = [
        (
            (
                max(-search_range, -y), min(search_range, height - size - y),
                max(-search_range, -x), min(search_range, width - size - x),
            ),
            planes.offset(0, y, x),
            {},
        )
        for y, x in positions
    ]
    # First round: every walk's (0, 0) ring, and its predicted start's.
    plane_size = planes.plane_size
    walks: List[Tuple[int, int, int]] = []  # (origin, block, end of its search)
    starts: List[Optional[Tuple[int, int]]] = []
    centres: List[int] = []
    owners: List[int] = []
    for plane_ids, block, predicted in searches:
        bounds, base, _ = per_block[block]
        lo_cy, hi_cy, lo_cx, hi_cx = bounds
        py, px = round(predicted.dy), round(predicted.dx)
        start = (
            (py, px)
            if (py != 0 or px != 0) and lo_cy <= py <= hi_cy and lo_cx <= px <= hi_cx
            else None
        )
        end = len(walks) + len(plane_ids)
        for plane in plane_ids:
            origin = plane * plane_size + base
            walks.append((origin, block, end))
            starts.append(start)
            centres.append(origin)
            owners.append(block)
            if start is not None:
                centres.append(origin + py * stride + px)
                owners.append(block)
    scored = score(centres, owners)

    integer: List[Tuple[int, int, float]] = [(0, 0, _INF)] * len(walks)
    dropped = [False] * len(walks)

    def finish(index: int, found: Tuple[int, int, float]) -> None:
        integer[index] = found
        if found[2] <= good_enough:
            for later in range(index + 1, walks[index][2]):
                dropped[later] = True

    pending = []
    taken = 0
    for index, (origin, block, _) in enumerate(walks):
        start = starts[index]
        best_y = best_x = 0
        ring_sads, beats = scored[taken]
        if start is not None:
            # The (0, 0) member of the scalar walk's start set can never
            # strictly beat itself, so only the predicted start matters.
            if scored[taken + 1][0][0] < ring_sads[0]:
                best_y, best_x = start
                ring_sads, beats = scored[taken + 1]
            taken += 2
        else:
            taken += 1
        if dropped[index]:
            continue
        bounds, _, inside_bits = per_block[block]
        beats &= _inside(inside_bits, bounds, best_y, best_x)
        if not beats:  # nothing in reach beats the start: the walk is over
            finish(index, (best_y, best_x, ring_sads[0]))
            continue
        walk = _diamond_walk(bounds, inside_bits, best_y, best_x, ring_sads, beats)
        try:
            cy, cx = next(walk)
            pending.append((index, walk, origin + cy * stride + cx))
        except StopIteration as done:
            finish(index, done.value)

    while pending:
        scored = score(
            [centre for _, _, centre in pending],
            [] if one_source else [walks[index][1] for index, _, _ in pending],
        )
        waiting = []
        for (index, walk, _), item in zip(pending, scored):
            if dropped[index]:
                continue
            try:
                cy, cx = walk.send(item)
                waiting.append((index, walk, walks[index][0] + cy * stride + cx))
            except StopIteration as done:
                finish(index, done.value)
        pending = waiting

    live = [index for index in range(len(walks)) if not dropped[index]]
    slots = [-1] * len(walks)
    for slot, index in enumerate(live):
        slots[index] = slot
    centres = [
        walks[index][0] + integer[index][0] * stride + integer[index][1]
        for index in live
    ]
    sads = [_INF if gone else best[2] for gone, best in zip(dropped, integer)]
    if not half_pel:
        return _Found(sads, integer, slots, windows, centres)

    # Half-pel: the 8 offsets around every live walk's integer winner.
    # All offsets apply to the integer-pel centre (see the drift-bug note
    # on _motion_search_reference).  The three half-pel planes of each
    # walk's (S+2)^2 patch are _bilinear with the tap weights sample_block
    # uses, so every candidate is bitwise the block sample_block would
    # return; first-improvement order over _HALF_PEL is preserved, and
    # offsets whose sample would leave the frame are skipped as the
    # scalar walk's None sample is.
    patches = planes.windows(size + 2)[np.array(centres) - (stride + 1)]
    half = _bilinear(
        patches[:, np.newaxis, :-1, :-1], patches[:, np.newaxis, :-1, 1:],
        patches[:, np.newaxis, 1:, :-1], patches[:, np.newaxis, 1:, 1:],
        _HP_WEIGHTS,
    )  # (live, 3, S+1, S+1)
    own = sources[0] if one_source else sources[[walks[index][1] for index in live]]
    delta = half.reshape(len(live), -1).take(_half_pel_taps(size), axis=1)
    np.subtract(delta, own if one_source else own[:, np.newaxis], out=delta)
    np.abs(delta, out=delta)
    offset_sads = np.add.reduce(delta.reshape(len(live), 8, -1), axis=2).tolist()
    for slot, index in enumerate(live):
        y, x = positions[walks[index][1]]
        row_y, col_x = y + integer[index][0], x + integer[index][1]
        if 1 <= row_y and row_y + size < height and 1 <= col_x and col_x + size < width:
            continue
        # Border centre: offset -0.5 needs a row/column before the block,
        # 0 and +0.5 floor to the centre and need one after it.
        up, down = row_y >= 1, row_y + size + 1 <= height
        left, right = col_x >= 1, col_x + size + 1 <= width
        for offset, (dy, dx) in enumerate(_HALF_PEL):
            if not ((up if dy < 0 else down) and (left if dx < 0 else right)):
                offset_sads[slot][offset] = _INF
    winners = []
    for index, row in zip(live, offset_sads):
        lowest = min(row)
        if lowest < sads[index]:
            sads[index] = lowest
            winners.append(row.index(lowest))  # a strict-< scan keeps the first
        else:
            winners.append(-1)
    return _Found(sads, integer, slots, windows, centres, winners, half)


def motion_search(
    source: np.ndarray,
    reference: np.ndarray,
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[SearchPlanes] = None,
) -> Tuple[MotionVector, np.ndarray, float]:
    """Diamond search around (0,0) and the predicted MV; optional half-pel.

    Returns ``(mv, prediction_block, sad)``, equal to what
    :func:`_motion_search_reference` returns.  The prediction block is
    always valid (the zero MV candidate is in-frame by construction).
    The one-walk case of the group search behind :func:`group_best_inter`;
    pass ``planes`` (a :class:`SearchPlanes` over ``reference``) to share
    its padded copy across every block of a frame.
    """
    if planes is None:
        planes = SearchPlanes(reference)
    return _search(
        planes, source[np.newaxis], [(y, x)], size, search_range, half_pel,
        [((0,), 0, predicted_mv)],
    ).result(0)


def _motion_search_reference(
    source: np.ndarray,
    reference: np.ndarray,
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[SearchPlanes] = None,
) -> Tuple[MotionVector, np.ndarray, float]:
    """Pre-batching scalar walk (parity/benchmark reference).

    One behavioural fix is shared with the fast path: the original
    half-pel loop mutated ``mv_y, mv_x`` mid-iteration, so later
    ``_HALF_PEL`` offsets were applied to a moving centre instead of the
    integer-pel winner.  Both paths now evaluate all 8 offsets around the
    fixed integer-pel centre.  ``planes`` is accepted for signature
    parity and ignored.
    """
    del planes
    # (0, 0) first, predicted second: with strict-< replacement this is
    # the tie-break order the batched fast path hard-codes, and a fixed
    # tuple keeps the walk order independent of hash seeding.
    predicted = (round(predicted_mv.dy), round(predicted_mv.dx))
    starts = ((0, 0),) if predicted == (0, 0) else ((0, 0), predicted)
    best_mv = (0, 0)
    best_sad = _sad(source, sample_block(reference, y, x, size))
    for sy, sx in starts:
        if abs(sy) > search_range or abs(sx) > search_range:
            continue
        sad = _sad(source, sample_block(reference, y + sy, x + sx, size))
        if sad < best_sad:
            best_sad, best_mv = sad, (sy, sx)

    improved = True
    while improved:
        improved = False
        for dy, dx in _LARGE_DIAMOND:
            cy, cx = best_mv[0] + dy, best_mv[1] + dx
            if abs(cy) > search_range or abs(cx) > search_range:
                continue
            sad = _sad(source, sample_block(reference, y + cy, x + cx, size))
            if sad < best_sad:
                best_sad, best_mv, improved = sad, (cy, cx), True
    for dy, dx in _SMALL_DIAMOND:
        cy, cx = best_mv[0] + dy, best_mv[1] + dx
        if abs(cy) > search_range or abs(cx) > search_range:
            continue
        sad = _sad(source, sample_block(reference, y + cy, x + cx, size))
        if sad < best_sad:
            best_sad, best_mv = sad, (cy, cx)

    mv_y, mv_x = float(best_mv[0]), float(best_mv[1])
    if half_pel:
        base_y, base_x = mv_y, mv_x
        for dy, dx in _HALF_PEL:
            sad = _sad(
                source, sample_block(reference, y + base_y + dy, x + base_x + dx, size)
            )
            if sad < best_sad:
                best_sad, mv_y, mv_x = sad, base_y + dy, base_x + dx

    prediction = sample_block(reference, y + mv_y, x + mv_x, size)
    if prediction is None:  # pragma: no cover - zero MV is always valid
        prediction = sample_block(reference, y, x, size)
        mv_y = mv_x = 0.0
        best_sad = _sad(source, prediction)
    return MotionVector(dx=mv_x, dy=mv_y), prediction, best_sad


#: Mean absolute error per pixel below which further references are not
#: searched -- a "good enough" early exit real encoders also take.
GOOD_ENOUGH_SAD_PER_PIXEL = 1.0


def group_best_inter(
    planes: SearchPlanes,
    reference_count: int,
    sources: np.ndarray,
    positions: Sequence[Tuple[int, int]],
    size: int,
    search_range: int,
    half_pel: bool,
    searches: Sequence[Tuple[int, int, MotionVector]],
) -> List[Tuple[int, MotionVector, np.ndarray, float]]:
    """:func:`best_inter` for several streams and blocks at once.

    ``sources`` is a ``(B, S, S)`` stack of source blocks at
    ``positions``.  Each search is ``(stream, block, predicted_mv)``;
    stream ``s`` owns planes ``s * reference_count`` onwards of
    ``planes``, in reference order.  Returns ``(ref_index, mv,
    prediction, sad)`` per search.  Every reference of every search is
    walked in one round-based search; the SADs are then replayed in
    reference order, so a stream whose early exit lands mid-way never
    reads its later walks.
    """
    good_enough = GOOD_ENOUGH_SAD_PER_PIXEL * size * size
    found = _search(
        planes, sources, positions, size, search_range, half_pel,
        [
            (range(stream * reference_count, (stream + 1) * reference_count),
             block, predicted)
            for stream, block, predicted in searches
        ],
        good_enough,
    )
    results: List[Tuple[int, MotionVector, np.ndarray, float]] = []
    for first in range(0, len(found.sads), reference_count):
        best_ref, best_sad = -1, _INF
        for ref, sad in enumerate(found.sads[first : first + reference_count]):
            if sad < best_sad:
                best_ref, best_sad = ref, sad
            if best_sad <= good_enough:
                break
        results.append((best_ref,) + found.result(first + best_ref))
    return results


def best_inter(
    source: np.ndarray,
    references: Sequence[np.ndarray],
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[SearchPlanes] = None,
) -> Tuple[int, MotionVector, np.ndarray, float]:
    """Search references in order; returns (ref_index, mv, prediction, sad).

    Stops early once a reference predicts to within
    :data:`GOOD_ENOUGH_SAD_PER_PIXEL` mean error.  The one-stream case of
    :func:`group_best_inter`; ``planes`` optionally carries a
    :class:`SearchPlanes` over the stacked references (same order).
    """
    if not references:
        raise ValueError("best_inter needs at least one reference")
    if planes is None:
        planes = SearchPlanes(np.stack(references))
    return group_best_inter(
        planes, len(references), source[np.newaxis], [(y, x)], size,
        search_range, half_pel, [(0, 0, predicted_mv)],
    )[0]


def _best_inter_reference(
    source: np.ndarray,
    references: Sequence[np.ndarray],
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[SearchPlanes] = None,
) -> Tuple[int, MotionVector, np.ndarray, float]:
    """Reference-path counterpart of :func:`best_inter` (scalar search)."""
    del planes
    if not references:
        raise ValueError("best_inter needs at least one reference")
    good_enough = GOOD_ENOUGH_SAD_PER_PIXEL * size * size
    best: Tuple[int, MotionVector, np.ndarray, float] = (
        -1, MotionVector(0.0, 0.0), None, float("inf"),  # type: ignore
    )
    for index, reference in enumerate(references):
        mv, prediction, sad = _motion_search_reference(
            source, reference, y, x, size, search_range, half_pel, predicted_mv
        )
        if sad < best[3]:
            best = (index, mv, prediction, sad)
        if best[3] <= good_enough:
            break
    return best
