"""The block-based encoder.

The encoder walks each frame in raster order of superblocks.  For every
block it evaluates intra candidates and, on inter frames, a motion search
over up to three references (plus the temporal-filtered alternate
reference for VP9 profiles); the winner by SAD gets the full
transform/quantize/reconstruct treatment (the paper's "approximate
encoding/decoding" candidate selection).  When the profile allows
partitioning, the block is also encoded as four recursively-coded
sub-blocks and the cheaper RD cost wins -- the bounded recursive
partition search of Section 3.2.

One engine codes every stream: :class:`StreamGroup` advances N encodes
of one source under one profile -- one QP each, the RD sweep's QP ladder
-- block position by block position, the way the VCU's MOT feeds one
decode to several encoder cores.  At each block position and each split
sub-block the group makes one batched call per stage (intra scoring,
motion search, transform, entropy) for every stream still coding there.
Streams share nothing but the source, so each stream's output is
bit-identical to encoding it alone.  :class:`Encoder` is the one-stream
group; ``Encoder(fast=False)`` keeps the scalar per-block loop as the
oracle the parity suites compare against.

Every decision is appended to a symbolic bitstream (a list of
:class:`BlockRecord`) that :mod:`repro.codec.decoder` can replay to the
bit-identical reconstruction, which is how round-trip tests validate the
codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec import entropy
from repro.codec.kernels import batch_block_bits, batch_step, batch_transform_rd
from repro.codec.prediction import (  # noqa: F401 - best_intra: public name here
    MotionVector,
    SearchPlanes,
    Streams,
    _best_inter_reference,
    _best_intra_reference,
    best_intra,
    group_best_inter,
    group_best_intra,
)
from repro.codec.profiles import EncoderProfile
from repro.codec.temporal_filter import build_altref
from repro.codec.transform import qp_to_lambda, qp_to_step, transform_rd
from repro.video.frame import Frame, RawVideo, SequencePsnr, sequence_psnr

#: References kept in the DPB (sliding window), before the altref slot.
_MAX_DPB = 3
#: Frames between alternate-reference rebuilds (VP9 builds altrefs per
#: golden-frame group, not per frame).
ALTREF_INTERVAL = 4
#: Mean prediction error per pixel below which the recursive partition
#: search is skipped -- the "bounded" part of the paper's bounded
#: recursive search (flat, well-predicted blocks never benefit from
#: smaller partitions).
SPLIT_GATE_SAD_PER_PIXEL = 2.0
#: Mean intra error per pixel below which motion search is skipped.
INTRA_GOOD_ENOUGH_PER_PIXEL = 0.75


@dataclass
class BlockRecord:
    """One coded block: everything a decoder needs to reproduce it."""

    y: int
    x: int
    size: int
    mode: str  # "intra" or "inter"
    intra_mode: Optional[str] = None
    ref_index: Optional[int] = None
    mv: Optional[MotionVector] = None
    levels: Optional[np.ndarray] = None
    split: Optional[List["BlockRecord"]] = None
    dc: Optional[float] = None  # edge-block DC predictor (PCM-ish path)


@dataclass
class EncodedFrame:
    """Per-frame encode output: modelled bits, recon, and statistics."""

    index: int
    frame_type: str  # "key" or "inter"
    qp: float
    bits: float
    recon: np.ndarray
    records: List[BlockRecord]
    sad: float  # total prediction SAD (first-pass complexity signal)
    intra_blocks: int = 0
    inter_blocks: int = 0


@dataclass
class EncodedChunk:
    """A fully encoded sequence plus its aggregate quality numbers."""

    profile_name: str
    frames: List[EncodedFrame]
    fps: float
    nominal_pixels_per_frame: int
    proxy_pixels_per_frame: int
    psnr: float

    @property
    def total_bits_proxy(self) -> float:
        return sum(f.bits for f in self.frames)

    @property
    def total_bits(self) -> float:
        """Bits scaled from the proxy plane to the nominal resolution."""
        scale = self.nominal_pixels_per_frame / self.proxy_pixels_per_frame
        return self.total_bits_proxy * scale

    @property
    def duration_seconds(self) -> float:
        return len(self.frames) / self.fps

    @property
    def bitrate_bps(self) -> float:
        return self.total_bits / self.duration_seconds

    @property
    def bits_per_pixel(self) -> float:
        return self.total_bits_proxy / (
            self.proxy_pixels_per_frame * len(self.frames)
        )


#: One coded block of one stream: (record, rd_cost, bits, sad).
_Coded = Tuple[BlockRecord, float, float, float]
#: One stream's inter search result: (ref_index, mv, prediction, sad).
_Inter = Tuple[int, MotionVector, np.ndarray, float]


@dataclass
class _Tally:
    """One stream's running totals over a frame's top-level blocks."""

    records: List[BlockRecord] = field(default_factory=list)
    bits: float = 0.0
    sad: float = 0.0
    intra_blocks: int = 0
    inter_blocks: int = 0

    def add(self, record: BlockRecord, bits: float, sad: float) -> None:
        self.records.append(record)
        self.bits += bits
        self.sad += sad
        if record.mode == "inter" or (
            record.split and any(r.mode == "inter" for r in record.split)
        ):
            self.inter_blocks += 1
        else:
            self.intra_blocks += 1


class _FrameState:
    """What every block of one lockstep frame reads: the source, the
    ``(N, H, W)`` recon stack, the references of every stream as one
    :class:`SearchPlanes` stack, and each stream's QP, lambda and step."""

    __slots__ = ("source", "recon", "planes", "ref_count", "qps", "lams", "steps")

    def __init__(self, source, recon, references, qps):
        self.source = source
        self.recon = recon
        self.ref_count = len(references)
        self.planes = (
            SearchPlanes(
                np.stack(references, axis=1).reshape((-1,) + source.shape)
            )
            if references
            else None
        )
        self.qps = tuple(qps)
        self.lams = [qp_to_lambda(qp) for qp in qps]
        self.steps = batch_step(qps)

    def select(self, streams: Sequence[int]) -> Streams:
        """Index for ``streams`` into the recon stack (a slice when all)."""
        return slice(None) if len(streams) == len(self.qps) else list(streams)


class StreamGroup:
    """N encodes of one source under one profile, one QP per stream,
    advanced in lockstep.

    :meth:`encode_frame` takes one frame and one QP per stream (the QPs
    may differ frame to frame) and returns one :class:`EncodedFrame` per
    stream, each bit-identical to what a one-stream encoder fed the same
    frames and QPs returns.  Per-stream state is only QP, lambda,
    reconstruction and decoded picture buffer; everything else -- frame
    type, block geometry, the source block -- is shared.
    """

    def __init__(
        self,
        profile: EncoderProfile,
        streams: int,
        keyframe_interval: int = 150,
    ):
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        if streams < 1:
            raise ValueError("a stream group needs at least one stream")
        self.profile = profile
        self.streams = streams
        self.keyframe_interval = keyframe_interval
        # Decoded picture buffer of (N, H, W) recon stacks, newest first.
        self._dpb: List[np.ndarray] = []
        self._altref: Optional[np.ndarray] = None
        self._frame_index = 0
        self._shape: Optional[Tuple[int, int]] = None

    def reset(self) -> None:
        self._dpb.clear()
        self._altref = None
        self._frame_index = 0
        self._shape = None

    def references(self) -> List[np.ndarray]:
        """Current reference stacks: DPB slots then the altref, bounded by profile."""
        refs = list(self._dpb[: self.profile.reference_frames])
        if self.profile.temporal_filter and self._altref is not None:
            refs.append(self._altref)
        return refs

    def encode_frame(self, frame: Frame, qps: Sequence[float]) -> List[EncodedFrame]:
        """Encode one frame at one QP per stream and update reference state.

        Raises ``ValueError`` if the frame's shape differs from the first
        frame since construction or :meth:`reset`: the references would
        not line up with it.
        """
        qps = list(qps)
        if len(qps) != self.streams:
            raise ValueError(f"need {self.streams} QPs, got {len(qps)}")
        source = frame.data.astype(np.float64)
        if self._shape is None:
            self._shape = source.shape
        elif source.shape != self._shape:
            raise ValueError(
                f"frame shape {source.shape} differs from the stream's {self._shape}"
            )
        is_key = self._frame_index % self.keyframe_interval == 0 or not self._dpb
        recon = np.zeros((self.streams,) + source.shape)
        tallies = self._code_blocks(
            source, recon, [] if is_key else self.references(), qps
        )
        self._push_reference(recon)
        encoded = [
            EncodedFrame(
                index=self._frame_index,
                frame_type="key" if is_key else "inter",
                qp=qp,
                bits=tally.bits * self.profile.bit_scale + 64.0,  # + frame header
                recon=recon[stream],
                records=tally.records,
                sad=tally.sad,
                intra_blocks=tally.intra_blocks,
                inter_blocks=tally.inter_blocks,
            )
            for stream, (qp, tally) in enumerate(zip(qps, tallies))
        ]
        self._frame_index += 1
        return encoded

    def _push_reference(self, recon: np.ndarray) -> None:
        self._dpb.insert(0, recon)
        del self._dpb[_MAX_DPB:]
        if (
            self.profile.temporal_filter
            and len(self._dpb) >= 3
            and self._frame_index % ALTREF_INTERVAL == 0
        ):
            # Synthetic alternate reference from the last three recons
            # (oldest..newest order for the 3-tap filter), per stream.
            oldest_first = list(reversed(self._dpb[:3]))
            self._altref = np.stack([
                build_altref([stack[stream] for stack in oldest_first]).astype(
                    np.float64
                )
                for stream in range(self.streams)
            ])

    def _code_blocks(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        references: List[np.ndarray],
        qps: List[float],
    ) -> List[_Tally]:
        """Code every block of the frame for every stream, in lockstep."""
        state = _FrameState(source, recon, references, qps)
        tallies = [_Tally() for _ in qps]
        everyone = list(range(self.streams))
        predicted = [MotionVector(0.0, 0.0)] * self.streams
        size = self.profile.block_size
        height, width = source.shape
        for y in range(0, height, size):
            for x in range(0, width, size):
                block_h = min(size, height - y)
                block_w = min(size, width - x)
                if block_h != block_w or block_h < 4:
                    # Ragged frame edge: code as intra DC without splitting.
                    for tally, (record, bits, sad) in zip(
                        tallies, self._encode_edge_block(state, y, x, block_h, block_w)
                    ):
                        tally.add(record, bits, sad)
                    continue
                coded = self._encode_block(
                    state, everyone, y, x, block_h,
                    self.profile.max_split_depth, predicted,
                )
                for stream, (record, _, bits, sad) in enumerate(coded):
                    if record.mode == "inter" and record.mv is not None:
                        predicted[stream] = record.mv
                    tallies[stream].add(record, bits, sad)
        return tallies

    def _encode_block(
        self,
        state: _FrameState,
        streams: List[int],
        y: int,
        x: int,
        size: int,
        split_depth: int,
        predicted: Sequence[MotionVector],
        searched: Optional[Dict[int, _Inter]] = None,
    ) -> List[_Coded]:
        """Encode one square block for ``streams``; one result per stream.

        Writes each stream's chosen reconstruction into the recon stack.
        ``searched`` optionally holds each stream's inter search result
        for this block, found ahead of time.
        """
        coded = self._encode_whole(state, streams, y, x, size, predicted, searched)
        if split_depth == 0 or size < 8:
            return coded
        gate = SPLIT_GATE_SAD_PER_PIXEL * size * size
        trying = [pos for pos, result in enumerate(coded) if result[3] > gate]
        if not trying:
            return coded
        splitters = [streams[pos] for pos in trying]
        recon = state.recon
        where = (state.select(splitters), slice(y, y + size), slice(x, x + size))
        whole_recon = recon[where].copy()
        # Blocks are coded in raster order into a zeroed frame, so before
        # the whole-block pass this region still held zeros: restore them.
        recon[where] = 0.0
        half = size // 2
        corners = [(y + oy, x + ox) for oy in (0, half) for ox in (0, half)]
        ahead = self._search_ahead(state, splitters, corners, half, predicted)
        sub_records: List[List[BlockRecord]] = [[] for _ in splitters]
        split_costs = [state.lams[stream] * 2.0 for stream in splitters]  # signalling
        split_bits = [2.0] * len(splitters)
        split_sads = [0.0] * len(splitters)
        for corner, (sub_y, sub_x) in enumerate(corners):
            subs = self._encode_block(
                state, splitters, sub_y, sub_x, half, split_depth - 1, predicted,
                ahead[corner] if ahead else None,
            )
            for j, (sub, sub_cost, sub_bits, sub_sad) in enumerate(subs):
                sub_records[j].append(sub)
                split_costs[j] += sub_cost
                split_bits[j] += sub_bits
                split_sads[j] += sub_sad
        kept = []
        for j, pos in enumerate(trying):
            if split_costs[j] < coded[pos][1]:
                coded[pos] = (
                    BlockRecord(
                        y=y, x=x, size=size, mode="split", split=sub_records[j]
                    ),
                    split_costs[j],
                    split_bits[j],
                    split_sads[j],
                )
            else:
                kept.append(j)
        if kept:
            recon[
                state.select([splitters[j] for j in kept]), y : y + size, x : x + size
            ] = whole_recon[kept]
        return coded

    def _search_ahead(
        self,
        state: _FrameState,
        streams: List[int],
        corners: List[Tuple[int, int]],
        size: int,
        predicted: Sequence[MotionVector],
    ) -> List[Dict[int, _Inter]]:
        """Every stream's inter search of every sub-block, as one group.

        A search depends only on the source, the references, the block
        position and the parent's predicted MV -- not on the
        reconstruction -- so the four sub-blocks of a split can be
        searched before any of them is coded.  A stream whose sub-block
        turns out well enough predicted by intra never reads its result.
        Returns one ``{stream: result}`` per corner (none on key frames).
        """
        if state.planes is None:
            return []
        source = state.source
        blocks = np.stack([source[y : y + size, x : x + size] for y, x in corners])
        found = iter(group_best_inter(
            state.planes, state.ref_count, blocks, corners, size,
            self.profile.search_range, self.profile.half_pel,
            [
                (stream, corner, predicted[stream])
                for corner in range(len(corners))
                for stream in streams
            ],
        ))
        return [{stream: next(found) for stream in streams} for _ in corners]

    def _encode_whole(
        self,
        state: _FrameState,
        streams: List[int],
        y: int,
        x: int,
        size: int,
        predicted: Sequence[MotionVector],
        searched: Optional[Dict[int, _Inter]] = None,
    ) -> List[_Coded]:
        """Encode the block un-split for ``streams``; one result per stream."""
        profile = self.profile
        select = state.select(streams)
        block = state.source[y : y + size, x : x + size]
        modes, predictions, sads = group_best_intra(
            block, state.recon, select, y, x, size, profile.rd_candidate_rounds
        )
        inter: List[Optional[Tuple[int, MotionVector]]] = [None] * len(streams)
        if state.planes is not None:
            threshold = INTRA_GOOD_ENOUGH_PER_PIXEL * size * size
            searching = [pos for pos, sad in enumerate(sads) if sad > threshold]
            if searched is not None:
                found = [searched[streams[pos]] for pos in searching]
            elif searching:
                found = group_best_inter(
                    state.planes, state.ref_count, block[np.newaxis], [(y, x)], size,
                    profile.search_range, profile.half_pel,
                    [(streams[pos], 0, predicted[streams[pos]]) for pos in searching],
                )
            else:
                found = []
            for pos, (ref_index, mv, prediction, sad) in zip(searching, found):
                # Bias by signalling cost so near-ties favour cheap intra DC.
                if sad + 4.0 * entropy.mv_bits(mv.dx, mv.dy) < sads[pos]:
                    inter[pos] = (ref_index, mv)
                    predictions[pos] = prediction
                    sads[pos] = sad

        levels, recon_residuals, distortions = batch_transform_rd(
            block - predictions,
            state.qps if isinstance(select, slice) else [state.qps[s] for s in streams],
        )
        bits = batch_block_bits(levels, profile.entropy_efficiency).tolist()
        state.recon[select, y : y + size, x : x + size] = (
            predictions + recon_residuals
        ).clip(0.0, 255.0)

        coded: List[_Coded] = []
        for pos, (stream, distortion) in enumerate(zip(streams, distortions.tolist())):
            if inter[pos] is None:
                block_bits = bits[pos] + entropy.MODE_BITS_INTRA
                record = BlockRecord(
                    y=y, x=x, size=size, mode="intra",
                    intra_mode=modes[pos], levels=levels[pos],
                )
            else:
                ref_index, mv = inter[pos]
                block_bits = bits[pos] + (
                    entropy.MODE_BITS_INTER + entropy.mv_bits(mv.dx, mv.dy)
                )
                record = BlockRecord(
                    y=y, x=x, size=size, mode="inter",
                    ref_index=ref_index, mv=mv, levels=levels[pos],
                )
            coded.append(
                (record, distortion + state.lams[stream] * block_bits, block_bits,
                 sads[pos])
            )
        return coded

    def _encode_edge_block(
        self, state: _FrameState, y: int, x: int, block_h: int, block_w: int
    ) -> List[Tuple[BlockRecord, float, float]]:
        """DC-predict and PCM-quantize a ragged edge block for every stream
        (rare path); returns (record, bits, sad) per stream."""
        block = state.source[y : y + block_h, x : x + block_w]
        mean = float(np.mean(block))
        sad = float(np.sum(np.abs(block - mean)))
        levels = np.round((block - mean) / state.steps).astype(np.int64)
        state.recon[:, y : y + block_h, x : x + block_w] = np.clip(
            mean + levels * state.steps, 0.0, 255.0
        )
        return [
            (
                BlockRecord(
                    y=y, x=x, size=block_h, mode="edge", levels=stream_levels,
                    intra_mode="dc", dc=mean,
                ),
                entropy.block_bits(stream_levels, self.profile.entropy_efficiency)
                + 8.0,
                sad,
            )
            for stream_levels in levels
        ]


class _ScalarOracle(StreamGroup):
    """One stream coded by the pre-batching scalar per-block loop.

    Shares :class:`StreamGroup`'s frame bookkeeping; only the block
    coding differs, using the scalar reference implementations of intra
    selection, motion search, transform and entropy costing.  It exists so
    the parity suites and the perf-regression harness can prove and
    measure that the lockstep engine is bit-identical and faster.
    """

    def __init__(self, profile: EncoderProfile, keyframe_interval: int = 150):
        super().__init__(profile, 1, keyframe_interval)

    def _code_blocks(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        references: List[np.ndarray],
        qps: List[float],
    ) -> List[_Tally]:
        recon = recon[0]
        references = [stack[0] for stack in references]
        qp = qps[0]
        lam = qp_to_lambda(qp)
        tally = _Tally()
        size = self.profile.block_size
        height, width = source.shape
        predicted_mv = MotionVector(0.0, 0.0)
        for y in range(0, height, size):
            for x in range(0, width, size):
                block_h = min(size, height - y)
                block_w = min(size, width - x)
                if block_h != block_w or block_h < 4:
                    record, bits, sad = self._encode_edge_block_scalar(
                        source, recon, y, x, block_h, block_w, qp
                    )
                else:
                    record, _, bits, sad = self._encode_block_scalar(
                        source, recon, references, y, x, block_h, qp, lam,
                        self.profile.max_split_depth, predicted_mv,
                    )
                    if record.mode == "inter" and record.mv is not None:
                        predicted_mv = record.mv
                tally.add(record, bits, sad)
        return [tally]

    def _encode_block_scalar(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        references: Sequence[np.ndarray],
        y: int,
        x: int,
        size: int,
        qp: float,
        lam: float,
        split_depth: int,
        predicted_mv: MotionVector,
    ) -> _Coded:
        """Encode one square block; returns (record, rd_cost, bits, sad).

        Writes the chosen reconstruction into ``recon`` in place.
        """
        block = source[y : y + size, x : x + size]
        saved = recon[y : y + size, x : x + size].copy()

        record, cost, bits, sad = self._encode_whole_scalar(
            block, recon, references, y, x, size, qp, lam, predicted_mv
        )

        if (
            split_depth > 0
            and size >= 8
            and sad > SPLIT_GATE_SAD_PER_PIXEL * size * size
        ):
            whole_recon = recon[y : y + size, x : x + size].copy()
            recon[y : y + size, x : x + size] = saved
            half = size // 2
            sub_records: List[BlockRecord] = []
            split_cost = lam * 2.0  # partition signalling
            split_bits = 2.0
            split_sad = 0.0
            for oy in (0, half):
                for ox in (0, half):
                    sub, sub_cost, sub_bits, sub_sad = self._encode_block_scalar(
                        source, recon, references, y + oy, x + ox, half,
                        qp, lam, split_depth - 1, predicted_mv,
                    )
                    sub_records.append(sub)
                    split_cost += sub_cost
                    split_bits += sub_bits
                    split_sad += sub_sad
            if split_cost < cost:
                return (
                    BlockRecord(y=y, x=x, size=size, mode="split", split=sub_records),
                    split_cost,
                    split_bits,
                    split_sad,
                )
            recon[y : y + size, x : x + size] = whole_recon
        return record, cost, bits, sad

    def _encode_whole_scalar(
        self,
        block: np.ndarray,
        recon: np.ndarray,
        references: Sequence[np.ndarray],
        y: int,
        x: int,
        size: int,
        qp: float,
        lam: float,
        predicted_mv: MotionVector,
    ) -> _Coded:
        """Encode the block un-split; returns (record, rd_cost, bits, sad)."""
        intra_mode, intra_pred, intra_sad = _best_intra_reference(
            block, recon, y, x, size, self.profile.rd_candidate_rounds
        )
        choice = ("intra", intra_mode, None, None, intra_pred, intra_sad)
        if references and intra_sad > INTRA_GOOD_ENOUGH_PER_PIXEL * size * size:
            ref_index, mv, inter_pred, inter_sad = _best_inter_reference(
                block, references, y, x, size,
                self.profile.search_range, self.profile.half_pel, predicted_mv,
            )
            # Bias by signalling cost so near-ties favour cheap intra DC.
            if inter_sad + 4.0 * entropy.mv_bits(mv.dx, mv.dy) < intra_sad:
                choice = ("inter", None, ref_index, mv, inter_pred, inter_sad)

        mode, chosen_intra, ref_index, mv, prediction, sad = choice
        residual = block - prediction
        levels, recon_residual, distortion = transform_rd(residual, qp)

        bits = entropy._block_bits_reference(levels, self.profile.entropy_efficiency)
        if mode == "intra":
            bits += entropy.MODE_BITS_INTRA
        else:
            bits += entropy.MODE_BITS_INTER + entropy.mv_bits(mv.dx, mv.dy)

        recon[y : y + size, x : x + size] = (prediction + recon_residual).clip(
            0.0, 255.0
        )
        cost = distortion + lam * bits
        record = BlockRecord(
            y=y, x=x, size=size, mode=mode,
            intra_mode=chosen_intra, ref_index=ref_index, mv=mv, levels=levels,
        )
        return record, cost, bits, sad

    def _encode_edge_block_scalar(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        y: int,
        x: int,
        block_h: int,
        block_w: int,
        qp: float,
    ) -> Tuple[BlockRecord, float, float]:
        """DC-predict and PCM-quantize a ragged edge block (rare path)."""
        block = source[y : y + block_h, x : x + block_w]
        mean = float(np.mean(block))
        step = qp_to_step(qp)
        levels = np.round((block - mean) / step).astype(np.int64)
        recon_block = np.clip(mean + levels * step, 0.0, 255.0)
        recon[y : y + block_h, x : x + block_w] = recon_block
        bits = (
            entropy._block_bits_reference(levels, self.profile.entropy_efficiency)
            + 8.0
        )
        sad = float(np.sum(np.abs(block - mean)))
        record = BlockRecord(
            y=y, x=x, size=block_h, mode="edge", levels=levels, intra_mode="dc",
            dc=mean,
        )
        return record, bits, sad


class Encoder:
    """A stateful encoder for one stream (one profile, one resolution).

    The one-stream case of :class:`StreamGroup`.  ``fast=False`` swaps
    the lockstep engine's block coding for the scalar per-block oracle;
    both produce bit-identical output -- the oracle exists so the parity
    suite and the perf-regression harness can prove and measure that
    claim.
    """

    def __init__(
        self,
        profile: EncoderProfile,
        keyframe_interval: int = 150,
        fast: bool = True,
    ):
        self.fast = fast
        self._group = (
            StreamGroup(profile, 1, keyframe_interval)
            if fast
            else _ScalarOracle(profile, keyframe_interval)
        )

    @property
    def profile(self) -> EncoderProfile:
        return self._group.profile

    @property
    def keyframe_interval(self) -> int:
        return self._group.keyframe_interval

    def reset(self) -> None:
        self._group.reset()

    def references(self) -> List[np.ndarray]:
        """Current reference list: DPB slots then the altref, bounded by profile."""
        return [stack[0] for stack in self._group.references()]

    def encode_frame(self, frame: Frame, qp: float) -> EncodedFrame:
        """Encode one frame at the given QP and update reference state.

        Raises ``ValueError`` if the frame's shape differs from the
        stream's first frame.
        """
        return self._group.encode_frame(frame, [qp])[0]


def encode_video(
    video: RawVideo,
    profile: EncoderProfile,
    qp: float,
    keyframe_interval: int = 150,
    fast: bool = True,
) -> EncodedChunk:
    """Encode a whole video at a fixed QP, keeping every encoded frame."""
    encoder = Encoder(profile, keyframe_interval=keyframe_interval, fast=fast)
    encoded = [encoder.encode_frame(frame, qp) for frame in video.frames]
    recon_frames = [
        Frame(e.recon.astype(np.float32), video.nominal, e.index) for e in encoded
    ]
    return EncodedChunk(
        profile_name=profile.name,
        frames=encoded,
        fps=video.fps,
        nominal_pixels_per_frame=video.nominal.pixels,
        proxy_pixels_per_frame=video.frames[0].proxy_pixels,
        psnr=sequence_psnr(video.frames, recon_frames),
    )


def encode_ladder(
    video: RawVideo,
    profile: EncoderProfile,
    qps: Sequence[float],
    keyframe_interval: int = 150,
) -> List[Tuple[float, float]]:
    """Encode a whole video at each QP as one stream group (the RD-curve
    sweep primitive); returns ``(bitrate_bps, psnr)`` per QP.

    Each pair equals ``encode_video(video, profile, qp)``'s
    ``bitrate_bps`` and ``psnr``: bits and the float32-recon squared error
    accumulate in the same order.  Each encoded frame is dropped as soon
    as it is counted, so the ladder never holds a chunk.
    """
    group = StreamGroup(profile, len(qps), keyframe_interval)
    bits = [0.0] * len(qps)
    errors = [SequencePsnr() for _ in qps]
    for frame in video.frames:
        for stream, encoded in enumerate(group.encode_frame(frame, qps)):
            bits[stream] += encoded.bits
            errors[stream].add(frame, encoded.recon.astype(np.float32))
    scale = video.nominal.pixels / video.frames[0].proxy_pixels
    duration = len(video.frames) / video.fps
    return [
        (total * scale / duration, error.psnr())
        for total, error in zip(bits, errors)
    ]
