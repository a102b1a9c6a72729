"""Batched codec kernels: frame-level vectorized transform/entropy passes.

Real encoder stacks (VVenC's SIMD toolchain, the VCU's fixed-function
pipeline) win by running block work as full-frame kernel passes instead of
per-block scalar loops.  This module brings that discipline to the
reproduction: same-size blocks are stacked into an ``(n_blocks, S, S)``
array and DCT / quantize / dequantize / IDCT / entropy-cost run as single
vectorized passes.  A stack is quantized at one QP (the decoder's blocks
of a frame) or at one QP per block (the lockstep encoder's one block per
stream of a QP ladder).

Every kernel is **bit-exact** against the scalar reference path in
:mod:`repro.codec.transform` and :mod:`repro.codec.entropy` -- same
encoded bits, same PSNRs -- which the parity suite
(``tests/test_codec_kernels.py``) asserts element-for-element.  The
exactness rests on two properties, verified empirically and enforced by
the suite:

* NumPy's stacked ``matmul`` runs the same GEMM per slice as the 2-D
  ``basis @ block @ basis.T`` product, and reductions over the trailing
  axes of a contiguous stack follow the same pairwise tree as the scalar
  per-block sum;
* entropy code lengths are small integers, so their float64 sums are
  exact in any summation order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from repro.codec.entropy import (
    _GOLOMB_LUT,
    _GOLOMB_LUT_SIZE,
    SKIP_BITS,
    exp_golomb_bits,
    zigzag_rank,
)
from repro.codec.transform import dct_matrix, qp_to_step


def _require_stack(blocks: np.ndarray) -> int:
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(
            f"expected an (n_blocks, S, S) stack, got shape {blocks.shape}"
        )
    return blocks.shape[1]


def batch_forward_dct(blocks: np.ndarray) -> np.ndarray:
    """2-D DCT of every block in an ``(n, S, S)`` stack in one pass."""
    size = _require_stack(blocks)
    basis = dct_matrix(size)
    return basis @ blocks.astype(np.float64) @ basis.T


def batch_inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    size = _require_stack(coefficients)
    basis = dct_matrix(size)
    return basis.T @ coefficients @ basis


#: One QP for the whole stack, or one per block.
QP = Union[float, Sequence[float]]


def batch_step(qp: QP) -> Union[float, np.ndarray]:
    """The quantizer step for ``qp``, as an ``(n, 1, 1)`` column per block
    when ``qp`` is a vector.  Each step is :func:`qp_to_step` of one
    python number, so it is bitwise the scalar path's step."""
    if isinstance(qp, (int, float, np.number)):
        return qp_to_step(qp)
    return _step_column(tuple(qp))


@lru_cache(maxsize=4096)
def _step_column(qps: Tuple[float, ...]) -> np.ndarray:
    column = np.array([qp_to_step(qp) for qp in qps]).reshape(-1, 1, 1)
    column.flags.writeable = False  # shared by every caller
    return column


def batch_quantize(coefficients: np.ndarray, qp: QP) -> np.ndarray:
    """Uniform dead-zone quantization of a coefficient stack."""
    return np.round(coefficients / batch_step(qp)).astype(np.int64)


def batch_dequantize(levels: np.ndarray, qp: QP) -> np.ndarray:
    return levels.astype(np.float64) * batch_step(qp)


def batch_transform_rd(
    residuals: np.ndarray, qp: QP
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transform, quantize, and reconstruct a stack of residual blocks.

    Returns ``(levels, reconstructed_residuals, distortion_sse)`` with the
    leading axis indexing blocks -- the batched equivalent of calling
    :func:`repro.codec.transform.transform_rd` per block.  ``qp`` is one
    QP for every block or a vector with one QP per block (the lockstep
    encoder stacks one block per stream of a QP ladder).
    """
    basis = dct_matrix(_require_stack(residuals))
    residuals = np.asarray(residuals, dtype=np.float64)
    step = batch_step(qp)
    # The stages of batch_forward_dct .. batch_inverse_dct, fused (rint
    # is np.round with decimals=0).
    levels = np.rint(basis @ residuals @ basis.T / step).astype(np.int64)
    reconstructed = basis.T @ (levels.astype(np.float64) * step) @ basis
    squared = (residuals - reconstructed) ** 2
    distortions = np.add.reduce(squared.reshape(len(squared), -1), axis=1)
    return levels, reconstructed, distortions


@lru_cache(maxsize=None)
def _rank_ends(size: int) -> np.ndarray:
    """Zig-zag rank + 1 per coefficient (frozen: shared by every caller)."""
    ends = zigzag_rank(size) + 1
    ends.flags.writeable = False
    return ends


def batch_block_bits(
    levels: np.ndarray, entropy_efficiency: float = 1.0
) -> np.ndarray:
    """Per-block entropy cost of an ``(n, S, S)`` stack of quantized levels.

    The batched equivalent of :func:`repro.codec.entropy.block_bits`:
    exp-Golomb payload bits plus zig-zag significance signalling, with
    all-zero blocks collapsing to the skip token.
    """
    if not 0 < entropy_efficiency <= 1.5:
        raise ValueError(f"implausible entropy efficiency {entropy_efficiency}")
    size = _require_stack(levels)
    if not len(levels):
        return np.zeros(0)
    flat = np.abs(levels.reshape(len(levels), size * size))
    peak = int(flat.max())
    if peak == 0:  # every block skips (static content's common case)
        return np.full(len(levels), SKIP_BITS * entropy_efficiency)
    if peak < _GOLOMB_LUT_SIZE:
        payloads = np.add.reduce(_GOLOMB_LUT[flat], axis=1)
    else:  # rare huge levels: fall back per block (still exact)
        payloads = np.array(
            [exp_golomb_bits(block) for block in levels], dtype=np.float64
        )
    # Position (in zig-zag order) of the last nonzero coefficient, +1.
    last = np.maximum.reduce(np.sign(flat) * _rank_ends(size), axis=1)
    bits = (payloads + last) * entropy_efficiency
    if not last.all():
        bits[last == 0] = SKIP_BITS * entropy_efficiency
    return bits


def batch_sad(stack: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Sum of absolute differences of every stacked block vs ``source``."""
    _require_stack(stack)
    return np.abs(stack - source).sum(axis=(1, 2))
