"""Zerotree-wavelet-style progressive encoder (§3.4, [71]).

The developer walkthrough suggests the application "switch to an
alternative progressive encoding altogether".  This encoder models an
embedded-wavelet code (EZW/SPIHT family): quality per byte decays
geometrically across refinement *passes*, so the matching utility
curve is exponential rather than the SSIM piecewise fit used for
progressive JPEG.

Blocks are still fixed-size wire units (the scheduler is agnostic to
the scheme); what changes is the pass structure attached to block
payloads and the :func:`wavelet_utility` curve that tells the
scheduler how front-loaded the quality is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.blocks import ProgressiveResponse
from repro.core.utility import PiecewiseUtility

from .base import ProgressiveEncoder, padded_block_count

__all__ = ["WaveletPass", "WaveletEncoder", "wavelet_utility"]


@dataclass(frozen=True)
class WaveletPass:
    """Payload of one block: a refinement pass of the embedded code."""

    item_id: int
    pass_index: int
    total_passes: int
    significance: float  # quality contribution of this pass, in (0, 1]


class WaveletEncoder(ProgressiveEncoder):
    """Splits byte sizes into fixed blocks tagged with wavelet passes.

    ``decay`` is the per-pass quality ratio: pass ``k`` contributes
    ``decay^k`` as much as pass 0 (EZW-style bit-plane halving uses
    ``decay=0.5``).
    """

    def __init__(
        self,
        size_of,
        block_size_bytes: int = 50_000,
        decay: float = 0.5,
    ) -> None:
        if block_size_bytes <= 0:
            raise ValueError("block size must be positive")
        if not 0 < decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        self.size_of = size_of
        self.block_size_bytes = block_size_bytes
        self.decay = decay

    def num_blocks(self, request: int) -> int:
        return padded_block_count(int(self.size_of(request)), self.block_size_bytes)

    def encode(self, request: int, data: Any = None) -> ProgressiveResponse:
        total = self.num_blocks(request)
        decay = self.decay
        norm = sum(decay**k for k in range(total))
        return self._build(
            request,
            total,
            self.block_size_bytes,
            lambda k: WaveletPass(
                item_id=request,
                pass_index=k,
                total_passes=total,
                significance=decay**k / norm,
            ),
        )


def wavelet_utility(num_points: int = 32, decay: float = 0.5) -> PiecewiseUtility:
    """The utility curve matching :class:`WaveletEncoder`'s pass decay.

    ``U(f) = (1 - decay^(f * P)) / (1 - decay^P)`` — the cumulative
    significance of the first ``f`` fraction of passes; strongly
    concave, steeper than the SSIM curve.
    """
    if num_points < 2:
        raise ValueError("need at least two curve points")
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    passes = num_points - 1
    denom = 1.0 - decay**passes
    points = [
        (i / passes, (1.0 - decay**i) / denom) for i in range(num_points)
    ]
    # Pin the endpoints exactly against float error.
    points[0] = (0.0, 0.0)
    points[-1] = (1.0, 1.0)
    return PiecewiseUtility(points)
