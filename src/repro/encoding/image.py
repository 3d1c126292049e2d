"""Progressive image encoder (§3.4, Fig. 3).

The paper's image application uses progressive JPEG: the file is a
sequence of *scans*, each refining the whole image, so any byte prefix
decodes to a coarser rendering.  Block contents are irrelevant to
every Khameleon mechanism (scheduler, cache, network all see sizes and
counts), so this encoder models exactly the observable part: it splits
an image asset's byte size into fixed-size padded blocks and tags each
block with a scan descriptor.

Quality-per-prefix lives in the utility function
(:func:`repro.core.utility.ssim_image_utility`), just as the paper
measures SSIM offline and feeds the curve to the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.blocks import ProgressiveResponse

from .base import ProgressiveEncoder, padded_block_count

__all__ = ["ImageAsset", "ProgressiveImageEncoder"]


@dataclass(frozen=True)
class ImageAsset:
    """A stored image: identity plus on-disk size (pixels not modelled)."""

    image_id: int
    size_bytes: int
    width: int = 1920
    height: int = 1080

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("image size must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class ImageScan:
    """Payload of one block: which progressive scan of which image."""

    image_id: int
    scan: int
    total_scans: int


class ProgressiveImageEncoder(ProgressiveEncoder):
    """Splits images into fixed-size blocks ("scans").

    ``block_size_bytes`` is the knob from §3.4 — finer blocks let the
    scheduler hedge across more requests per unit bandwidth.  Images of
    1.3–2 MB at the default 50 KB yield 26–40 blocks each.
    """

    DEFAULT_BLOCK_SIZE = 50_000

    def __init__(self, assets: dict[int, ImageAsset], block_size_bytes: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size_bytes <= 0:
            raise ValueError("block size must be positive")
        self.assets = assets
        self.block_size_bytes = block_size_bytes

    def num_blocks(self, request: int) -> int:
        asset = self.assets[request]
        return padded_block_count(asset.size_bytes, self.block_size_bytes)

    def encode(self, request: int, data: Any = None) -> ProgressiveResponse:
        asset = self.assets[request]
        image_id = asset.image_id
        total = padded_block_count(asset.size_bytes, self.block_size_bytes)
        return self._build(
            request,
            total,
            self.block_size_bytes,
            lambda i: ImageScan(image_id=image_id, scan=i, total_scans=total),
        )
