"""Progressive encoders (§3.3): naive single-block, image scans,
round-robin row sampling for query results."""

from .base import ProgressiveEncoder, padded_block_count, split_padded
from .image import ImageAsset, ProgressiveImageEncoder
from .naive import SingleBlockEncoder
from .rowsample import (
    RowSampleEncoder,
    RowSamplePayload,
    aggregate_histogram,
    decode_prefix,
    estimation_error,
)

__all__ = [
    "ProgressiveEncoder",
    "padded_block_count",
    "split_padded",
    "SingleBlockEncoder",
    "ImageAsset",
    "ProgressiveImageEncoder",
    "RowSampleEncoder",
    "RowSamplePayload",
    "decode_prefix",
    "aggregate_histogram",
    "estimation_error",
]
