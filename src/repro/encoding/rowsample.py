"""Round-robin row-sampling encoder for query results (§6.1, §6.4).

Falcon's progressive encoding "samples rows of the response in a
round-robin fashion. For instance, for a 1D CDF, we sample values
along the x-axis."  Concretely: a query result of R rows split into Nb
blocks puts row ``r`` into block ``r % Nb``, so any prefix of blocks is
a uniform stride-sample of the result.  The decoder scales the partial
aggregate by ``Nb / k`` to estimate the full result from ``k`` blocks.

Unlike the image encoder, this one carries **real data**: the Falcon
experiments compute actual filtered histograms over the flights table
and the client decodes real approximate counts, so approximation error
is measurable (:func:`decode_prefix` + :func:`estimation_error`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.blocks import Block, ProgressiveResponse

from .base import ProgressiveEncoder

__all__ = [
    "RowSampleEncoder",
    "RowSamplePayload",
    "decode_prefix",
    "aggregate_histogram",
    "estimation_error",
]


@dataclass(frozen=True)
class RowSamplePayload:
    """Payload of one block: the rows assigned to this stripe.

    ``rows`` is a 2-D array (rows × columns) — for histogram slices,
    column 0 is the bin id and column 1 the count contribution.
    """

    rows: np.ndarray
    stripe: int
    total_stripes: int


class RowSampleEncoder(ProgressiveEncoder):
    """Round-robin stripes a row set into ``num_blocks`` equal blocks.

    ``bytes_per_row`` sets wire accounting; blocks are padded to the
    largest stripe so sizes stay uniform (§3.3).
    """

    def __init__(self, blocks_per_response: int, bytes_per_row: int = 16) -> None:
        if blocks_per_response < 1:
            raise ValueError("need at least one block per response")
        if bytes_per_row <= 0:
            raise ValueError("bytes_per_row must be positive")
        self.blocks_per_response = blocks_per_response
        self.bytes_per_row = bytes_per_row

    def num_blocks(self, request: int) -> int:
        return self.blocks_per_response

    def encode(self, request: int, data: Any) -> ProgressiveResponse:
        rows = np.atleast_2d(np.asarray(data))
        nb = self.blocks_per_response
        # Pad every block to the largest stripe's wire size: stripe 0's,
        # ceil(R / nb) rows.
        max_rows = -(-len(rows) // nb)
        block_size = max(1, max_rows * self.bytes_per_row)
        return self._build(
            request,
            nb,
            block_size,
            lambda b: RowSamplePayload(rows=rows[b::nb], stripe=b, total_stripes=nb),
        )


def decode_prefix(blocks: Sequence[Block]) -> np.ndarray:
    """Reassemble rows from a block prefix, scaled to full-result size.

    With ``k`` of ``Nb`` stripes, the union of stripes is a uniform
    sample of the rows; aggregates are unbiased after scaling counts by
    ``Nb / k``.  Returns the (possibly scaled) stacked rows.
    """
    if not blocks:
        raise ValueError("need at least one block to decode")
    payloads = [b.payload for b in blocks]
    if any(not isinstance(p, RowSamplePayload) for p in payloads):
        raise TypeError("blocks were not produced by RowSampleEncoder")
    total = payloads[0].total_stripes
    k = len(payloads)
    parts = [p.rows for p in payloads if len(p.rows)]
    if not parts:
        return np.empty((0, 2))
    stacked = np.vstack(parts).astype(float)
    if stacked.shape[1] >= 2 and k < total:
        stacked = stacked.copy()
        stacked[:, 1] *= total / k
    return stacked


def aggregate_histogram(rows: np.ndarray, num_bins: int) -> np.ndarray:
    """Sum (bin, count) rows into a dense histogram of ``num_bins``."""
    hist = np.zeros(num_bins)
    if len(rows):
        bins = rows[:, 0].astype(int)
        np.add.at(hist, bins, rows[:, 1])
    return hist


def estimation_error(
    blocks: Sequence[Block], full_rows: np.ndarray, num_bins: int
) -> float:
    """Relative L1 error of the decoded prefix vs the exact result.

    The measurable counterpart of the utility function for Falcon data:
    0 means the prefix reconstructs the histogram exactly.
    """
    approx = aggregate_histogram(decode_prefix(blocks), num_bins)
    exact = aggregate_histogram(np.atleast_2d(np.asarray(full_rows, dtype=float)), num_bins)
    denom = np.abs(exact).sum()
    if denom == 0:
        return 0.0
    return float(np.abs(approx - exact).sum() / denom)
