"""The image exploration application (§2, Fig. 1a, §6).

A dense mosaic of thumbnails (the paper uses 100 × 100 = 10,000);
hovering over a thumbnail loads the corresponding full-resolution
image of 1.3–2 MB.  The paper pre-loads a file system with
progressively encoded JPEG blocks and uses the SSIM-derived utility
curve of Fig. 3.

:class:`SyntheticImageStore` stands in for the paper's image corpus:
per-image byte sizes are drawn deterministically in the same 1.3–2 MB
range (every Khameleon mechanism — scheduler, cache, link — observes
only sizes and block counts, never pixels; see DESIGN.md §2).

:class:`ImageExplorationApp` bundles everything an experiment needs:
the grid layout, the encoder, the utility curve, per-request block
counts, and factories for the backend and the paper's predictors.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.filesystem import FileSystemBackend
from repro.core.utility import UtilityFunction, ssim_image_utility
from repro.encoding.image import ImageAsset, ProgressiveImageEncoder
from repro.predictors.base import DEFAULT_DELTAS_S, Predictor
from repro.predictors.kalman import make_kalman_predictor
from repro.predictors.layout import GridLayout
from repro.predictors.markov import make_markov_predictor
from repro.predictors.oracle import make_oracle_predictor
from repro.predictors.simple import make_point_predictor, make_uniform_predictor
from repro.clock import Clock

from .trace import InteractionTrace

__all__ = ["SyntheticImageStore", "ImageExplorationApp"]


class SyntheticImageStore:
    """Deterministic image corpus with paper-calibrated sizes.

    Sizes are uniform in ``[min_bytes, max_bytes]`` (paper: 1.3–2 MB),
    fixed by ``seed`` so that every run — and the server-side scheduler
    mirror — sees identical block counts.
    """

    MIN_BYTES = 1_300_000
    MAX_BYTES = 2_000_000

    def __init__(
        self,
        num_images: int,
        min_bytes: int = MIN_BYTES,
        max_bytes: int = MAX_BYTES,
        seed: int = 7,
    ) -> None:
        if num_images < 1:
            raise ValueError("store needs at least one image")
        if not 0 < min_bytes <= max_bytes:
            raise ValueError("need 0 < min_bytes <= max_bytes")
        rng = np.random.default_rng(seed)
        sizes = rng.integers(min_bytes, max_bytes + 1, size=num_images)
        self.assets: dict[int, ImageAsset] = {
            i: ImageAsset(image_id=i, size_bytes=int(sizes[i]))
            for i in range(num_images)
        }

    def __len__(self) -> int:
        return len(self.assets)

    def asset(self, image_id: int) -> ImageAsset:
        return self.assets[image_id]

    @property
    def total_bytes(self) -> int:
        return sum(a.size_bytes for a in self.assets.values())


class ImageExplorationApp:
    """Experiment bundle for the image gallery.

    Parameters
    ----------
    rows, cols:
        Mosaic dimensions.  The paper's full scale is 100 × 100; the
        benchmark harness defaults to a reduced grid so sweeps finish
        in CI time (``benchmarks/results/`` holds the reduced-scale
        tables; the ``single10k_kalman`` workload README reports runs
        the full grid).
    cell_px:
        Thumbnail edge length in pixels (drives mouse→request mapping).
    block_bytes:
        Progressive-encoding block size (§3.4's tuning knob).
    """

    def __init__(
        self,
        rows: int = 100,
        cols: int = 100,
        cell_px: float = 20.0,
        block_bytes: int = 50_000,
        utility: Optional[UtilityFunction] = None,
        seed: int = 7,
    ) -> None:
        self.layout = GridLayout(rows, cols, cell_width=cell_px, cell_height=cell_px)
        self.store = SyntheticImageStore(self.layout.num_requests, seed=seed)
        self.encoder = ProgressiveImageEncoder(self.store.assets, block_bytes)
        self.utility = utility if utility is not None else ssim_image_utility()
        self.block_bytes = block_bytes
        #: Store seed, kept so the app can be rebuilt from a spec in a
        #: sharded worker process (see ImageAppSpec).
        self.seed = seed

    @property
    def num_requests(self) -> int:
        return self.layout.num_requests

    @property
    def num_blocks(self) -> list[int]:
        """Per-request block counts, in request-id order."""
        return [self.encoder.num_blocks(r) for r in range(self.num_requests)]

    def response_bytes(self, request: int) -> int:
        """Full (unpadded) response size of one image."""
        return self.store.asset(request).size_bytes

    def mean_response_bytes(self) -> float:
        return self.store.total_bytes / len(self.store)

    # -- factories -----------------------------------------------------

    def make_backend(self, sim: Clock, fetch_delay_s: float = 0.0) -> FileSystemBackend:
        """Pre-encoded file-system backend (§3.3's default substrate)."""
        return FileSystemBackend(sim, self.encoder, fetch_delay_s=fetch_delay_s)

    def make_predictor(
        self,
        name: str,
        trace: Optional[InteractionTrace] = None,
        deltas_s: Sequence[float] = DEFAULT_DELTAS_S,
    ) -> Predictor:
        """Predictor by name: kalman / oracle / uniform / point / markov.

        ``oracle`` needs the trace it will be replayed against (it reads
        the exact future position, §6.1).
        """
        if name == "kalman":
            return make_kalman_predictor(self.layout, deltas_s=deltas_s)
        if name == "oracle":
            if trace is None:
                raise ValueError("oracle predictor needs the replay trace")

            def future_request(t: float) -> Optional[int]:
                x, y = trace.position_at(t)
                return self.layout.request_at(x, y)

            return make_oracle_predictor(
                self.num_requests, future_request, deltas_s=deltas_s
            )
        if name == "uniform":
            return make_uniform_predictor(self.num_requests, deltas_s=deltas_s)
        if name == "point":
            return make_point_predictor(self.num_requests, deltas_s=deltas_s)
        if name == "markov":
            # Session-private first-order chain over the request stream
            # (the fleet runner swaps in the crowd-shared variant when
            # asked for "shared-markov").
            return make_markov_predictor(self.num_requests, deltas_s=deltas_s)
        raise ValueError(f"unknown predictor {name!r}")
