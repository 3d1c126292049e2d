"""Encoded responses build a block when it is read, not when fetched.

``ProgressiveEncoder._build`` returns a response whose ``blocks`` is a
:class:`~repro.core.blocks.BlockSequence`.  The eager tuple build it
replaced lives on here as the oracle: for every encoder the lazy
sequence must read exactly like the tuple of blocks built up front.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import Block, BlockSequence, ProgressiveResponse
from repro.core.greedy import GreedyScheduler
from repro.encoding import (
    ImageAsset,
    ProgressiveImageEncoder,
    RowSampleEncoder,
    SingleBlockEncoder,
    split_padded,
)
from repro.encoding.image import ImageScan
from repro.encoding.rowsample import RowSamplePayload
from repro.experiments.configs import DEFAULT_ENV
from repro.experiments.runner import run_khameleon
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator


# -- the oracle: every block of the response, built up front -------------


def eager_response(request, sizes, payloads):
    """The eager build ``_build`` used to do: one Block per (size, payload)."""
    assert len(sizes) == len(payloads)
    blocks = tuple(
        Block(request=request, index=i, size_bytes=size, payload=payload)
        for i, (size, payload) in enumerate(zip(sizes, payloads))
    )
    return ProgressiveResponse(request=request, blocks=blocks)


def eager_image(request, total_bytes, block_bytes):
    sizes = split_padded(total_bytes, block_bytes)
    payloads = [ImageScan(request + 100, i, len(sizes)) for i in range(len(sizes))]
    return eager_response(request, sizes, payloads)


def eager_rowsample(request, rows, nb, bytes_per_row):
    rows = np.atleast_2d(np.asarray(rows))
    stripes = [rows[b::nb] for b in range(nb)]
    block_size = max(1, max(len(s) for s in stripes) * bytes_per_row)
    payloads = [RowSamplePayload(s, b, nb) for b, s in enumerate(stripes)]
    return eager_response(request, [block_size] * nb, payloads)


def same_payload(a, b):
    if isinstance(a, RowSamplePayload):
        return (
            isinstance(b, RowSamplePayload)
            and np.array_equal(a.rows, b.rows)
            and (a.stripe, a.total_stripes) == (b.stripe, b.total_stripes)
        )
    return a == b


def count_block_builds(monkeypatch):
    """Record (request, index) of every Block that passes ``__post_init__``."""
    built = []
    validate = Block.__post_init__

    def counting_post_init(self):
        validate(self)
        built.append((self.request, self.index))

    monkeypatch.setattr(Block, "__post_init__", counting_post_init)
    return built


@st.composite
def byte_sizes(draw):
    """(total bytes, block bytes): one block, exact multiples, short tails."""
    block = draw(st.integers(min_value=1, max_value=5_000))
    count = draw(st.integers(min_value=1, max_value=40))
    tail = draw(st.sampled_from(["exact", "short", "one_byte_over"]))
    total = count * block
    if tail == "short":
        total -= draw(st.integers(min_value=0, max_value=block - 1))
    elif tail == "one_byte_over":
        total += 1
    return max(1, total), block


@st.composite
def encoded_pairs(draw):
    """(lazy response from the encoder, eager oracle response)."""
    kind = draw(st.sampled_from(["image", "naive", "rowsample"]))
    request = draw(st.integers(min_value=0, max_value=50))
    if kind == "rowsample":
        n_rows = draw(st.integers(min_value=1, max_value=120))
        nb = draw(st.integers(min_value=1, max_value=16))
        bytes_per_row = draw(st.integers(min_value=1, max_value=64))
        rows = np.column_stack([np.arange(n_rows) % 7, np.arange(n_rows)])
        lazy = RowSampleEncoder(nb, bytes_per_row).encode(request, rows)
        return lazy, eager_rowsample(request, rows, nb, bytes_per_row)
    total, block = draw(byte_sizes())
    if kind == "image":
        assets = {request: ImageAsset(image_id=request + 100, size_bytes=total)}
        lazy = ProgressiveImageEncoder(assets, block).encode(request)
        return lazy, eager_image(request, total, block)
    lazy = SingleBlockEncoder(lambda r: total).encode(request, "data")
    return lazy, eager_response(request, [total], ["data"])


# -- lazy ≡ eager ------------------------------------------------------------


class TestLazyBlocksMatchEagerOracle:
    @given(pair=encoded_pairs(), data=st.data())
    def test_reads_like_the_eager_tuple(self, pair, data):
        lazy, eager = pair
        assert isinstance(lazy.blocks, BlockSequence)
        assert isinstance(eager.blocks, tuple)
        nb = len(eager.blocks)
        assert len(lazy.blocks) == lazy.num_blocks == eager.num_blocks == nb
        assert lazy.total_bytes == eager.total_bytes

        # A slice before anything else was read: built on demand.
        sl = data.draw(
            st.builds(
                slice,
                st.none() | st.integers(-nb - 2, nb + 2),
                st.none() | st.integers(-nb - 2, nb + 2),
                st.none() | st.sampled_from([1, 2, -1, -3]),
            )
        )
        assert lazy.blocks[sl] == eager.blocks[sl]
        assert isinstance(lazy.blocks[sl], tuple)

        for i in range(nb):
            for index in (i, i - nb):
                got, want = lazy.blocks[index], eager.blocks[index]
                assert got == want
                assert (got.request, got.index, got.size_bytes) == (
                    want.request, want.index, want.size_bytes,
                )
                assert same_payload(got.payload, want.payload)
                assert type(got.index) is int
        for bad in (nb, nb + 3, -nb - 1):
            with pytest.raises(IndexError):
                lazy.blocks[bad]

        assert list(lazy.blocks) == list(eager.blocks) == list(lazy)
        assert lazy.blocks == eager.blocks and eager.blocks == lazy.blocks
        assert lazy.blocks != eager.blocks[:-1]
        for k in {0, 1, nb // 2, nb}:
            assert lazy.prefix(k) == eager.prefix(k)
        with pytest.raises(ValueError):
            lazy.prefix(nb + 1)

    @given(pair=encoded_pairs())
    def test_a_block_is_built_once_and_kept(self, pair):
        """The cache mirror and the link hold the object the sender read."""
        lazy, _ = pair
        blocks = lazy.blocks
        last = blocks[-1]
        assert blocks[len(blocks) - 1] is last
        assert all(a is b for a, b in zip(blocks, blocks))
        assert blocks[:][-1] is last
        assert lazy.prefix(1)[0] is blocks[0]

    def test_only_read_blocks_are_built(self, monkeypatch):
        built = count_block_builds(monkeypatch)
        assets = {3: ImageAsset(image_id=3, size_bytes=1_700_000)}
        response = ProgressiveImageEncoder(assets).encode(3)
        assert response.num_blocks == 34 and response.total_bytes == 1_700_000
        assert built == []
        response.blocks[5]
        response.blocks[5]
        response.blocks[-1]
        assert built == [(3, 5), (3, 33)]

    def test_equal_to_another_lazy_sequence_and_to_nothing_else(self):
        assets = {1: ImageAsset(1, 120), 2: ImageAsset(2, 120)}
        enc = ProgressiveImageEncoder(assets, block_size_bytes=50)
        assert enc.encode(1).blocks == enc.encode(1).blocks
        assert enc.encode(1).blocks != enc.encode(2).blocks
        assert enc.encode(1).blocks != list(enc.encode(1).blocks)


class TestBuildValidation:
    """What the eager build checked block by block is checked once."""

    enc = SingleBlockEncoder(lambda r: 1)

    @pytest.mark.parametrize(
        "request_id, count, size",
        [(0, 0, 10), (0, -2, 10), (0, 3, 0), (0, 3, -5), (-1, 3, 10)],
    )
    def test_bad_count_size_or_request_raise_at_build(self, request_id, count, size):
        with pytest.raises(ValueError):
            self.enc._build(request_id, count, size, lambda i: None)

    def test_every_built_block_passes_block_validation(self, monkeypatch):
        built = count_block_builds(monkeypatch)
        response = self.enc._build(4, 3, 10, lambda i: f"p{i}")
        assert [b.payload for b in response] == ["p0", "p1", "p2"]
        assert built == [(4, 0), (4, 1), (4, 2)]

    def test_response_rejects_blocks_of_another_request(self):
        blocks = BlockSequence(2, 3, 10, lambda i: None)
        assert ProgressiveResponse(2, blocks).num_blocks == 3
        with pytest.raises(ValueError):
            ProgressiveResponse(1, blocks)


# -- through the backend and the sender ---------------------------------------


#: ``run_khameleon`` below at the parent of the lazy build (d39fa1b): no
#: block on the wire, event or counter may move.
PARENT_RUN = {
    "summary": {
        "requests": 36,
        "served": 34,
        "preempted": 2,
        "unanswered": 0,
        "cache_hit_%": 88.23529411764706,
        "preempted_%": 5.555555555555555,
        "latency_ms": 19.861111111111097,
        "median_latency_ms": 0.0,
        "p95_latency_ms": 59.777777777777665,
        "utility": 0.6353874272094997,
    },
    "blocks_pushed": 768,
    "bytes_pushed": 38_400_000,
    "backend": {
        "fetches_started": 64,
        "fetches_completed": 64,
        "cache_hits": 998,
        "piggybacked": 12,
        "peak_concurrency": 28,
    },
}


def test_run_builds_exactly_the_blocks_it_sends(monkeypatch):
    """FileSystemBackend + Sender: a fetch builds no block, a send builds
    one — at the parent it built Σ Nb over fetches, 2175 here."""
    built = count_block_builds(monkeypatch)
    sent = []
    on_sent = GreedyScheduler.on_sent

    def recording_on_sent(self, block):
        sent.append((block.request, block.index))
        on_sent(self, block)

    monkeypatch.setattr(GreedyScheduler, "on_sent", recording_on_sent)

    app = ImageExplorationApp(rows=8, cols=8)
    trace = MouseTraceGenerator(app.layout, seed=3).generate(duration_s=4.0)
    result = run_khameleon(app, trace, DEFAULT_ENV, seed=5)

    assert len(sent) == result.blocks_pushed
    assert sorted(built) == sorted(set(sent))
    assert {
        "summary": result.summary.as_dict(),
        "blocks_pushed": result.blocks_pushed,
        "bytes_pushed": result.bytes_pushed,
        "backend": result.extras["backend"],
    } == PARENT_RUN
