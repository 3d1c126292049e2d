"""Tests for blocks, responses, and the request space."""

import pytest

from repro.core.blocks import Block, ProgressiveResponse


def make_response(request=0, nb=4, size=100):
    return ProgressiveResponse(
        request=request,
        blocks=tuple(Block(request, i, size) for i in range(nb)),
    )


class TestBlock:
    def test_valid_block(self):
        b = Block(request=3, index=0, size_bytes=50_000)
        assert (b.request, b.index, b.size_bytes) == (3, 0, 50_000)

    def test_payload_excluded_from_equality(self):
        assert Block(0, 0, 10, payload="a") == Block(0, 0, 10, payload="b")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"request": -1, "index": 0, "size_bytes": 1},
            {"request": 0, "index": -1, "size_bytes": 1},
            {"request": 0, "index": 0, "size_bytes": 0},
        ],
    )
    def test_invalid_block(self, kwargs):
        with pytest.raises(ValueError):
            Block(**kwargs)


class TestProgressiveResponse:
    def test_valid_response(self):
        r = make_response(nb=3)
        assert r.num_blocks == 3
        assert r.total_bytes == 300

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveResponse(request=0, blocks=())

    def test_wrong_request_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveResponse(request=0, blocks=(Block(1, 0, 10),))

    def test_out_of_order_indices_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveResponse(
                request=0, blocks=(Block(0, 1, 10), Block(0, 0, 10))
            )

    def test_prefix(self):
        r = make_response(nb=4)
        assert len(r.prefix(2)) == 2
        assert r.prefix(0) == ()
        assert r.prefix(4) == r.blocks

    def test_prefix_out_of_range(self):
        with pytest.raises(ValueError):
            make_response(nb=2).prefix(3)

    def test_iteration(self):
        assert [b.index for b in make_response(nb=3)] == [0, 1, 2]

