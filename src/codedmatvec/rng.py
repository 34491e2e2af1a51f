"""Deterministic random streams for reproducible trials."""

from __future__ import annotations

import numpy as np

_U64 = 2**64


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce the identical draw sequence; distinct
    stream_ids give statistically independent streams, so trial i of a
    Monte Carlo run is always RngStream(seed, i) regardless of how many
    trials run or in what order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        _check_key("seed", seed)
        _check_key("stream_id", stream_id)
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniforms(self, size=None):
        """Draws from U[0, 1)."""
        return self._gen.random(size)

    def standard_normals(self, size=None):
        return self._gen.standard_normal(size)


def uniform_rows(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """Fill row j of the C-contiguous float64 matrix `out` with the draws of
    RngStream(seed, first + j).uniforms(out.shape[1]), bit for bit.

    One Philox bit generator is re-keyed through its state for each row
    (key (seed, stream_id), counter 0, empty buffer), which is what a fresh
    RngStream starts from, without constructing one per row.  The state
    holds plain lists: the setter reads every entry by index, which costs
    less on a list than on the numpy arrays the getter returns.
    """
    _check_key("seed", seed)
    _check_key("stream_id", first)
    _check_key("stream_id", first + max(len(out) - 1, 0))
    bit_gen = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    key = [seed, first]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for j, row in enumerate(out):
        key[1] = first + j
        bit_gen.state = state
        gen.random(out=row)
    return out


def _check_key(name: str, value) -> None:
    if not isinstance(value, int) or not 0 <= value < _U64:
        raise ValueError(f"{name} must be an integer in [0, 2^64): got {value!r}")
