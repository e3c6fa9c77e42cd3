"""Shared builders for small test datasets."""

import numpy as np
import pytest

from interconv import DiscreteDataset, RealDataset


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def binary_dataset(n, p, seed=0, signal=None):
    """Random binary features; Y is random unless `signal` names columns
    whose parity defines Y exactly."""
    gen = np.random.default_rng(seed)
    x = gen.integers(0, 2, size=(n, p), dtype=np.int64)
    if signal is None:
        y = gen.integers(0, 2, size=n, dtype=np.int64)
    else:
        y = x[:, list(signal)].sum(axis=1) % 2
    return DiscreteDataset(x, y)


def real_dataset(n, p, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.random((n, p))
    y = gen.integers(0, 2, size=n, dtype=np.int64)
    return RealDataset(x, y)


def with_blank_lines(text):
    """`text` with a blank first line, a blank line after its second record and
    trailing blank lines."""
    first, second, *rest = text.splitlines()
    return "\n".join(["", first, second, "", *rest, "", "", ""])
