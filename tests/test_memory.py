"""Peak memory of image loading and of the whole-matrix input checks.

`tracemalloc` sees numpy's data buffers, so the peak it reports while a call
runs bounds what the call allocated on top of what already existed. The
input checks test rows in blocks of at most `GATHER_LIMIT` elements, so
building a dataset over an existing matrix allocates at most one float64
block, however many rows the matrix has; `load_images` holds its matrix,
one image and one block.
"""

import tracemalloc

import numpy as np
import pytest

from interconv import DiscreteDataset, GridShape, ImageSet, RealDataset, load_images, write_pgm
from interconv.core import GATHER_LIMIT

BLOCK = GATHER_LIMIT * 8  # bytes of one block of float64 elements


def peak_bytes(call):
    """Peak bytes traced while `call()` runs, above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_load_images_holds_one_matrix(tmp_path):
    side, n = 64, 80
    gen = np.random.default_rng(0)
    lines = []
    for i in range(n):
        write_pgm(tmp_path / f"im{i:02d}.pgm", gen.random((side, side)))
        lines.append(f"im{i:02d}.pgm,{i % 2}")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label\n" + "\n".join(lines) + "\n")
    matrix, image = n * side * side * 8, side * side * 8
    assert matrix > 2 * BLOCK  # so the bound is under the two matrices that stacked rows hold
    assert peak_bytes(lambda: load_images(manifest)) <= matrix + image + BLOCK


WIDTH = 4096
ROWS = 16 * GATHER_LIMIT // WIDTH  # sixteen blocks, far more than any one temporary


@pytest.mark.parametrize("kind", ["RealDataset", "ImageSet", "DiscreteDataset"])
def test_checks_over_an_existing_matrix_allocate_one_block(kind):
    gen = np.random.default_rng(1)
    x, y = gen.random((ROWS, WIDTH)), gen.integers(0, 2, size=ROWS)
    levels, sources = (x * 3).astype(np.int64), tuple(map(str, range(ROWS)))
    build = {
        "RealDataset": lambda: RealDataset(x, y),
        "ImageSet": lambda: ImageSet(x, y, sources, GridShape(64, 64)),
        "DiscreteDataset": lambda: DiscreteDataset(levels, y, level_counts=np.full(WIDTH, 3)),
    }[kind]
    # the per-row response checks may add a few bytes a row
    assert peak_bytes(build) <= BLOCK + 64 * ROWS
