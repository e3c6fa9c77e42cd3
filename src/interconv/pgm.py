"""8-bit grayscale PGM files (P5 binary, P2 ASCII)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


def _tokens(data: bytes):
    """Yield (token, offset-past-token) for whitespace-separated tokens,
    skipping '#' comments. Stops cleanly at end of input."""
    i = 0
    while True:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i] == ord("#"):
            while i < len(data) and data[i] != ord("\n"):
                i += 1
            continue
        if i >= len(data):
            return
        start = i
        while i < len(data) and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        yield data[start:i], i


def read_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit PGM into a uint8 array of shape (rows, cols)."""
    path = Path(path)
    data = path.read_bytes()
    tok = _tokens(data)
    try:
        magic, _ = next(tok)
    except StopIteration:
        raise DataError(f"{path}: empty PGM file") from None
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: not a PGM file (magic {magic[:8]!r})")
    try:
        (w_tok, _), (h_tok, _), (m_tok, end) = next(tok), next(tok), next(tok)
        width, height, maxval = int(w_tok), int(h_tok), int(m_tok)
    except (StopIteration, ValueError) as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad PGM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise DataError(f"{path}: only 8-bit PGM supported, maxval {maxval}")

    if magic == b"P5":
        raster = data[end + 1 : end + 1 + width * height]  # single whitespace after maxval
        if len(raster) != width * height:
            raise DataError(f"{path}: PGM raster truncated")
        img = np.frombuffer(raster, dtype=np.uint8)
    else:
        try:
            values = [int(t) for t, _ in _tokens(data[end:])]
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric token in P2 raster") from exc
        if len(values) != width * height:
            raise DataError(
                f"{path}: P2 raster has {len(values)} values, expected {width * height}"
            )
        img = np.array(values, dtype=np.int64)
        if img.min() < 0:
            raise DataError(f"{path}: negative pixel value in P2 raster")
    if img.max(initial=0) > maxval:
        raise DataError(f"{path}: pixel exceeds declared maxval {maxval}")
    return img.reshape(height, width).astype(np.uint8)


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write real values in [0, 1] as binary P5, scaled by 255, half-up rounding."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"PGM export expects a 2-d matrix, got shape {arr.shape}")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise DataError("PGM export expects values in [0, 1]")
    pixels = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
