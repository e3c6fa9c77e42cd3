"""PGM reading/writing, including the ASCII variant and malformed files."""

import numpy as np
import pytest

from interconv import DataError, read_pgm, write_pgm


def test_round_trip_is_exact(tmp_path):
    # multiples of 1/255 survive the byte conversion exactly
    values = np.arange(12).reshape(3, 4) * 20 / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, values)
    img = read_pgm(path)
    assert img.dtype == np.uint8
    assert img.shape == (3, 4)
    assert np.array_equal(img, np.arange(12).reshape(3, 4) * 20)


def test_rounding_is_half_up(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.5, 0.0, 1.0]]))
    assert read_pgm(path).ravel().tolist() == [128, 0, 255]


def test_write_validates_input(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "a.pgm", np.array([0.1, 0.2]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "b.pgm", np.array([[1.1]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "c.pgm", np.array([[-0.1]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "d.pgm", np.array([[np.nan, 0.5]]))
    assert not (tmp_path / "d.pgm").exists()


def test_p2_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50 # trailing\n")
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img.ravel().tolist() == [0, 10, 20, 30, 40, 50]


def test_p5_header_comment(tmp_path):
    path = tmp_path / "bin.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert read_pgm(path).ravel().tolist() == [1, 2, 3, 4]


def test_small_maxval_scales_nothing_but_is_accepted(tmp_path):
    path = tmp_path / "dim.pgm"
    path.write_bytes(b"P2\n2 1\n10\n3 10\n")
    assert read_pgm(path).ravel().tolist() == [3, 10]


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"P6\n2 2\n255\n" + bytes(12),
        b"P5\n2 2\n",
        b"P5\n0 2\n255\n",
        b"P5\n2 2\n65535\n" + bytes(8),
        b"P5\n2 2\n255\n" + bytes(3),
        b"P2\n2 2\n255\n1 2 3\n",
        b"P2\n2 1\n255\n1 abc\n",
        b"P2\n2 1\n10\n3 11\n",
        b"P2\n2 1\n255\n3 -1\n",  # uint8 would store -1 as 255
    ],
)
def test_malformed_files_rejected(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(DataError):
        read_pgm(path)


def test_error_names_the_file(tmp_path):
    path = tmp_path / "oops.pgm"
    path.write_bytes(b"P3\n1 1\n255\n0\n")
    with pytest.raises(DataError, match="oops"):
        read_pgm(path)
