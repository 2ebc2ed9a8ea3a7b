import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicam import weightfile
from bicam.cli import _fmt, read_grid_csv, write_grid_csv
from bicam.errors import DataFormatError
from bicam.netpbm import (read_pgm, read_ppm, render_signed,
                          signed_scale, write_pgm, write_ppm, write_rendered)
from bicam.vit import ViTConfig, init_weights


# -- ppm -------------------------------------------------------------------------


def test_ppm_round_trip_error_within_quantization(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((3, 9, 13))
    p = str(tmp_path / "x.ppm")
    write_ppm(p, img)
    back = read_ppm(p)
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 1.0 / 255.0


def test_ppm_written_values_round_trip_exactly(tmp_path):
    # values already on the 8-bit lattice survive a write/read cycle bitwise
    img = np.round(np.random.default_rng(1).random((3, 4, 4)) * 255) / 255.0
    p = str(tmp_path / "x.ppm")
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)


def test_ppm_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DataFormatError):
        read_ppm(str(p))


def test_ppm_rejects_truncated(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(DataFormatError):
        read_ppm(str(p))


def test_ppm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "max.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(DataFormatError):
        read_ppm(str(p))


def test_write_ppm_rejects_a_grey_image(tmp_path):
    with pytest.raises(DataFormatError, match=r"expects \[3, H, W\]"):
        write_ppm(str(tmp_path / "grey.ppm"), np.zeros((4, 4)))
    assert not (tmp_path / "grey.ppm").exists()


def test_ppm_header_comments(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 # inline\n1\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
    img = read_ppm(str(p))
    assert img.shape == (3, 1, 2)
    assert img[0, 0, 0] == 0.0 and img[0, 0, 1] == 1.0


# -- pgm -------------------------------------------------------------------------


def test_pgm_round_trip_binary_mask(tmp_path):
    mask = np.random.default_rng(2).integers(0, 2, (6, 5))
    p = str(tmp_path / "m.pgm")
    write_pgm(p, mask)
    assert np.array_equal(read_pgm(p), mask)


def test_pgm_threshold_at_127(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
    assert np.array_equal(read_pgm(str(p)), [[0, 0, 1, 1]])


def test_binary_writers_write_the_exact_bytes(tmp_path):
    # a 3-wide, 2-high image: the header gives width then height, and the
    # samples follow row by row, each pixel's R, G and B together
    rgb = [[(0, 1, 2), (3, 4, 250), (255, 128, 7)],
           [(9, 10, 11), (200, 13, 14), (15, 16, 17)]]
    samples = bytes(c for row in rgb for pixel in row for c in pixel)
    p6 = b"P6\n3 2\n255\n" + samples
    pixels = np.array(rgb, dtype=np.uint8)
    write_ppm(str(tmp_path / "a.ppm"), pixels.transpose(2, 0, 1) / 255.0)
    assert (tmp_path / "a.ppm").read_bytes() == p6
    write_rendered(str(tmp_path / "b.ppm"), pixels)
    assert (tmp_path / "b.ppm").read_bytes() == p6

    mask = [[1, 0, 1], [0, 0, 1]]
    write_pgm(str(tmp_path / "m.pgm"), np.array(mask))
    assert (tmp_path / "m.pgm").read_bytes() == (
        b"P5\n3 2\n255\n" + bytes(255 * v for row in mask for v in row))
    with pytest.raises(DataFormatError):   # a P5 file holds one sample per pixel
        write_pgm(str(tmp_path / "m.pgm"), np.zeros((2, 3, 3)))


def test_pgm_ascii_p2(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2\n3 2\n255\n0 200 10\n255 0 130\n")
    assert np.array_equal(read_pgm(str(p)), [[0, 1, 0], [1, 0, 1]])


def test_pgm_truncated(tmp_path):
    p = tmp_path / "tr.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DataFormatError):
        read_pgm(str(p))


# -- rendering -----------------------------------------------------------------------


def test_render_zero_map_uniform_white():
    heat = np.zeros((3, 3))
    img = render_signed(heat, signed_scale(heat))
    assert np.array_equal(img, np.full((3, 3, 3), 255, np.uint8))


def test_render_hand_values():
    heat = np.array([[1.0, -1.0], [0.0, 0.5]])
    img = render_signed(heat, signed_scale(heat))  # scale = 1
    assert tuple(img[0, 0]) == (255, 0, 0)        # strongest positive: pure red
    assert tuple(img[0, 1]) == (0, 0, 255)        # strongest negative: pure blue
    assert tuple(img[1, 0]) == (255, 255, 255)    # zero: white midpoint
    # v = 0.5 -> red stays 255, green/blue fade to rint(127.5) = 128
    assert tuple(img[1, 1]) == (255, 128, 128)


def test_channel_renderings_reconstruct_signed(tmp_path):
    heat = np.array([[0.8, -0.4], [0.0, -1.0]])
    scale = signed_scale(heat)
    signed = render_signed(heat, scale)
    pos = render_signed(np.maximum(heat, 0), scale)
    neg = render_signed(-np.maximum(-heat, 0), scale)
    recombined = np.where((heat > 0)[..., None], pos,
                          np.where((heat < 0)[..., None], neg,
                                   np.full_like(pos, 255)))
    assert np.array_equal(recombined, signed)
    write_rendered(str(tmp_path / "r.ppm"), signed)
    assert np.array_equal(read_ppm(str(tmp_path / "r.ppm")),
                          signed.transpose(2, 0, 1) / 255.0)


# -- weight files -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_weights():
    cfg = ViTConfig(image_height=8, image_width=8, patch_size=4, num_layers=2,
                    num_heads=2, embed_dim=8, ffn_dim=12, num_classes=2,
                    distillation_token=True, temperature=1.5)
    return init_weights(cfg, seed=11)


def test_weightfile_round_trip_bitwise(small_weights, tmp_path):
    p = str(tmp_path / "w.bw")
    weightfile.save_weights(small_weights, p)
    back = weightfile.load_weights(p)
    assert back.config == small_weights.config
    assert back.checksum() == small_weights.checksum()
    for name, arr in small_weights.tensors.items():
        assert np.array_equal(back[name], arr)


def test_weightfile_header_is_the_config_in_file_order(tmp_path):
    # ten distinct values, so a reordered field list shows in the bytes
    cfg = ViTConfig(image_height=12, image_width=8, patch_size=4, num_layers=3,
                    num_heads=5, embed_dim=10, ffn_dim=7, num_classes=6,
                    distillation_token=True, layer_window=2, temperature=1.5)
    p = tmp_path / "w.bw"
    weightfile.save_weights(init_weights(cfg, seed=1), str(p))
    raw = p.read_bytes()
    assert raw[7:47] == struct.pack("<10i", 12, 8, 4, 3, 5, 10, 7, 6, 1, 2)
    assert raw[47:55] == struct.pack("<d", 1.5)
    assert weightfile.load_weights(str(p)).config == cfg


def test_weightfile_rejects_corrupt_magic(small_weights, tmp_path):
    p = tmp_path / "w.bw"
    weightfile.save_weights(small_weights, str(p))
    raw = bytearray(p.read_bytes())
    raw[0] = ord(b"X")
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        weightfile.load_weights(str(p))


def test_weightfile_rejects_truncation(small_weights, tmp_path):
    p = tmp_path / "w.bw"
    weightfile.save_weights(small_weights, str(p))
    raw = p.read_bytes()
    p.write_bytes(raw[:-50])
    with pytest.raises(DataFormatError):
        weightfile.load_weights(str(p))


def test_weightfile_rejects_trailing_garbage(small_weights, tmp_path):
    p = tmp_path / "w.bw"
    weightfile.save_weights(small_weights, str(p))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError):
        weightfile.load_weights(str(p))


def test_weightfile_rejects_invalid_config(tmp_path):
    # config block with zero layers must be rejected before tensor parsing
    import struct
    p = tmp_path / "bad.bw"
    blob = b"BICAMW1" + struct.pack("<10i", 8, 8, 4, 0, 2, 8, 12, 2, 0, 1)
    blob += struct.pack("<d", 1.0) + struct.pack("<i", 0)
    p.write_bytes(blob)
    with pytest.raises(DataFormatError):
        weightfile.load_weights(str(p))


def test_load_model_runs(small_weights, tmp_path):
    p = str(tmp_path / "w.bw")
    weightfile.save_weights(small_weights, p)
    model = weightfile.load_model(p)
    logits = model.predict_logits(np.zeros((1, 3, 8, 8)))
    assert np.isfinite(logits).all()


# -- csv grids -----------------------------------------------------------------------


def test_grid_csv_round_trip_bitwise(tmp_path):
    grid = np.random.default_rng(3).standard_normal((5, 7)) * 1e-3
    p = str(tmp_path / "g.csv")
    write_grid_csv(p, grid)
    assert np.array_equal(read_grid_csv(p), grid)


@pytest.mark.parametrize("shape", [(4, 6), (24,)], ids=["grid", "row"])
def test_grid_csv_writes_each_value_as_fmt_does(tmp_path, shape):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
               np.finfo(np.float64).tiny, 1e308, -np.finfo(np.float64).max, 0.1, 1 / 3]
    grid = np.array(special + list(np.random.default_rng(4).standard_normal(12))).reshape(shape)
    p = tmp_path / "g.csv"
    write_grid_csv(str(p), grid)
    expected = "".join(",".join(_fmt(v) for v in row) + "\n" for row in np.atleast_2d(grid))
    assert p.read_bytes() == expected.encode()


def test_weightfile_rejects_config_payload_mismatch(small_weights, tmp_path):
    import struct
    p = tmp_path / "w.bw"
    weightfile.save_weights(small_weights, str(p))
    raw = bytearray(p.read_bytes())
    # config block starts after the 7-byte magic; field 4 is the layer count
    offset = 7 + 3 * 4
    (layers,) = struct.unpack_from("<i", raw, offset)
    struct.pack_into("<i", raw, offset, layers + 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        weightfile.load_weights(str(p))


def _record_header_offsets(raw: bytes) -> list[int]:
    """Byte offsets of every tensor record's name length, name, rank and dims."""
    offsets, pos = [], 7 + 40 + 8 + 4
    while pos < len(raw):
        (nlen,) = struct.unpack_from("<i", raw, pos)
        (rank,) = struct.unpack_from("<i", raw, pos + 4 + nlen)
        end = pos + 8 + nlen + 4 * rank
        offsets.extend(range(pos, end))
        pos = end + 8 * int(np.prod(struct.unpack_from(f"<{rank}i", raw, end - 4 * rank)))
    return offsets


@pytest.fixture(scope="module")
def record_fuzz(small_weights, tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "w.bw"
    weightfile.save_weights(small_weights, str(p))
    raw = p.read_bytes()
    return p, raw, _record_header_offsets(raw)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_weightfile_record_mutations_raise_only_data_format_error(record_fuzz, edits):
    p, raw, offsets = record_fuzz
    buf = bytearray(raw)
    for where, value in edits:
        buf[offsets[where % len(offsets)]] = value
    p.write_bytes(bytes(buf))
    try:
        weightfile.load_weights(str(p))
    except DataFormatError:
        pass
