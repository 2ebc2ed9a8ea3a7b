"""Byte-mutation fuzzing of every input file kind the CLI reads.

Each test overwrites bytes of a valid file (and may cut it short), runs
``cli.main`` on it and accepts only exit 0, 2 or 3: a malformed input is a
usage or data error, never a traceback or a numeric failure. Examples are
derandomized, so a run is reproducible.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicam import netpbm, weightfile
from bicam.cli import main

FUZZ = settings(max_examples=40, derandomize=True, database=None, deadline=None)
# magic, the 10 config ints, temperature and tensor count, then the first
# tensor record's name length, name, rank and dims
WEIGHT_HEADER_BYTES = 7 + 40 + 8 + 4 + 4 + 16 + 4 + 8


# bytes that keep text formats parseable often enough to reach past the parser
TEXT_BYTES = list(b"0123456789+-.eE,=_# \nainfcl")


def edits(size: int):
    """Up to 6 (offset, byte) overwrites within the first ``size`` bytes."""
    byte = st.sampled_from(TEXT_BYTES) | st.integers(0, 255)
    return st.lists(st.tuples(st.integers(0, size - 1), byte), min_size=1, max_size=6)


def cuts(size: int):
    """Where to cut the file short, if at all."""
    return st.none() | st.integers(0, size)


def mutate(raw: bytes, changes, keep: int | None = None) -> bytes:
    buf = bytearray(raw)
    for offset, value in changes:
        buf[offset % len(buf)] = value
    return bytes(buf[:keep])


def exit_code(argv) -> int:
    """cli.main's exit code, argparse's usage exits included; any other
    exception propagates and fails the example."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([str(a) for a in argv])
        except SystemExit as e:
            return e.code


def fuzz_weight_header(model_path: str, image_path: str, out_dir: str) -> None:
    raw = Path(model_path).read_bytes()
    forged = Path(out_dir) / "fuzz.bw"

    @FUZZ
    @given(edits(WEIGHT_HEADER_BYTES))
    def check(changes):
        forged.write_bytes(mutate(raw, changes))
        assert exit_code(["attribute", "--model", forged, "--image", image_path,
                          "--out-prefix", Path(out_dir) / "a"]) in (0, 2, 3)

    check()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, tiny_model):
    d = tmp_path_factory.mktemp("fuzz")
    weightfile.save_weights(tiny_model.weights, str(d / "model.bw"))
    image = np.random.default_rng(0).random((3, 16, 16))
    netpbm.write_ppm(str(d / "img.ppm"), image)
    return d


def test_fuzzed_weight_header(inputs, tmp_path):
    # a header can size allocations by its config; the cap turns a runaway
    # one into a MemoryError (a failed example) instead of taking the
    # machine's memory
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "import test_fuzz\n"
              "test_fuzz.fuzz_weight_header(*sys.argv[1:])\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(weightfile.__file__).parents[1]),
                                          str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", script, str(inputs / "model.bw"),
                           str(inputs / "img.ppm"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@FUZZ
@given(changes=edits(32), keep=cuts(13 + 16 * 16 * 3))
def test_fuzzed_ppm(inputs, changes, keep):
    raw = (inputs / "img.ppm").read_bytes()
    image = inputs / "fuzz.ppm"
    image.write_bytes(mutate(raw, changes, keep))
    assert exit_code(["attribute", "--model", inputs / "model.bw", "--image", image,
                      "--out-prefix", inputs / "a"]) in (0, 2, 3)


P2_MASK = b"P2\n# target\n16 16\n255\n" + b"\n".join(
    b" ".join(b"255" if x < 8 else b"0" for x in range(16)) for _ in range(16)) + b"\n"


@FUZZ
@given(changes=edits(64), keep=cuts(len(P2_MASK)))
def test_fuzzed_pgm(inputs, changes, keep):
    data = inputs / "loc"
    data.mkdir(exist_ok=True)
    (data / "img.ppm").write_bytes((inputs / "img.ppm").read_bytes())
    (data / "img_target.pgm").write_bytes(mutate(P2_MASK, changes, keep))
    assert exit_code(["eval-loc", "--model", inputs / "model.bw", "--data", data,
                      "--out-prefix", inputs / "loc"]) in (0, 2, 3)


RECORDS = (b"id,label,pnr\na,clean,0.125\nb,clean,0.5\n"
           b"a,adversarial,0.75\nb,adversarial,2.5e-3\n")


@FUZZ
@given(changes=edits(len(RECORDS)), keep=cuts(len(RECORDS)))
def test_fuzzed_records(inputs, changes, keep):
    records = inputs / "fuzz.records.csv"
    records.write_bytes(mutate(RECORDS, changes, keep))
    assert exit_code(["detect-from-records", "--records", records]) in (0, 2, 3)


CONFIG = b"# defaults\ntemperature=3.5\nclass_index=1\nwindow=2\ninterpolation=nearest\n"


@FUZZ
@given(changes=edits(len(CONFIG)), keep=cuts(len(CONFIG)))
def test_fuzzed_config(inputs, changes, keep):
    config = inputs / "fuzz.cfg"
    config.write_bytes(mutate(CONFIG, changes, keep))
    assert exit_code(["attribute", "--config", config, "--model", inputs / "model.bw",
                      "--image", inputs / "img.ppm", "--out-prefix", inputs / "a"]) in (0, 2, 3)
