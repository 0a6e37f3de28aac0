"""Writers overwrite an existing file in place and write its first byte last.

Each writer, and `dmig plot`, over a longer or a shorter existing file,
leaves the bytes of a fresh write (and of the golden file, where there is
one) in the same inode with the same mode; a symlinked output keeps its
link and updates its target, and a hard link shows the new bytes. A
write stopped by an exception or a kill leaves a file that every reader
rejects at line 1. A pipe or /dev/null is written straight through.
"""

import os
import re
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from dmig import (
    FileFormatError,
    SyntheticSpec,
    gen_trajectory,
    read_dataset,
    read_report,
    read_series,
    read_truth,
    write_dataset,
    write_report,
    write_series,
    write_truth,
)
from dmig import dataio
from dmig.cli import main
from dmig.dataio import _BLOCK_ROWS
from dmig.synthetic import discrete_truth

from test_golden import DATASETS, GOLDEN, PMF
from test_plotting import hand_series
from test_startup import child_env

READERS = [read_dataset, read_report, read_series, read_truth]


def golden_series():
    return [(0, read_report(GOLDEN / "mixed_m3.report")),
            (3, read_report(GOLDEN / "sentinel.report"))]


def plot(path):
    series = path.with_name("hand.series")
    if not series.exists():
        write_series(hand_series(), series)
    assert main(["plot", str(series), "--x", "mig", "--y", "dmig", "--out", str(path)]) == 0


# Each writer as a call that writes one fixed output to a path, and the
# golden file that output must equal, if there is one.
WRITERS = {
    "dataset": (lambda p: write_dataset(DATASETS["mixed_m3"](), p), None),
    "report": (lambda p: write_report(read_report(GOLDEN / "mixed_m3.report"), p),
               "mixed_m3.report"),
    "series": (lambda p: write_series(golden_series(), p), None),
    "truth": (lambda p: write_truth("discrete_joint", discrete_truth(PMF), p), None),
    "plot": (plot, "hand_mig_dmig.svg"),
}


def old_bytes(size: int) -> bytes:
    """size bytes of another valid report's lines, cut anywhere."""
    text = (GOLDEN / "continuous_m3.report").read_bytes()
    return (text * (size // len(text) + 1))[:size]


@pytest.fixture(params=["longer", "shorter"])
def existing(request, tmp_path):
    """Make an existing file, longer or shorter than each writer's output, at a path."""
    def make(path, fresh: bytes):
        # Longer by more than a block, so that the cut frees whole blocks.
        size = 2 * len(fresh) + 8192 if request.param == "longer" else len(fresh) // 2
        path.write_bytes(old_bytes(size))
        path.chmod(0o640)
    return make


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_overwrite_keeps_the_inode_mode_and_hard_links(tmp_path, existing, kind):
    write, golden = WRITERS[kind]
    write(tmp_path / "fresh")
    fresh = (tmp_path / "fresh").read_bytes()
    if golden:
        assert fresh == (GOLDEN / golden).read_bytes()
    out, other = tmp_path / "out", tmp_path / "other"
    existing(out, fresh)
    os.link(out, other)
    before = out.stat()
    write(out)
    after = out.stat()
    assert out.read_bytes() == fresh
    assert (after.st_ino, after.st_mode & 0o777) == (before.st_ino, 0o640)
    assert other.read_bytes() == fresh


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_symlinked_output_keeps_its_link(tmp_path, existing, kind):
    write, _ = WRITERS[kind]
    write(tmp_path / "fresh")
    fresh = (tmp_path / "fresh").read_bytes()
    target, link = tmp_path / "target", tmp_path / "link"
    existing(target, fresh)
    link.symlink_to(target)
    write(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


def test_new_file_takes_the_mode_of_open(tmp_path):
    (tmp_path / "expected").open("w").close()
    write_truth("discrete_joint", discrete_truth(PMF), tmp_path / "new")
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "expected").stat().st_mode


def assert_rejected_at_line_1(path):
    for read in READERS:
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:1: "):
            read(path)


def test_empty_file_is_rejected_at_line_1(tmp_path):
    (tmp_path / "f").touch()
    assert_rejected_at_line_1(tmp_path / "f")


def raising_after(n: int):
    """Text chunks of a report, raising after the first n of them."""
    lines = (GOLDEN / "mixed_m3.report").read_text().splitlines(keepends=True)
    yield from lines[:n]
    raise RuntimeError("stopped")


@pytest.mark.parametrize("chunks", [0, 1, 4])
@pytest.mark.parametrize("old", [None, "sentinel.report", "continuous_m3.report"])
def test_stopped_write_is_rejected_at_line_1(tmp_path, old, chunks):
    # Over no file, or over a valid report shorter or longer than the write.
    p = tmp_path / "f"
    if old:
        p.write_bytes((GOLDEN / old).read_bytes())
    with pytest.raises(RuntimeError, match="stopped"):
        dataio._write(p, raising_after(chunks))
    assert_rejected_at_line_1(p)


def test_stopped_dataset_write_is_rejected_at_line_1(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    write_dataset(DATASETS["mixed_m3"](), p)
    blocks = dataio._body_blocks

    def failing(ds):
        yield from blocks(ds)
        raise MemoryError

    monkeypatch.setattr(dataio, "_body_blocks", failing)
    with pytest.raises(MemoryError):
        write_dataset(DATASETS["discrete"](), p)
    assert_rejected_at_line_1(p)


def cont_pair_dataset():
    spec = SyntheticSpec(
        family="trajectory", n=25_000, seed=7, rho=0.8, noise_schedule=(0.3,), d_total=2,
    )
    return gen_trajectory(spec)[0][1]


# A child that writes cont_pair_dataset() to argv[1] and is killed when
# the writer asks for its eleventh block of rows.
KILLED_WRITER = """
import os, signal, sys
from dmig import dataio
from test_overwrite import cont_pair_dataset

blocks = dataio._body_blocks

def killed_after_ten(ds):
    for i, block in enumerate(blocks(ds)):
        if i == 10:
            os.kill(os.getpid(), signal.SIGKILL)
        yield block

dataio._body_blocks = killed_after_ten
dataio.write_dataset(cont_pair_dataset(), sys.argv[1])
"""


def test_killed_write_is_rejected_at_line_1(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(DATASETS["discrete"](), p)
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(__file__)
    proc = subprocess.run([sys.executable, "-c", KILLED_WRITER, str(p)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(p))}:1: expected leading"):
        read_dataset(p)
    # With its first byte put back, the file holds the ten blocks written.
    data = p.read_bytes()
    assert data[:1] == b"\0"
    p.write_bytes(b"#" + data[1:])
    rows = 10 * _BLOCK_ROWS
    ds = cont_pair_dataset()
    back = read_dataset(p)
    assert back.n == rows == 10_240
    assert np.array_equal(back.latents, ds.latents[:rows])


def test_eval_writes_to_dev_null(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset(DATASETS["discrete"](), p)
    assert main(["eval", str(p), "--out", os.devnull]) == 0


def test_eval_writes_through_a_pipe(tmp_path):
    p, fifo = tmp_path / "d.csv", tmp_path / "fifo"
    write_dataset(DATASETS["discrete"](), p)
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["eval", str(p), "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert got == [(GOLDEN / "discrete.report").read_bytes()]
