"""The one rule by which the library opens a file a caller names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from skipnorm.errors import _open_regular

FLAGS = {
    "read": os.O_RDONLY,
    "write": os.O_WRONLY,
    "create": os.O_WRONLY | os.O_CREAT,
    "truncate": os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
}


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
def test_a_device_is_refused_and_closed(flags):
    before = open_fds()
    with pytest.raises(OSError, match=f"^{os.devnull}: not a regular file$"):
        _open_regular(os.devnull, flags)
    assert open_fds() == before


def test_a_directory_is_refused_for_reading_and_gets_the_kernels_errno_for_writing(tmp_path):
    with pytest.raises(OSError, match=f"^{tmp_path}: not a regular file$"):
        _open_regular(tmp_path, os.O_RDONLY)
    with pytest.raises(IsADirectoryError):
        _open_regular(tmp_path, os.O_WRONLY)


@pytest.mark.parametrize("flags, kept", [(FLAGS["create"], b"old contents"), (FLAGS["truncate"], b"")],
                         ids=["create", "truncate"])
def test_a_regular_file_is_truncated_only_when_asked(tmp_path, flags, kept):
    path = tmp_path / "file.bin"
    path.write_bytes(b"old contents")
    os.close(_open_regular(path, flags))
    assert path.read_bytes() == kept


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("flags", FLAGS.values(), ids=FLAGS)
def test_a_fifo_with_no_peer_is_refused_at_once(tmp_path, flags):
    """In a child process with a timeout, so an open that blocks fails the
    test instead of hanging the suite."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    code = (
        "import sys\n"
        "from skipnorm.errors import _open_regular\n"
        "try:\n"
        "    _open_regular(sys.argv[1], int(sys.argv[2]))\n"
        "except OSError as exc:\n"
        "    sys.exit(f'refused: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(fifo), str(flags)], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 1 and proc.stderr == f"refused: {fifo}: not a regular file\n"
