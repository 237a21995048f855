"""Atomic file writes: a reader of the target sees its old bytes or its new
ones, never a partial write."""

from __future__ import annotations

import contextlib
import csv
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temp file in `path`'s directory; on a clean exit move it over
    `path` with os.replace, on an exception remove it and re-raise."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, header: list, rows) -> None:
    """Write the header row, then each of `rows`, as one atomic CSV write."""
    with atomic_write(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
