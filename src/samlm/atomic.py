"""Whole-file writes that never leave a half-written artifact behind."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write through a temporary file beside `path`.

    On a clean exit the temporary file replaces `path` in one `os.replace`;
    on an exception it is removed and `path` keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Replace `path` with `text`, UTF-8, through `atomic_write`."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)
