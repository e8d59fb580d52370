"""Atomic artifact writes.

`atomic_write` opens a temp file in the target's directory and moves it
over the target with `os.replace` only once the caller's block has written
all of it. A reader, or a later command, therefore finds the old file or
the whole new one, never a part; a writer that fails partway leaves the old
file as it was and no temp file. A process killed outright can leave its
temp file behind, named after the target. There is no fsync: this guards
against a failed or interrupted command, not against power loss.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", newline: str | None = None):
    """Yield a file opened with `open(temp, mode, newline=newline)`; on a
    clean exit it replaces `path`, on an exception it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload, indent: int | None = 2) -> None:
    """`payload` as JSON with sorted keys, indented by `indent` (one line if
    None), and a final newline, the format of the run directory's JSON
    artifacts, written atomically."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent) + "\n")
