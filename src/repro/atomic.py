"""Atomic file replacement for on-disk state.

Plans, scenarios, the plan store, the daemon's session sidecar and the
result cache are all written through :func:`atomic_write`, so a crash
mid-write leaves either the previous file or the new one, never a
truncated mix for the next reader (a session recovery, a cache probe)
to trip over.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, TextIO, Union


@contextlib.contextmanager
def atomic_write(path: Union[str, os.PathLike]) -> Iterator[TextIO]:
    """Open ``path`` for writing text; it changes only if the block
    completes.

    The block writes a temporary file in ``path``'s directory, which
    ``os.replace`` moves over ``path`` once the block exits cleanly.
    If the block raises, ``path`` keeps its previous content and the
    temporary file is removed.  The new file gets the mode a plain
    ``open(path, "w")`` creates a file with (0o666 less the umask).
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
