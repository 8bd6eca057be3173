"""One explicit ``multiprocessing`` start method for the whole library.

Python's default start method varies by platform (``fork`` on Linux
until 3.14, ``spawn`` on macOS/Windows), and ``fork`` silently copies
whatever mutable process state — RNG caches, module-level LRUs,
open pipes — the parent happened to hold.  Every process pool in this
library (the experiments runner, the sweep engine, the service's
subprocess executor) therefore goes through :func:`mp_context`, which pins the
``spawn`` method: workers always start from a clean interpreter, and
behaviour no longer differs between platforms.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["mp_context", "START_METHOD"]

#: The pinned start method.  ``spawn`` is the only method available on
#: every supported platform, and the only one that cannot leak dirty
#: parent state into workers.
START_METHOD = "spawn"


def mp_context() -> multiprocessing.context.BaseContext:
    """The library-wide ``multiprocessing`` context (always ``spawn``).

    Use this instead of the bare ``multiprocessing`` module (or a bare
    ``ProcessPoolExecutor``) whenever starting worker processes::

        from repro.engine import mp_context

        ctx = mp_context()
        pipe_a, pipe_b = ctx.Pipe()
        ProcessPoolExecutor(max_workers=4, mp_context=ctx)
    """
    return multiprocessing.get_context(START_METHOD)
