"""One process-wide pause of the cyclic garbage collector.

Building a program, walking its trace and simulating it allocate
millions of objects that live on or die by reference counting: none of
it is cyclic garbage.  The collector still rescans the heap as it
grows, 15-30% of a cold build's time.  :func:`gc_paused` parks it for
such a stretch.

The pause is one for the whole process and reentrant: a depth count
under a lock turns the collector off on the outermost entry and back on
at the outermost exit, and only if it was on at that entry.  So the
stretches that ``repro serve``'s job threads run may overlap, and the
collector resumes when the last of them ends, not the first.  A forked
child (a pool worker) has none of the threads that held the pause: it
starts with the count at zero and the collector as it was before.

``gc.freeze()`` is not used instead: an object frozen while alive is
never collected, so a simulator that was alive at the freeze and later
became cyclic garbage would keep its programs and traces for good.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator

_lock = threading.Lock()
_depth = 0
#: Whether the collector was on at the outermost entry.
_resume = False


class gc_paused(ContextDecorator):
    """Keep the cyclic collector off while a block (or, as a decorator,
    a function) runs.

    Its exit allocates nothing once the collector is back on (a
    generator's ``StopIteration`` or a ``with _lock`` exit's argument
    tuple would), so the collection that is then due runs after the
    block, not inside it.
    """

    def __enter__(self) -> None:
        global _depth, _resume
        with _lock:
            if not _depth:
                _resume = gc.isenabled()
                gc.disable()
            _depth += 1

    def __exit__(self, *exc: object) -> None:
        global _depth
        _lock.acquire()
        try:
            _depth -= 1
            if not _depth and _resume:
                gc.enable()
        finally:
            _lock.release()


def _after_fork_in_child() -> None:
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _resume:
            gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
