"""Single-producer/single-consumer message lanes over plain pipes.

Every channel of the multiprocess runtime that is not a shared-memory
ring is one :class:`Lane`: worker -> master control events, master ->
worker commands, and the pickled fallback data plane per ``(src, dst)``.
A lane is a non-blocking ``os.pipe()`` carrying length-prefixed pickles,
with the unsent tail buffered in the producer and the unparsed head in
the consumer — no feeder thread and **no lock shared between
processes**, so a process that dies mid-send can strand nothing but the
tail of its own lanes.  (A ``multiprocessing.Queue`` shares one write
semaphore among all its producers: a worker killed while its feeder held
it blocked every other producer forever.)

The read end is selectable (``fileno()``), which is what makes the
runtime event-driven: the master multiplexes its control lanes with
``multiprocessing.connection.wait`` and a worker ``select``s on its
command lane, its inbound data lanes and its ring doorbell.

A lane is created before the processes that use it fork; each side then
touches only its own end and its own buffer.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import select
import struct
from typing import Any, List

_LEN = struct.Struct("<I")
#: one read's size, and what a Linux pipe holds by default
_CHUNK = 1 << 16


class Lane:
    def __init__(self):
        self.rfd, self.wfd = os.pipe()
        os.set_blocking(self.rfd, False)
        os.set_blocking(self.wfd, False)
        self._out = bytearray()  # producer: framed, not yet written
        self._in = bytearray()  # consumer: read, not yet a whole frame

    def fileno(self) -> int:
        return self.rfd

    # -- producer -------------------------------------------------------
    @property
    def backlog(self) -> bool:
        """True while some bytes of an earlier :meth:`put` are unsent."""
        return bool(self._out)

    def put(self, obj: Any) -> None:
        """Queue ``obj``; nothing reaches the pipe before :meth:`flush`."""
        frame = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        self._out += _LEN.pack(len(frame))
        self._out += frame

    def flush(self, block: bool = True) -> bool:
        """Write the backlog; returns True once it is empty.

        ``block=False`` writes what the pipe takes right now and leaves
        the rest for a later call (peer-to-peer lanes: two workers
        blocking on each other's full pipe would deadlock).  A closed
        read end means the consumer is gone; the backlog is dropped.
        """
        while self._out:
            try:
                del self._out[:os.write(self.wfd, self._out)]
            except BlockingIOError:
                if not block:
                    return False
                select.select([], [self.wfd], [], 1.0)
            except BrokenPipeError:
                self._out.clear()
        return True

    def send(self, obj: Any) -> None:
        """Queue ``obj`` and write it out.  A frame larger than a default
        pipe (a worker's final report) first grows this pipe to hold it
        (``F_SETPIPE_SZ``), so it goes out in one write instead of one
        per pipe-full, each waiting for the reader to empty the pipe.
        Where the system refuses (not Linux, or over a limit), the pipe
        keeps its size and the frame goes out as it drains."""
        self.put(obj)
        if len(self._out) > _CHUNK:
            try:
                fcntl.fcntl(self.wfd, fcntl.F_SETPIPE_SZ, len(self._out))
            except (AttributeError, OSError):
                pass
        self.flush()

    def send_or_drop(self, obj: Any) -> None:
        """Telemetry: deliver only if the pipe has room right now."""
        if not self._out:
            self.put(obj)
            size = len(self._out)
            if not self.flush(block=False) and len(self._out) == size:
                self._out.clear()  # not a byte went out: drop it whole

    # -- consumer -------------------------------------------------------
    def _fill(self) -> bool:
        try:
            chunk = os.read(self.rfd, _CHUNK)
        except BlockingIOError:
            return False
        self._in += chunk
        return len(chunk) == _CHUNK

    def get_all(self) -> List[Any]:
        """Every whole message readable right now (never blocks)."""
        while self._fill():
            pass
        out = []
        pos = 0
        with memoryview(self._in) as view:
            while len(view) - pos >= _LEN.size:
                (n,) = _LEN.unpack_from(view, pos)
                if len(view) - pos - _LEN.size < n:
                    break
                pos += _LEN.size
                out.append(pickle.loads(view[pos:pos + n]))
                pos += n
        del self._in[:pos]
        return out

    def empty(self) -> bool:
        """No unread byte in the pipe (a torn tail does not count)."""
        return not select.select([self.rfd], [], [], 0)[0]

    def discard(self) -> None:
        """Forget everything unsent, unread and half-read.

        Takeover resynchronisation: called on the producer side by a
        survivor fencing a dead consumer, and on the consumer side once
        the producer is known dead or fenced — afterwards the lane is
        empty and the next byte starts a frame.
        """
        self._out.clear()
        while self._fill():
            pass
        self._in.clear()

    def close(self) -> None:
        for fd in (self.rfd, self.wfd):
            try:
                os.close(fd)
            except OSError:
                pass
        self.rfd = self.wfd = -1
