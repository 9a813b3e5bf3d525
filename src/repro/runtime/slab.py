"""Zero-copy shared-memory data plane for the multiprocess runtime.

The multiprocess runtime's hot path used to pickle every packed
:class:`~repro.core.messages.MessageBatch` through a
``multiprocessing.Queue`` — a feeder thread, a pipe write bounded at the
OS pipe capacity, and a receiver-side unpickle per batch.  This module
replaces that data plane with the "remote memory access" model of AMPC
(Behnezhad et al., PAPERS.md): per-``(src, dst)`` ring buffers over
``multiprocessing.shared_memory`` slabs.  A batch send becomes an array
write plus a tiny record header; the receiver reconstructs numpy views
over the slab **without copying**.  Control traffic (heartbeats,
``ds_decisions``, ``rmin`` broadcasts, the termination probe, checkpoint
state) stays on the existing ``ctx.Queue`` control plane.

Slab layout (one slab per directed channel ``src -> dst``)::

    [ 64-byte slab header | capacity bytes of ring data ]

    slab header (8 x u64):  MAGIC  capacity  head  tail  generation  (rest
    reserved)

``head`` is the producer's cumulative append offset, ``tail`` the
consumer's cumulative release offset; both only ever grow, so the live
region is ``[tail, head)`` and free space is ``capacity - (head - tail)``.
The producer is the only writer of ``head``, the consumer the only writer
of ``tail`` (single-producer/single-consumer), so plain aligned 8-byte
stores are enough — no locks on the data plane.

Records are appended at ``head % capacity``, never wrap (a 64-byte PAD
record skips the slack at the end of the buffer), and are 64-byte
aligned::

    record header (8 x u64):
        kind  rec_seq  count  round  seq  token+1  dtype_code  entry_bytes
    followed by  count * 8  bytes of int64 ids
    followed by  count * itemsize  bytes of payloads

The record header doubles as the *descriptor*: the consumer learns of new
records purely by comparing its cursor against the published ``head`` (no
queue traffic at all), and every field it needs to rebuild the batch —
round, wire ``seq``, snapshot token, dtype — rides in the header.

Wake-up: each worker owns a *doorbell*, a non-blocking ``os.pipe()`` the
arena creates before the fork.  A producer writes one byte after a
successful :meth:`SlabPool.try_send`; the consumer blocks in
:meth:`SlabPool.wait` (a ``select`` over the bell and whatever else it
listens to) instead of sleeping between polls.  The bell is a hint,
never the truth: ``head`` stays authoritative and every wait times out
into a poll, so a bell that is early, late, merged, dropped (full pipe)
or stale (a replacement inherits its predecessor's bytes) costs at most
one empty poll (docs/transport.md, "Wake-up").

Torn-read hardening: :meth:`SlabRing.open` validates the record before
constructing views — the position must lie inside the live ``[tail,
head)`` window, the kind magic and dtype code must be known, the length
must fit, and (when the caller tracks it) the per-channel ``rec_seq``
must match.  Any mismatch raises a typed
:class:`~repro.errors.TransportError` instead of returning garbage.

Lifetime: the master creates every channel slab before forking workers
and unlinks them all when it closes the worker pool, so neither a clean
exit nor a crashed-worker abort leaks ``/dev/shm`` segments.  A pool
serves many runs: between two of them the master resets every ring
(:meth:`SlabArena.reset_all`) and each worker rebinds its endpoints
(:meth:`SlabPool.rebind`), the takeover's reset / rebind handshake
applied to the whole mesh.  Worker-side
attachments are immediately unregistered from the
``multiprocessing.resource_tracker`` — ownership stays with the master's
sweep (and the tracker would otherwise double-unlink under fork).

Batches that cannot ride the plane (ring full, oversized record, exotic
dtype or token) fall back to the pickled queue path; correctness never
depends on the fast path.  Cross-plane ordering within a channel is
irrelevant by Church-Rosser (designated messages commute under
``f_aggr``), and the termination ledger counts logical entries on both
planes identically.
"""

from __future__ import annotations

import os
import select
import struct
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.messages import MessageBatch
from repro.errors import TransportError

try:  # pragma: no cover - exercised indirectly everywhere
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - ancient pythons only
    _shm_mod = None

#: slab header size and record alignment (one cache line)
HEADER_BYTES = 64
ALIGN = 64
#: slab-header field indices (u64 words)
_MAGIC, _CAP, _HEAD, _TAIL, _GEN = 0, 1, 2, 3, 4
SLAB_MAGIC = 0x5245_5052_4F53_4C41  # "REPROSLA"
#: record kinds
REC_DATA = 0x5245C0DA
REC_PAD = 0x5245ADAD
#: the record header, read and written in one call each way (the order
#: is the module docstring's); a PAD record writes only its kind and
#: length words, one ``_WORD`` each, at these word indices
_RECORD = struct.Struct("8Q")
_WORD = struct.Struct("Q")
_KIND, _COUNT = 0, 2

#: payload dtypes the wire format can carry (ids are always int64)
DTYPE_CODES: Dict[str, int] = {"float64": 1, "float32": 2, "int64": 3,
                               "int32": 4, "bool": 5, "uint8": 6,
                               "int16": 7, "uint64": 8}
_CODE_DTYPES = {v: np.dtype(k) for k, v in DTYPE_CODES.items()}

_SHM_PREFIX = "reproshm"


def new_run_id() -> str:
    """A fresh data-plane namespace (one per worker pool), led by
    the creating process's pid and a ``-``, so that
    ``residual_segments(f"{pid}-")`` finds one process's segments.  A
    channel name stays within 31 bytes up to 1,000 workers."""
    return f"{os.getpid()}-{uuid.uuid4().hex[:6]}"


def channel_name(run_id: str, src: int, dst: int) -> str:
    """Deterministic slab name, so the master can sweep without a registry."""
    return f"{_SHM_PREFIX}_{run_id}_{src}x{dst}"


class _no_tracking:
    """Suppress resource-tracker registration inside the ``with`` block.

    CPython < 3.13 registers a ``SharedMemory`` with the (per-machine)
    resource tracker on *both* create and attach; a segment attached by
    two workers would be registered twice into the tracker's name *set*
    and unregistered twice — the second unregister KeyErrors in the
    tracker process.  Ownership here is explicit (the master's arena
    sweep unlinks everything), so the tracker must never learn these
    names at all.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker
        self._mod = resource_tracker
        self._orig = resource_tracker.register
        def register(name, rtype):  # noqa: ANN001
            if rtype != "shared_memory":
                self._orig(name, rtype)
        resource_tracker.register = register
        return self

    def __exit__(self, *exc):
        self._mod.register = self._orig
        return False


def _rebuild_plain(src, dst, round_no, ids, payloads, seq, token,
                   entry_bytes):
    """Pickle target for :class:`ShmMessageBatch`: a plain, owned batch."""
    return MessageBatch(src=src, dst=dst, round=round_no, ids=ids,
                        payloads=payloads, seq=seq, token=token,
                        entry_bytes=entry_bytes)


@dataclass(frozen=True, eq=False)
class ShmMessageBatch(MessageBatch):
    """A :class:`MessageBatch` whose arrays are views into a slab ring.

    Behaves exactly like its parent everywhere (termination ledger,
    checkpoint stamping via ``dataclasses.replace``, dense aggregation);
    the extra ``release_end`` names the ring offset the consumer may
    reclaim once the batch has been processed.  Pickling materialises the
    views into an owned plain :class:`MessageBatch` (checkpoint state
    shipped to the master must not dangle into a slab the master never
    mapped), which also preserves snapshot type-fidelity: a packed batch
    stays a packed batch across a snapshot round-trip.
    """

    #: cumulative ring offset to release through (consumer side)
    release_end: int = 0

    def __reduce__(self):
        return (_rebuild_plain,
                (self.src, self.dst, self.round, np.array(self.ids),
                 np.array(self.payloads), self.seq, self.token,
                 self.entry_bytes))


def to_owned(msg: Any) -> Any:
    """Materialise a slab-backed batch into an owned plain batch.

    A :class:`ShmMessageBatch` held across a ring reset (takeover) would
    dangle into bytes the replacement producer overwrites; callers that
    must keep a drained batch past the reset copy it out first.  Anything
    that is not a slab view passes through untouched.
    """
    if isinstance(msg, ShmMessageBatch):
        return _rebuild_plain(msg.src, msg.dst, msg.round,
                              np.array(msg.ids), np.array(msg.payloads),
                              msg.seq, msg.token, msg.entry_bytes)
    return msg


def _roundup(n: int, align: int = ALIGN) -> int:
    return (n + align - 1) // align * align


class SlabRing:
    """One SPSC ring over one shared-memory slab (one directed channel).

    The same class serves both endpoints: the producer calls
    :meth:`try_write`, the consumer :meth:`poll` / :meth:`open` /
    :meth:`release`.  ``create=True`` (master only) initialises the
    header; workers attach to the existing segment.
    """

    def __init__(self, name: str, capacity: int = 0, create: bool = False):
        if _shm_mod is None:  # pragma: no cover - gated import
            raise TransportError("multiprocessing.shared_memory unavailable")
        self.name = name
        if create:
            # the master registers its segments normally: if it dies hard
            # the resource tracker still reclaims them, and the arena's
            # explicit unlink balances the registration
            capacity = _roundup(int(capacity))
            self._shm = _shm_mod.SharedMemory(
                name=name, create=True, size=HEADER_BYTES + capacity)
        else:
            with _no_tracking():
                self._shm = _shm_mod.SharedMemory(name=name)
            # Attach-side handles outlive their zero-copy views only by
            # luck at interpreter shutdown: SharedMemory.__del__ calls
            # close(), which raises BufferError while exported numpy
            # views are still alive.  Disarm the finalizer (the worker
            # exits via os._exit anyway; the master's arena sweep owns
            # the unlink) but keep the real close reachable for
            # explicit teardown paths.
            shm = self._shm
            shm._slab_close = shm.close
            shm.close = lambda: None
        # the slab header's words as Python ints: no numpy scalar per read
        self._ctrl = self._shm.buf[:HEADER_BYTES].cast("Q")
        if create:
            self._ctrl[_CAP] = capacity
            self._ctrl[_HEAD] = 0
            self._ctrl[_TAIL] = 0
            self._ctrl[_GEN] = 0
            self._ctrl[_MAGIC] = SLAB_MAGIC  # last: marks the slab usable
        elif self._ctrl[_MAGIC] != SLAB_MAGIC:
            magic = self._ctrl[_MAGIC]
            self.close()  # a refused attachment must not keep its mapping
            raise TransportError(
                f"slab {name!r} has bad magic 0x{magic:x} "
                f"(torn or foreign segment)")
        self.capacity = self._ctrl[_CAP]
        #: consumer-side read cursor and per-channel record counter
        self._cursor = 0
        self._read_seq = 0
        #: producer-side record counter
        self._write_seq = 0
        #: the ring incarnation this endpoint is bound to; a master-side
        #: :meth:`reset` bumps the header word, and both endpoints refuse
        #: to touch a ring whose live generation no longer matches until
        #: they :meth:`rebind`
        self._gen = self._ctrl[_GEN]

    # -- shared ---------------------------------------------------------
    @property
    def head(self) -> int:
        return self._ctrl[_HEAD]

    @property
    def tail(self) -> int:
        return self._ctrl[_TAIL]

    @property
    def generation(self) -> int:
        """The ring's live incarnation number (bumped by :meth:`reset`)."""
        return self._ctrl[_GEN]

    @property
    def stale(self) -> bool:
        """True when the ring was reset since this endpoint last bound."""
        return self._gen != self.generation

    def reset(self) -> int:
        """Wipe the ring for a fresh incarnation (master-side takeover).

        Rewinds ``head``/``tail`` to zero and bumps the generation word so
        any endpoint still holding pre-reset cursors sees :attr:`stale`
        instead of silently parsing bytes the replacement producer is
        about to overwrite.  Returns the new generation.
        """
        self._ctrl[_HEAD] = 0
        self._ctrl[_TAIL] = 0
        self._ctrl[_GEN] = self.generation + 1
        self._cursor = 0
        self._read_seq = 0
        self._write_seq = 0
        self._gen = self.generation
        return self._gen

    def rebind(self) -> None:
        """Adopt the ring's current incarnation (survivor rejoin, or the
        next run of a resident pool).

        Re-reads the header and rewinds the endpoint cursors to the start
        of the live window, ``tail``: a reset ring's consumer has released
        nothing since, so a record the new producer published before this
        endpoint rebound is read, not skipped.
        """
        self._gen = self.generation
        self._cursor = self.tail
        self._read_seq = 0
        self._write_seq = 0

    def close(self) -> None:
        """Release the header view and unmap (no unlink)."""
        if self._ctrl is not None:
            self._ctrl.release()
        self._ctrl = None
        try:
            getattr(self._shm, "_slab_close", self._shm.close)()
        except BufferError:  # pragma: no cover - exported data views alive
            pass

    # -- producer -------------------------------------------------------
    def _encode_token(self, token: Any) -> Optional[int]:
        if token is None:
            return 0
        if isinstance(token, int) and 0 <= token < 2 ** 63:
            return token + 1
        return None  # exotic token: caller falls back to the queue plane

    def try_write(self, msg: MessageBatch) -> bool:
        """Append ``msg`` as one record; False means "use the fallback".

        Never blocks: a full ring, an oversized batch, an unsupported
        payload dtype or a non-integer snapshot token all return False and
        leave the ring untouched.
        """
        if self.stale:
            # the ring was reset behind our back (peer replaced): the
            # queue plane carries the batch until this endpoint rebinds
            return False
        ids = np.ascontiguousarray(msg.ids, dtype=np.int64)
        payloads = np.ascontiguousarray(msg.payloads)
        if payloads.ndim != 1 or ids.ndim != 1:
            return False
        code = DTYPE_CODES.get(payloads.dtype.name)
        token = self._encode_token(msg.token)
        if code is None or token is None:
            return False
        total = _roundup(HEADER_BYTES + ids.nbytes + payloads.nbytes)
        head, tail, cap = self.head, self.tail, self.capacity
        off = head % cap
        pad = cap - off if cap - off < total else 0
        if total + pad > cap - (head - tail):
            return False  # ring full: fall back rather than block
        buf = self._shm.buf
        if pad:
            # a PAD record's kind and length; its other words are not read
            _WORD.pack_into(buf, HEADER_BYTES + off + 8 * _KIND, REC_PAD)
            _WORD.pack_into(buf, HEADER_BYTES + off + 8 * _COUNT, pad)
            off = 0
        base = HEADER_BYTES + off
        _RECORD.pack_into(buf, base, REC_DATA, self._write_seq, len(ids),
                          msg.round, msg.seq, token, code, msg.entry_bytes)
        if ids.nbytes:
            buf[base + HEADER_BYTES:base + HEADER_BYTES + ids.nbytes] = \
                ids.tobytes()
            poff = base + HEADER_BYTES + ids.nbytes
            buf[poff:poff + payloads.nbytes] = payloads.tobytes()
        self._write_seq += 1
        # publish *after* the record is fully written: the consumer only
        # parses below head, so it can never observe a half-built record
        self._ctrl[_HEAD] = head + pad + total
        return True

    # -- consumer -------------------------------------------------------
    def open(self, pos: int, src: int, dst: int,
             rec_seq: Optional[int] = None) -> Tuple[ShmMessageBatch, int]:
        """Validate + reconstruct the record at cumulative offset ``pos``.

        Returns ``(batch, next_pos)``.  Raises
        :class:`~repro.errors.TransportError` on any descriptor/slab
        mismatch — a stale position (already released or past ``head``),
        a corrupt kind magic, an unknown dtype code, a length that does
        not fit the live window, or a ``rec_seq`` disagreement — instead
        of silently returning a wrong-answer view.
        """
        head, tail, cap = self.head, self.tail, self.capacity
        if pos < tail or pos + HEADER_BYTES > head:
            raise TransportError(
                f"stale slab descriptor: pos={pos} outside live window "
                f"[{tail}, {head}) of {self.name!r}")
        base = HEADER_BYTES + pos % cap
        (kind, found_seq, count, round_no, seq, token, code,
         entry_bytes) = _RECORD.unpack_from(self._shm.buf, base)
        if kind == REC_PAD:
            return None, pos + count
        if kind != REC_DATA:
            raise TransportError(
                f"torn read in {self.name!r} at pos={pos}: record magic "
                f"0x{kind:x}")
        if rec_seq is not None and found_seq != rec_seq:
            raise TransportError(
                f"slab generation mismatch in {self.name!r}: expected "
                f"record #{rec_seq} at pos={pos}, found #{found_seq}")
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise TransportError(
                f"torn read in {self.name!r}: unknown payload dtype code "
                f"{code} at pos={pos}")
        total = _roundup(HEADER_BYTES + count * 8 + count * dtype.itemsize)
        if pos + total > head or total > cap:
            raise TransportError(
                f"slab record at pos={pos} of {self.name!r} overruns the "
                f"published head ({pos}+{total} > {head})")
        ids = np.frombuffer(self._shm.buf, dtype=np.int64, count=count,
                            offset=base + HEADER_BYTES)
        payloads = np.frombuffer(self._shm.buf, dtype=dtype, count=count,
                                 offset=base + HEADER_BYTES + count * 8)
        batch = ShmMessageBatch(
            src=src, dst=dst, round=round_no, ids=ids,
            payloads=payloads, seq=seq,
            token=None if token == 0 else token - 1,
            entry_bytes=entry_bytes, release_end=pos + total)
        return batch, pos + total

    def poll(self, src: int, dst: int) -> List[ShmMessageBatch]:
        """All records published since the last poll (FIFO, zero-copy)."""
        if self.stale:
            # a reset ring with a pre-reset cursor would either look
            # empty forever (cursor > head) or hand out views into bytes
            # the new producer owns; reject loudly instead
            raise TransportError(
                f"stale ring endpoint for {self.name!r}: bound to "
                f"generation {self._gen}, ring is at {self.generation} "
                f"(rebind required)")
        out: List[ShmMessageBatch] = []
        head = self.head
        while self._cursor < head:
            batch, self._cursor = self.open(self._cursor, src, dst,
                                            rec_seq=None)
            if batch is None:
                continue  # pad record
            if batch.release_end > head:  # pragma: no cover - defensive
                raise TransportError(
                    f"slab record overruns head in {self.name!r}")
            self._read_seq += 1
            out.append(batch)
        return out

    @property
    def drained(self) -> bool:
        """True when the consumer has parsed every published record."""
        return self._cursor >= self.head

    def release(self, through: int) -> None:
        """Reclaim ring space up to cumulative offset ``through``.

        Monotonic (a stale release cannot rewind the tail) and only legal
        for offsets the consumer has already parsed past.
        """
        if through > self._cursor:
            raise TransportError(
                f"release({through}) beyond read cursor {self._cursor} "
                f"in {self.name!r}")
        if through > self.tail:
            self._ctrl[_TAIL] = through


class SlabPool:
    """Per-process endpoint of the whole data plane (one per worker).

    Attaches the worker's outbound ring per destination and every inbound
    ring; exposes batch-level send/poll/release plus the counters the
    worker report ships back to the master.  ``bells`` is the arena's
    ``(read_fd, write_fd)`` doorbell per worker (inherited over fork);
    without it sends ring nothing and :meth:`wait` only watches
    ``rlist``.
    """

    def __init__(self, run_id: str, wid: int, num_workers: int,
                 bells: Optional[Sequence[Tuple[int, int]]] = None):
        self.run_id = run_id
        self.wid = wid
        #: this worker's doorbell (read end), ``None`` without bells
        self.bell: Optional[int] = None if bells is None else bells[wid][0]
        self._peer_bells = ({} if bells is None else
                            {peer: bell[1] for peer, bell in enumerate(bells)})
        self._out: Dict[int, SlabRing] = {}
        self._in: Dict[int, SlabRing] = {}
        for peer in range(num_workers):
            if peer == wid:
                continue
            self._out[peer] = SlabRing(channel_name(run_id, wid, peer))
            self._in[peer] = SlabRing(channel_name(run_id, peer, wid))
        #: transport counters (shipped in the worker report)
        self.sent_batches = 0
        self.sent_bytes = 0
        self.fallbacks = 0
        #: peers under takeover: their rings are skipped (the master may
        #: reset them at any moment) until :meth:`rejoin_peer`
        self._quarantined: set = set()

    def try_send(self, msg: MessageBatch) -> bool:
        if not isinstance(msg, MessageBatch):
            # generic unpacked Message: the queue plane carries it
            self.fallbacks += 1
            return False
        ring = self._out.get(msg.dst)
        if ring is None or msg.dst in self._quarantined \
                or not ring.try_write(msg):
            self.fallbacks += 1
            return False
        self.sent_batches += 1
        self.sent_bytes += msg.size_bytes
        if self._peer_bells:
            try:
                os.write(self._peer_bells[msg.dst], b"\0")
            except BlockingIOError:
                pass  # bell pipe full: it is ringing already
        return True

    def wait(self, timeout: Optional[float], rlist=(), wlist=()):
        """Block until the bell rings, an ``rlist``/``wlist`` entry is
        ready, or ``timeout`` passes; returns select's two ready lists.

        The bell is emptied *before* the caller polls, so a record
        published after this returns rings again — never the other way
        round.
        """
        bell = [] if self.bell is None else [self.bell]
        ready, writable, _ = select.select(bell + list(rlist), wlist, [],
                                           timeout)
        if self.bell in ready:
            try:
                os.read(self.bell, 4096)
            except BlockingIOError:  # pragma: no cover - raced to empty
                pass
        return ready, writable

    def poll(self) -> List[ShmMessageBatch]:
        """Newly published inbound batches across all channels."""
        out: List[ShmMessageBatch] = []
        for src, ring in self._in.items():
            if src in self._quarantined:
                continue
            out.extend(ring.poll(src, self.wid))
        return out

    def quarantine_peer(self, peer: int) -> List[ShmMessageBatch]:
        """Final drain of ``peer``'s inbound ring, then fence it off.

        Everything the dead incarnation published is parsed out one last
        time (callers must copy these views before the master resets the
        ring); afterwards neither :meth:`poll` nor :meth:`try_send`
        touches the peer's channels until :meth:`rejoin_peer`.
        """
        ring = self._in.get(peer)
        last = ring.poll(peer, self.wid) if ring is not None else []
        self._quarantined.add(peer)
        return last

    def rebind(self) -> None:
        """Bind every channel to its reset incarnation for the next run
        of a resident pool (the master reset them all with
        :meth:`SlabArena.reset_all`): no peer is quarantined, the
        counters start at zero and a bell byte left from the last run is
        dropped."""
        for ring in (*self._out.values(), *self._in.values()):
            ring.rebind()
        self._quarantined.clear()
        self.sent_batches = self.sent_bytes = self.fallbacks = 0
        if self.bell is not None:
            try:
                os.read(self.bell, 4096)
            except BlockingIOError:
                pass

    def rejoin_peer(self, peer: int) -> None:
        """Bind both of ``peer``'s channels to their reset incarnation."""
        for side in (self._in, self._out):
            ring = side.get(peer)
            if ring is not None:
                ring.rebind()
        self._quarantined.discard(peer)

    @property
    def drained(self) -> bool:
        return all(r.drained for src, r in self._in.items()
                   if src not in self._quarantined)

    def release(self, messages) -> None:
        """Reclaim ring space for processed shm-backed batches.

        Safe to pass a mixed batch list; only :class:`ShmMessageBatch`
        instances that came off this pool's inbound rings are touched.
        """
        ends: Dict[int, int] = {}
        for m in messages:
            if isinstance(m, ShmMessageBatch) and m.src in self._in:
                ends[m.src] = max(ends.get(m.src, 0), m.release_end)
        for src, end in ends.items():
            self._in[src].release(end)

    def close(self) -> None:
        for ring in (*self._out.values(), *self._in.values()):
            ring.close()


# ----------------------------------------------------------------------
# master-side slab lifecycle
# ----------------------------------------------------------------------

class SlabArena:
    """Master-side owner of every channel slab of one worker pool.

    Creates the full ``src x dst`` mesh before the workers fork (so
    worker attachment never races creation) and sweeps every segment on
    the way out — including the terminate/crash path, so chaos runs leave
    nothing in ``/dev/shm``.
    """

    def __init__(self, num_workers: int, slab_bytes: int,
                 run_id: Optional[str] = None):
        self.run_id = run_id or new_run_id()
        self.num_workers = num_workers
        self._rings: List[SlabRing] = []
        self._by_channel: Dict[Tuple[int, int], SlabRing] = {}
        #: per-worker doorbell ``(read_fd, write_fd)``; plain pipes, made
        #: before the fork so every worker inherits every bell
        self.doorbells: List[Tuple[int, int]] = []
        try:
            for _ in range(num_workers):
                bell = os.pipe()
                self.doorbells.append(bell)
                for fd in bell:
                    os.set_blocking(fd, False)
            for src in range(num_workers):
                for dst in range(num_workers):
                    if src != dst:
                        ring = SlabRing(
                            channel_name(self.run_id, src, dst),
                            capacity=slab_bytes, create=True)
                        self._rings.append(ring)
                        self._by_channel[(src, dst)] = ring
        except Exception:
            self.unlink_all()
            raise

    def ring(self, src: int, dst: int) -> SlabRing:
        """The master's handle on one directed channel's ring."""
        return self._by_channel[(src, dst)]

    def reset_worker(self, wid: int) -> int:
        """Reset every ring touching ``wid`` for a fresh incarnation.

        Called during a takeover after the surviving peers have fully
        drained and fenced off the dead worker's channels; returns the
        new generation shared by the reset rings.
        """
        gen = 0
        for (src, dst), ring in self._by_channel.items():
            if src == wid or dst == wid:
                gen = ring.reset()
        return gen

    def reset_all(self) -> None:
        """Reset every ring for the next run of a resident pool; called
        while every worker waits for its run command, so no endpoint is
        reading or writing."""
        for ring in self._rings:
            ring.reset()

    def pool(self, wid: int) -> "SlabPool":
        """Worker ``wid``'s endpoint (call in the forked worker)."""
        return SlabPool(self.run_id, wid, self.num_workers, self.doorbells)

    def unlink_all(self) -> int:
        """Close + unlink every segment (and close the doorbells) of this
        arena; returns the segment count."""
        removed = 0
        for ring in self._rings:
            ring.close()
        self._rings = []
        self._by_channel = {}
        for bell in self.doorbells:
            for fd in bell:
                os.close(fd)
        self.doorbells = []
        for src in range(self.num_workers):
            for dst in range(self.num_workers):
                if src == dst:
                    continue
                name = channel_name(self.run_id, src, dst)
                try:
                    with _no_tracking():
                        seg = _shm_mod.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - raced
                    pass
                removed += 1
        return removed


def residual_segments(run_id: Optional[str] = None) -> List[str]:
    """Repro-owned segments still present in ``/dev/shm`` (leak checks).

    Returns an empty list on platforms without a visible shm filesystem;
    the leak-check tests skip there.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    prefix = _SHM_PREFIX if run_id is None else f"{_SHM_PREFIX}_{run_id}"
    return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))
