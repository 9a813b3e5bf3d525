"""Process and shared-memory hygiene: nothing outlives a benchmark run.

The driver (``run.py``) starts every workload in a child that leads its
own session, so one ``killpg`` reaches everything the workload forked.
The driver also makes itself a *child subreaper*: an orphan (a runtime
worker whose master died, ``multiprocessing.resource_tracker`` after its
interpreter exited) is re-parented to the driver instead of init, so the
driver can ``waitpid`` it and no zombie is left for a PID 1 that may
never reap.  :func:`sweep` is the last step of every run: whatever is
still in the workload's session, or descends from the driver, is killed,
reaped and *reported* — a leak is a benchmark failure, not a clean-up
detail.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Iterable, List, NamedTuple, Set

_PR_SET_CHILD_SUBREAPER = 36
_SHM_DIR = "/dev/shm"
#: python's own anonymous segments; repro's named ones come from
#: ``repro.runtime.slab.residual_segments``
_PY_SHM_PREFIX = "psm_"


class Proc(NamedTuple):
    pid: int
    comm: str
    state: str
    ppid: int
    sid: int


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux >= 3.4); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def proc_table() -> Dict[int, Proc]:
    """Every process visible in ``/proc``, keyed by pid."""
    table: Dict[int, Proc] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        # comm may hold spaces and parentheses: split on the last ')'
        head, _, tail = stat.rpartition(")")
        fields = tail.split()
        if len(fields) < 4:
            continue
        table[int(entry)] = Proc(
            pid=int(entry), comm=head.partition("(")[2], state=fields[0],
            ppid=int(fields[1]), sid=int(fields[3]))
    return table


def descendants(table: Dict[int, Proc], root: int) -> Set[int]:
    """Pids below ``root`` in the parent/child tree of ``table``."""
    children: Dict[int, List[int]] = {}
    for p in table.values():
        children.setdefault(p.ppid, []).append(p.pid)
    found: Set[int] = set()
    stack = [root]
    while stack:
        for pid in children.get(stack.pop(), ()):
            if pid not in found:
                found.add(pid)
                stack.append(pid)
    return found


def _reap_all() -> None:
    """Collect every already-dead child without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_session(sid: int) -> None:
    """SIGKILL the process group that leads session ``sid``."""
    try:
        os.killpg(sid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def sweep(sessions: Iterable[int], patience: float = 5.0) -> List[str]:
    """Kill and reap whatever a run left behind; return what was found.

    Looks for live or zombie processes that belong to one of the
    workload ``sessions`` or descend from this process.  Call it only
    once every child the caller tracks itself has been waited for, since
    it reaps with ``waitpid(-1)``.
    """
    me = os.getpid()
    sessions = set(sessions)
    leaked: Dict[int, str] = {}
    deadline = time.monotonic() + patience
    while True:
        _reap_all()
        table = proc_table()
        mine = descendants(table, me)
        targets = [p for pid, p in table.items() if pid != me and (
            p.sid in sessions or pid in mine)]
        if not targets:
            break
        for p in targets:
            leaked.setdefault(
                p.pid, f"pid {p.pid} ({p.comm}) state {p.state}")
            if p.state != "Z":
                try:
                    os.kill(p.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        if time.monotonic() > deadline:
            break
        time.sleep(0.02)
    return sorted(leaked.values())


def shm_segments() -> Set[str]:
    """Names in ``/dev/shm`` that a run of this repo could have created."""
    from repro.runtime.slab import residual_segments
    names = set(residual_segments())
    if os.path.isdir(_SHM_DIR):
        names.update(n for n in os.listdir(_SHM_DIR)
                     if n.startswith(_PY_SHM_PREFIX))
    return names


def unlink_segments(names: Iterable[str]) -> List[str]:
    """Remove leaked segments; returns the names that were there."""
    removed = []
    for name in sorted(names):
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except FileNotFoundError:
            continue
        removed.append(name)
    return removed


def stop_resource_tracker(patience: float = 2.0) -> None:
    """Stop this interpreter's ``multiprocessing.resource_tracker`` child.

    Creating a ``SharedMemory`` segment starts the tracker, and it
    outlives the interpreter that started it unless that interpreter
    closes the tracker's pipe and waits.  Does what
    ``ResourceTracker._stop`` does, with a bounded wait so a worker that
    still holds the pipe's write end cannot hang the exit.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    pid = getattr(tracker, "_pid", None)
    fd = getattr(tracker, "_fd", None)
    if pid is None:
        return
    if fd is not None:
        os.close(fd)
        tracker._fd = None
    deadline = time.monotonic() + patience
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            break
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            break
        time.sleep(0.005)
    tracker._pid = None


def stop_children() -> List[str]:
    """Join every ``multiprocessing`` child; terminate and report the
    ones still alive (a runtime that returned without joining its
    workers)."""
    import multiprocessing
    stuck = []
    for child in multiprocessing.active_children():  # joins finished ones
        child.join(timeout=1.0)
        if child.is_alive():
            stuck.append(f"pid {child.pid} ({child.name}) still running")
            child.kill()
            child.join(timeout=2.0)
    return stuck
