"""Process hygiene: children in their own session, killed and reaped.

Every workload runs in a child started with ``start_new_session=True``.
Its descendants (distributed rank workers, serve pool workers) inherit
that session id, and none of them watches its parent, so the session id
is how the supervisor finds every process a workload left behind —
even ones orphaned by a crash or an interrupt.  The supervisor makes
itself a child subreaper, so orphans are re-parented to it and it can
reap them instead of leaving zombies.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Re-parent orphaned descendants to this process (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the session scan still works


def _stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, session)`` of a live process, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name is parenthesised and may hold spaces
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[3])


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def session_members(sids: set[int]) -> list[int]:
    """Live (non-zombie) processes in any of the given sessions."""
    out = []
    for pid in _pids():
        st = _stat(pid)
        if st is not None and st[2] in sids and st[0] != "Z":
            out.append(pid)
    return out


def descendants(root: int) -> list[int]:
    """Live (non-zombie) processes below ``root`` in the process tree."""
    children: dict[int, list[int]] = {}
    for pid in _pids():
        st = _stat(pid)
        if st is not None and st[0] != "Z":
            children.setdefault(st[1], []).append(pid)
    out, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def reap_zombies() -> None:
    """Collect the exit status of every finished child."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_session(sid: int, timeout: float = 10.0) -> list[int]:
    """SIGKILL every process of session ``sid`` and reap what we can.

    Returns the processes still alive after ``timeout`` (empty when the
    session is gone).
    """
    deadline = time.monotonic() + timeout
    while True:
        members = session_members({sid})
        try:
            os.killpg(sid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        reap_zombies()
        if not members:
            return []
        if time.monotonic() > deadline:
            return members
        time.sleep(0.02)
