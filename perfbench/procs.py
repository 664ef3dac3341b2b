"""Process facts read from ``/proc`` (Linux): start time, descendants,
command line, resident high-water mark and bytes read."""

from __future__ import annotations

import os


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as f:
        s = f.read()
    return s[s.rindex(")") + 2:].split()  # fields after "(comm)", from state on


def start_time(pid: int | None = None) -> float:
    """Epoch seconds at which the process started."""
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f if line.startswith("btime "))
    ticks = int(_stat_fields(pid or os.getpid())[19])  # field 22: starttime
    return btime + ticks / os.sysconf("SC_CLK_TCK")


def descendants(pid: int | None = None) -> list[int]:
    """Pids of every live descendant of ``pid`` (default: this process)."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                parent[int(name)] = int(_stat_fields(int(name))[1])
            except (OSError, ValueError, IndexError):
                continue
    out, frontier = [], {pid or os.getpid()}
    while frontier:
        kids = [p for p, pp in parent.items() if pp in frontier]
        out += kids
        frontier = set(kids)
    return out


def cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        return f.read().replace(b"\0", b" ").decode(errors="replace")


def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key):
                return int(line.split()[1])
    return 0


def hwm_kb(pid: int) -> int:
    """Peak resident set size (``VmHWM``) in KiB."""
    return _status_kb(pid, "VmHWM:")


def rchar() -> int:
    """Bytes this process has read through read-family system calls."""
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of the whole machine: time its virtual
    CPUs were ready to run but the hypervisor ran something else."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[7], sum(v)


def alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False
