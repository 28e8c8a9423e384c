#!/usr/bin/env python3
"""Sampling profiler for one thread of a Linux x86-64 process, with no
`perf`: attach with ptrace, read the registers, detach, a few hundred
times a second, then bin the instruction pointers by the executable's
symbols.

    tools/ripsample.py [--hz N] [--seconds S] [--top K] [--detail SUBSTR] -- CMD ARGS...
    tools/ripsample.py [--hz N] [--seconds S] [--top K] [--detail SUBSTR] --pid PID

The first form starts CMD and samples it until it exits or S seconds
pass (a child may always be traced; attaching to an unrelated PID needs
`kernel.yama.ptrace_scope` 0 or CAP_SYS_PTRACE). Only the thread whose
id is the PID is sampled, which is the whole program for a
single-threaded one.

Symbols come from `nm -C -n -S` on the executable, with their sizes, so
a sample past the end of the symbol before it is not charged to it.
Samples in the executable but inside no symbol are one bin. A shared
library (libc, ...) exports only its dynamic symbols, and its internal
functions (malloc's arena code, the memmove and string variants) lie
between them, so a sample there is labelled by the nearest exported
symbol at or below it, `[libc.so.6] after <symbol>`: a region, not
necessarily the function. Samples in any other mapping (the vDSO,
anonymous memory, ...) are binned by the mapping's name.
`--detail SUBSTR` also prints, for the hottest symbols whose
name contains SUBSTR, the sampled offsets into the symbol: a stalled
instruction shows as the samples right after it.

A position-independent executable is loaded at a bias. For the mapping
of the executable segment, the bias is

    map start - map file offset - (p_vaddr - p_offset)

of that segment's PT_LOAD header; leaving out the last term puts every
sample one page low, in the wrong symbol.
"""

import argparse
import bisect
import collections
import ctypes
import os
import struct
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_ATTACH = 16
PTRACE_DETACH = 17
WALL = 0x40000000  # waitpid's __WALL
RIP_INDEX = 16  # user_regs_struct: r15 ... rip is the 17th of 27 words


def executable_load(path):
    """(p_offset, p_vaddr) of the executable PT_LOAD segment of an ELF64,
    or None when `path` is no such file."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:
                return None
            phoff, = struct.unpack_from("<Q", head, 0x20)
            phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return None
    for i in range(phnum):
        p_type, p_flags, p_offset, p_vaddr = struct.unpack_from("<IIQQ", table, i * phentsize)
        if p_type == 1 and p_flags & 1:  # PT_LOAD, PF_X
            return p_offset, p_vaddr
    return None


def mappings(pid):
    """[(start, end, offset, perms, path)] of the process's mappings."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split(maxsplit=5)
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5].strip() if len(parts) == 6 else "[anon]"
            out.append((start, end, int(parts[2], 16), parts[1], path))
    return out


def load_bias(pid, exe, wait=2.0):
    """The executable's load bias. A child just started may not have its
    new image mapped yet when `Popen` returns (its maps can still list
    only `[stack]` and `[vsyscall]`), so the maps are re-read for up to
    `wait` seconds until the executable segment appears."""
    load = executable_load(exe)
    if load is None:
        sys.exit(f"{exe}: not a 64-bit ELF file with an executable PT_LOAD segment")
    p_offset, p_vaddr = load
    deadline = time.monotonic() + wait
    while True:
        for start, _, offset, perms, path in mappings(pid):
            if path == exe and "x" in perms:
                return start - offset - (p_vaddr - p_offset)
        if time.monotonic() >= deadline:
            sys.exit(f"no executable mapping of {exe} in process {pid}")
        time.sleep(0.001)


def symbols(exe):
    """Sorted starts and the matching (size, name) of the text symbols."""
    text = subprocess.run(
        ["nm", "-C", "-n", "-S", "--defined-only", exe],
        check=True, capture_output=True, text=True,
    ).stdout
    starts, info = [], []
    for line in text.splitlines():
        parts = line.split(maxsplit=3)
        if len(parts) == 4 and parts[2] in "tTwW":
            starts.append(int(parts[0], 16))
            info.append((int(parts[1], 16), parts[3]))
    return starts, info


def exported_symbols(lib):
    """(p_offset, p_vaddr, sorted starts, names) of the exported functions
    of shared library `lib`, or None when it has none to read."""
    load = executable_load(lib)
    if load is None:
        return None
    text = subprocess.run(
        ["nm", "-D", "-n", "--defined-only", lib], capture_output=True, text=True,
    ).stdout
    starts, names = [], []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwWi":  # i: an IFUNC, as memmove is
            starts.append(int(parts[0], 16))
            names.append(parts[2].split("@")[0])
    return (*load, starts, names) if starts else None


def library_label(mapped, rip, cache):
    """`[name] after <symbol>` for a sample in a shared library's text,
    or `[name]` when no exported symbol lies at or below it."""
    start, _, offset, perms, path = mapped
    label = f"[{os.path.basename(path)}]"
    if "x" not in perms or not path.startswith("/"):
        return label
    if path not in cache:
        cache[path] = exported_symbols(path)
    if cache[path] is None:
        return label
    p_offset, p_vaddr, starts, names = cache[path]
    addr = rip - (start - offset - (p_vaddr - p_offset))
    i = bisect.bisect_right(starts, addr) - 1
    return f"{label} after {names[i]}" if i >= 0 else label


def sample(pid, hz, seconds):
    """Instruction pointers of thread `pid`, until it exits or time is up,
    and its mappings (re-read, while stopped, whenever a sample lands in
    none known: the loader maps shared libraries after the exec)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
    libc.ptrace.restype = ctypes.c_long
    regs = (ctypes.c_ulonglong * 27)()
    rips, maps = [], mappings(pid)
    period = 1.0 / hz
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if libc.ptrace(PTRACE_ATTACH, pid, None, None) != 0:
            break  # exited (or not ours to trace)
        try:
            _, status = os.waitpid(pid, WALL)
        except ChildProcessError:
            break
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0:
            rip = regs[RIP_INDEX]
            rips.append(rip)
            if not any(start <= rip < end for start, end, *_ in maps):
                maps = mappings(pid)
        libc.ptrace(PTRACE_DETACH, pid, None, None)
        time.sleep(period)
    return rips, maps


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pid", type=int)
    ap.add_argument("--hz", type=float, default=300.0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--detail", metavar="SUBSTR")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if (args.pid is None) == (not cmd):
        ap.error("give either --pid PID or -- CMD ARGS...")

    child = None
    if cmd:
        child = subprocess.Popen(cmd)  # returns once the exec succeeded
        pid = child.pid
    else:
        pid = args.pid
    exe = os.readlink(f"/proc/{pid}/exe")
    bias = load_bias(pid, exe)
    starts, info = symbols(exe)

    rips, maps = sample(pid, args.hz, args.seconds)
    if child is not None:
        child.wait()
    if not rips:
        sys.exit("no samples (did the process exit at once?)")

    bins = collections.Counter()
    offsets = collections.defaultdict(collections.Counter)
    libraries = {}
    for rip in rips:
        mapped = next((m for m in maps if m[0] <= rip < m[1]), None)
        if mapped is None:
            bins["[?]"] += 1
            continue
        if mapped[4] != exe:
            bins[library_label(mapped, rip, libraries)] += 1
            continue
        addr = rip - bias
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < starts[i] + max(info[i][0], 1):
            bins[info[i][1]] += 1
            offsets[info[i][1]][addr - starts[i]] += 1
        else:
            bins["[no symbol]"] += 1

    total = len(rips)
    print(f"{total} samples of pid {pid} ({exe}), load bias {bias:#x}")
    for name, n in bins.most_common(args.top):
        print(f"{100.0 * n / total:6.1f} %  {n:6d}  {name}")
    if args.detail:
        for name, _ in bins.most_common():
            if args.detail in name and name in offsets:
                print(f"\n{name}:")
                for off, n in sorted(offsets[name].items()):
                    print(f"  +{off:#06x}  {n}")


if __name__ == "__main__":
    main()
