#!/usr/bin/env python3
"""Wall-clock sampling profiler for a native executable, built on ptrace.

    python3 tools/ptprof.py [--interval-ms N] [--top K] [--json FILE] -- CMD [ARG...]

Starts CMD as a child, attaches with PTRACE_SEIZE and, every N ms of wall
time (default 2), stops it with PTRACE_INTERRUPT, reads the main
thread's instruction pointer with PTRACE_GETREGS and lets it go on with
PTRACE_CONT.  When CMD exits, each sample is mapped to a symbol of the
executable (`nm -n`, offset by the load base read from /proc/PID/maps
for a position-independent executable) and the samples are grouped:

- `camlLib__Module.fn` symbols by OCaml module (`Lib.Module`);
- the C symbols of the executable, `caml_*` runtime functions included,
  each under its own name, prefixed `runtime:`;
- addresses outside the executable by mapping (`[libc.so.6]`, `[vdso]`).

It prints, on standard error, the share of samples of the top K groups
and of the top K symbols (default 25); --json writes every count.  CMD's
standard output and error pass through, and its exit status is ptprof's.

Unlike a SIGPROF handler inside an OCaml program, which only runs at the
next safepoint and so charges time to the next allocation, a ptrace stop
lands wherever the thread is.  It sees one thread (the one started) and
no call stacks: a symbol's share is self time.  Linux on x86-64 only;
needs `nm` and permission to ptrace one's own child.
"""

import argparse
import bisect
import ctypes
import json
import os
import subprocess
import sys
import time
from collections import Counter

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128


class Regs(ctypes.Structure):
    """struct user_regs_struct on x86-64."""
    _fields_ = [(name, ctypes.c_ulonglong) for name in (
        "r15", "r14", "r13", "r12", "rbp", "rbx", "r11", "r10", "r9", "r8",
        "rax", "rcx", "rdx", "rsi", "rdi", "orig_rax", "rip", "cs", "eflags",
        "rsp", "ss", "fs_base", "gs_base", "ds", "es", "fs", "gs")]


libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, pid, data=None):
    if libc.ptrace(request, pid, None, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, "ptrace(%#x): %s" % (request, os.strerror(err)))


def sample(cmd, interval_s):
    """Run cmd to completion; return (exit status, exe path, maps, rips)."""
    child = subprocess.Popen(cmd)
    pid = child.pid
    # Popen returns once the exec has begun, so /proc names the program
    # itself, not this interpreter; its mappings may still be in the
    # making, so they are read while the tracee is stopped.
    exe = os.readlink("/proc/%d/exe" % pid)
    ptrace(PTRACE_SEIZE, pid)
    maps = []
    regs = Regs()
    rips = []
    status = None
    while status is None:
        time.sleep(interval_s)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except ProcessLookupError:
            pass
        # Wait for the interrupt stop; a signal-delivery stop on the way
        # is passed on to the tracee, which then stops for the interrupt.
        while True:
            _, st = os.waitpid(pid, 0)
            if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                status = os.waitstatus_to_exitcode(st)
                break
            if (st >> 16) == PTRACE_EVENT_STOP:
                try:
                    ptrace(PTRACE_GETREGS, pid, ctypes.addressof(regs))
                    rips.append(regs.rip)
                    if not any(start <= regs.rip < end for start, end, _, _ in maps):
                        maps = read_maps(pid)
                    ptrace(PTRACE_CONT, pid)
                except ProcessLookupError:
                    pass
                break
            ptrace(PTRACE_CONT, pid, os.WSTOPSIG(st))
    child.returncode = status
    return status, exe, maps, rips


def read_maps(pid):
    """[(start, end, file offset, path)] for every mapping."""
    out = []
    with open("/proc/%d/maps" % pid) as f:
        for line in f:
            parts = line.split(None, 5)
            start, end = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5].strip() if len(parts) > 5 else ""
            out.append((start, end, int(parts[2], 16), path))
    return out


def is_pie(exe):
    with open(exe, "rb") as f:
        header = f.read(18)
    return int.from_bytes(header[16:18], "little") == 3  # ET_DYN


def text_symbols(exe):
    proc = subprocess.run(["nm", "-n", exe], stdout=subprocess.PIPE, text=True, check=True)
    addrs, names = [], []
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def group_of(symbol):
    """`camlSim__Event_queue.push_int_370` -> `Sim.Event_queue`."""
    if symbol.startswith("caml") and not symbol.startswith("caml_") and "." in symbol:
        return symbol[4:symbol.index(".")].replace("__", ".")
    return "runtime:" + symbol


def attribute(exe, maps, rips):
    """Counter of groups and Counter of symbols over the samples."""
    addrs, names = text_symbols(exe)
    exe_maps = [m for m in maps if m[3] == exe]
    base = min(m[0] - m[2] for m in exe_maps) if exe_maps and is_pie(exe) else 0
    groups, symbols = Counter(), Counter()
    for rip in rips:
        inside = any(start <= rip < end for start, end, _, _ in exe_maps)
        if inside:
            i = bisect.bisect_right(addrs, rip - base) - 1
            sym = names[i] if i >= 0 else "?"
            group = group_of(sym)
        else:
            where = next((path for start, end, _, path in maps if start <= rip < end), "")
            sym = group = "[%s]" % (os.path.basename(where) or "anon")
        groups[group] += 1
        symbols[sym] += 1
    return groups, symbols


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--interval-ms", type=float, default=2.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--json", help="also write the counts to this file")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd or args.interval_ms <= 0:
        ap.error("give a positive --interval-ms and a command after --")
    status, exe, maps, rips = sample(cmd, args.interval_ms / 1000.0)
    if not rips:
        print("ptprof: no samples (the command ran under %.1f ms)" % args.interval_ms,
              file=sys.stderr)
        return status
    groups, symbols = attribute(exe, maps, rips)
    n = len(rips)
    err = sys.stderr
    print("ptprof: %d samples of %s every %.1f ms (exit %d)" % (n, exe, args.interval_ms, status),
          file=err)
    for title, counts in (("group", groups), ("symbol", symbols)):
        print("%-60s %7s %7s" % (title, "samples", "share"), file=err)
        top = counts.most_common(args.top)
        for name, c in top:
            print("%-60s %7d %6.1f%%" % (name[:60], c, 100.0 * c / n), file=err)
        rest = n - sum(c for _, c in top)
        if rest:
            print("%-60s %7d %6.1f%%" % ("(%d more)" % (len(counts) - len(top)), rest,
                                         100.0 * rest / n), file=err)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"exe": exe, "interval_ms": args.interval_ms, "samples": n,
                       "exit": status, "groups": dict(groups.most_common()),
                       "symbols": dict(symbols.most_common())}, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
