#!/usr/bin/env python3
"""Does a checkpoint stop the world? One connection against a real lexequald.

Seeds a 20 418-name mmap image, then for each of two daemons started from
it — one with `--wal-max-bytes 16384` (compaction cycles run), one without
(none do) — sends 4 000 `ADD` and 16 000 `MATCH scan` on one connection,
one request at a time, and prints one line:

    cap=16384 adds=4000 add_p50_us=… add_max_ms=… adds_over_8ms=… \
        cycles=… vmhwm_mb=… commit_hold_max_us=… checkpoint_ms_last=…

`adds_over_8ms` and `add_max_ms` are the stall a client sees; `vmhwm_mb`
is the daemon's peak resident set; `commit_hold_max_us` (absent before
the daemon grew the key) is the longest the commit lock was held. Used
for the EXPERIMENTS.md table "Checkpoints that do not stop the world".

    python3 scripts/checkpoint_probe.py [--daemon target/release/lexequald]
"""
import argparse
import os
import queue
import shutil
import socket
import subprocess
import tempfile
import threading
import time

ADDS, MATCHES_PER_ADD, STALL_MS = 4000, 4, 8.0
HEADS = ["Ka", "Re", "Ni", "Mo", "Ta", "Lu", "Sa", "Vi"]
TAILS = ["ram", "vel", "din", "sha", "pur", "nak", "kar", "tel"]


def name(i):
    return f"{HEADS[(i // 8) % 8]}{TAILS[i % 8]}{i // 64}"


def spawn(daemon, *args, settled=(), grace=0.0):
    """Start a daemon; return (process, address) once it printed its
    `serving on` line and then a line starting with one of `settled`, or
    `grace` seconds after `serving on` when none came by then."""
    proc = subprocess.Popen(
        [daemon, "--addr", "127.0.0.1:0", "--shards", "2", *args],
        stderr=subprocess.PIPE,
        text=True,
    )
    # Read on a thread of its own, so the wait below times out on lines,
    # not on what the pipe's buffer already holds; it also keeps the pipe
    # drained for the daemon's life.
    stderr = queue.Queue()

    def pump():
        for line in proc.stderr:
            stderr.put(line)
        stderr.put(None)

    threading.Thread(target=pump, daemon=True).start()
    lines, addr = [], None
    while True:
        try:
            line = stderr.get(timeout=grace if addr else None)
        except queue.Empty:
            return proc, addr
        if line is None:
            raise SystemExit(f"daemon exited before serving: {lines}")
        lines.append(line.rstrip())
        if line.startswith("lexequald: serving on "):
            addr = line.split()[3]
        if addr and (not settled or line.startswith(settled)):
            return proc, addr


def stat(line, key):
    for token in line.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    return None


def probe(daemon, image, work, cap):
    wal = os.path.join(work, f"probe-{cap}.wal")
    args = ["--snapshot", image, "--wal", wal]
    if cap:
        args += ["--wal-max-bytes", str(cap)]
    # The traffic below is scan-only, so it names no access path and
    # nothing is covered. A daemon that covered every path at start-up
    # said so on stderr within milliseconds ("covered in background", or
    # "rebuilt" before covers existed, when the rebuild also held the
    # grow lock, a stall EXPERIMENTS.md records): wait that out, so a run
    # against such a build starts from its indices too.
    settled = ("lexequald: covered in background", "lexequald: rebuilt in background")
    proc, addr = spawn(daemon, *args, settled=settled, grace=1.0)
    try:
        host, port = addr.rsplit(":", 1)
        conn = socket.create_connection((host, int(port)))
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        io = conn.makefile("rw", encoding="utf-8", newline="\n")

        def ask(line):
            start = time.perf_counter()
            io.write(line + "\n")
            io.flush()
            reply = io.readline()
            return reply, (time.perf_counter() - start) * 1e3

        add_ms = []
        for i in range(ADDS):
            reply, ms = ask(f"ADD en {name(i)}")
            assert reply.startswith("OK "), reply
            add_ms.append(ms)
            for j in range(MATCHES_PER_ADD):
                reply, _ = ask(f"MATCH en scan 0.35 {name((i * 7 + j) % (i + 1))}")
                assert reply.startswith("OK "), reply
        stats, _ = ask("STATS")
        with open(f"/proc/{proc.pid}/status") as status:
            hwm_kb = next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
    finally:
        proc.kill()
        proc.wait()
    add_ms.sort()
    print(
        f"cap={cap or 'none'} adds={ADDS} add_p50_us={add_ms[len(add_ms) // 2] * 1e3:.0f}"
        f" add_max_ms={add_ms[-1]:.1f}"
        f" adds_over_{STALL_MS:.0f}ms={sum(ms > STALL_MS for ms in add_ms)}"
        f" cycles={stat(stats, 'compactions')} vmhwm_mb={hwm_kb / 1024:.1f}"
        f" commit_hold_max_us={stat(stats, 'commit_hold_max_us')}"
        f" checkpoint_ms_last={stat(stats, 'checkpoint_ms_last')}",
        flush=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--daemon", default="target/release/lexequald")
    daemon = os.path.abspath(parser.parse_args().daemon)
    work = tempfile.mkdtemp(prefix="lexequal-checkpoint-probe-")
    try:
        image = os.path.join(work, "seed.img")
        seed, _ = spawn(daemon, "--preload", "20000", "--save-snapshot", image)
        seed.kill()
        seed.wait()
        for cap in (16384, None):
            probe(daemon, image, work, cap)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
