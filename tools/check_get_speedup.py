#!/usr/bin/env python3
"""Threaded-get speedup check for `dnastore archive get`.

Stores one 4096-byte object in a fresh archive with --max-shard-bytes 512
(8 shards, the CLI's default codec), spins every core for about 2 s,
then times `dnastore archive get` at --threads 1 and at --threads 4,
best of 3 each.  Every get must print
eight `ok` shard lines and write the stored bytes back exactly.

The threaded get must be more than 1.5x faster than the serial one.  A
host with fewer than 2 usable cores cannot show a parallel speedup, so
there the ratio is printed but not enforced.

Started after 30 s idle on a 4-core x86-64 VM, the check read
0.94-1.17x in 3 runs without the spin and 2.53-3.47x in 10 runs with it.

Usage: check_get_speedup.py <path to dnastore>
Exit status: 0 = pass, 1 = fail, 2 = usage error.
"""

import os
import random
import subprocess
import sys
import tempfile
import time

OBJECT_BYTES = 4096
SHARD_BYTES = 512
SHARDS = 8
THREADS = 4
REPEATS = 3
SPIN_SECONDS = 2.0
MIN_SPEEDUP = 1.5

SPIN_CODE = (
    "import time\n"
    f"end = time.monotonic() + {SPIN_SECONDS}\n"
    "while time.monotonic() < end:\n"
    "    pass\n"
)


def fail(msg: str) -> None:
    print(f"check_get_speedup: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd: list) -> str:
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}:\n"
             f"{done.stdout}{done.stderr}")
    return done.stdout


def spin_all_cores(cores: int) -> None:
    """Busy-loop one process per usable core for SPIN_SECONDS."""
    spinners = [subprocess.Popen([sys.executable, "-c", SPIN_CODE])
                for _ in range(cores)]
    for spinner in spinners:
        spinner.wait()


def best_get_seconds(dnastore: str, archive: str, data: bytes,
                     out: str, threads: int) -> float:
    """Best wall time of REPEATS gets; each one is checked byte for byte."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        stdout = run([dnastore, "archive", "get", "--dir", archive,
                      "--name", "object", "--out", out, "--seed", "11",
                      "--threads", str(threads)])
        best = min(best, time.perf_counter() - start)
        ok_shards = sum(1 for line in stdout.splitlines()
                        if line.startswith("shard ") and "): ok," in line)
        if ok_shards != SHARDS:
            fail(f"--threads {threads}: {ok_shards} ok shards, "
                 f"want {SHARDS}:\n{stdout}")
        with open(out, "rb") as f:
            if f.read() != data:
                fail(f"--threads {threads}: get is not byte-exact")
    return best


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check_get_speedup.py <path to dnastore>",
              file=sys.stderr)
        return 2
    dnastore = os.path.abspath(sys.argv[1])
    cores = len(os.sched_getaffinity(0))
    data = random.Random(4242).randbytes(OBJECT_BYTES)
    with tempfile.TemporaryDirectory(prefix="dnastore_speedup_") as work:
        archive = os.path.join(work, "tube")
        source = os.path.join(work, "object.bin")
        with open(source, "wb") as f:
            f.write(data)
        stored = run([dnastore, "archive", "put", "--dir", archive,
                      "--name", "object", "--in", source,
                      "--max-shard-bytes", str(SHARD_BYTES)])
        if f"{SHARDS} shard(s)" not in stored:
            fail(f"put did not store {SHARDS} shards:\n{stored}")

        spin_all_cores(cores)
        out = os.path.join(work, "object.out")
        serial = best_get_seconds(dnastore, archive, data, out, 1)
        threaded = best_get_seconds(dnastore, archive, data, out, THREADS)

    speedup = serial / threaded
    print(f"archive get of {OBJECT_BYTES} bytes in {SHARDS} shards on "
          f"{cores} core(s), best of {REPEATS}: --threads 1 {serial:.3f} s,"
          f" --threads {THREADS} {threaded:.3f} s, speedup {speedup:.2f}x")
    if cores < 2:
        print("(single-core host: speedup bar not enforced)")
        return 0
    if speedup <= MIN_SPEEDUP:
        fail(f"expected more than {MIN_SPEEDUP}x with --threads {THREADS} "
             f"over {SHARDS} shards on {cores} cores, got {speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
