#!/usr/bin/env bash
# End-to-end exercise of the built `dnastore` binary: archive create ->
# put -> ls -> stat -> get -> fsck, asserting exit codes and byte-exact
# round trips.  Driven by ctest (cli_archive_e2e); the binary path
# arrives in $DNASTORE_BIN.
set -euo pipefail

bin="${DNASTORE_BIN:?DNASTORE_BIN must point at the dnastore binary}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Deterministic payloads (round-trip compared, so content only needs to
# be reproducible for debugging).  No pipes: `yes | head` dies of
# SIGPIPE under pipefail.
for _ in $(seq 1 19); do printf '0123456789abcdef'; done > a.full
head -c 300 a.full > a.bin
for _ in $(seq 1 6); do printf 'fedcba9876543210'; done > b.full
head -c 90 b.full > b.bin

arch="$work/tube"

# put auto-creates the archive; a second put under the same name must
# fail without touching the stored object.
"$bin" archive put --dir "$arch" --name alpha --in a.bin \
    || fail "put alpha"
"$bin" archive put --dir "$arch" --name alpha --in b.bin \
    && fail "duplicate put alpha must exit nonzero"
"$bin" archive put --dir "$arch" --name beta --in b.bin --threads 2 \
    || fail "put beta"

# ls and stat report both objects with their exact sizes.
ls_out="$("$bin" archive ls --dir "$arch")"
grep -q 'alpha' <<< "$ls_out" || fail "ls missing alpha"
grep -q '2 object(s)' <<< "$ls_out" || fail "ls object count"
stat_out="$("$bin" archive stat --dir "$arch" --name alpha)"
grep -q 'size: 300 bytes' <<< "$stat_out" || fail "stat alpha size"
"$bin" archive stat --dir "$arch" --name ghost \
    && fail "stat of missing object must exit nonzero"

# get round-trips byte-exactly through the simulated wetlab.
"$bin" archive get --dir "$arch" --name alpha --out out_a.bin --seed 7 \
    || fail "get alpha"
cmp -s a.bin out_a.bin || fail "alpha round trip not byte-exact"
"$bin" archive get --dir "$arch" --name beta --out out_b.bin --seed 7 \
    || fail "get beta"
cmp -s b.bin out_b.bin || fail "beta round trip not byte-exact"
"$bin" archive get --dir "$arch" --name ghost --out out_g.bin \
    && fail "get of missing object must exit nonzero"

# An 8-shard object (4096 bytes in shards of <= 512) decodes the same
# with a parallel and a serial shard decode: the path that
# tools/check_get_speedup.py times.
for _ in $(seq 1 256); do printf '0123456789abcdef'; done > c.bin
sharded="$work/sharded"
"$bin" archive put --dir "$sharded" --name gamma --in c.bin \
    --max-shard-bytes 512 || fail "put gamma"
for threads in 4 1; do
    get_out="$("$bin" archive get --dir "$sharded" --name gamma \
        --out "out_c$threads.bin" --seed 11 --threads "$threads")" \
        || fail "get gamma --threads $threads"
    cmp -s c.bin "out_c$threads.bin" \
        || fail "gamma --threads $threads round trip not byte-exact"
    ok_shards="$(grep -cE '^shard [0-9]+ \(pair [0-9]+\): ok,' \
        <<< "$get_out" || true)"
    [ "$ok_shards" -eq 8 ] \
        || fail "gamma --threads $threads: $ok_shards ok shards, want 8"
done

# fsck: clean archive, then a planted stale staging file is detected
# (healthy, exit 0), swept by --repair, and the rescan is clean again.
fsck_out="$("$bin" archive fsck --dir "$arch" --json fsck.json)"
grep -q 'clean' <<< "$fsck_out" || fail "fsck not clean"
grep -q '"schema":"dnastore.fsck_report"' fsck.json \
    || fail "fsck JSON schema marker missing"

touch "$arch/manifest.json.tmp.123.7"
fsck_out="$("$bin" archive fsck --dir "$arch")"
grep -q 'stale_temp_file' <<< "$fsck_out" || fail "stale temp not found"
"$bin" archive fsck --dir "$arch" --repair > /dev/null \
    || fail "fsck --repair"
[ ! -e "$arch/manifest.json.tmp.123.7" ] || fail "stale temp not swept"
fsck_out="$("$bin" archive fsck --dir "$arch")"
grep -q 'clean' <<< "$fsck_out" || fail "fsck not clean after repair"

# Unusable archives exit 1.
"$bin" archive fsck --dir "$work/no_such_archive" \
    && fail "fsck of missing archive must exit nonzero"

echo "cli_archive_e2e OK"
