#!/usr/bin/env python3
"""Validate the observability artifacts one pipeline run produces.

Usage:
    tools/check_obs_json.py --metrics run_report.json --trace trace.json
                            [--manifest manifest.json]
                            [--fsck fsck_report.json]
                            [--min-counters N] [--min-depth D]

Checks, without any third-party dependency:
  * the metrics file parses, carries schema `dnastore.run_report` at
    schema_version 3 (earlier versions are rejected), and contains every
    required section (run, stages with per-stage latency, pipeline,
    faults, recovery_attempts, errors, metrics);
  * it carries the attribution layer: per-stage cpu_seconds +
    utilization, stages.total_cpu_seconds and a contention section
    (per-mutex wait histograms with consistent buckets); when the
    thread pool ran tasks, the queue-wait histogram must be present;
  * the metrics section holds at least --min-counters distinct module
    counters/histograms and every fault counter;
  * the trace file is a well-formed Chrome trace_event document whose
    spans nest at least --min-depth levels deep (computed from
    timestamp containment per thread, exactly as chrome://tracing and
    Perfetto render it);
  * the manifest file is a valid `dnastore.archive_manifest` document:
    schema + version, structurally consistent objects/shards (unique
    names and primer pair ids, shard sizes summing to object sizes) and
    a crc32 field matching the CRC-32 of the raw payload bytes;
  * the fsck file is a valid `dnastore.fsck_report` document: schema +
    version, a known status, findings with known kinds/severities, and
    clean/healthy/repaired_count fields consistent with those findings.

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys
import zlib

RUN_REPORT_SCHEMA_VERSION = 3

REQUIRED_SECTIONS = (
    "run",
    "stages",
    "pipeline",
    "faults",
    "recovery_attempts",
    "errors",
    "metrics",
)

REQUIRED_STAGES = (
    "encoding",
    "simulation",
    "clustering",
    "reconstruction",
    "decoding",
)

REQUIRED_FAULT_KEYS = (
    "dropped_strands",
    "truncated_reads",
    "elongated_reads",
    "corrupted_indices",
    "duplicate_conflicts",
    "garbage_reads",
    "emptied_clusters",
    "merged_clusters",
    "total",
)


def fail(message):
    print(f"check_obs_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_attribution(path, doc):
    """Attribution checks every run report must pass."""
    stages = doc["stages"]
    for stage in REQUIRED_STAGES:
        entry = stages[stage]
        for field in ("cpu_seconds", "utilization"):
            value = entry.get(field)
            if not isinstance(value, (int, float)):
                fail(f"{path}: stage {stage!r} lacks numeric {field}")
            if value < 0:
                fail(f"{path}: stage {stage!r} {field} is negative")
    if not isinstance(stages.get("total_cpu_seconds"), (int, float)):
        fail(f"{path}: stages.total_cpu_seconds missing")

    contention = doc.get("contention")
    if not isinstance(contention, dict):
        fail(f"{path}: contention section missing")
    if not isinstance(contention.get("enabled"), bool):
        fail(f"{path}: contention.enabled missing or not a boolean")
    sample = contention.get("sample_every")
    if not isinstance(sample, int) or sample < 1:
        fail(f"{path}: contention.sample_every must be an integer >= 1")
    mutexes = contention.get("mutexes")
    if not isinstance(mutexes, dict):
        fail(f"{path}: contention.mutexes missing or not an object")
    for name, mutex in mutexes.items():
        counts = mutex.get("counts")
        bounds = mutex.get("upper_bounds")
        if not isinstance(counts, list) or not isinstance(bounds, list) \
                or len(counts) != len(bounds) + 1:
            fail(f"{path}: contention mutex {name!r} bucket/bound "
                 "count mismatch")
        if sum(counts) != mutex.get("count"):
            fail(f"{path}: contention mutex {name!r} counts do not "
                 "sum to count")
        if not isinstance(mutex.get("sum_seconds"), (int, float)):
            fail(f"{path}: contention mutex {name!r} lacks sum_seconds")

    # If the thread pool executed work during this run, its queue-wait
    # attribution must have been recorded alongside.
    counters = doc["metrics"]["counters"]
    if counters.get("util.thread_pool.tasks_total", 0) > 0 and \
            "util.thread_pool.queue_wait_seconds" \
            not in doc["metrics"]["histograms"]:
        fail(f"{path}: thread pool ran tasks but "
             "util.thread_pool.queue_wait_seconds histogram is absent")


def check_metrics(path, min_counters):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    if doc.get("schema") != "dnastore.run_report":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'dnastore.run_report'")
    if doc.get("schema_version") != RUN_REPORT_SCHEMA_VERSION:
        fail(f"{path}: schema_version is {doc.get('schema_version')!r}, "
             f"expected {RUN_REPORT_SCHEMA_VERSION}")
    for section in REQUIRED_SECTIONS:
        if section not in doc:
            fail(f"{path}: missing section {section!r}")

    stages = doc["stages"]
    for stage in REQUIRED_STAGES:
        entry = stages.get(stage)
        if not isinstance(entry, dict) or "seconds" not in entry \
                or "status" not in entry:
            fail(f"{path}: stage {stage!r} lacks status/seconds")
        if not isinstance(entry["seconds"], (int, float)):
            fail(f"{path}: stage {stage!r} seconds is not a number")
    if "total_seconds" not in stages:
        fail(f"{path}: stages.total_seconds missing")

    faults = doc["faults"]
    for key in REQUIRED_FAULT_KEYS:
        if key not in faults:
            fail(f"{path}: faults.{key} missing")

    metrics = doc["metrics"]
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(kind), dict):
            fail(f"{path}: metrics.{kind} missing or not an object")
    names = list(metrics["counters"]) + list(metrics["histograms"])
    modules = {name.split(".")[0] for name in names}
    if len(names) < min_counters:
        fail(f"{path}: only {len(names)} counters/histograms, "
             f"need >= {min_counters}")
    for name in names:
        if "." not in name:
            fail(f"{path}: metric {name!r} does not follow "
                 "module.noun_unit naming")
    for hist in metrics["histograms"].values():
        if len(hist["counts"]) != len(hist["upper_bounds"]) + 1:
            fail(f"{path}: histogram bucket/bound count mismatch")
        if sum(hist["counts"]) != hist["count"]:
            fail(f"{path}: histogram counts do not sum to count")
    check_attribution(path, doc)
    print(f"check_obs_json: {path}: {len(names)} counters/histograms "
          f"across modules {sorted(modules)}, "
          f"schema_version {doc['schema_version']}")


def trace_depth(events):
    """Maximum nesting depth from per-thread timestamp containment."""
    depth = 0
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    for spans in by_tid.values():
        # Parents sort before children: earlier start, longer on ties.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for span in spans:
            end = span["ts"] + span["dur"]
            while stack and span["ts"] >= stack[-1]:
                stack.pop()
            stack.append(end)
            depth = max(depth, len(stack))
    return depth


def check_trace(path, min_depth):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    for event in events:
        for field in ("name", "ph", "ts", "dur", "pid", "tid"):
            if field not in event:
                fail(f"{path}: event lacks field {field!r}: {event}")
        if event["ph"] != "X":
            fail(f"{path}: unexpected event phase {event['ph']!r}")
        if "/" not in event["name"]:
            fail(f"{path}: span {event['name']!r} does not follow "
                 "module/what naming")
    depth = trace_depth(events)
    if depth < min_depth:
        fail(f"{path}: span nesting depth {depth} < required {min_depth}")
    print(f"check_obs_json: {path}: {len(events)} events, "
          f"max nesting depth {depth}")


def check_manifest(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    doc = json.loads(raw)

    if doc.get("schema") != "dnastore.archive_manifest":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'dnastore.archive_manifest'")
    if not isinstance(doc.get("schema_version"), int):
        fail(f"{path}: schema_version missing or not an integer")
    if not isinstance(doc.get("crc32"), int):
        fail(f"{path}: crc32 missing or not an integer")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        fail(f"{path}: payload missing or not an object")

    # The writer emits a canonical document, so the payload's raw bytes
    # sit verbatim between '"payload":' and ',"schema"'; the stored CRC
    # must match those exact bytes.
    start = raw.find(b'"payload":')
    end = raw.rfind(b',"schema"')
    if start < 0 or end < 0 or end <= start:
        fail(f"{path}: not a canonical manifest document")
    payload_bytes = raw[start + len(b'"payload":'):end]
    actual = zlib.crc32(payload_bytes) & 0xFFFFFFFF
    if actual != doc["crc32"]:
        fail(f"{path}: payload CRC-32 is {actual:#010x}, "
             f"manifest claims {doc['crc32']:#010x}")

    params = payload.get("params")
    if not isinstance(params, dict):
        fail(f"{path}: payload.params missing")
    for key in ("codec", "primer", "primer_seed", "max_shard_bytes"):
        if key not in params:
            fail(f"{path}: payload.params.{key} missing")
    objects = payload.get("objects")
    if not isinstance(objects, list):
        fail(f"{path}: payload.objects missing or not an array")

    names, pair_ids = set(), set()
    total_shards = 0
    for obj in objects:
        name = obj.get("name")
        if not name or name in names:
            fail(f"{path}: missing or duplicate object name {name!r}")
        names.add(name)
        shards = obj.get("shards")
        if not isinstance(shards, list) or not shards:
            fail(f"{path}: object {name!r} has no shards")
        sharded = 0
        for shard in shards:
            pair = shard.get("pair_id")
            if not isinstance(pair, int) or pair == 0:
                fail(f"{path}: object {name!r} shard has bad pair_id "
                     f"{pair!r} (0 is reserved for the manifest)")
            if pair in pair_ids:
                fail(f"{path}: primer pair {pair} addresses two shards")
            pair_ids.add(pair)
            sharded += shard.get("size_bytes", 0)
            total_shards += 1
        if sharded != obj.get("size_bytes"):
            fail(f"{path}: object {name!r} shard sizes sum to {sharded}, "
                 f"object claims {obj.get('size_bytes')}")
    if pair_ids != set(range(1, total_shards + 1)):
        fail(f"{path}: shard pair_ids are not the contiguous block "
             f"[1, {total_shards}] (loaders size per-pair tables "
             f"from that invariant)")
    print(f"check_obs_json: {path}: {len(objects)} objects, "
          f"{total_shards} shards, payload CRC verified")


FSCK_FINDING_KINDS = {
    "stale_temp_file",
    "orphan_pool_record",
    "malformed_pool_record",
    "strand_count_mismatch",
    "missing_manifest",
    "corrupt_manifest",
    "missing_pool",
    "unreadable_pool",
    "missing_dna_manifest",
    "stale_dna_manifest",
    "undecodable_dna_manifest",
    "shard_undecodable",
    "object_crc_mismatch",
}

FSCK_SEVERITIES = {"note", "warning", "error"}

FSCK_STATUSES = {
    "ok",
    "not-found",
    "already-exists",
    "invalid-argument",
    "io-error",
    "corrupt-manifest",
    "corrupt-pool",
    "encode-failed",
    "decode-failed",
}


def check_fsck(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    if doc.get("schema") != "dnastore.fsck_report":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'dnastore.fsck_report'")
    if not isinstance(doc.get("schema_version"), int):
        fail(f"{path}: schema_version missing or not an integer")
    if doc.get("status") not in FSCK_STATUSES:
        fail(f"{path}: unknown status {doc.get('status')!r}")
    for field in ("clean", "healthy", "deep", "repair"):
        if not isinstance(doc.get(field), bool):
            fail(f"{path}: {field} missing or not a boolean")
    checked = doc.get("checked")
    if not isinstance(checked, dict):
        fail(f"{path}: checked section missing")
    for field in ("objects", "pool_records", "shards"):
        if not isinstance(checked.get(field), int):
            fail(f"{path}: checked.{field} missing or not an integer")

    findings = doc.get("findings")
    if not isinstance(findings, list):
        fail(f"{path}: findings missing or not an array")
    repaired = 0
    has_error = False
    for finding in findings:
        if finding.get("kind") not in FSCK_FINDING_KINDS:
            fail(f"{path}: unknown finding kind {finding.get('kind')!r}")
        if finding.get("severity") not in FSCK_SEVERITIES:
            fail(f"{path}: unknown finding severity "
                 f"{finding.get('severity')!r}")
        for field in ("repairable", "repaired"):
            if not isinstance(finding.get(field), bool):
                fail(f"{path}: finding.{field} missing or not a boolean")
        if finding["repaired"] and not finding["repairable"]:
            fail(f"{path}: finding claims repaired but not repairable")
        repaired += finding["repaired"]
        has_error = has_error or finding["severity"] == "error"

    # The summary booleans must agree with the findings they summarise.
    if doc["clean"] != (not findings):
        fail(f"{path}: clean={doc['clean']} but {len(findings)} findings")
    if doc["healthy"] != (not has_error):
        fail(f"{path}: healthy={doc['healthy']} disagrees with "
             "error-severity findings")
    if doc.get("repaired_count") != repaired:
        fail(f"{path}: repaired_count={doc.get('repaired_count')!r} but "
             f"{repaired} findings marked repaired")
    print(f"check_obs_json: {path}: status {doc['status']}, "
          f"{len(findings)} findings, {repaired} repaired")


SERVER_COUNTER_KEYS = (
    "batched_gets",
    "batches",
    "coalesced_gets",
    "rejected_draining",
    "rejected_overload",
    "rejected_quota",
    "requests",
)


def check_server(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)

    if doc.get("schema") != "dnastore.server_report":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             "expected 'dnastore.server_report'")
    if not isinstance(doc.get("schema_version"), int):
        fail(f"{path}: schema_version missing or not an integer")
    info = doc.get("info")
    if not isinstance(info, dict):
        fail(f"{path}: info section missing or not an object")
    for key, value in info.items():
        if not isinstance(value, str):
            fail(f"{path}: info.{key} must be a string")

    counters = doc.get("counters")
    if not isinstance(counters, dict):
        fail(f"{path}: counters section missing or not an object")
    for key in SERVER_COUNTER_KEYS:
        value = counters.get(key)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counters.{key} missing or not a "
                 "non-negative integer")
    # Coalesced and batched gets are both subsets of admitted requests.
    if counters["coalesced_gets"] > counters["requests"]:
        fail(f"{path}: coalesced_gets exceeds requests")
    if counters["batches"] > counters["batched_gets"] and \
            counters["batched_gets"] > 0:
        fail(f"{path}: more batches than batched gets")

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: metrics section missing or not an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"{path}: metrics.{section} missing or not an object")
    # Cross-check: the scheduler's lifetime counter and the obs counter
    # delta describe the same stream of admitted requests.
    obs_requests = metrics["counters"].get("server.requests_total")
    if obs_requests is not None and obs_requests != counters["requests"]:
        fail(f"{path}: server.requests_total={obs_requests} disagrees "
             f"with counters.requests={counters['requests']}")
    for name, gauge in metrics["gauges"].items():
        if not isinstance(gauge, dict) or "value" not in gauge:
            fail(f"{path}: gauge {name!r} lacks a value")
    for name, hist in metrics["histograms"].items():
        counts = hist.get("counts")
        bounds = hist.get("upper_bounds")
        if not isinstance(counts, list) or not isinstance(bounds, list) \
                or len(counts) != len(bounds) + 1:
            fail(f"{path}: histogram {name!r} bucket/bound mismatch")
        if sum(counts) != hist.get("count"):
            fail(f"{path}: histogram {name!r} counts do not sum")
    print(f"check_obs_json: {path}: {counters['requests']} requests, "
          f"{counters['coalesced_gets']} coalesced, "
          f"{counters['batches']} batches")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", help="run report JSON to validate")
    parser.add_argument("--trace", help="Chrome trace JSON to validate")
    parser.add_argument("--manifest",
                        help="archive manifest JSON to validate")
    parser.add_argument("--fsck", help="fsck report JSON to validate")
    parser.add_argument("--server",
                        help="dnastored server report JSON to validate")
    args_given = ("--metrics", "--trace", "--manifest", "--fsck",
                  "--server")
    parser.add_argument("--min-counters", type=int, default=10)
    parser.add_argument("--min-depth", type=int, default=4)
    args = parser.parse_args()
    if not args.metrics and not args.trace and not args.manifest \
            and not args.fsck and not args.server:
        parser.error("nothing to do: pass " + ", ".join(args_given))
    if args.metrics:
        check_metrics(args.metrics, args.min_counters)
    if args.trace:
        check_trace(args.trace, args.min_depth)
    if args.manifest:
        check_manifest(args.manifest)
    if args.fsck:
        check_fsck(args.fsck)
    if args.server:
        check_server(args.server)
    print("check_obs_json: OK")


if __name__ == "__main__":
    main()
