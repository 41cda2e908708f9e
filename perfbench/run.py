#!/usr/bin/env python3
"""The xmlproj benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt) from the checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload, checks every output against its reference and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the run's spans next to the build). The line before it is a
report: the environment record, sample counts and per-query rows. Exit
codes: 0 correct, 1 an output mismatched or an operation failed, 2 bad
arguments, 3 build failure, 4 harness failure. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reduce  # noqa: E402

WORKLOADS = ("large_selective", "fig4_queries", "service_open_loop")
# A seed never used while the benchmark or a change was tuned; pass
# --held-out to re-check a claim on it.
HELD_OUT_SEED = 424242
HARNESS_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "prune_mb_per_s": "MB/s",
    "query_original_ms": "ms",
    "query_pruned_ms": "ms",
    "peak_rss_mb": "MB",
    "xml.scan_floor_ns_per_b": "ns/B",
    "xml.tokenize_ns_per_b": "ns/B",
    "projection.prune_ns_per_b": "ns/B",
    "dtd.validate_ns_per_b": "ns/B",
    "xml.splice_ns_per_b": "ns/B",
    "projection.pipeline_ns_per_b": "ns/B",
    "projection.kept_bytes_ratio": "ratio",
    "common.thread_pool.speedup": "x",
    "projection.chunked_speedup": "x",
    "xml.dom_parse_ns_per_b": "ns/B",
    "projection.parse_prune_ns_per_b": "ns/B",
    "query.eval_original_ms": "ms",
    "query.eval_pruned_ms": "ms",
    "projection.analyze_us": "us",
    "xmark.generate_s": "s",
    "service.register_ms": "ms",
    "common.http.roundtrip_ms": "ms",
    "service.prune_inproc_ms": "ms",
    "service.overhead_ms": "ms",
    "service.projector_cache.hit_ratio": "ratio",
    "obs.service_tax_pct": "%",
    "bench.ladder_top_mb_per_s": "MB/s",
    "bench.trace_overhead_pct": "%",
    "bench.harness_self_pct": "%",
}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(directory):
    """Configures until a configure succeeds, then builds the harness;
    build output goes to stderr so standard output carries only the report
    and the result."""
    steps = []
    if not os.path.exists(os.path.join(directory, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", directory, "-j", jobs,
                  "--target", "perfbench_harness"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(directory, "perfbench_harness")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout is not a git
    repository of its own (git may not search the directories above)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so a result names
    the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def build_type(directory):
    try:
        with open(os.path.join(directory, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(record, args, directory):
    return {
        "nproc": int(record["nproc"]),
        "cpu_model": cpu_model(),
        "compiler": record["compiler"],
        "cmake_build_type": build_type(directory),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            "documents": int(record["inputs.documents"]),
            "bytes": int(record["inputs.bytes"]),
            "max_doc_bytes": int(record["inputs.max_doc_bytes"]),
            "kept_bytes": int(record["inputs.kept_bytes"]),
        },
    }


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [e for e in events if e.get("ph") == "X" and "span_id" in e]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seed %d" % HELD_OUT_SEED)
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    directory = build_dir()
    harness = build(directory)
    if harness is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    runs = os.path.join(directory, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-%d-%d" % (args.workload, args.seed,
                                            args.trace))
    out_path, trace_path = stem + ".json", stem + ".trace.json"
    command = [harness, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--out=" + out_path,
               "--trace-out=" + trace_path]
    try:
        code = subprocess.run(command, stdout=sys.stderr,
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 4
    if code != 0:
        print("perfbench: harness exited with %d" % code, file=sys.stderr)
        return 4
    with open(out_path) as f:
        record = json.load(f)

    if args.trace:
        values, details = reduce.per_layer(record, load_spans(trace_path))
        details["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        values, details = reduce.end_to_end(record)
    attempted, failed = int(record["attempted"]), int(record["failed"])
    details["fail_frac"] = failed / attempted if attempted else 1.0
    details["failures"] = record.get("failures", [])
    report = {"environment": environment(record, args, directory),
              "details": details}
    print(json.dumps({"report": report}, sort_keys=True))
    correct = attempted >= 1 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
