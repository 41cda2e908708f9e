"""Reduces the harness's raw samples to the benchmark's metrics.

Pure functions over the JSON record the harness writes (see
harness/record.h); run.py calls them and tests/test_reduce.py tests them.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10
# The service workload's latency limit for max_rps_at_slo.
SLO_P99_MS = 20.0


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def upper_quartile(values):
    """The 75th nearest-rank percentile: the statistic every timed
    operation reduces to. On a shared host an operation runs in a fast
    or a slow state of the host's load, and the mix changes from run to
    run; the minimum and the median move with the mix, the upper quartile
    stays in the slow state that every run has (see README.md)."""
    return percentile(values, 0.75)


def tail_percentile(values, target=0.99, min_beyond=MIN_BEYOND):
    """Returns (q, value): the target percentile when at least min_beyond
    samples lie beyond it, otherwise the highest percentile that has them
    (never below the median). q is the percentile actually used."""
    n = len(values)
    q = target
    if n - math.ceil(q * n) < min_beyond:
        q = max(0.5, (n - min_beyond) / n)
    return q, percentile(values, q)


def self_times(spans):
    """Self time per span: its duration minus the part of its interval
    that its children cover. `spans` are dicts with span_id, parent_id
    (absent or None for roots), ts and dur in one unit. Returns
    {span_id: self_time}."""
    children = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            children.setdefault(parent, []).append(span)
    result = {}
    for span in spans:
        begin, end = span["ts"], span["ts"] + span["dur"]
        covered = 0.0
        cursor = begin
        kids = sorted(children.get(span["span_id"], []), key=lambda s: s["ts"])
        for kid in kids:
            lo = max(kid["ts"], cursor)
            hi = min(kid["ts"] + kid["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["span_id"]] = span["dur"] - covered
    return result


def self_time_by_name(spans):
    """{name: (total duration, total self time, count)} over all spans."""
    own = self_times(spans)
    table = {}
    for span in spans:
        total, self_total, count = table.get(span["name"], (0.0, 0.0, 0))
        table[span["name"]] = (total + span["dur"],
                               self_total + own[span["span_id"]], count + 1)
    return table


def kinds(record, prefix, suffix):
    """Names k with a record key prefix + k + suffix."""
    return sorted(key[len(prefix):-len(suffix)] for key in record
                  if key.startswith(prefix) and key.endswith(suffix))


def batch_mb_per_s(record):
    """Input MB per second of the batch prune operations: every operation
    kind's bytes over the upper quartile of its times, summed across
    kinds."""
    total_bytes = total_s = 0.0
    for kind in kinds(record, "prune.", ".bytes"):
        total_bytes += record["prune." + kind + ".bytes"]
        total_s += upper_quartile(record["prune." + kind + ".s"])
    return total_bytes / total_s / 1e6


def service_mb_per_s(record):
    """Input MB per second through POST /prune: the upper quartile of the
    run's closed-loop windows. The closed loop keeps every core busy, so
    a burst of another tenant's load on any core slows whole windows by
    30-50%; the upper quartile reads the windows without one (see
    README.md)."""
    return upper_quartile(record["closed.mb_per_s"])


def query_rows(record, prefix="query.", stat=upper_quartile):
    """{query id: (original ms, pruned ms)}, each reduced by `stat`."""
    rows = {}
    for qid in kinds(record, prefix, ".original_ms"):
        rows[qid] = (stat(record[prefix + qid + ".original_ms"]),
                     stat(record[prefix + qid + ".pruned_ms"]))
    return rows


def end_to_end(record):
    """The end-to-end metrics of an untraced run, plus report details.

    Operation times reduce to their upper quartile over the whole run,
    set-up times to their median. Latency percentiles are reported, not
    gated."""
    latency = record["prune.latency_ms"]
    q, tail = tail_percentile(latency)
    rows = query_rows(record)
    if "closed.mb_per_s" in record:
        mb_per_s = service_mb_per_s(record)
    else:
        mb_per_s = batch_mb_per_s(record)
    metrics = {
        "setup_s": statistics.median(record["setup_s"]),
        "prune_mb_per_s": mb_per_s,
        "query_original_ms": geomean(r[0] for r in rows.values()),
        "query_pruned_ms": geomean(r[1] for r in rows.values()),
        "peak_rss_mb": record["rss.peak_mb"],
    }
    medians = query_rows(record, stat=statistics.median)
    details = {
        "prune_p50_ms": statistics.median(latency),
        "prune_p99_ms": tail,
        "prune_p99_ms_percentile": round(100 * q, 3),
        "prune_latency_samples": len(latency),
        "queries_ms": {qid: {"original_p75": o, "pruned_p75": p,
                             "original_median": medians[qid][0],
                             "pruned_median": medians[qid][1],
                             "samples": len(record["query." + qid +
                                                   ".original_ms"])}
                       for qid, (o, p) in rows.items()},
        "query_original_ms_median_geomean":
            geomean(r[0] for r in medians.values()),
        "query_pruned_ms_median_geomean":
            geomean(r[1] for r in medians.values()),
        "setup_s_samples": record["setup_s"],
        "peak_rss_scope": ("prune operations" if record.get("rss.reset")
                           else "whole process"),
    }
    if "open.late_ms" in record:
        details["open_loop_rate_per_s"] = record["open.rate"]
        details["loadgen.late_ms_p99"] = tail_percentile(
            record["open.late_ms"])[1]
    return metrics, details


def ns_per_byte(seconds, nbytes):
    return seconds * 1e9 / nbytes


def rate_ladder(record):
    """[(rate, p99 ms, samples, failed, backlog grew)] per ladder step,
    and the highest rate that met the limit with a steady backlog. A
    failed request counts as missing the limit (its latency is recorded
    as infinite by the harness)."""
    steps = []
    for name in kinds(record, "rate.", ".latency_ms"):
        latency = record["rate." + name + ".latency_ms"]
        late = record["rate." + name + ".late_ms"]
        _, p99 = tail_percentile(latency)
        quarter = max(1, len(late) // 4)
        grew = (statistics.median(late[-quarter:]) >
                statistics.median(late[:quarter]) + 1.0)
        steps.append((float(name), p99, len(latency),
                      int(record["rate." + name + ".failed"]), grew))
    steps.sort()
    best = None
    for rate, p99, _, failed, grew in steps:
        if p99 <= SLO_P99_MS and failed == 0 and not grew:
            best = rate
    return steps, best


def per_layer(record, spans):
    """The per-layer metrics of a traced run, plus report details.

    Operation times reduce to their upper quartile, as in end_to_end;
    the service probe's latencies and set-up steps to their medians."""
    rung = {name: upper_quartile(record["ladder." + name + ".s"])
            for name in ("scan", "tokenize", "prune", "validate", "splice",
                         "pipeline", "pool")}
    nbytes = record["ladder.bytes"]
    ns = {name: ns_per_byte(s, nbytes) for name, s in rung.items()}
    multi_doc = record["inputs.documents"] > 1
    top = "pool" if multi_doc else "pipeline"
    evals = query_rows(record, "eval.")
    by_lang = {}
    for qid, (orig, pruned) in evals.items():
        lang = record.get("eval." + qid + ".lang", "?")
        by_lang.setdefault(lang, []).append((orig, pruned))
    request_p50 = statistics.median(record["probe.request_ms"])
    inproc_p50 = statistics.median(record["probe.inproc_ms"])
    roundtrip_p50 = statistics.median(record["probe.healthz_ms"])
    hits = record["probe.cache_hits"]
    misses = record["probe.cache_misses"]
    overhead = (upper_quartile(record["overhead.traced_s"]) /
                upper_quartile(record["overhead.untraced_s"]) - 1) * 100
    op_total = op_self = 0.0
    table = self_time_by_name(spans)
    for name, (total, self_total, _) in table.items():
        if name.startswith("op."):
            op_total += total
            op_self += self_total
    metrics = {
        "xml.scan_floor_ns_per_b": ns["scan"],
        "xml.tokenize_ns_per_b": ns["tokenize"],
        "projection.prune_ns_per_b": ns["prune"] - ns["tokenize"],
        "dtd.validate_ns_per_b": ns["validate"] - ns["prune"],
        "xml.splice_ns_per_b": ns["splice"] - ns["prune"],
        "projection.pipeline_ns_per_b": ns["pipeline"] - ns["splice"],
        "projection.kept_bytes_ratio":
            record["inputs.kept_bytes"] / record["inputs.bytes"],
        "common.thread_pool.speedup": rung["pipeline"] / rung["pool"],
        "projection.chunked_speedup":
            upper_quartile(record["chunked.seq_s"]) /
            upper_quartile(record["chunked.par_s"]),
        "xml.dom_parse_ns_per_b":
            ns_per_byte(upper_quartile(record["dom.parse_s"]),
                        record["dom.bytes"]),
        "projection.parse_prune_ns_per_b":
            ns_per_byte(upper_quartile(record["dom.parse_prune_s"]),
                        record["dom.bytes"]),
        "query.eval_original_ms": geomean(r[0] for r in evals.values()),
        "query.eval_pruned_ms": geomean(r[1] for r in evals.values()),
        "projection.analyze_us": geomean(
            upper_quartile(record["analyze." + qid + ".us"])
            for qid in kinds(record, "analyze.", ".us")),
        "xmark.generate_s": statistics.median(record["xmark.generate_s"]),
        "service.register_ms":
            statistics.median(record["probe.register_ms"]),
        "common.http.roundtrip_ms": roundtrip_p50,
        "service.prune_inproc_ms": inproc_p50,
        "service.overhead_ms": request_p50 - inproc_p50 - roundtrip_p50,
        "service.projector_cache.hit_ratio": hits / (hits + misses),
        "obs.service_tax_pct":
            (request_p50 /
             statistics.median(record["probe.request_metrics_only_ms"])
             - 1) * 100,
        "bench.ladder_top_mb_per_s": nbytes / rung[top] / 1e6,
        "bench.trace_overhead_pct": overhead,
        "bench.harness_self_pct": 100 * op_self / op_total,
    }
    details = {
        "ladder_ns_per_b": ns,
        "ladder_top_rung": top,
        "eval_ms_by_language": {
            lang: {"original": geomean(r[0] for r in rows),
                   "pruned": geomean(r[1] for r in rows),
                   "queries": len(rows)}
            for lang, rows in by_lang.items()},
        "eval_ms": {qid: {"original": o, "pruned": p}
                    for qid, (o, p) in evals.items()},
        "projector_cache": {"hits": hits, "misses": misses},
        "probe_requests": len(record["probe.request_ms"]),
        "self_time_ms": {name: {"total": total / 1e3, "self": s / 1e3,
                                "spans": count}
                         for name, (total, s, count) in sorted(table.items())},
    }
    # Host speed drifts between runs, so the top rung is also checked
    # against the same call timed untraced within the ladder itself.
    untraced = nbytes / upper_quartile(record["ladder.top_untraced.s"]) / 1e6
    details["ladder_agreement"] = {
        "ladder_top_mb_per_s": metrics["bench.ladder_top_mb_per_s"],
        "untraced_same_reps_mb_per_s": untraced,
        "ratio": metrics["bench.ladder_top_mb_per_s"] / untraced,
    }
    if any(key.startswith("rate.") for key in record):
        steps, best = rate_ladder(record)
        details["rate_ladder"] = [
            {"rate_per_s": rate, "p99_ms": p99, "samples": n,
             "failed": failed, "backlog_grew": grew}
            for rate, p99, n, failed, grew in steps]
        details["max_rps_at_slo"] = best
        late = record.get("rate.400.late_ms")
        if late:
            details["loadgen.late_ms_p99"] = tail_percentile(late)[1]
    return metrics, details
