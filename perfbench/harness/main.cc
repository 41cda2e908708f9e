// perfbench harness: runs one workload of the xmlproj benchmark against
// the library's public entry points and writes every raw measurement to
// a JSON file (record.h). run.py builds this binary, runs it, reduces the
// samples to metrics and checks the correctness counters.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                     --out=FILE [--trace-out=FILE]
//
// --trace=0 measures the end-to-end metrics; --trace=1 measures the layer
// ladder and per-layer probes, with benchmark spans (spans.h) recorded
// around every library call and written to --trace-out at exit.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dtd/validator.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "projection/pipeline.h"
#include "projection/pruner.h"
#include "record.h"
#include "service/client.h"
#include "service/service.h"
#include "spans.h"
#include "xmark/corpus.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/workbench.h"
#include "xmark/xmark_dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/splice.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using xmlproj::BenchmarkQuery;
using xmlproj::Document;
using xmlproj::Dtd;
using xmlproj::NameSet;
using xmlproj::PipelineOptions;
using xmlproj::Result;
using xmlproj::SaxAttribute;
using xmlproj::Status;
using xmlproj::TraceCollector;

// ---------------------------------------------------------------------
// Workloads.

enum class Mode {
  kDocument,  // PruneDocument of one document per projector
  kService,   // POST /prune to an in-process ProjectionService
};

struct Workload {
  const char* name;
  Mode mode;
  int documents;
  double scale;
  std::vector<std::string> query_ids;  // empty: the dashboard workload
  // Batch workloads: share of each 2 s slice spent on prune operations
  // (the rest on query pairs). The service workload slices by time.
  double prune_share;

  // The dashboard workload is pruned by one union projector of its
  // queries; the others by one projector per query.
  bool merged() const { return query_ids.empty(); }
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* workloads = new std::vector<Workload>{
      {"large_selective", Mode::kDocument, 1, 0.9, {"QM06"}, 0.4},
      {"fig4_queries",
       Mode::kDocument,
       1,
       0.05,
       {"QM06", "QM07", "QM08", "QM14", "QP02", "QP10", "QP13", "QP21"},
       0.2},
      {"service_open_loop", Mode::kService, 16, 0.01, {}, 0},
  };
  return *workloads;
}

// The fixed request rate of the service workload's latency phase.
constexpr double kServiceRate = 400;
// The rate ladder stops once the median latency of a step's last quarter
// passes this: the backlog has run away and higher rates only queue.
// (run.py judges each step against the 20 ms p99 limit.)
constexpr double kRunawayMs = 200;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double Seconds(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

// Peak resident memory since the last ResetPeakRss(), in MB. Linux
// resets the high-water mark when "5" is written to clear_refs; where
// that is refused the peak covers the whole process.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Counts every checked operation and every failure (an error Status, a
// failed request or an output that differs from its reference).
class Checker {
 public:
  explicit Checker(Record* record) : record_(record) {}

  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) record_->AddString("failures", what);
  }
  void Finish() {
    record_->Set("attempted", static_cast<double>(attempted_));
    record_->Set("failed", static_cast<double>(failed_));
  }

 private:
  Record* record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Inputs and their references.

struct ServiceRig;

struct Inputs {
  const Workload* workload = nullptr;
  Dtd dtd;
  std::vector<std::string> docs;
  std::vector<BenchmarkQuery> queries;
  // One projector per query, or one union projector when merged.
  std::vector<NameSet> projectors;
  // expected[p][d]: docs[d] pruned by projectors[p] on the DOM path.
  std::vector<std::vector<std::string>> expected;
  // answers[q]: the serialized answer of queries[q] on docs[0].
  std::vector<std::string> answers;
  std::string spec;  // POST /workloads body for the queries
  size_t input_bytes = 0;
  std::unique_ptr<ServiceRig> service;

  const NameSet& ProjectorFor(size_t query) const {
    return projectors[workload->merged() ? 0 : query];
  }
};

std::vector<BenchmarkQuery> QueriesFor(const Workload& workload) {
  if (workload.query_ids.empty()) return xmlproj::XMarkDashboardWorkload();
  std::vector<BenchmarkQuery> all = xmlproj::AllBenchmarkQueries();
  std::vector<BenchmarkQuery> out;
  for (const std::string& id : workload.query_ids) {
    for (const BenchmarkQuery& query : all) {
      if (query.id == id) out.push_back(query);
    }
  }
  return out;
}

// One query per line: id TAB language TAB text (line breaks and tabs in
// the text become spaces).
std::string SpecText(const std::vector<BenchmarkQuery>& queries) {
  std::string spec;
  for (const BenchmarkQuery& query : queries) {
    std::string text = query.text;
    std::replace(text.begin(), text.end(), '\n', ' ');
    std::replace(text.begin(), text.end(), '\t', ' ');
    spec += query.id + "\t" +
            (query.language == xmlproj::QueryLanguage::kXQuery ? "xquery"
                                                                : "xpath") +
            "\t" + text + "\n";
  }
  return spec;
}

// The outcome of one POST /prune against its reference.
enum class Reply {
  kOk,       // the reference bytes
  kRefused,  // an error Status: refused, failed or timed out
  kWrong,    // a response whose body differs from the reference
};

// An in-process ProjectionService with the xmark DTD and one registered
// workload. full_obs gives xmlprojd's defaults (metrics, trace and SLO
// tracking); otherwise metrics only.
struct ServiceRig {
  xmlproj::MetricsRegistry metrics;
  TraceCollector trace;
  std::unique_ptr<xmlproj::SloTracker> slo;
  std::string workload_id;
  xmlproj::ProjectionService service;  // last: stops before the rest go

  ~ServiceRig() { service.Stop(); }

  Status Start(bool full_obs, size_t max_document_bytes) {
    std::string error;
    if (!service.RegisterDtd("xmark", xmlproj::XMarkDtdText(), "site",
                             &error)) {
      return xmlproj::InternalError("RegisterDtd: " + error);
    }
    xmlproj::ProjectionServiceOptions options;
    options.metrics = &metrics;
    if (full_obs) {
      xmlproj::SloOptions slo_options;
      slo_options.metrics = &metrics;
      slo = std::make_unique<xmlproj::SloTracker>(slo_options);
      options.trace = &trace;
      options.slo = slo.get();
    }
    options.limits.max_document_bytes =
        std::max(options.limits.max_document_bytes, max_document_bytes);
    if (!service.Start(options, &error)) {
      return xmlproj::InternalError("service start: " + error);
    }
    return Status::Ok();
  }

  xmlproj::ProjectionClient Client() const {
    xmlproj::ProjectionClientOptions options;
    options.port = service.port();
    options.timeout_ms = 5000;
    return xmlproj::ProjectionClient(options);
  }

  Status Register(const std::string& spec) {
    Result<xmlproj::WorkloadRegistration> registration =
        Client().RegisterWorkload(spec, "xmark");
    if (!registration.ok()) return registration.status();
    workload_id = registration->id;
    return Status::Ok();
  }

  Reply Prune(const std::string& doc, const std::string& expected) const {
    Result<xmlproj::PruneOutcome> outcome = Client().Prune(workload_id, doc);
    if (!outcome.ok()) return Reply::kRefused;
    return outcome->output == expected ? Reply::kOk : Reply::kWrong;
  }
};

// `doc` pruned by `projector` on the DOM path: ParseXml -> Interpret ->
// PruneDocument -> SerializeDocument.
Result<std::string> DomReference(const std::string& doc, const Dtd& dtd,
                                 const NameSet& projector) {
  Result<Document> dom = xmlproj::ParseXml(doc);
  if (!dom.ok()) return dom.status();
  Result<xmlproj::Interpretation> interp = xmlproj::Interpret(*dom, dtd);
  if (!interp.ok()) return interp.status();
  Result<Document> pruned = xmlproj::PruneDocument(*dom, *interp, projector);
  if (!pruned.ok()) return pruned.status();
  return xmlproj::SerializeDocument(*pruned);
}

size_t MaxDocBytes(const std::vector<std::string>& docs) {
  size_t max = 0;
  for (const std::string& doc : docs) max = std::max(max, doc.size());
  return max;
}

// Generates the inputs and computes every reference on the DOM path
// (ParseXml -> Interpret -> PruneDocument -> SerializeDocument), then
// starts and warms the service for the service workload.
Result<std::unique_ptr<Inputs>> BuildInputs(const Workload& workload,
                                            uint64_t seed, Record* record,
                                            TraceCollector* trace) {
  Span setup(trace, "setup");
  auto in = std::make_unique<Inputs>();
  in->workload = &workload;
  uint64_t gen_begin = MonotonicNowNs();
  {
    Span span(trace, "xmark.GenerateXMarkText", &setup);
    for (int i = 0; i < workload.documents; ++i) {
      xmlproj::XMarkOptions options;
      options.scale = workload.scale;
      options.seed = seed + static_cast<uint64_t>(i);
      in->docs.push_back(xmlproj::GenerateXMarkText(options));
      in->input_bytes += in->docs.back().size();
    }
  }
  record->Add("xmark.generate_s", Seconds(gen_begin, MonotonicNowNs()));

  {
    Span span(trace, "dtd.LoadXMarkDtd", &setup);
    Result<Dtd> dtd = xmlproj::LoadXMarkDtd();
    if (!dtd.ok()) return dtd.status();
    in->dtd = std::move(*dtd);
  }
  in->queries = QueriesFor(workload);
  in->spec = SpecText(in->queries);
  if (workload.merged()) {
    Span span(trace, "xmark.WorkloadProjector", &setup);
    Result<NameSet> projector =
        xmlproj::WorkloadProjector(in->dtd, in->queries);
    if (!projector.ok()) return projector.status();
    in->projectors.push_back(std::move(*projector));
  } else {
    for (const BenchmarkQuery& query : in->queries) {
      Span span(trace, "xmark.AnalyzeBenchmarkQuery", &setup);
      Result<NameSet> projector =
          xmlproj::AnalyzeBenchmarkQuery(query, in->dtd);
      if (!projector.ok()) return projector.status();
      in->projectors.push_back(std::move(*projector));
    }
  }

  in->expected.assign(in->projectors.size(), {});
  for (size_t d = 0; d < in->docs.size(); ++d) {
    Span reference(trace, "reference", &setup);
    Result<Document> dom = [&] {
      Span span(trace, "xml.ParseXml", &reference);
      return xmlproj::ParseXml(in->docs[d]);
    }();
    if (!dom.ok()) return dom.status();
    Result<xmlproj::Interpretation> interp = [&] {
      Span span(trace, "dtd.Interpret", &reference);
      return xmlproj::Interpret(*dom, in->dtd);
    }();
    if (!interp.ok()) return interp.status();
    for (size_t p = 0; p < in->projectors.size(); ++p) {
      Span span(trace, "projection.PruneDocument(dom)", &reference);
      Result<Document> pruned =
          xmlproj::PruneDocument(*dom, *interp, in->projectors[p]);
      if (!pruned.ok()) return pruned.status();
      in->expected[p].push_back(xmlproj::SerializeDocument(*pruned));
    }
    if (d != 0) continue;
    for (const BenchmarkQuery& query : in->queries) {
      Span span(trace, "xmark.RunBenchmarkQuery", &reference);
      Result<xmlproj::QueryRun> run = xmlproj::RunBenchmarkQuery(query, *dom);
      if (!run.ok()) return run.status();
      in->answers.push_back(run->serialized);
    }
  }

  if (workload.mode == Mode::kService) {
    Span span(trace, "service.start", &setup);
    in->service = std::make_unique<ServiceRig>();
    Status started = in->service->Start(/*full_obs=*/true, 0);
    if (!started.ok()) return started;
    Status registered = in->service->Register(in->spec);
    if (!registered.ok()) return registered;
    for (size_t d = 0; d < in->docs.size(); ++d) {
      if (in->service->Prune(in->docs[d], in->expected[0][d]) != Reply::kOk) {
        return xmlproj::InternalError("service warm-up mismatch");
      }
    }
  }
  return in;
}

// The measured run repeats the set-up kRepeats times, spread evenly over
// its slices, so that setup_s samples the same stretches of a shared
// host's load as the other metrics. Same seed, same inputs: each repeat
// must reproduce the inputs and references byte for byte. The run's
// deadline moves back by the time the repeats take.
class SetupRepeats {
 public:
  static constexpr int kRepeats = 3;

  SetupRepeats(const Inputs& in, uint64_t seed, double seconds,
               Checker* checker, Record* record)
      : in_(in),
        seed_(seed),
        checker_(checker),
        record_(record),
        start_ns_(MonotonicNowNs()),
        period_ns_(static_cast<uint64_t>(seconds * 1e9 / (kRepeats + 1))),
        deadline_ns_(start_ns_ + static_cast<uint64_t>(seconds * 1e9)) {}

  uint64_t deadline_ns() const { return deadline_ns_; }

  // Between two slices: runs the next repeat once its share of the
  // measured time has passed.
  void Between() {
    uint64_t measured = MonotonicNowNs() - start_ns_ - spent_ns_;
    if (done_ < kRepeats && measured >= (done_ + 1) * period_ns_) Run();
  }
  // After the last slice: runs the repeats still due.
  void Finish() {
    while (done_ < kRepeats) Run();
  }

 private:
  void Run() {
    uint64_t begin = MonotonicNowNs();
    {
      Result<std::unique_ptr<Inputs>> built =
          BuildInputs(*in_.workload, seed_, record_, nullptr);
      record_->Add("setup_s", Seconds(begin, MonotonicNowNs()));
      bool same = built.ok() && (*built)->docs == in_.docs &&
                  (*built)->expected == in_.expected &&
                  (*built)->answers == in_.answers;
      checker_->Check(same, built.ok() ? "repeated set-up differs"
                                       : "repeated set-up: " +
                                             built.status().ToString());
    }
    uint64_t spent = MonotonicNowNs() - begin;
    spent_ns_ += spent;
    deadline_ns_ += spent;
    ++done_;
  }

  const Inputs& in_;
  uint64_t seed_;
  Checker* checker_;
  Record* record_;
  uint64_t start_ns_;
  uint64_t period_ns_;
  uint64_t deadline_ns_;
  uint64_t spent_ns_ = 0;
  uint64_t done_ = 0;
};

// ---------------------------------------------------------------------
// Timed operations shared by both runs.

PipelineOptions BatchOptions(int threads) {
  PipelineOptions options;
  options.num_threads = threads;
  return options;
}

// One streaming prune of docs[d] by projectors[p] through the pipeline
// entry point; true when the output matches the reference.
bool PruneOne(const Inputs& in, size_t p, size_t d, TraceCollector* trace,
              const Span* parent) {
  Span span(trace, "projection.PruneDocument", parent);
  Result<xmlproj::PipelineRun> run = xmlproj::PruneDocument(
      in.docs[d], in.dtd, in.projectors[p], BatchOptions(1));
  return run.ok() && run->results.size() == 1 &&
         run->results[0].output == in.expected[p][d];
}

bool PruneAll(const Inputs& in, size_t p, int threads, TraceCollector* trace,
              const Span* parent) {
  Span span(trace, "projection.PruneCorpus", parent);
  Result<xmlproj::PipelineRun> run = xmlproj::PruneCorpus(
      in.docs, in.dtd, in.projectors[p], BatchOptions(threads));
  if (!run.ok() || run->results.size() != in.docs.size()) return false;
  for (size_t d = 0; d < in.docs.size(); ++d) {
    if (run->results[d].output != in.expected[p][d]) return false;
  }
  return true;
}

// One batch prune operation: the document by projectors[p] on the
// calling thread. Its time goes to prune.<kind>.s and prune.latency_ms
// (unless record is null).
void BatchOp(const Inputs& in, size_t p, Checker* checker, Record* record) {
  std::string kind = in.workload->merged() ? "all" : in.queries[p].id;
  uint64_t begin = MonotonicNowNs();
  bool ok = PruneOne(in, p, 0, nullptr, nullptr);
  double s = Seconds(begin, MonotonicNowNs());
  checker->Check(ok, "prune " + kind);
  if (record == nullptr) return;
  record->Add("prune." + kind + ".s", s);
  record->Add("prune.latency_ms", s * 1e3);
  record->Set("prune." + kind + ".bytes",
              static_cast<double>(in.docs[0].size()));
}

// Parse + query on the original document (pruned = false) or
// parse-and-prune + query (pruned = true) for queries[q]; the answer must
// equal the reference answer on the original document.
void QueryOp(const Inputs& in, size_t q, bool pruned, Checker* checker,
             Record* record) {
  const BenchmarkQuery& query = in.queries[q];
  const std::string& doc = in.docs[0];
  uint64_t begin = MonotonicNowNs();
  Result<Document> dom = [&]() -> Result<Document> {
    if (!pruned) return xmlproj::ParseXml(doc);
    return xmlproj::ParseAndPrune(doc, in.dtd, in.ProjectorFor(q));
  }();
  bool ok = false;
  if (dom.ok()) {
    Result<xmlproj::QueryRun> run = xmlproj::RunBenchmarkQuery(query, *dom);
    ok = run.ok() && run->serialized == in.answers[q];
  }
  double ms = Seconds(begin, MonotonicNowNs()) * 1e3;
  checker->Check(ok, query.id + (pruned ? " pruned" : " original"));
  record->Add("query." + query.id + (pruned ? ".pruned_ms" : ".original_ms"),
              ms);
}

// The measured run of the batch workloads. Prune operations and query
// pairs alternate in short slices until the deadline, so both see the
// same stretches of a shared host's load; every kind gets at least
// three samples. Peak memory is taken first, over one unrecorded pass of
// prune operations (it also refills the heap the reset trimmed).
void RunBatchAndQueries(const Inputs& in, SetupRepeats* setups,
                        Checker* checker, Record* record) {
  const double share = in.workload->prune_share;
  constexpr double kSliceS = 2.0;
  const size_t kinds = in.projectors.size();
  const size_t queries = in.queries.size();
  size_t next_op = 0;
  size_t next_query = 0;

  record->Set("rss.reset", ResetPeakRss() ? 1 : 0);
  for (size_t p = 0; p < kinds; ++p) BatchOp(in, p, checker, nullptr);
  record->Set("rss.peak_mb", PeakRssMb());

  while (MonotonicNowNs() < setups->deadline_ns() || next_op < 3 * kinds ||
         next_query < 3 * queries) {
    setups->Between();
    uint64_t slice_end =
        MonotonicNowNs() + static_cast<uint64_t>(share * kSliceS * 1e9);
    do {
      BatchOp(in, next_op % kinds, checker, record);
      ++next_op;
    } while (MonotonicNowNs() < slice_end);
    slice_end = MonotonicNowNs() +
                static_cast<uint64_t>((1 - share) * kSliceS * 1e9);
    do {
      // Alternate which leg goes first from one pass over the queries
      // to the next.
      bool pruned_first = (next_query / queries) % 2 == 1;
      QueryOp(in, next_query % queries, pruned_first, checker, record);
      QueryOp(in, next_query % queries, !pruned_first, checker, record);
      ++next_query;
    } while (MonotonicNowNs() < slice_end);
  }
}

// The measured run of the service workload, in repeated slices: a
// closed loop of nproc connections (throughput, one sample per 0.25 s
// window of completions), the fixed-rate open loop (latency from each
// request's due time), then query pairs. Peak memory is taken first,
// over an unrecorded closed- and open-loop slice (which also refills the
// heap the reset trimmed).
void RunServiceAndQueries(const Inputs& in, SetupRepeats* setups, int nproc,
                          Checker* checker, Record* record) {
  constexpr double kClosedS = 1.5;
  constexpr uint64_t kWindowNs = 250'000'000;
  constexpr double kOpenS = 1.25;
  constexpr double kQueryS = 0.75;
  const ServiceRig& rig = *in.service;
  const size_t n = in.docs.size();
  const size_t queries = in.queries.size();
  auto send = [&](uint64_t i) {
    return rig.Prune(in.docs[i % n], in.expected[0][i % n]) == Reply::kOk;
  };
  size_t next_query = 0;
  record->Set("rss.reset", ResetPeakRss() ? 1 : 0);
  for (const ClosedLoopSample& s :
       RunClosedLoop(MonotonicNowNs() + 500'000'000, nproc, send)) {
    checker->Check(s.ok, "warm-up /prune");
  }
  for (const RequestSample& s :
       RunOpenLoop(MakeSchedule(kServiceRate, 0.5, MonotonicNowNs()), nproc,
                   send)) {
    checker->Check(s.ok, "warm-up /prune");
  }
  record->Set("rss.peak_mb", PeakRssMb());
  record->Set("open.rate", kServiceRate);
  for (int slice = 0; slice < 3 || MonotonicNowNs() < setups->deadline_ns();
       ++slice) {
    setups->Between();
    uint64_t begin = MonotonicNowNs();
    std::vector<ClosedLoopSample> closed = RunClosedLoop(
        begin + static_cast<uint64_t>(kClosedS * 1e9), nproc, send);
    // Completions after the deadline fall outside every window.
    std::vector<double> window_bytes(
        static_cast<size_t>(kClosedS * 1e9) / kWindowNs, 0.0);
    for (const ClosedLoopSample& s : closed) {
      checker->Check(s.ok, "closed-loop /prune " + std::to_string(s.index));
      size_t w = (s.end_ns - begin) / kWindowNs;
      if (w < window_bytes.size()) {
        window_bytes[w] += static_cast<double>(in.docs[s.index % n].size());
      }
    }
    for (double bytes : window_bytes) {
      record->Add("closed.mb_per_s", bytes / (kWindowNs / 1e9) / 1e6);
    }

    OpenLoopSchedule schedule =
        MakeSchedule(kServiceRate, kOpenS, MonotonicNowNs() + 10'000'000);
    for (const RequestSample& s : RunOpenLoop(schedule, nproc, send)) {
      checker->Check(s.ok, "open-loop /prune " + std::to_string(s.index));
      record->Add("prune.latency_ms", s.latency_ms);
      record->Add("open.late_ms", s.late_ms);
    }

    uint64_t slice_end =
        MonotonicNowNs() + static_cast<uint64_t>(kQueryS * 1e9);
    do {
      bool pruned_first = (next_query / queries) % 2 == 1;
      QueryOp(in, next_query % queries, pruned_first, checker, record);
      QueryOp(in, next_query % queries, !pruned_first, checker, record);
      ++next_query;
    } while (MonotonicNowNs() < slice_end);
  }
}

// ---------------------------------------------------------------------
// The traced run's layer probes.

class NullHandler : public xmlproj::SaxHandler {
 public:
  Status StartElement(std::string_view,
                      const std::vector<SaxAttribute>&) override {
    return Status::Ok();
  }
  Status EndElement(std::string_view) override { return Status::Ok(); }
  Status Characters(std::string_view) override { return Status::Ok(); }
};

enum class Rung {
  kScan, kTokenize, kPrune, kValidate, kSplice, kPipeline, kPool
};
constexpr const char* kRungNames[] = {"scan",   "tokenize", "prune",
                                      "validate", "splice", "pipeline",
                                      "pool"};

// One pass of `rung` over docs[d] with projectors[p]. Layers are added
// one at a time, so each rung minus the one below is that layer's cost.
bool RunRung(const Inputs& in, Rung rung, size_t p, size_t d,
             TraceCollector* trace, const Span* parent) {
  const std::string& doc = in.docs[d];
  const NameSet& projector = in.projectors[p];
  NullHandler sink;
  switch (rung) {
    case Rung::kScan: {
      Span span(trace, "memchr", parent);
      size_t count = 0;
      const char* at = doc.data();
      const char* end = doc.data() + doc.size();
      while ((at = static_cast<const char*>(
                  std::memchr(at, '<', static_cast<size_t>(end - at)))) !=
             nullptr) {
        ++count;
        ++at;
      }
      return count > 0;
    }
    case Rung::kTokenize: {
      Span span(trace, "xml.ParseXmlStream", parent);
      return xmlproj::ParseXmlStream(doc, &sink).ok();
    }
    case Rung::kPrune: {
      Span span(trace, "xml.ParseXmlStream+StreamingPruner", parent);
      xmlproj::StreamingPruner pruner(in.dtd, projector, &sink);
      return xmlproj::ParseXmlStream(doc, &pruner).ok();
    }
    case Rung::kValidate: {
      Span span(trace, "xml.ParseXmlStream+ValidatingPruner", parent);
      xmlproj::ValidatingPruner pruner(in.dtd, projector, &sink);
      return xmlproj::ParseXmlStream(doc, &pruner).ok();
    }
    case Rung::kSplice: {
      Span span(trace, "xml.ParseXmlStream+StreamingPruner+Splicing", parent);
      std::string out;
      xmlproj::SplicingSerializingHandler splice(doc, &out);
      xmlproj::StreamingPruner pruner(in.dtd, projector, &splice);
      return xmlproj::ParseXmlStream(doc, &pruner).ok() &&
             out == in.expected[p][d];
    }
    case Rung::kPipeline:
      return PruneOne(in, p, d, trace, parent);
    case Rung::kPool:  // a corpus-wide call: RunLadder makes it per projector
      break;
  }
  return false;
}

void RunLadder(const Inputs& in, uint64_t deadline_ns, int nproc,
               Checker* checker, Record* record, TraceCollector* trace) {
  size_t bytes = in.input_bytes * in.projectors.size();
  record->Set("ladder.bytes", static_cast<double>(bytes));
  // The top rung is the end-to-end prune call: PruneCorpus at nproc for a
  // corpus, PruneDocument for one document. Each repetition also runs it
  // untraced ("top_untraced"), so the two agree up to tracing cost and
  // noise within the same stretch of the host's load.
  const Rung top = in.docs.size() > 1 ? Rung::kPool : Rung::kPipeline;
  constexpr int kPasses = 8;  // the seven rungs, then the untraced top
  for (int rep = 0; rep < 3 || MonotonicNowNs() < deadline_ns; ++rep) {
    for (int i = 0; i < kPasses; ++i) {
      // Reverse the order on odd reps so drift hits every rung alike.
      int pass = rep % 2 == 0 ? i : kPasses - 1 - i;
      bool untraced_top = pass == kPasses - 1;
      Rung rung = untraced_top ? top : static_cast<Rung>(pass);
      TraceCollector* t = untraced_top ? nullptr : trace;
      Span op(t, "op.ladder");
      uint64_t begin = MonotonicNowNs();
      bool ok = true;
      for (size_t p = 0; p < in.projectors.size(); ++p) {
        if (rung == Rung::kPool) {
          ok = PruneAll(in, p, nproc, t, &op) && ok;
          continue;
        }
        for (size_t d = 0; d < in.docs.size(); ++d) {
          ok = RunRung(in, rung, p, d, t, &op) && ok;
        }
      }
      double s = Seconds(begin, MonotonicNowNs());
      std::string name =
          untraced_top ? "top_untraced" : kRungNames[static_cast<int>(rung)];
      checker->Check(ok, "ladder " + name);
      record->Add("ladder." + name + ".s", s);
    }
  }
}

// Chunked intra-document pruning against the sequential pass on the
// largest document; both outputs must equal the reference.
void RunChunked(const Inputs& in, int nproc, Checker* checker,
                Record* record, TraceCollector* trace) {
  size_t d = 0;
  for (size_t i = 1; i < in.docs.size(); ++i) {
    if (in.docs[i].size() > in.docs[d].size()) d = i;
  }
  for (int rep = 0; rep < 5; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      bool chunked = (leg + rep) % 2 == 1;
      PipelineOptions options = BatchOptions(1);
      if (chunked) options.intra_doc.threads = nproc;
      Span op(trace, chunked ? "op.chunked" : "op.sequential");
      uint64_t begin = MonotonicNowNs();
      Result<xmlproj::PipelineRun> run = [&] {
        Span span(trace, "projection.PruneDocument", &op);
        return xmlproj::PruneDocument(in.docs[d], in.dtd, in.projectors[0],
                                      options);
      }();
      double s = Seconds(begin, MonotonicNowNs());
      checker->Check(run.ok() && run->results[0].output == in.expected[0][d],
                     chunked ? "chunked prune" : "sequential prune");
      record->Add(chunked ? "chunked.par_s" : "chunked.seq_s", s);
    }
  }
}

// ParseXml and ParseAndPrune on docs[0], then query evaluation alone on
// DOMs built beforehand.
void RunDomAndEval(const Inputs& in, Checker* checker, Record* record,
                   TraceCollector* trace) {
  const std::string& doc = in.docs[0];
  record->Set("dom.bytes", static_cast<double>(doc.size()));
  for (int rep = 0; rep < 5; ++rep) {
    // Both DOMs live until both times are taken: freeing is not timed.
    Span op(trace, "op.dom");
    uint64_t begin = MonotonicNowNs();
    Result<Document> parsed = [&] {
      Span span(trace, "xml.ParseXml", &op);
      return xmlproj::ParseXml(doc);
    }();
    uint64_t mid = MonotonicNowNs();
    Result<Document> pruned = [&] {
      Span span(trace, "projection.ParseAndPrune", &op);
      return xmlproj::ParseAndPrune(doc, in.dtd, in.ProjectorFor(0));
    }();
    uint64_t end = MonotonicNowNs();
    checker->Check(parsed.ok(), "ParseXml");
    checker->Check(pruned.ok(), "ParseAndPrune");
    record->Add("dom.parse_s", Seconds(begin, mid));
    record->Add("dom.parse_prune_s", Seconds(mid, end));
  }

  Result<Document> original = xmlproj::ParseXml(doc);
  checker->Check(original.ok(), "ParseXml for eval");
  if (!original.ok()) return;
  for (size_t q = 0; q < in.queries.size(); ++q) {
    const BenchmarkQuery& query = in.queries[q];
    Result<Document> pruned =
        xmlproj::ParseAndPrune(doc, in.dtd, in.ProjectorFor(q));
    checker->Check(pruned.ok(), "ParseAndPrune for eval");
    if (!pruned.ok()) continue;
    record->SetString(
        "eval." + query.id + ".lang",
        query.language == xmlproj::QueryLanguage::kXQuery ? "xquery"
                                                          : "xpath");
    for (int rep = 0; rep < 3; ++rep) {
      for (int leg = 0; leg < 2; ++leg) {
        const Document& dom = leg == 0 ? *original : *pruned;
        Span op(trace, leg == 0 ? "op.eval_original" : "op.eval_pruned");
        uint64_t begin = MonotonicNowNs();
        Result<xmlproj::QueryRun> run = [&] {
          Span span(trace, "xmark.RunBenchmarkQuery", &op);
          return xmlproj::RunBenchmarkQuery(query, dom);
        }();
        double ms = Seconds(begin, MonotonicNowNs()) * 1e3;
        checker->Check(run.ok() && run->serialized == in.answers[q],
                       query.id + " eval");
        record->Add("eval." + query.id +
                        (leg == 0 ? ".original_ms" : ".pruned_ms"),
                    ms);
      }
    }
  }
  for (const BenchmarkQuery& query : in.queries) {
    for (int rep = 0; rep < 5; ++rep) {
      Span op(trace, "op.analyze");
      uint64_t begin = MonotonicNowNs();
      Result<NameSet> projector = [&] {
        Span span(trace, "xmark.AnalyzeBenchmarkQuery", &op);
        return xmlproj::AnalyzeBenchmarkQuery(query, in.dtd);
      }();
      record->Add("analyze." + query.id + ".us",
                  Seconds(begin, MonotonicNowNs()) * 1e6);
      checker->Check(projector.ok(), query.id + " analyze");
    }
  }
}

// The service layers on this workload's documents: registration, the
// bare HTTP round trip, in-process prune against sequential /prune, and
// xmlprojd's default observability against a metrics-only service.
void RunServiceProbe(const Inputs& in, uint64_t deadline_ns, Checker* checker,
                     Record* record, TraceCollector* trace) {
  size_t max_doc = MaxDocBytes(in.docs) + (1u << 20);
  ServiceRig rigs[2];  // [0] xmlprojd defaults, [1] metrics only
  for (int r = 0; r < 2; ++r) {
    Status started = rigs[r].Start(/*full_obs=*/r == 0, max_doc);
    checker->Check(started.ok(), "probe start: " + started.ToString());
    if (!started.ok()) return;
    Span op(trace, "op.register");
    uint64_t begin = MonotonicNowNs();
    Status registered = [&] {
      Span span(trace, "service.POST /workloads", &op);
      return rigs[r].Register(in.spec);
    }();
    record->Add("probe.register_ms", Seconds(begin, MonotonicNowNs()) * 1e3);
    checker->Check(registered.ok(), "probe register: " + registered.ToString());
    if (!registered.ok()) return;
  }

  xmlproj::ProjectionClient client = rigs[0].Client();
  for (int i = 0; i < 200; ++i) {
    Span op(trace, "op.healthz");
    uint64_t begin = MonotonicNowNs();
    bool ok = [&] {
      Span span(trace, "http.GET /healthz", &op);
      return client.Healthz().ok();
    }();
    record->Add("probe.healthz_ms", Seconds(begin, MonotonicNowNs()) * 1e3);
    checker->Check(ok, "GET /healthz");
  }

  // The service compiles the union projector of the workload's queries:
  // the dashboard's own projector, or else a union whose references are
  // computed here on the DOM path.
  const NameSet* projector = &in.projectors[0];
  const std::vector<std::string>* expected = &in.expected[0];
  NameSet union_projector;
  std::vector<std::string> union_expected;
  if (!in.workload->merged()) {
    Result<NameSet> built = xmlproj::WorkloadProjector(in.dtd, in.queries);
    checker->Check(built.ok(), "probe projector");
    if (!built.ok()) return;
    union_projector = std::move(*built);
    projector = &union_projector;
    for (const std::string& doc : in.docs) {
      Result<std::string> reference = DomReference(doc, in.dtd, *projector);
      checker->Check(reference.ok(), "probe reference");
      if (!reference.ok()) return;
      union_expected.push_back(std::move(*reference));
    }
    expected = &union_expected;
  }
  for (int rep = 0; rep < 2 || (rep < 8 && MonotonicNowNs() < deadline_ns);
       ++rep) {
    for (size_t d = 0; d < in.docs.size(); ++d) {
      Span op(trace, "op.prune_inproc");
      uint64_t begin = MonotonicNowNs();
      Result<xmlproj::PipelineRun> run = [&] {
        Span span(trace, "projection.PruneDocument", &op);
        return xmlproj::PruneDocument(in.docs[d], in.dtd, *projector,
                                      BatchOptions(1));
      }();
      record->Add("probe.inproc_ms", Seconds(begin, MonotonicNowNs()) * 1e3);
      checker->Check(run.ok() && run->results.size() == 1 &&
                         run->results[0].output == (*expected)[d],
                     "probe in-process prune");
    }
  }
  for (int rep = 0; rep < 2 || (rep < 16 && MonotonicNowNs() < deadline_ns);
       ++rep) {
    for (size_t d = 0; d < in.docs.size(); ++d) {
      for (int leg = 0; leg < 2; ++leg) {
        int r = (leg + rep) % 2;
        Span op(trace, "op.request");
        uint64_t begin = MonotonicNowNs();
        bool ok = [&] {
          Span span(trace, "service.POST /prune", &op);
          return rigs[r].Prune(in.docs[d], (*expected)[d]) == Reply::kOk;
        }();
        record->Add(r == 0 ? "probe.request_ms"
                           : "probe.request_metrics_only_ms",
                    Seconds(begin, MonotonicNowNs()) * 1e3);
        checker->Check(ok, "probe /prune");
      }
    }
  }
  const xmlproj::ProjectorCache* cache = rigs[0].service.cache();
  record->Set("probe.cache_hits", static_cast<double>(cache->hits()));
  record->Set("probe.cache_misses", static_cast<double>(cache->misses()));
}

// Steps the open-loop rate up, one second per step, on the workload's
// own service (xmlprojd's defaults). A refused or failed request is
// recorded with an infinite latency so it misses the step's limit; it is
// not counted as failed, since past the knee refusals are the expected
// outcome. A response whose body differs from its reference is.
void RunRateLadder(const Inputs& in, int nproc, Checker* checker,
                   Record* record) {
  static const double kRates[] = {400, 600, 800, 900, 1000, 1100, 1200, 1400};
  const ServiceRig& rig = *in.service;
  size_t n = in.docs.size();
  for (double rate : kRates) {
    OpenLoopSchedule schedule =
        MakeSchedule(rate, 1.0, MonotonicNowNs() + 10'000'000);
    // wrong[i]: request i's body differed from its reference. Each entry
    // is written only by the thread that sent that request.
    std::vector<char> wrong(schedule.count, 0);
    std::vector<RequestSample> samples =
        RunOpenLoop(schedule, nproc, [&](uint64_t i) {
          Reply reply = rig.Prune(in.docs[i % n], in.expected[0][i % n]);
          wrong[i] = reply == Reply::kWrong;
          return reply == Reply::kOk;
        });
    std::string key = "rate." + std::to_string(static_cast<int>(rate));
    size_t failed = 0;
    for (const RequestSample& s : samples) {
      checker->Check(!wrong[s.index],
                     "rate-ladder /prune " + std::to_string(s.index));
      record->Add(key + ".latency_ms", s.ok ? s.latency_ms : 1e9);
      record->Add(key + ".late_ms", s.late_ms);
      if (!s.ok) ++failed;
    }
    record->Set(key + ".failed", static_cast<double>(failed));
    std::vector<double> tail;
    for (size_t i = samples.size() * 3 / 4; i < samples.size(); ++i) {
      tail.push_back(samples[i].latency_ms);
    }
    std::sort(tail.begin(), tail.end());
    if (!tail.empty() && tail[tail.size() / 2] > kRunawayMs) break;
  }
}

// Primary operation untraced against traced, alternating, for
// bench.trace_overhead_pct.
void RunTraceOverhead(const Inputs& in, uint64_t deadline_ns,
                      Checker* checker, Record* record,
                      TraceCollector* trace) {
  const Workload& w = *in.workload;
  for (int rep = 0;
       rep < 6 || (rep < 400 && MonotonicNowNs() < deadline_ns); ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      TraceCollector* t = (leg + rep) % 2 == 1 ? trace : nullptr;
      Span op(t, "op.overhead");
      uint64_t begin = MonotonicNowNs();
      bool ok = false;
      size_t d = static_cast<size_t>(rep) % in.docs.size();
      if (w.mode == Mode::kService) {
        Span span(t, "service.POST /prune", &op);
        ok = in.service->Prune(in.docs[d], in.expected[0][d]) == Reply::kOk;
      } else {
        ok = PruneOne(in, static_cast<size_t>(rep) % in.projectors.size(), 0,
                      t, &op);
      }
      record->Add(t != nullptr ? "overhead.traced_s" : "overhead.untraced_s",
                  Seconds(begin, MonotonicNowNs()));
      checker->Check(ok, "overhead prune");
    }
  }
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) return false;
    std::string key(arg.substr(2, eq - 2));
    std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "out") {
      args->out = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() && args->seconds > 0;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out.flush());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out=FILE [--trace-out=FILE]\n");
    return 1;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 1;
  }
  const int nproc = Nproc();
  const bool traced = args.trace != 0;

  Record record;
  record.SetString("workload", workload->name);
  record.Set("seed", static_cast<double>(args.seed));
  record.Set("nproc", nproc);
  record.SetString("compiler", "g++ " __VERSION__);
  record.SetString("build_type", PERFBENCH_BUILD_TYPE);
  Checker checker(&record);
  TraceCollector collector;
  TraceCollector* trace = traced ? &collector : nullptr;

  uint64_t setup_begin = MonotonicNowNs();
  Result<std::unique_ptr<Inputs>> built =
      BuildInputs(*workload, args.seed, &record, trace);
  record.Add("setup_s", Seconds(setup_begin, MonotonicNowNs()));
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Inputs> in = std::move(*built);
  record.Set("inputs.documents", static_cast<double>(in->docs.size()));
  record.Set("inputs.bytes", static_cast<double>(in->input_bytes));
  record.Set("inputs.max_doc_bytes",
             static_cast<double>(MaxDocBytes(in->docs)));
  size_t kept = 0;
  for (const std::string& out : in->expected[0]) kept += out.size();
  record.Set("inputs.kept_bytes", static_cast<double>(kept));

  const double seconds = args.seconds;
  auto deadline_after = [](double s) {
    return MonotonicNowNs() + static_cast<uint64_t>(s * 1e9);
  };
  if (!traced) {
    SetupRepeats setups(*in, args.seed, seconds, &checker, &record);
    if (workload->mode == Mode::kService) {
      RunServiceAndQueries(*in, &setups, nproc, &checker, &record);
    } else {
      RunBatchAndQueries(*in, &setups, &checker, &record);
    }
    setups.Finish();
  } else {
    RunTraceOverhead(*in, deadline_after(seconds * 0.15), &checker,
                     &record, trace);
    RunLadder(*in, deadline_after(seconds * 0.35), nproc, &checker, &record,
              trace);
    RunChunked(*in, nproc, &checker, &record, trace);
    RunDomAndEval(*in, &checker, &record, trace);
    RunServiceProbe(*in, deadline_after(seconds * 0.1), &checker, &record,
                    trace);
    if (workload->mode == Mode::kService) {
      RunRateLadder(*in, nproc, &checker, &record);
    }
    if (!args.trace_out.empty()) {
      std::string json;
      collector.AppendChromeTraceJson(&json);
      if (!WriteFile(args.trace_out, json)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 2;
      }
    }
  }
  checker.Finish();
  in.reset();  // stops the service before the record is written
  if (!WriteFile(args.out, record.ToJson())) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
