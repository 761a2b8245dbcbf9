// Repository benchmark: runs one workload through the public ThetaEngine
// API for a fixed time, checks every result against an independently
// computed reference, and prints the end-to-end metrics (untraced run) or
// the per-layer breakdown (traced run) as one JSON object on the last line
// of stdout. perfbench/README.md defines every metric; BENCHMARK.json at
// the repository root lists them.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--source-digest HEX] [--tiny]
//                  [--check-oracle] [--corrupt-reference]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mrtheta::EngineMetrics;
using mrtheta::EngineOptions;
using mrtheta::PreparedQuery;
using mrtheta::TraceEvent;
using Clock = std::chrono::steady_clock;

// Engine set-ups per run: the first kColdSetups warm the process and are
// discarded; setup_s is the median of the next one, which runs the
// workload, and kSetupsPerSegment after each segment of the timed loop.
// The host's speed drifts over seconds, so set-ups spread over the whole
// run do not all land in one slow phase.
constexpr int kColdSetups = 2;
constexpr int kSetupsPerSegment = 2;
// Segments of an untraced timed loop. A traced loop has three: untraced,
// traced and untraced, a quarter, a half and a quarter of the time, so
// drift cancels in the trace overhead.
constexpr int kUntracedSegments = 4;
// Untimed executions of each prepared input before the timed loop: the
// first executions in a fresh process run 2-3x slower.
constexpr int kWarmupPerInput = 2;
// Closed-loop clients of the serving workload, and its admission limit.
constexpr int kServeClients = 2;
// Runtime threads. Half of a 4-vCPU host stays free, so a neighbour that
// takes a core slows the loop less than if every core were in use.
constexpr int kMaxThreads = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool tiny = false;
  bool check_oracle = false;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--check-oracle") {
      args->check_oracle = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && args->seconds > 0.0 &&
         args->seconds <= 120.0 && args->trace >= 0;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

int PoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? std::min(kMaxThreads, hw) : kMaxThreads;
}

EngineOptions OptionsFor(const Workload& w) {
  EngineOptions options;
  options.executor.num_threads = PoolThreads();
  if (w.serving) {
    options.per_query_threads = 1;
    options.max_inflight_queries = kServeClients;
  }
  return options;
}

// One engine set up for the workload: construction, calibration, and one
// Prepare per shape (statistics plus planning), which warms the plan cache.
struct Session {
  std::unique_ptr<ThetaEngine> engine;
  double setup_s = 0.0;
  double calibration_s = 0.0;
  double prepare_s = 0.0;
  double collect_stats_s = 0.0;  // traced set-ups only
  int64_t stats_builds = 0;
};

StatusOr<Session> SetUp(const Workload& w, bool traced) {
  mrtheta::Tracer tracer;
  mrtheta::TraceSession trace_session(traced ? &tracer : nullptr);
  Session s;
  const Clock::time_point start = Clock::now();
  s.engine = std::make_unique<ThetaEngine>(OptionsFor(w));
  const Clock::time_point calibrate = Clock::now();
  if (auto report = s.engine->Calibration(); !report.ok()) {
    return report.status();
  }
  s.calibration_s = Since(calibrate);
  const Clock::time_point prepare = Clock::now();
  for (const Shape& shape : w.shapes) {
    // The plan cache keeps the plan; the handle itself is not needed.
    StatusOr<PreparedQuery> p = s.engine->Prepare(shape.base.query);
    if (!p.ok()) return p.status();
  }
  s.prepare_s = Since(prepare);
  s.setup_s = Since(start);
  s.collect_stats_s = SpanSeconds(tracer.events(), "collect-stats");
  s.stats_builds = s.engine->metrics().stats_builds;
  return s;
}

// True when `result` is OK and equals the input's reference and its exact
// figures; otherwise explains the mismatch in `why`.
bool Verify(const StatusOr<QueryResult>& result, const Input& input,
            std::string* why) {
  if (!result.ok()) {
    *why = input.name + ": " + result.status().ToString();
    return false;
  }
  if (FingerprintRows(result->rows()) != input.reference) {
    *why = input.name + ": result differs from the reference";
    return false;
  }
  if (input.figures_known &&
      (result->simulated_seconds() != input.figures.sim_makespan_s ||
       result->sim_shuffle_bytes() != input.figures.sim_shuffle_bytes)) {
    *why = input.name + ": simulated figures changed between executions";
    return false;
  }
  return true;
}

// Executes `query` (a binding of `input`) once outside the timed loop and
// records the input's exact figures. Returns false on a wrong result.
bool WarmUp(ThetaEngine& engine, const Query& query, Input& input) {
  const StatusOr<QueryResult> result = engine.Execute(query);
  if (result.ok() && !input.figures_known) {
    const StatusOr<mrtheta::QueryPlan> plan = engine.PlanQuery(query);
    input.figures = FiguresOf(query, *result,
                              plan.ok() ? plan->est_makespan_sec : 0.0);
    input.figures_known = true;
  }
  std::string why;
  if (!Verify(result, input, &why)) {
    std::fprintf(stderr, "warm-up: %s\n", why.c_str());
    return false;
  }
  return true;
}

struct LoopResult {
  std::vector<double> latency_s;
  std::vector<double> submit_s;  // serving: time inside Submit()
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t peak_budget_bytes = 0;
  int64_t spill_bytes = 0;
  std::vector<TraceEvent> events;

  // Adds a later segment of the timed loop.
  void Merge(const LoopResult& o) {
    latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
    submit_s.insert(submit_s.end(), o.submit_s.begin(), o.submit_s.end());
    attempted += o.attempted;
    failed += o.failed;
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    plan_cache_hits += o.plan_cache_hits;
    plan_cache_misses += o.plan_cache_misses;
    peak_budget_bytes = std::max(peak_budget_bytes, o.peak_budget_bytes);
    spill_bytes += o.spill_bytes;
    events.insert(events.end(), o.events.begin(), o.events.end());
  }
};

// What one client records; the checker's own time is kept apart so it can
// be taken out of the loop's wall and CPU time.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<double> submit_s;
  int64_t failed = 0;
  int64_t spill_bytes = 0;
  double check_wall_s = 0.0;
  double check_cpu_s = 0.0;
  std::string first_failure;

  void Check(const StatusOr<QueryResult>& result, const Input& input) {
    const Clock::time_point start = Clock::now();
    const double cpu = ThreadCpuSeconds();
    std::string why;
    if (!Verify(result, input, &why)) {
      ++failed;
      if (first_failure.empty()) first_failure = why;
    } else {
      spill_bytes += result->execution().spill_bytes;
    }
    check_cpu_s += ThreadCpuSeconds() - cpu;
    check_wall_s += Since(start);
  }
};

// Runs the closed loop for `seconds`: one client calling Execute, or
// kServeClients clients calling Submit and waiting for each result.
// `*next_request` is the position in the request cycle; a later segment
// resumes there.
LoopResult RunLoop(ThetaEngine& engine, const Workload& w, double seconds,
                   bool traced, int64_t* next_request) {
  mrtheta::Tracer tracer;
  LoopResult out;
  const EngineMetrics before = engine.metrics();
  mrtheta::MemoryBudget::Global().ResetPeak();
  std::vector<ClientLog> logs(w.serving ? kServeClients : 1);
  {
    mrtheta::TraceSession trace_session(traced ? &tracer : nullptr);
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const size_t n = w.cycle.size();
    if (!w.serving) {
      ClientLog& log = logs[0];
      int64_t& i = *next_request;
      for (; Since(start) < seconds; ++i) {
        const Input& input = w.shapes[w.cycle[i % n].shape].base;
        const Clock::time_point t0 = Clock::now();
        StatusOr<QueryResult> result = engine.Execute(input.query);
        log.latency_s.push_back(Since(t0));
        log.Check(result, input);
      }
    } else {
      std::atomic<int64_t> next{*next_request};
      std::vector<std::thread> clients;
      for (ClientLog& log : logs) {
        clients.emplace_back([&w, &engine, &next, &log, start, seconds, n] {
          while (Since(start) < seconds) {
            const int64_t i = next.fetch_add(1);
            const Workload::Request& req = w.cycle[i % n];
            const Shape& shape = w.shapes[req.shape];
            const Input& input = req.fresh ? *shape.fresh : shape.base;
            Query query = req.fresh ? RebindToFreshCopies(input.query)
                                    : input.query;
            const Clock::time_point t0 = Clock::now();
            auto future = engine.Submit(std::move(query));
            log.submit_s.push_back(Since(t0));
            StatusOr<QueryResult> result = future.get();
            log.latency_s.push_back(Since(t0));
            log.Check(result, input);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      *next_request = next.load();
    }
    out.wall_s = Since(start);
    out.cpu_s = ProcessCpuSeconds() - cpu_start;
  }
  for (const ClientLog& log : logs) {
    out.latency_s.insert(out.latency_s.end(), log.latency_s.begin(),
                         log.latency_s.end());
    out.submit_s.insert(out.submit_s.end(), log.submit_s.begin(),
                        log.submit_s.end());
    out.failed += log.failed;
    out.spill_bytes += log.spill_bytes;
    out.cpu_s -= log.check_cpu_s;
    if (!log.first_failure.empty()) {
      std::fprintf(stderr, "failed: %s\n", log.first_failure.c_str());
    }
  }
  // A single client's checks sit between its queries; concurrent clients
  // check while other queries run, so their wall time stays.
  if (!w.serving) out.wall_s -= logs[0].check_wall_s;
  out.attempted = static_cast<int64_t>(out.latency_s.size());
  const EngineMetrics after = engine.metrics();
  out.plan_cache_hits = after.plan_cache_hits - before.plan_cache_hits;
  out.plan_cache_misses = after.plan_cache_misses - before.plan_cache_misses;
  out.peak_budget_bytes = mrtheta::MemoryBudget::Global().peak_bytes();
  if (traced) out.events = tracer.events();
  return out;
}

// The mean of `field` over the request cycle.
double CycleMean(const Workload& w,
                 const std::function<double(const PlanFigures&)>& field) {
  double sum = 0.0;
  for (const Workload::Request& req : w.cycle) {
    const Shape& shape = w.shapes[req.shape];
    sum += field(req.fresh ? shape.fresh->figures : shape.base.figures);
  }
  return sum / static_cast<double>(w.cycle.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";  // only after a failed execution
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA] [--source-digest HEX] [--tiny] "
                 "[--check-oracle] "
                 "[--corrupt-reference]\n",
                 argv[0]);
    return 2;
  }
  StatusOr<Workload> made = MakeWorkload(args.workload, args.seed, args.tiny);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload& w = *made;
  const bool traced = args.trace == 1;

  // Set-ups; the last one before the timed loop runs the workload.
  std::vector<double> setup_s, calibration_s, collect_stats_s, plan_s;
  auto set_up = [&](bool measured) -> StatusOr<Session> {
    StatusOr<Session> s = SetUp(w, traced);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up: %s\n", s.status().ToString().c_str());
    } else if (measured) {
      setup_s.push_back(s->setup_s);
      calibration_s.push_back(s->calibration_s);
      collect_stats_s.push_back(s->collect_stats_s);
      plan_s.push_back(s->prepare_s - s->collect_stats_s);
    }
    return s;
  };
  Session session;
  for (int r = 0; r <= kColdSetups; ++r) {
    session = Session{};  // the previous engine shuts down untimed
    StatusOr<Session> s = set_up(r >= kColdSetups);
    if (!s.ok()) return 1;
    session = *std::move(s);
  }
  ThetaEngine& engine = *session.engine;

  // References from the Hive-style baseline plan, independent of the
  // planner and the Hilbert reducer under test.
  for (Shape& shape : w.shapes) {
    for (Input* input : [&shape] {
           std::vector<Input*> all{&shape.base};
           if (shape.fresh) all.push_back(&*shape.fresh);
           return all;
         }()) {
      if (Status st = ComputeReference(engine, *input); !st.ok()) {
        std::fprintf(stderr, "reference %s: %s\n", input->name.c_str(),
                     st.ToString().c_str());
        return 1;
      }
      if (args.check_oracle) {
        if (Status st = CheckReferenceAgainstOracle(*input); !st.ok()) {
          std::fprintf(stderr, "oracle: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
  }
  if (args.corrupt_reference) w.shapes[0].base.reference.hash ^= 1;

  // Warm-up: untimed executions that also record each input's exact
  // figures. Every data set runs kWarmupPerInput times, every fresh
  // version once.
  int warmup_queries = 0;
  int64_t warmup_failures = 0;
  for (Shape& shape : w.shapes) {
    for (int i = 0; i < kWarmupPerInput; ++i, ++warmup_queries) {
      if (!WarmUp(engine, shape.base.query, shape.base)) ++warmup_failures;
    }
    if (shape.fresh) {
      const Query rebound = RebindToFreshCopies(shape.fresh->query);
      if (!WarmUp(engine, rebound, *shape.fresh)) ++warmup_failures;
      ++warmup_queries;
    }
  }

  // The timed loop, in segments with set-ups between them. `timed` holds
  // the traced segment of a traced run and every segment of an untraced
  // one; `untraced` the untraced segments of a traced run.
  struct Segment {
    double share;
    bool traced;
  };
  const std::vector<Segment> segments =
      traced ? std::vector<Segment>{{0.25, false}, {0.5, true}, {0.25, false}}
             : std::vector<Segment>(kUntracedSegments,
                                    {1.0 / kUntracedSegments, false});
  LoopResult timed;
  LoopResult untraced;
  int64_t next_request = 0;
  for (const Segment& seg : segments) {
    (traced && !seg.traced ? untraced : timed)
        .Merge(RunLoop(engine, w, args.seconds * seg.share, seg.traced,
                       &next_request));
    for (int r = 0; r < kSetupsPerSegment; ++r) {
      if (!set_up(true).ok()) return 1;
    }
  }
  const int64_t attempted = timed.attempted + untraced.attempted;
  const int64_t failed = timed.failed + untraced.failed;
  const int64_t completed = timed.attempted - timed.failed;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"query_s_p50", Quantile(timed.latency_s, 0.5), "s"},
        {"query_s_p90", Quantile(timed.latency_s, 0.9), "s"},
        {"queries_per_s", completed / timed.wall_s, "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB"},
        {"cpu_s_per_query", timed.cpu_s / std::max<int64_t>(1, timed.attempted),
         "s"},
        {"sim_makespan_s",
         CycleMean(w, [](const PlanFigures& f) { return f.sim_makespan_s; }),
         "s"},
        {"sim_shuffle_gb", CycleMean(w, [](const PlanFigures& f) {
           return f.sim_shuffle_bytes / 1e9;
         }), "GB"},
    };
  } else {
    const LoopLayers layers =
        AnalyzeLoop(timed.events, timed.attempted, !w.serving);
    std::vector<double> api_wait = timed.submit_s;
    if (!w.serving) {
      // Execute is not admission-controlled: its wait before the engine
      // starts executing is the call minus the execute span.
      const size_t n =
          std::min(timed.latency_s.size(), layers.execute_s.size());
      for (size_t i = 0; i < n; ++i) {
        api_wait.push_back(timed.latency_s[i] - layers.execute_s[i]);
      }
    }
    const int64_t lookups = timed.plan_cache_hits + timed.plan_cache_misses +
                            untraced.plan_cache_hits +
                            untraced.plan_cache_misses;
    const double untraced_p50 = Quantile(untraced.latency_s, 0.5);
    metrics = {
        {"api.plan_cache_hit_ratio",
         lookups > 0 ? static_cast<double>(timed.plan_cache_hits +
                                           untraced.plan_cache_hits) /
                           lookups
                     : 0.0,
         "ratio"},
        {"api.admission_wait_s_p50", Quantile(api_wait, 0.5), "s"},
        {"cost.calibration_s", Median(calibration_s), "s"},
        {"cost.makespan_qerror", CycleMean(w, [](const PlanFigures& f) {
           return std::max(f.est_makespan_s / f.sim_makespan_s,
                           f.sim_makespan_s / f.est_makespan_s);
         }), "ratio"},
        {"stats.collect_s", Median(collect_stats_s), "s"},
        {"stats.builds", static_cast<double>(session.stats_builds), "count"},
        {"core.plan_s", Median(plan_s), "s"},
        {"core.job_build_s", layers.job_build_s, "s"},
        {"core.finish_s", layers.finish_s, "s"},
        {"runtime.map_s", layers.map_s, "s"},
        {"runtime.shuffle_merge_s", layers.shuffle_merge_s, "s"},
        {"runtime.reduce_s", layers.reduce_s, "s"},
        {"runtime.pool_busy_frac",
         timed.cpu_s / (PoolThreads() * timed.wall_s), "ratio"},
        {"runtime.reduce_task_max_over_p50", layers.reduce_task_max_over_p50,
         "ratio"},
        {"mapreduce.map_records",
         CycleMean(w, [](const PlanFigures& f) {
           return static_cast<double>(f.map_records);
         }), "count"},
        {"mapreduce.replication", CycleMean(w, [](const PlanFigures& f) {
           return static_cast<double>(f.map_records) / f.input_rows;
         }), "ratio"},
        {"mapreduce.reduce_input_max_over_mean",
         CycleMean(w, [](const PlanFigures& f) {
           return f.reduce_max_over_mean;
         }), "ratio"},
        {"exec.reduce_cpu_s", layers.reduce_cpu_s, "s"},
        {"mem.peak_budget_mb", timed.peak_budget_bytes / 1048576.0, "MiB"},
        {"mem.spill_bytes", static_cast<double>(timed.spill_bytes), "bytes"},
        {"obs.trace_overhead_frac",
         untraced_p50 > 0.0
             ? Quantile(timed.latency_s, 0.5) / untraced_p50 - 1.0
             : 0.0,
         "ratio"},
        {"obs.spans_per_query", layers.spans, "count"},
    };
  }

  const bool correct = failed == 0 && warmup_failures == 0 && attempted > 0;
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const char* build_type = PERFBENCH_BUILD_TYPE;
  const bool release = std::string(build_type) == "Release";
  if (!release) {
    std::fprintf(stderr, "warning: %s build; numbers are not comparable "
                 "with Release builds\n", build_type);
  }
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"threads\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"release\": %s, \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"tiny\": %s, "
      "\"setup_repeats\": %d, \"warmup_queries\": %d, "
      "\"warmup_failures\": %lld, \"attempted\": %lld, \"failed\": %lld, "
      "\"failed_frac\": %s}}\n",
      JsonEscape(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), PoolThreads(),
      JsonEscape(PERFBENCH_COMPILER).c_str(), JsonEscape(build_type).c_str(),
      release ? "true" : "false", JsonEscape(args.git_sha).c_str(),
      JsonEscape(args.source_digest).c_str(),
      args.tiny ? "true" : "false", static_cast<int>(setup_s.size()),
      warmup_queries,
      static_cast<long long>(warmup_failures),
      static_cast<long long>(attempted), static_cast<long long>(failed),
      Num(attempted > 0 ? static_cast<double>(failed) / attempted : 1.0)
          .c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
