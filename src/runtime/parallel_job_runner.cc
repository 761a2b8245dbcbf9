#include "src/runtime/parallel_job_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/mem/memory_budget.h"
#include "src/mem/shuffle_spool.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One contiguous map split: rows [begin, end) of input `tag`.
struct MapSplit {
  int tag = 0;
  int64_t begin = 0;
  int64_t end = 0;

  // Committed map output of the split's winning attempt, in the split's
  // row order; each record carries its emit-time reduce target.
  MapEmitter emitter;
};

/// Splits every input into contiguous row ranges in (tag, range) order, so
/// concatenating split outputs reproduces the sequential emit order.
std::vector<MapSplit> PlanMapSplits(const MapReduceJobSpec& spec,
                                    const ThreadPool& pool,
                                    const ParallelRunnerOptions& options) {
  std::vector<MapSplit> splits;
  const int64_t target_splits = std::max<int64_t>(
      1, static_cast<int64_t>(pool.num_threads()) * options.splits_per_thread);
  for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
    const int64_t rows = spec.inputs[tag].relation->num_rows();
    if (rows == 0) continue;
    const int64_t chunk = std::max(
        options.min_split_rows, (rows + target_splits - 1) / target_splits);
    for (int64_t begin = 0; begin < rows; begin += chunk) {
      MapSplit split;
      split.tag = tag;
      split.begin = begin;
      split.end = std::min(rows, begin + chunk);
      splits.push_back(std::move(split));
    }
  }
  return splits;
}

/// Durations of completed tasks in one phase; the straggler deadline is a
/// multiple of their running median.
class TaskTimeTracker {
 public:
  void Record(double seconds) {
    MutexLock lock(&mu_);
    durations_.push_back(seconds);
  }

  /// Seconds after which a first attempt counts as a straggler; +infinity
  /// while fewer than `min_completed_tasks` durations are recorded (the
  /// median of a few samples is noise, not a baseline).
  double DeadlineSeconds(const SpeculationPolicy& policy) const {
    MutexLock lock(&mu_);
    if (static_cast<int>(durations_.size()) < policy.min_completed_tasks) {
      return std::numeric_limits<double>::infinity();
    }
    std::vector<double> copy = durations_;
    const size_t mid = copy.size() / 2;
    std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
    return std::max(policy.straggler_multiplier * copy[mid],
                    policy.min_deadline_ms * 1e-3);
  }

 private:
  mutable Mutex mu_;
  std::vector<double> durations_ MRTHETA_GUARDED_BY(mu_);
};

/// Shared state of one job execution's restartable tasks.
struct FaultContext {
  explicit FaultContext(const ParallelRunnerOptions& options)
      : injector(options.fault_plan),
        retry(options.retry),
        speculation(options.speculation),
        external_cancel(options.cancel) {}

  const FaultInjector injector;
  const RetryPolicy retry;
  const SpeculationPolicy speculation;
  const CancellationToken* const external_cancel;
  /// Set on the first unrecoverable task failure so sibling tasks stop at
  /// their next boundary instead of burning retries on doomed work.
  CancellationToken job_cancel;

  Mutex report_mu;
  /// Guarded during the parallel phases; read unlocked only after the
  /// ParallelFor barrier (ReportPublisher in RunJobParallel).
  FaultReport report MRTHETA_GUARDED_BY(report_mu);

  bool Cancelled() const {
    return (external_cancel != nullptr && external_cancel->cancelled()) ||
           job_cancel.cancelled();
  }

  Status CancelledStatus(const std::string& job) const {
    if (external_cancel != nullptr && external_cancel->cancelled()) {
      return Status::Cancelled("job '" + job + "' cancelled by caller");
    }
    return Status::Cancelled("job '" + job +
                             "' cancelled after a sibling task failure");
  }

  void CountInjected() {
    MutexLock lock(&report_mu);
    ++report.injected_faults;
  }
  void CountRetry(bool is_map) {
    MutexLock lock(&report_mu);
    ++report.task_retries;
    if (is_map) {
      ++report.map_task_retries;
    } else {
      ++report.reduce_task_retries;
    }
  }
  void CountSpeculative(double wasted_seconds) {
    MutexLock lock(&report_mu);
    ++report.speculative_launches;
    report.wasted_task_seconds += wasted_seconds;
  }
  void CountWasted(double wasted_seconds) {
    MutexLock lock(&report_mu);
    report.wasted_task_seconds += wasted_seconds;
  }
};

/// \brief Runs one restartable task (a map split or a reduce partition):
/// the one attempt loop every task runs, with or without a fault plan.
///
/// Contract: `work` produces into attempt-local buffers only and must be
/// safe to re-run from scratch; `commit` publishes those buffers into the
/// task's committed slot and runs exactly once, after the first fully
/// successful attempt. Failed, timed-out and abandoned attempts publish
/// nothing, which is what makes re-execution invisible in the output and
/// the simulated metrics (docs/RUNTIME.md determinism contract).
///
/// Failure handling: the retry budget counts only failures a re-run can
/// change — injected allocation faults (kResourceExhausted), injected task
/// crashes (kAborted) and hard attempt timeouts (kDeadlineExceeded) — with
/// exponential backoff between attempts. A real `work` error, or a
/// cancellation seen inside `work`, returns at once and counts nothing:
/// `work` is a deterministic function of committed inputs. Attempts
/// straggling past the tracker's median-derived deadline are abandoned and
/// relaunched as speculative copies, which consume no retry budget — and,
/// by the slow-slot model (delays fire only on attempt 0), are never
/// re-delayed, so speculation always terminates. On retry exhaustion the
/// task returns the last failure's code; the caller cancels its siblings
/// on any non-cancelled failure.
Status RunRestartableTask(FaultContext& ctx, const std::string& job,
                          FaultPoint alloc_point, FaultPoint task_point,
                          FaultPoint straggler_point, int64_t task,
                          TaskTimeTracker& tracker,
                          const std::function<Status()>& work,
                          const std::function<void()>& commit) {
  const bool is_map = task_point == FaultPoint::kMapTask;
  const char* span_name = is_map ? "map-task" : "reduce-task";
  const FaultInjector& injector = ctx.injector;
  int attempt = 0;   // hash-stream index: distinct per launch, incl. copies
  int failures = 0;  // retry budget: failed attempts only
  for (;;) {
    if (ctx.Cancelled()) return ctx.CancelledStatus(job);
    // One span per launch; all launches of this task share a flow id, so
    // the trace viewer draws retry/speculation arrows between them.
    TraceSpan span(span_name, "runtime");
    if (span.enabled()) {
      span.Arg("job", job).Arg("task", task)
          .Arg("attempt", static_cast<int64_t>(attempt))
          .Flow(TaskFlowId(job, is_map ? "map" : "reduce", task));
    }
    const Clock::time_point start = Clock::now();
    Status attempt_status;  // an injected fault or a timeout: retryable

    if (injector.ShouldFail(alloc_point, job, task, attempt)) {
      ctx.CountInjected();
      attempt_status = Status::ResourceExhausted(
          std::string("injected allocation failure (") +
          FaultPointName(alloc_point) + ") in job '" + job + "', task " +
          std::to_string(task) + ", attempt " + std::to_string(attempt));
    }

    // Injected straggler delay: an interruptible sleep that watches for
    // cancellation, the hard attempt timeout, and the speculation deadline.
    bool abandoned_as_straggler = false;
    if (attempt_status.ok()) {
      const double delay_s =
          injector.StragglerDelayMs(straggler_point, job, task, attempt) *
          1e-3;
      if (delay_s > 0.0) {
        ctx.CountInjected();
        const double timeout_s = ctx.retry.task_timeout_ms * 1e-3;
        while (SecondsSince(start) < delay_s) {
          if (ctx.Cancelled()) {
            ctx.CountWasted(SecondsSince(start));
            return ctx.CancelledStatus(job);
          }
          if (timeout_s > 0.0 && SecondsSince(start) >= timeout_s) {
            attempt_status = Status::DeadlineExceeded(
                std::string("attempt timed out (") +
                FaultPointName(straggler_point) + ") in job '" + job +
                "', task " + std::to_string(task) + ", attempt " +
                std::to_string(attempt) + " after " +
                std::to_string(ctx.retry.task_timeout_ms) + " ms");
            break;
          }
          if (ctx.speculation.enabled &&
              SecondsSince(start) >=
                  tracker.DeadlineSeconds(ctx.speculation)) {
            abandoned_as_straggler = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }

    if (abandoned_as_straggler) {
      // Healthy but slow: abandon the slow-slot attempt, launch a
      // speculative copy (a fresh attempt, fresh buffers, no retry budget
      // consumed). First-committer-wins is trivial — the abandoned attempt
      // never reaches commit.
      span.Arg("outcome", "straggler-abandoned");
      ctx.CountSpeculative(SecondsSince(start));
      ++attempt;
      continue;
    }

    if (attempt_status.ok()) {
      if (Status s = work(); !s.ok()) {
        span.Arg("outcome", "failed");
        return s;
      }
      if (injector.ShouldFail(task_point, job, task, attempt)) {
        // The modeled crash happens after the work but before the commit,
        // so the attempt's buffers are discarded like a real lost task's.
        ctx.CountInjected();
        attempt_status = Status::Aborted(
            std::string("injected task failure (") +
            FaultPointName(task_point) + ") in job '" + job + "', task " +
            std::to_string(task) + ", attempt " + std::to_string(attempt));
      }
    }

    if (attempt_status.ok()) {
      span.Arg("outcome", "ok");
      tracker.Record(SecondsSince(start));
      commit();
      return Status::OK();
    }

    span.Arg("outcome", "failed");
    ctx.CountWasted(SecondsSince(start));
    ++failures;
    if (failures >= ctx.retry.max_attempts) {
      return Status::WithCode(
          attempt_status.code(),
          "task " + std::to_string(task) + " of job '" + job +
              "' failed all " + std::to_string(ctx.retry.max_attempts) +
              " attempts; last: " + attempt_status.ToString());
    }
    ctx.CountRetry(is_map);
    const double backoff_s = ctx.retry.BackoffMs(failures - 1) * 1e-3;
    const Clock::time_point backoff_start = Clock::now();
    while (SecondsSince(backoff_start) < backoff_s) {
      if (ctx.Cancelled()) return ctx.CancelledStatus(job);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ++attempt;
  }
}

/// Deterministic job-level error: the lowest-index task's non-cancelled
/// failure. Cancellations are consequences of some other failure, so they
/// only surface when no task reported a real error (i.e. the cancellation
/// came from outside the job).
Status SelectTaskError(const std::vector<Status>& statuses) {
  const Status* first_cancelled = nullptr;
  for (const Status& s : statuses) {
    if (s.ok()) continue;
    if (s.IsCancelled()) {
      if (first_cancelled == nullptr) first_cancelled = &s;
      continue;
    }
    return s;
  }
  return first_cancelled != nullptr ? *first_cancelled : Status::OK();
}

}  // namespace

StatusOr<PhysicalJobResult> RunJobParallel(
    const MapReduceJobSpec& spec, ThreadPool& pool,
    const ParallelRunnerOptions& options) {
  if (spec.inputs.empty()) {
    return Status::InvalidArgument("job '" + spec.name + "' has no inputs");
  }
  if (!spec.map || !spec.reduce) {
    return Status::InvalidArgument("job '" + spec.name +
                                   "' is missing map or reduce function");
  }
  if (spec.num_reduce_tasks < 1) {
    return Status::InvalidArgument("num_reduce_tasks must be >= 1");
  }
  MRTHETA_RETURN_IF_ERROR(options.fault_plan.Validate());
  MRTHETA_RETURN_IF_ERROR(options.retry.Validate());
  MRTHETA_RETURN_IF_ERROR(options.speculation.Validate());

  FaultContext ctx(options);
  const bool budgeted =
      options.spill_dir != nullptr && options.mem_budget_bytes > 0;
  // Publishes the fault accounting on every return path below. Each one
  // follows a ParallelFor barrier, so the lock is uncontended; taking it
  // anyway keeps the guarded-by discipline uniform.
  struct ReportPublisher {
    FaultContext& ctx;
    FaultReport* out;
    ~ReportPublisher() {
      if (out == nullptr) return;
      MutexLock lock(&ctx.report_mu);
      out->Merge(ctx.report);
    }
  } report_publisher{ctx, options.fault_report};

  PhysicalJobResult result;
  result.output =
      std::make_shared<Relation>(spec.output_name, spec.output_schema);
  JobMeasurement& m = result.metrics;

  const int n = spec.num_reduce_tasks;
  const PartitionFn& partition =
      spec.partition ? spec.partition : PartitionFn(HashPartition);

  // ---- Map phase: splits fan out over the pool as restartable tasks ----
  for (const JobInput& input : spec.inputs) {
    m.input_bytes_logical += input.relation->logical_bytes();
    m.input_bytes_physical += input.relation->physical_bytes();
  }
  std::vector<MapSplit> splits = PlanMapSplits(spec, pool, options);
  TaskTimeTracker map_tracker;
  std::vector<Status> map_status(splits.size());
  TraceSpan map_phase("map-phase", "runtime");
  if (map_phase.enabled()) {
    map_phase.Arg("job", spec.name)
        .Arg("splits", static_cast<int64_t>(splits.size()));
  }
  pool.ParallelFor(
      static_cast<int64_t>(splits.size()), [&](int64_t s) {
        MapSplit& split = splits[s];
        const Relation& rel = *spec.inputs[split.tag].relation;
        MapEmitter emitter;  // attempt-local until commit
        auto work = [&]() -> Status {
          // Fresh buffers per attempt; replacing the emitter also removes
          // any spill file a previous failed attempt left behind. Reduce
          // targets are computed at emit time — off the sequential merge
          // path; partitioners are pure functions of (key, n).
          emitter = MapEmitter();
          emitter.SetPartitioner(partition, n);
          if (spec.combine) emitter.set_combine(spec.combine);
          if (budgeted) {
            emitter.EnableSpill(options.mem_budget_bytes, options.spill_dir);
          }
          emitter.Reserve(static_cast<size_t>(
              static_cast<double>(split.end - split.begin) *
              spec.EmitsPerRow(split.tag)));
          for (int64_t row = split.begin; row < split.end; ++row) {
            // Long map scans honor cancellation without per-row cost.
            if (((row - split.begin) & 1023) == 0 && ctx.Cancelled()) {
              return ctx.CancelledStatus(spec.name);
            }
            spec.map(split.tag, rel, row, emitter);
            emitter.EndRow();  // combine + spill boundary
          }
          const Status& s = emitter.status();
          if (!s.ok()) {
            return Status::WithCode(s.code(), "map emit failed in job '" +
                                                  spec.name +
                                                  "': " + s.message());
          }
          return Status::OK();
        };
        auto commit = [&]() { split.emitter = std::move(emitter); };
        map_status[s] = RunRestartableTask(
            ctx, spec.name, FaultPoint::kMapAlloc, FaultPoint::kMapTask,
            FaultPoint::kMapStraggler, s, map_tracker, work, commit);
        if (!map_status[s].ok() && !map_status[s].IsCancelled()) {
          ctx.job_cancel.Cancel();
        }
      });
  map_phase.End();
  MRTHETA_RETURN_IF_ERROR(SelectTaskError(map_status));
  for (MapSplit& split : splits) {
    m.map_output_records_physical += split.emitter.size();
  }
  if (ctx.Cancelled()) {  // external cancel between phases
    return ctx.CancelledStatus(spec.name);
  }

  // ---- Shuffle merge: sequential walk in split order ----
  // Byte accounting uses floating-point accumulation, so this walk visits
  // records in exactly the sequential runner's order; the per-record work
  // (a count, two additions, one push) is trivial next to map/reduce.
  TraceSpan shuffle_phase("shuffle-merge", "runtime");
  if (shuffle_phase.enabled()) shuffle_phase.Arg("job", spec.name);
  ShuffleSpool spool(n, budgeted ? options.mem_budget_bytes : 0,
                     budgeted ? options.spill_dir : nullptr);
  if (!budgeted) {
    // A counting pass sizes every bucket exactly.
    std::vector<int64_t> task_records(n, 0);
    for (MapSplit& split : splits) {
      MRTHETA_RETURN_IF_ERROR(split.emitter.ForEach(
          [&](const MapOutputRecord& rec) { ++task_records[rec.target]; }));
    }
    spool.ReserveExact(task_records);  // errors surface from the walk
  }
  std::vector<double> task_bytes(n, 0.0);
  double map_out_bytes = 0.0;
  for (MapSplit& split : splits) {
    const double scale = spec.inputs[split.tag].scale;
    result.spill_bytes += split.emitter.spilled_bytes();
    result.spill_files += split.emitter.spill_files();
    Status walk = split.emitter.ForEach([&](const MapOutputRecord& rec) {
      const double scaled_bytes = static_cast<double>(rec.bytes) * scale;
      task_bytes[rec.target] += scaled_bytes;
      map_out_bytes += scaled_bytes;
      spool.Append(rec.target, rec);
    });
    if (walk.ok() && !spool.status().ok()) walk = spool.status();
    if (!walk.ok()) {
      return Status::WithCode(walk.code(), "shuffle merge failed in job '" +
                                               spec.name +
                                               "': " + walk.message());
    }
    // The split's records are merged into the spool; release its buffers
    // (and any spill file it made) eagerly.
    split.emitter.Clear();
  }
  MRTHETA_RETURN_IF_ERROR(spool.FinishWrites());
  result.spill_bytes += spool.spill_bytes();
  result.spill_files += spool.spill_files();
  m.map_output_bytes_logical = static_cast<int64_t>(map_out_bytes);
  m.reduce_input_bytes_logical.resize(n);
  for (int t = 0; t < n; ++t) {
    m.reduce_input_bytes_logical[t] = static_cast<int64_t>(task_bytes[t]);
  }
  shuffle_phase.End();

  // ---- Reduce phase: restartable tasks, each with a private output ----
  // RunReduceTask is the same sort+group+reduce loop the sequential runner
  // uses — sharing it is what keeps the runners byte-identical. A
  // never-spilled task sorts and reduces its shuffle bucket in place; a
  // retried attempt re-sorts it into the same order, so it reduces exactly
  // the records the failed attempt saw. Spilled tasks arrive pre-merged in
  // (key, tag, row) order and skip the reduce-side sort.
  m.reduce_comparisons_logical.assign(n, 0.0);
  std::vector<ReducerWork> task_work(n);
  std::vector<Relation> task_outputs(n);
  TaskTimeTracker reduce_tracker;
  std::vector<Status> reduce_status(n);
  TraceSpan reduce_phase("reduce-phase", "runtime");
  if (reduce_phase.enabled()) {
    reduce_phase.Arg("job", spec.name).Arg("tasks", static_cast<int64_t>(n));
  }
  pool.ParallelFor(n, [&](int64_t t) {
    ReduceTaskTotals totals;
    Relation attempt_output;  // attempt-local until commit
    auto work = [&]() -> Status {
      attempt_output = Relation(spec.output_name, spec.output_schema);
      std::vector<MapOutputRecord> merged;  // filled only for spilled tasks
      StatusOr<ShuffleSpool::MaterializedTask> input =
          spool.MaterializeTask(static_cast<int>(t), &merged);
      if (!input.ok()) return input.status();
      // Account a spilled task's merge so concurrent reduce tasks show up
      // in peak-memory tracking (it frees with the attempt); an in-place
      // bucket is already charged by the spool.
      ScopedCharge charge(static_cast<int64_t>(merged.capacity()) *
                          static_cast<int64_t>(sizeof(MapOutputRecord)));
      StatusOr<ReduceTaskTotals> c = RunReduceTask(
          spec, *input->records, &attempt_output, input->sorted);
      if (!c.ok()) return c.status();
      totals = *c;
      return Status::OK();
    };
    auto commit = [&]() {
      m.reduce_comparisons_logical[t] = totals.comparisons;
      task_work[t] = totals.work;
      spool.ReleaseTask(static_cast<int>(t));
      task_outputs[t] = std::move(attempt_output);
    };
    reduce_status[t] = RunRestartableTask(
        ctx, spec.name, FaultPoint::kReduceAlloc, FaultPoint::kReduceTask,
        FaultPoint::kReduceStraggler, t, reduce_tracker, work, commit);
    if (!reduce_status[t].ok() && !reduce_status[t].IsCancelled()) {
      ctx.job_cancel.Cancel();
    }
  });
  reduce_phase.End();
  MRTHETA_RETURN_IF_ERROR(SelectTaskError(reduce_status));
  for (const ReducerWork& w : task_work) result.reducer_work += w;

  // Concatenate task outputs in task order — the reference runner appends
  // reduce output to one relation in exactly this order — into an output
  // reserved at its final size, freeing each task output once copied.
  int64_t output_rows = 0;
  for (const Relation& out : task_outputs) output_rows += out.num_rows();
  result.output->Reserve(output_rows);
  for (Relation& out : task_outputs) {
    MRTHETA_RETURN_IF_ERROR(result.output->AppendRows(out));
    out = Relation();
  }

  // ---- Output accounting (identical to the sequential runner) ----
  m.output_rows_physical = result.output->num_rows();
  m.output_rows_logical =
      static_cast<double>(m.output_rows_physical) * spec.output_row_scale;
  const double capped_rows = std::min(m.output_rows_logical, 4.0e18);
  result.output->set_logical_rows(
      static_cast<int64_t>(std::llround(capped_rows)));
  m.output_bytes_logical = result.output->logical_bytes();
  return result;
}

}  // namespace mrtheta
