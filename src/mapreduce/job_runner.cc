#include "src/mapreduce/job_runner.h"

#include <algorithm>
#include <cmath>
#include <new>

#include "src/obs/trace.h"

namespace mrtheta {

namespace {
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Rewraps a task-internal error with job context, preserving its code so
/// kResourceExhausted survives to the caller (admission control and tests
/// key on the code, not the message).
Status WrapTaskError(const std::string& what, const MapReduceJobSpec& spec,
                     const Status& cause) {
  return Status::WithCode(cause.code(), what + " in job '" + spec.name +
                                            "': " + cause.message());
}
}  // namespace

int HashPartition(int64_t key, int num_reduce_tasks) {
  return static_cast<int>(Mix64(static_cast<uint64_t>(key)) %
                          static_cast<uint64_t>(num_reduce_tasks));
}

ReduceCollector::ReduceCollector(Relation* output) : output_(output) {
  const Schema& schema = output_->schema();
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ValueType::kInt64) {
      status_ = Status::InvalidArgument(
          "reduce output column " + std::to_string(c) + " is not int64");
      return;
    }
  }
}

void ReduceCollector::Emit(const std::vector<int64_t>& row) {
  if (!status_.ok()) return;  // latch the first error, drop the rest
  if (static_cast<int>(row.size()) != output_->schema().num_columns()) {
    status_ = Status::InvalidArgument(
        "reduce output row arity " + std::to_string(row.size()) +
        " != schema arity " +
        std::to_string(output_->schema().num_columns()));
    return;
  }
  try {
    output_->AppendIntRow(row);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("reduce output row append failed");
    return;
  }
  ++rows_emitted_;
}

int64_t JobMeasurement::MaxReduceInputBytes() const {
  int64_t mx = 0;
  for (int64_t b : reduce_input_bytes_logical) mx = std::max(mx, b);
  return mx;
}

StatusOr<ReduceTaskTotals> RunReduceTask(const MapReduceJobSpec& spec,
                                         std::vector<MapOutputRecord>& records,
                                         Relation* output, bool presorted) {
  const int num_tags = static_cast<int>(spec.inputs.size());
  if (!presorted) {
    std::sort(records.begin(), records.end(),
              [](const MapOutputRecord& a, const MapOutputRecord& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.tag != b.tag) return a.tag < b.tag;
                return a.row < b.row;
              });
  }
  ReduceCollector collector(output);
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    while (j < records.size() && records[j].key == records[i].key) ++j;
    std::vector<std::vector<const MapOutputRecord*>> by_tag(num_tags);
    for (size_t k = i; k < j; ++k) {
      by_tag[records[k].tag].push_back(&records[k]);
    }
    ReduceContext ctx;
    ctx.key = records[i].key;
    ctx.by_tag = &by_tag;
    ctx.inputs = &spec.inputs;
    spec.reduce(ctx, collector);
    if (!collector.status().ok()) {
      return WrapTaskError("reduce emit failed", spec, collector.status());
    }
    i = j;
  }
  return ReduceTaskTotals{collector.comparisons(), collector.work()};
}

StatusOr<PhysicalJobResult> RunJobPhysically(const MapReduceJobSpec& spec) {
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

  PhysicalJobResult result;
  result.output =
      std::make_shared<Relation>(spec.output_name, spec.output_schema);
  JobMeasurement& m = result.metrics;

  // ---- Map phase ----
  TraceSpan map_phase("map-phase", "runtime");
  if (map_phase.enabled()) map_phase.Arg("job", spec.name);
  const int n = spec.num_reduce_tasks;
  const PartitionFn& partition =
      spec.partition ? spec.partition : PartitionFn(HashPartition);
  MapEmitter emitter;
  emitter.SetPartitioner(partition, n);
  if (spec.combine) emitter.set_combine(spec.combine);
  {
    double expected_records = 0.0;
    for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
      expected_records +=
          static_cast<double>(spec.inputs[tag].relation->num_rows()) *
          spec.EmitsPerRow(tag);
    }
    emitter.Reserve(static_cast<size_t>(expected_records));
  }
  for (int tag = 0; tag < static_cast<int>(spec.inputs.size()); ++tag) {
    const Relation& rel = *spec.inputs[tag].relation;
    m.input_bytes_logical += rel.logical_bytes();
    m.input_bytes_physical += rel.physical_bytes();
    for (int64_t row = 0; row < rel.num_rows(); ++row) {
      spec.map(tag, rel, row, emitter);
      emitter.EndRow();
    }
  }
  if (!emitter.status().ok()) {
    return WrapTaskError("map emit failed", spec, emitter.status());
  }
  m.map_output_records_physical = emitter.size();
  map_phase.End();

  // ---- Shuffle: route by the emit-time target, charge logical bytes ----
  TraceSpan shuffle_phase("shuffle-merge", "runtime");
  if (shuffle_phase.enabled()) shuffle_phase.Arg("job", spec.name);
  std::vector<std::vector<MapOutputRecord>> task_records(n);
  std::vector<double> task_bytes(n, 0.0);
  double map_out_bytes = 0.0;
  Status walk = emitter.ForEach([&](const MapOutputRecord& rec) {
    const double scaled_bytes =
        static_cast<double>(rec.bytes) * spec.inputs[rec.tag].scale;
    task_bytes[rec.target] += scaled_bytes;
    map_out_bytes += scaled_bytes;
    task_records[rec.target].push_back(rec);
  });
  if (!walk.ok()) return WrapTaskError("shuffle walk failed", spec, walk);
  result.spill_bytes = emitter.spilled_bytes();
  result.spill_files = emitter.spill_files();
  emitter.Clear();
  m.map_output_bytes_logical = static_cast<int64_t>(map_out_bytes);
  m.reduce_input_bytes_logical.resize(n);
  for (int t = 0; t < n; ++t) {
    m.reduce_input_bytes_logical[t] = static_cast<int64_t>(task_bytes[t]);
  }

  shuffle_phase.End();

  // ---- Reduce phase: per task, sort by key then group ----
  TraceSpan reduce_phase("reduce-phase", "runtime");
  if (reduce_phase.enabled()) {
    reduce_phase.Arg("job", spec.name).Arg("tasks", static_cast<int64_t>(n));
  }
  m.reduce_comparisons_logical.assign(n, 0.0);
  for (int t = 0; t < n; ++t) {
    TraceSpan task_span("reduce-task", "runtime");
    if (task_span.enabled()) {
      task_span.Arg("job", spec.name).Arg("task", static_cast<int64_t>(t));
    }
    StatusOr<ReduceTaskTotals> totals =
        RunReduceTask(spec, task_records[t], result.output.get());
    if (!totals.ok()) return totals.status();
    m.reduce_comparisons_logical[t] = totals->comparisons;
    result.reducer_work += totals->work;
  }
  reduce_phase.End();

  // ---- Output accounting ----
  m.output_rows_physical = result.output->num_rows();
  m.output_rows_logical =
      static_cast<double>(m.output_rows_physical) * spec.output_row_scale;
  // Guard against llround overflow on extreme extrapolations.
  const double capped_rows =
      std::min(m.output_rows_logical, 4.0e18);
  result.output->set_logical_rows(
      static_cast<int64_t>(std::llround(capped_rows)));
  m.output_bytes_logical = result.output->logical_bytes();
  return result;
}

}  // namespace mrtheta
