// Per-layer breakdown of a traced timed loop, computed from the spans the
// program records (src/obs/trace.h).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

/// Seconds per query unless noted otherwise.
struct LoopLayers {
  double map_s = 0.0;            ///< map-phase self time
  double shuffle_merge_s = 0.0;  ///< shuffle-merge self time
  double reduce_s = 0.0;         ///< reduce-phase self time
  double reduce_cpu_s = 0.0;     ///< Σ reduce-task spans
  double job_build_s = 0.0;      ///< plan-job minus its phase spans
  double finish_s = 0.0;         ///< execute minus the plan-job spans
  /// Σ over reduce phases of the slowest task / Σ of the median task.
  double reduce_task_max_over_p50 = 0.0;
  /// Execute spans in start order (for the single-stream API overhead).
  std::vector<double> execute_s;
  double spans = 0.0;            ///< recorded spans per query
};

/// Aggregates `events` of a loop that completed `queries` queries.
/// With `one_query_at_a_time`, a span belongs to an enclosing span by time
/// alone (tasks run on pool threads); otherwise queries overlap, each runs
/// on its own thread, and enclosing spans must share the thread too.
LoopLayers AnalyzeLoop(const std::vector<mrtheta::TraceEvent>& events,
                       int64_t queries, bool one_query_at_a_time);

/// Σ duration (seconds) of the spans called `name`.
double SpanSeconds(const std::vector<mrtheta::TraceEvent>& events,
                   const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
