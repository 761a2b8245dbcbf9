#include "perfbench/layers.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>

namespace perfbench {

using mrtheta::TraceEvent;

namespace {

struct Span {
  double start = 0.0;  // microseconds
  double end = 0.0;
  const TraceEvent* event = nullptr;
};

// The spans named any of `names`, sorted by start, overall and per thread.
class SpanIndex {
 public:
  SpanIndex(const std::vector<TraceEvent>& events,
            std::initializer_list<const char*> names) {
    for (const TraceEvent& ev : events) {
      for (const char* name : names) {
        if (std::strcmp(ev.name, name) != 0) continue;
        const Span span{ev.ts_us, ev.ts_us + ev.dur_us, &ev};
        all_.push_back(span);
        by_tid_[ev.tid].push_back(span);
      }
    }
    auto by_start = [](const Span& a, const Span& b) {
      return a.start < b.start;
    };
    std::sort(all_.begin(), all_.end(), by_start);
    for (auto& [tid, spans] : by_tid_) {
      std::sort(spans.begin(), spans.end(), by_start);
    }
  }

  const std::vector<Span>& all() const { return all_; }

  // The spans inside `parent`'s interval; restricted to its thread unless
  // `any_thread`.
  std::vector<Span> Within(const Span& parent, bool any_thread) const {
    static const std::vector<Span> kNone;
    const std::vector<Span>* pool = &all_;
    if (!any_thread) {
      auto it = by_tid_.find(parent.event->tid);
      pool = it == by_tid_.end() ? &kNone : &it->second;
    }
    std::vector<Span> out;
    auto it = std::lower_bound(
        pool->begin(), pool->end(), parent.start,
        [](const Span& s, double t) { return s.start < t; });
    for (; it != pool->end() && it->start <= parent.end; ++it) {
      if (it->end <= parent.end && it->event != parent.event) {
        out.push_back(*it);
      }
    }
    return out;
  }

 private:
  std::vector<Span> all_;
  std::map<int, std::vector<Span>> by_tid_;
};

// Length of the union of `children` (sorted by start), in microseconds.
double Covered(const std::vector<Span>& children) {
  double covered = 0.0;
  double reach = -1.0;
  for (const Span& c : children) {
    const double from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

// Σ over `parents` of duration minus the union of enclosed `children`.
double SelfMicros(const SpanIndex& parents, const SpanIndex& children,
                  bool any_thread) {
  double total = 0.0;
  for (const Span& p : parents.all()) {
    total += (p.end - p.start) - Covered(children.Within(p, any_thread));
  }
  return total;
}

std::string ArgOf(const TraceEvent& ev, const char* key) {
  for (const auto& arg : ev.args) {
    if (arg.key == key) return arg.value;
  }
  return "";
}

}  // namespace

double SpanSeconds(const std::vector<TraceEvent>& events, const char* name) {
  double total = 0.0;
  for (const TraceEvent& ev : events) {
    if (std::strcmp(ev.name, name) == 0) total += ev.dur_us;
  }
  return total * 1e-6;
}

LoopLayers AnalyzeLoop(const std::vector<TraceEvent>& events,
                       int64_t queries, bool one_query_at_a_time) {
  LoopLayers out;
  if (queries <= 0) return out;
  const double per_query = 1e-6 / static_cast<double>(queries);
  const bool any = one_query_at_a_time;

  // Phase self time: the phase minus the memory layer's spill spans nested
  // in it. The phase's own task spans are its work, not a child layer's.
  const SpanIndex spills(events, {"spill-write", "spill-merge"});
  const SpanIndex map_phase(events, {"map-phase"});
  const SpanIndex shuffle(events, {"shuffle-merge"});
  const SpanIndex reduce_phase(events, {"reduce-phase"});
  out.map_s = SelfMicros(map_phase, spills, any) * per_query;
  out.shuffle_merge_s = SelfMicros(shuffle, spills, any) * per_query;
  out.reduce_s = SelfMicros(reduce_phase, spills, any) * per_query;
  out.reduce_cpu_s = SpanSeconds(events, "reduce-task") / queries;

  // A job's phases run on the thread that runs its plan-job span.
  const SpanIndex phases(events, {"map-phase", "shuffle-merge",
                                  "reduce-phase"});
  const SpanIndex plan_jobs(events, {"plan-job"});
  out.job_build_s = SelfMicros(plan_jobs, phases, false) * per_query;
  const SpanIndex executes(events, {"execute"});
  out.finish_s = SelfMicros(executes, plan_jobs, any) * per_query;
  for (const Span& e : executes.all()) {
    out.execute_s.push_back((e.end - e.start) * 1e-6);
  }

  const SpanIndex reduce_tasks(events, {"reduce-task"});
  double max_sum = 0.0;
  double p50_sum = 0.0;
  for (const Span& phase : reduce_phase.all()) {
    const std::string job = ArgOf(*phase.event, "job");
    std::vector<double> durations;
    for (const Span& task : reduce_tasks.Within(phase, any)) {
      if (ArgOf(*task.event, "job") == job) {
        durations.push_back(task.end - task.start);
      }
    }
    if (durations.empty()) continue;
    std::sort(durations.begin(), durations.end());
    max_sum += durations.back();
    p50_sum += durations[(durations.size() - 1) / 2];
  }
  out.reduce_task_max_over_p50 = p50_sum > 0.0 ? max_sum / p50_sum : 0.0;
  out.spans = static_cast<double>(events.size()) / queries;
  return out;
}

}  // namespace perfbench
