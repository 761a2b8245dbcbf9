#ifndef MRTHETA_MAPREDUCE_JOB_H_
#define MRTHETA_MAPREDUCE_JOB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/mem/memory_budget.h"
#include "src/mem/spill.h"
#include "src/relation/relation.h"

namespace mrtheta {

/// One record emitted by a Map task: a partition key plus a *reference* to a
/// physical tuple (tag = which input, row = row index). `rec_id` carries the
/// tuple's logical global ID (the paper's randomly assigned GlobalID) and
/// `bytes` the serialized size charged to the shuffle. `target` is the
/// record's reduce task, computed at emit time by the emitter's partitioner
/// (it fills what used to be struct padding, so records stay 40 bytes and
/// can be spilled to disk as raw POD).
struct MapOutputRecord {
  int64_t key = 0;
  int32_t tag = 0;
  int32_t target = 0;
  int64_t row = 0;
  int64_t rec_id = 0;
  int64_t bytes = 0;
};

/// Optional map-side combiner (docs/MEMORY.md): invoked once per input row
/// on the slice of records that row emitted, in emit order; it may drop,
/// rewrite or reorder records in place. The row boundary is the only
/// combine scope that is invariant across thread counts, split shapes and
/// budgets, which is what keeps combined runs deterministic.
using CombineFn = std::function<void(std::vector<MapOutputRecord>&)>;

/// Order-preserving duplicate elimination: keeps the first occurrence of
/// each fully identical record in a row's slice. The safe default
/// combiner — on specs that never emit duplicate records it is a no-op,
/// so outputs *and metrics* stay byte-identical with it enabled.
CombineFn MakeDedupCombiner();

/// Partitioner: maps a key to a reduce task in [0, num_reduce_tasks).
using PartitionFn = std::function<int(int64_t key, int num_reduce_tasks)>;

/// Default partitioner: mixed hash modulo n (Hadoop's HashPartitioner).
int HashPartition(int64_t key, int num_reduce_tasks);

/// \brief Collects Map outputs into fixed-size KV pages owned by the
/// process MemoryBudget, optionally flushing full pages to a spill file
/// when the budget is exceeded (docs/MEMORY.md).
///
/// Map functions call Emit once per (key, record); runners call EndRow()
/// after each input row (the combine/spill boundary) and stream the
/// records back in emit order with ForEach(). All failures — page
/// allocation, reservation, spill I/O, a partitioner out of range — latch
/// into status() and turn subsequent Emits into no-ops; runners surface
/// the latched status as the task's Status (kResourceExhausted for memory,
/// matching the hardened ReduceCollector::Emit) instead of aborting on
/// bad_alloc.
class MapEmitter {
 public:
  static constexpr int64_t kRecordsPerPage =
      MemoryBudget::kPageBytes / static_cast<int64_t>(sizeof(MapOutputRecord));

  MapEmitter() = default;
  MapEmitter(const MapEmitter&) = delete;
  MapEmitter& operator=(const MapEmitter&) = delete;
  MapEmitter(MapEmitter&& other) noexcept = default;
  MapEmitter& operator=(MapEmitter&& other) noexcept;
  ~MapEmitter() { Clear(); }

  /// Sets the partitioner evaluated at emit time; every record's `target`
  /// is its reduce task in [0, num_reduce_tasks). Must be called before
  /// the first Emit (runners do).
  void SetPartitioner(PartitionFn partition, int num_reduce_tasks) {
    partition_ = std::move(partition);
    num_reduce_tasks_ = num_reduce_tasks;
  }

  /// Installs the per-row combiner applied by EndRow(); null disables.
  void set_combine(CombineFn combine) { combine_ = std::move(combine); }

  /// Arms spilling: once the global budget's in-use bytes exceed
  /// `limit_bytes`, EndRow() flushes full pages to a file in `dir` (not
  /// owned; must outlive the emitter). Never armed = pure in-memory.
  void EnableSpill(int64_t limit_bytes, SpillDirectory* dir) {
    spill_limit_bytes_ = limit_bytes;
    spill_dir_ = dir;
  }

  void Emit(int64_t key, int32_t tag, int64_t row, int64_t rec_id,
            int64_t bytes) {
    if (!status_.ok()) return;
    int32_t target = 0;
    if (num_reduce_tasks_ > 0) {
      const int t = partition_(key, num_reduce_tasks_);
      if (t < 0 || t >= num_reduce_tasks_) {
        status_ = Status::Internal("partitioner returned task out of range");
        return;
      }
      target = t;
    }
    if (pages_.empty() || last_page_records_ == kRecordsPerPage) {
      if (!AddPage()) return;  // latched
    }
    MapOutputRecord* rec =
        PageRecords(pages_.back()) + last_page_records_++;
    rec->key = key;
    rec->tag = tag;
    rec->target = target;
    rec->row = row;
    rec->rec_id = rec_id;
    rec->bytes = bytes;
    ++size_;
  }

  /// Capacity hint: pre-sizes the page table for at least `records`
  /// entries. Advisory — a failed reservation latches kResourceExhausted
  /// into status() (surfaced as the task's Status) instead of aborting.
  void Reserve(size_t records);

  /// Row boundary: applies the combiner to the records the row emitted,
  /// then (when spilling is armed and the budget is exceeded) flushes
  /// full pages to disk. Runners call it after every spec.map invocation.
  void EndRow();

  /// Streams every record in emit order — the spilled prefix from disk,
  /// then the in-memory pages. Returns the latched status (or a read
  /// error) without invoking `fn` when the emitter is poisoned.
  Status ForEach(const std::function<void(const MapOutputRecord&)>& fn);

  /// Records emitted (post-combine), spilled or resident.
  int64_t size() const { return size_; }

  /// First latched error, or OK.
  const Status& status() const { return status_; }

  /// Bytes flushed to the spill file so far (0 = never spilled).
  int64_t spilled_bytes() const { return spilled_bytes_; }
  /// Spill files created by this emitter (0 or 1).
  int64_t spill_files() const { return spill_file_.has_value() ? 1 : 0; }

  /// Releases every page to the budget, removes the spill file, and
  /// resets the emitter to freshly constructed state (partitioner,
  /// combiner and spill arming included).
  void Clear();

 private:
  static MapOutputRecord* PageRecords(const MemoryBudget::PagePtr& page) {
    return reinterpret_cast<MapOutputRecord*>(page.get());
  }

  bool AddPage();       // latches on failure
  void ApplyCombine();  // combine_ over [row_mark_, size_)
  void SpillFullPages();

  std::vector<MemoryBudget::PagePtr> pages_;
  /// Records in pages_.back(); every earlier page is full. 0 iff empty.
  int64_t last_page_records_ = 0;
  int64_t size_ = 0;
  int64_t spilled_records_ = 0;  ///< prefix of emit order now on disk
  int64_t row_mark_ = 0;         ///< size() when the current row began
  Status status_;

  PartitionFn partition_;
  int num_reduce_tasks_ = 0;
  CombineFn combine_;
  std::vector<MapOutputRecord> combine_buf_;  // scratch for one row slice

  int64_t spill_limit_bytes_ = 0;
  SpillDirectory* spill_dir_ = nullptr;
  std::optional<SpillFile> spill_file_;
  int64_t spilled_bytes_ = 0;
};

/// Physical work of a join reducer: candidate tuples it bound and checked,
/// combinations that passed every condition, and assembled combinations
/// dropped because another reduce task owns their cell. Observability only:
/// the simulator never reads it (JobMeasurement is the simulated view).
struct ReducerWork {
  int64_t candidates_visited = 0;
  int64_t combinations_assembled = 0;
  int64_t ownership_rejects = 0;

  ReducerWork& operator+=(const ReducerWork& o) {
    candidates_visited += o.candidates_visited;
    combinations_assembled += o.combinations_assembled;
    ownership_rejects += o.ownership_rejects;
    return *this;
  }
  bool operator==(const ReducerWork&) const = default;
};

/// Collects Reduce outputs and CPU accounting.
class ReduceCollector {
 public:
  /// Latches kInvalidArgument up front when `output`'s schema has a
  /// column that is not int64 (a builder bug): every Emit is then a no-op.
  explicit ReduceCollector(Relation* output);

  /// Appends one result row of rids to the job's output relation (every
  /// reduce output schema is all-int64). A failed append — arity mismatch
  /// with the schema (a builder bug) or an allocation failure
  /// (kResourceExhausted) — latches the first error and turns subsequent
  /// Emits into no-ops; runners surface it as the task's Status.
  void Emit(const std::vector<int64_t>& row);

  /// Charges `n` *logical* tuple-pair comparisons to the current reduce
  /// task; drives the simulated CPU time of the task.
  void AddComparisons(double n) { comparisons_ += n; }

  /// Adds physical reducer work to the current reduce task.
  void AddWork(const ReducerWork& w) { work_ += w; }

  double comparisons() const { return comparisons_; }
  const ReducerWork& work() const { return work_; }
  int64_t rows_emitted() const { return rows_emitted_; }
  /// First append error, or OK.
  const Status& status() const { return status_; }

 private:
  Relation* output_;
  double comparisons_ = 0;
  ReducerWork work_;
  int64_t rows_emitted_ = 0;
  Status status_;
};

/// One input of a job. `scale` = logical_rows / physical_rows for this
/// input; executors use it to convert measured physical volumes into the
/// logical volumes the simulator clocks.
struct JobInput {
  RelationPtr relation;
  double scale = 1.0;

  int64_t logical_bytes() const { return relation->logical_bytes(); }
};

/// Context handed to the reduce function for one key group.
struct ReduceContext {
  int64_t key = 0;
  /// Records of this key group, partitioned by input tag (stable row order).
  const std::vector<std::vector<const MapOutputRecord*>>* by_tag = nullptr;
  /// The job's inputs, for tuple access by (tag, row).
  const std::vector<JobInput>* inputs = nullptr;

  const Relation& relation(int tag) const {
    return *(*inputs)[tag].relation;
  }
  const std::vector<const MapOutputRecord*>& records(int tag) const {
    return (*by_tag)[tag];
  }
};

/// Map function: invoked once per physical row of every input.
using MapFn = std::function<void(int tag, const Relation& rel, int64_t row,
                                 MapEmitter& out)>;

/// Reduce function: invoked once per distinct key, keys in ascending order.
using ReduceFn = std::function<void(const ReduceContext& ctx,
                                    ReduceCollector& out)>;

/// \brief Complete specification of one MapReduce job (MRJ).
struct MapReduceJobSpec {
  std::string name;
  std::vector<JobInput> inputs;
  MapFn map;
  ReduceFn reduce;
  /// RN(MRJ): the user-specified reduce task count — the scheduling
  /// parameter the paper optimizes.
  int num_reduce_tasks = 1;
  PartitionFn partition;  ///< defaults to HashPartition when null
  /// Optional map-side combiner, applied per input row (see CombineFn).
  /// Null = no combining. Executors set it from PlanJob::map_side_combine.
  CombineFn combine;
  Schema output_schema;
  std::string output_name = "out";
  /// Multiplier that converts physical output rows to logical output rows
  /// (the β-extrapolation rule; see DESIGN.md §1).
  double output_row_scale = 1.0;
  /// True for Hive/Pig-style jobs: pay text-SerDe parse/serialize costs and
  /// text-width-inflated intermediates (ClusterConfig::text_serde_*).
  bool text_serde = false;
  /// Reduce-side join kernel this job is *eligible* to run (see
  /// JoinKernelName in src/exec/theta_kernels.h) — observability only.
  /// Qualifying reduce groups use it; groups below the job's
  /// sort-kernel min-pairs gate always take the generic nested loop.
  std::string kernel = "generic";
  /// Expected Emit calls per input row, one entry per input (empty = 1.0
  /// for every input). Builders fill this from their replication factors so
  /// runners can pre-size MapEmitter buffers; a hint only — correctness
  /// never depends on it.
  std::vector<double> map_emits_per_row;

  double EmitsPerRow(int tag) const {
    return tag < static_cast<int>(map_emits_per_row.size())
               ? map_emits_per_row[tag]
               : 1.0;
  }
};

/// Physical + logical measurements of one executed job. All `*_logical`
/// volumes are what the simulator clocks; physical fields exist for tests.
struct JobMeasurement {
  int64_t input_bytes_logical = 0;
  int64_t input_bytes_physical = 0;
  int64_t map_output_bytes_logical = 0;
  int64_t map_output_records_physical = 0;
  std::vector<int64_t> reduce_input_bytes_logical;   // per reduce task
  std::vector<double> reduce_comparisons_logical;    // per reduce task
  int64_t output_rows_physical = 0;
  double output_rows_logical = 0;
  int64_t output_bytes_logical = 0;

  int64_t MaxReduceInputBytes() const;
};

}  // namespace mrtheta

#endif  // MRTHETA_MAPREDUCE_JOB_H_
