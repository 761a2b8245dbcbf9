#include "src/mem/shuffle_spool.h"

#include <algorithm>
#include <new>
#include <queue>
#include <utility>

#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {

// Buckets smaller than this are not worth a spill run: the freed memory is
// tiny and every run adds a merge source. With 40-byte records this is
// ~2.5 KiB — well under any budget that can hold a page. The guard also
// bounds the spool's unspillable floor at RN * kMinSpillRecords records
// (the early-shuffle regime where every bucket is still small), so it must
// stay small relative to budget / RN for peak memory to track the budget.
constexpr int64_t kMinSpillRecords = 64;

// Records read per merge source refill (~20 KiB buffers).
constexpr int64_t kMergeBufferRecords = 512;

// The reduce-side order: RunReduceTask's exact comparator. Ties are fully
// identical records by the emit contract, so this order is total for
// observable purposes.
bool RecordLess(const MapOutputRecord& a, const MapOutputRecord& b) {
  if (a.key != b.key) return a.key < b.key;
  if (a.tag != b.tag) return a.tag < b.tag;
  return a.row < b.row;
}

constexpr int64_t kRecordBytes = static_cast<int64_t>(sizeof(MapOutputRecord));

// Records charged per step as an exact bucket fills (~2.5 KiB): one
// ledger update per step instead of per record.
constexpr size_t kChargeRecords = 64;

}  // namespace

ShuffleSpool::ShuffleSpool(int num_tasks, int64_t spill_limit_bytes,
                           SpillDirectory* dir)
    : buckets_(static_cast<size_t>(std::max(num_tasks, 0))),
      spill_limit_bytes_(spill_limit_bytes),
      spill_dir_(dir) {}

ShuffleSpool::~ShuffleSpool() {
  MutexLock lock(&partition_mu_);
  for (Bucket& bucket : buckets_) UnchargeBucket(bucket);
}

void ShuffleSpool::ChargedPush(Bucket& bucket, const MapOutputRecord& rec) {
  if (bucket.records.size() == bucket.records.capacity()) {
    const size_t new_cap =
        std::max<size_t>(64, bucket.records.capacity() * 2);
    bucket.records.reserve(new_cap);  // may throw; caller catches
  }
  bucket.records.push_back(rec);
  // Doubling buckets are charged their capacity, exact ones as they fill,
  // kChargeRecords at a time.
  const size_t charged = bucket.charged_records;
  if (bucket.records.size() > charged) {
    const size_t cap = bucket.records.capacity();
    const size_t now =
        bucket.exact ? std::min(charged + kChargeRecords, cap) : cap;
    MemoryBudget::Global().Charge(static_cast<int64_t>(now - charged) *
                                  kRecordBytes);
    bucket.charged_records = now;
  }
}

void ShuffleSpool::UnchargeBucket(Bucket& bucket) {
  bucket.records = std::vector<MapOutputRecord>();
  MemoryBudget::Global().Uncharge(
      static_cast<int64_t>(bucket.charged_records) * kRecordBytes);
  bucket.charged_records = 0;
}

void ShuffleSpool::ReserveExact(const std::vector<int64_t>& task_records) {
  MutexLock lock(&partition_mu_);
  try {
    for (size_t t = 0; t < buckets_.size(); ++t) {
      buckets_[t].records.reserve(static_cast<size_t>(task_records[t]));
      buckets_[t].exact = true;
    }
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("shuffle partition reservation failed");
  }
}

void ShuffleSpool::Append(int task, const MapOutputRecord& rec) {
  MutexLock lock(&partition_mu_);
  if (!status_.ok()) return;
  if (task < 0 || task >= static_cast<int>(buckets_.size())) {
    status_ = Status::Internal("shuffle record targets task " +
                               std::to_string(task) + " of " +
                               std::to_string(buckets_.size()));
    return;
  }
  try {
    ChargedPush(buckets_[static_cast<size_t>(task)], rec);
  } catch (const std::bad_alloc&) {
    status_ = Status::ResourceExhausted("shuffle partition growth failed");
    return;
  }
  if (spill_dir_ != nullptr && spill_limit_bytes_ > 0 &&
      MemoryBudget::Global().OverBudget(spill_limit_bytes_)) {
    MaybeSpill();
  }
}

void ShuffleSpool::MaybeSpill() {
  while (status_.ok() &&
         MemoryBudget::Global().OverBudget(spill_limit_bytes_)) {
    // Largest bucket first (ties: lowest index) — frees the most memory
    // per run and keeps run counts low for the merge.
    Bucket* victim = nullptr;
    for (Bucket& bucket : buckets_) {
      if (bucket.records.size() < static_cast<size_t>(kMinSpillRecords)) {
        continue;
      }
      if (victim == nullptr ||
          bucket.records.size() > victim->records.size()) {
        victim = &bucket;
      }
    }
    // Everything resident is tiny; the pressure comes from other holders
    // (map emitters, reduce materializations) that spill on their own.
    if (victim == nullptr) return;
    Status s = SpillBucket(*victim);
    if (!s.ok()) status_ = std::move(s);
  }
}

Status ShuffleSpool::SpillBucket(Bucket& bucket) {
  if (!spill_file_.has_value()) {
    StatusOr<SpillFile> file = SpillFile::Create(*spill_dir_);
    if (!file.ok()) return file.status();
    spill_file_ = *std::move(file);
  }
  TraceSpan span("spill-write", "mem");
  // Sorting before the write is what makes the segment a mergeable run —
  // and what lets the reduce side skip its own sort entirely.
  std::sort(bucket.records.begin(), bucket.records.end(), RecordLess);
  Run run;
  run.offset_bytes = spill_file_->bytes_written();
  run.count = static_cast<int64_t>(bucket.records.size());
  const int64_t bytes = run.count * kRecordBytes;
  MRTHETA_RETURN_IF_ERROR(spill_file_->Append(bucket.records.data(), bytes));
  try {
    bucket.runs.push_back(run);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("shuffle run index growth failed");
  }
  spill_bytes_ += bytes;
  if (span.enabled()) span.Arg("bytes", bytes);
  UnchargeBucket(bucket);
  return Status::OK();
}

Status ShuffleSpool::FinishWrites() {
  {
    MutexLock lock(&partition_mu_);
    MRTHETA_RETURN_IF_ERROR(status_);
  }
  // spill_file_ is frozen from here on (single writer, and Append latches
  // errors before ever reaching it again); Finish outside the lock.
  if (spill_file_.has_value()) return spill_file_->Finish();
  return Status::OK();
}

StatusOr<ShuffleSpool::MaterializedTask> ShuffleSpool::MaterializeTask(
    int task, std::vector<MapOutputRecord>* merged) {
  // The lock only orders this lookup after the Append phase; the bucket
  // is then used outside it (see the header: only this task touches it),
  // so concurrent reduce tasks sort and merge in parallel. The merge reads
  // spill_file_, which is frozen after FinishWrites (see the member
  // comment).
  Bucket* bucket = nullptr;
  {
    MutexLock lock(&partition_mu_);
    if (task < 0 || task >= static_cast<int>(buckets_.size())) {
      return Status::Internal("materialize of unknown shuffle task " +
                              std::to_string(task));
    }
    bucket = &buckets_[static_cast<size_t>(task)];
  }
  if (bucket->runs.empty()) return MaterializedTask{&bucket->records, false};

  TraceSpan span("spill-merge", "mem");
  std::vector<MapOutputRecord>& out = *merged;
  out.clear();
  try {
    int64_t total = static_cast<int64_t>(bucket->records.size());
    for (const Run& run : bucket->runs) total += run.count;
    out.reserve(static_cast<size_t>(total));

    // One merge source per spilled run plus the sorted in-memory tail.
    struct Source {
      std::optional<SpillFile::Reader> reader;  // null for the tail
      std::vector<MapOutputRecord> buffer;      // refilled from `reader`
      const MapOutputRecord* next = nullptr;    // unread [next, end)
      const MapOutputRecord* end = nullptr;

      bool Exhausted() const { return next == end; }
      Status Refill() {
        if (reader == std::nullopt) return Status::OK();  // tail never refills
        buffer.resize(static_cast<size_t>(kMergeBufferRecords));
        StatusOr<int64_t> got =
            reader->Read(buffer.data(), kMergeBufferRecords * kRecordBytes);
        MRTHETA_RETURN_IF_ERROR(got.status());
        buffer.resize(static_cast<size_t>(*got / kRecordBytes));
        next = buffer.data();
        end = next + buffer.size();
        return Status::OK();
      }
    };
    // Reserved up front: sources point into their own buffers, so the
    // vector must never reallocate.
    std::vector<Source> sources;
    sources.reserve(bucket->runs.size() + 1);
    for (const Run& run : bucket->runs) {
      StatusOr<SpillFile::Reader> reader =
          spill_file_->OpenReader(run.offset_bytes, run.count * kRecordBytes);
      if (!reader.ok()) return reader.status();
      Source& src = sources.emplace_back();
      src.reader = *std::move(reader);
      MRTHETA_RETURN_IF_ERROR(src.Refill());
    }
    {
      std::sort(bucket->records.begin(), bucket->records.end(), RecordLess);
      Source& tail = sources.emplace_back();
      tail.next = bucket->records.data();
      tail.end = tail.next + bucket->records.size();
    }

    // K-way merge. The heap holds source indices ordered by each source's
    // current head record; source index breaks exact ties, which (with the
    // identical-ties contract) fixes one deterministic merge order.
    auto heap_greater = [&sources](size_t a, size_t b) {
      const MapOutputRecord& ra = *sources[a].next;
      const MapOutputRecord& rb = *sources[b].next;
      if (RecordLess(ra, rb)) return false;
      if (RecordLess(rb, ra)) return true;
      return a > b;
    };
    std::vector<size_t> heap;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].Exhausted()) heap.push_back(i);
    }
    std::make_heap(heap.begin(), heap.end(), heap_greater);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_greater);
      const size_t i = heap.back();
      heap.pop_back();
      Source& src = sources[i];
      out.push_back(*src.next++);
      if (src.Exhausted()) {
        MRTHETA_RETURN_IF_ERROR(src.Refill());
      }
      if (!src.Exhausted()) {
        heap.push_back(i);
        std::push_heap(heap.begin(), heap.end(), heap_greater);
      }
    }
    if (span.enabled()) span.Arg("records", total);
    return MaterializedTask{merged, true};
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "materializing shuffle task " + std::to_string(task) + " (" +
        std::to_string(out.size()) + " merged records, " +
        std::to_string(bucket->runs.size()) + " spilled runs) failed");
  }
}

void ShuffleSpool::ReleaseTask(int task) {
  MutexLock lock(&partition_mu_);
  if (task < 0 || task >= static_cast<int>(buckets_.size())) return;
  UnchargeBucket(buckets_[static_cast<size_t>(task)]);
}

}  // namespace mrtheta
