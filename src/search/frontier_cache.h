#ifndef GALVATRON_SEARCH_FRONTIER_CACHE_H_
#define GALVATRON_SEARCH_FRONTIER_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace galvatron {

/// One frontier column inside the shared breakpoint arrays, stored as a
/// VIEW of its transformation-class frontier: breakpoint i of the column is
/// class breakpoint `begin + i` with its units shifted by `shift` and its
/// cost biased by `bias`; the parent is the class breakpoint's own. `size`
/// is the cut — how many class breakpoints fit the build budget after the
/// shift. (A class frontier itself is a view with shift 0 and bias 0.)
struct DpColumnSpan {
  int64_t begin = 0;
  int32_t size = 0;
  int32_t shift = 0;  // the option's quantized resident units o(l, s)
  double bias = 0.0;  // the option's layer cost c(l, s)
};

/// The complete frontier state of one DpSearch::Run, cached so a
/// later Run over the same (layer range, candidates, batch, micro) signature
/// can answer directly from the frontiers instead of re-estimating costs and
/// re-merging columns.
///
/// The prefix property makes this exact: a Pareto column built at budget B
/// truncated to units <= U is identical — costs, parents, tie-breaks — to
/// the column built directly at any budget U <= B, because the merge never
/// lets a higher budget level influence a lower one. So one entry, stored at
/// the largest budget ever searched, serves every smaller budget with a
/// byte-identical plan (the serving daemon's near-miss workload: identical
/// requests except for the per-device memory budget).
///
/// The arrays hold the per-layer CLASS frontiers (structure-of-arrays, one
/// combined frontier per used transformation class and layer, plus one
/// (0, 0.0, -1) seed entry the layer-0 columns view), and
/// spans[layer * num_candidates + option] views one of them (see
/// DpColumnSpan). Entry i of that column has units bp_units[begin + i] +
/// shift, cost bp_cost[begin + i] + bias and parent bp_parent[begin + i].
/// Within a column, units strictly increase and cost never increases; for
/// budgets in [units_i, units_{i+1}) the best achievable cost is cost_i,
/// reached through predecessor option parent_i (-1 at layer 0). Equal-cost
/// entries record a handoff to a LOWER predecessor option index (the dense
/// kernel's tie-break), so reconstruction at any budget returns exactly the
/// dense parent. The option's resident units are its column's shift.
struct DpFrontierEntry {
  /// Budget (in granules, after transient headroom) the frontiers were
  /// built at. Lookups at most this many units reconstruct exactly.
  int budget_units = 0;
  /// Budget-independent transient headroom (2x the largest transient any
  /// option needs); re-derives budget_units for a new memory budget.
  int64_t max_transient = 0;
  int num_layers = 0;
  /// Candidate strategies before recompute expansion. The expanded option
  /// list needs no table: option o maps to strategy o < num_strategies
  /// ? o : o - num_strategies, with recompute set iff o >= num_strategies
  /// (the fixed option order of DpSearch::Run).
  int num_strategies = 0;
  int num_candidates = 0;  // expanded options, recompute variants included
  /// Class-frontier breakpoints and the column views over them (see above).
  std::vector<int32_t> bp_units;
  std::vector<double> bp_cost;
  std::vector<int32_t> bp_parent;
  std::vector<DpColumnSpan> spans;
  /// Telemetry carried over from the cold run that built the entry.
  int64_t options_pruned = 0;
};

/// A Run signature as a packed word sequence: everything that determines the
/// frontiers EXCEPT the memory budget (see DpFrontierEntry). Built once into
/// thread-local scratch by DpSearch::Run — no strings, no per-lookup heap.
/// Layer signatures enter as ids interned by the SharedCostCache the
/// frontier cache is paired with (see SearchHooks).
struct DpFrontierKey {
  std::vector<int32_t> words;
  size_t hash = 0;

  void Clear() {
    words.clear();
    hash = 0;
  }
  void Append(int32_t w) { words.push_back(w); }
  /// Computes the stored hash; call after the last Append and before any
  /// Lookup/Insert. (SplitMix64-style mix per word, matching the cost-cache
  /// keys' scheme.)
  void Finalize();

  friend bool operator==(const DpFrontierKey& a, const DpFrontierKey& b) {
    return a.hash == b.hash && a.words == b.words;
  }
};

struct DpFrontierKeyHash {
  size_t operator()(const DpFrontierKey& key) const { return key.hash; }
};

/// One lower-hull segment of a stage's LP bound, taken by every layer of
/// one distinct cost row: seconds saved per extra unit (negative), and the
/// units and seconds the segment adds across the row's layers.
struct DpLpSegment {
  double rate = 0.0;
  int64_t units = 0;
  double seconds = 0.0;
};

/// The budget-free facts of one stage-search signature (a DpFrontierKey):
/// everything the sweep's first pass asks of a stage at any memory budget.
/// DpSearch::StageFacts fills one; the stage table of DpFrontierCache
/// stores them.
struct DpStageFacts {
  /// Units of the assignment taking every layer's smallest option, summed
  /// (INT64_MAX when some layer has no option with finite seconds): some
  /// assignment fits a budget of U units iff min_units <= U.
  int64_t min_units = 0;
  /// Transient headroom reserved off every budget (2x the largest
  /// transient any option needs).
  int64_t max_transient = 0;
  /// The LP bound's budget-free part (see DpSearch::Bound): per distinct
  /// cost row, its layers at their smallest-units point, summed row by
  /// row; and the rows' lower-hull segments, steepest saving first. Empty
  /// when min_units is INT64_MAX.
  double base_seconds = 0.0;
  std::vector<DpLpSegment> segments;
  /// Per candidate strategy: the stage seconds and exact peak bytes of
  /// running every layer on it — ComposeStage's sums for this stage.
  std::vector<double> uniform_seconds;
  std::vector<int64_t> uniform_peak_bytes;
};

struct DpFrontierCacheStats {
  int64_t hits = 0;        // lookups answered from a cached frontier
  int64_t misses = 0;      // lookups that ran (or re-ran) the cold kernel
  int64_t insertions = 0;  // entries stored or widened to a larger budget
  int64_t evictions = 0;
  size_t size = 0;
  size_t capacity = 0;
  /// The stage table: entries held and the bytes its arrays reserve.
  size_t stage_entries = 0;
  size_t stage_bytes = 0;
};

/// Thread-safe LRU cache of DpFrontierEntry keyed by the Run signature
/// (layer range, candidate set, batch/micro shape, granularity — everything
/// EXCEPT the memory budget; see DpFrontierEntry). Entries are immutable
/// once published, handed out as shared_ptr so concurrent Runs read them
/// lock-free after the map lookup.
///
/// The cache knows nothing about models or clusters: the caller (a
/// PlanningContext) must only share one cache across Runs whose model,
/// cluster topology and estimator agree — the same contract SharedCostCache
/// documents. Only budget-like cluster differences (per-device memory) are
/// safe to vary, because per-layer costs never depend on the budget. Keys
/// carry ids interned by one SharedCostCache, so a frontier cache must
/// always be used with the same cost cache.
class DpFrontierCache {
 public:
  /// Default sized for a full Algorithm-1 sweep: one sweep issues a few
  /// hundred to ~2000 distinct Run signatures (per batch wave, PP degree,
  /// micro count and stage), and a near-miss request replays the same set.
  explicit DpFrontierCache(size_t capacity = 4096);

  DpFrontierCache(const DpFrontierCache&) = delete;
  DpFrontierCache& operator=(const DpFrontierCache&) = delete;

  /// Returns the entry for `key`, or nullptr. Does not count hit/miss —
  /// whether the entry is usable depends on the requested budget, which
  /// only the caller can check; it reports back via CountHit/CountMiss.
  std::shared_ptr<const DpFrontierEntry> Lookup(const DpFrontierKey& key);

  /// Publishes `entry` under `key`. Keeps whichever of the existing and the
  /// new entry covers the larger budget (frontiers only ever widen).
  void Insert(const DpFrontierKey& key,
              std::shared_ptr<const DpFrontierEntry> entry);

  void CountHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void CountMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  /// The stage table: one DpStageFacts per stage-search signature, under
  /// the frontier keys. FindStage copies the entry of `key` into `*facts`
  /// (reusing its capacity) and returns true, or returns false when the
  /// table holds none. InsertStage stores `facts` under `key` unless an
  /// entry is there; a table holding kMaxStageEntries is cleared first.
  /// Facts are pure functions of the key (the paired cost cache's
  /// contract), so concurrent fills of one key store equal entries.
  bool FindStage(const DpFrontierKey& key, DpStageFacts* facts) const;
  void InsertStage(const DpFrontierKey& key, const DpStageFacts& facts);

  /// Entries the stage table holds before it is cleared: a full sweep
  /// stores a few hundred to ~1,000 (ViT-Huge-32 at 24 GB: 1,009), each
  /// a few hundred bytes.
  static constexpr size_t kMaxStageEntries = 4096;

  DpFrontierCacheStats stats() const;

 private:
  using Entry =
      std::pair<DpFrontierKey, std::shared_ptr<const DpFrontierEntry>>;

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<DpFrontierKey, std::list<Entry>::iterator,
                     DpFrontierKeyHash>
      index_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  int64_t insertions_ = 0;
  int64_t evictions_ = 0;

  /// One stage-table entry: its key's hash and words, and its facts, as
  /// ranges of the flat arrays below.
  struct StageRecord {
    size_t hash = 0;
    uint32_t key_begin = 0;
    uint32_t key_size = 0;
    uint32_t row_begin = 0;
    uint32_t num_rows = 0;
    uint32_t segment_begin = 0;
    uint32_t num_segments = 0;
    int64_t min_units = 0;
    int64_t max_transient = 0;
    double base_seconds = 0.0;
  };
  /// The slot of `key` in stage_slots_: its record's or the empty one a
  /// probe for it ends at.
  size_t StageSlot(const DpFrontierKey& key) const;

  mutable std::mutex stage_mu_;
  std::vector<StageRecord> stage_records_;
  std::vector<int32_t> stage_key_words_;
  std::vector<double> stage_uniform_seconds_;
  std::vector<int64_t> stage_uniform_peaks_;
  std::vector<DpLpSegment> stage_segments_;
  /// Open-addressed index over stage_records_ (-1 = empty), a power of two
  /// at least twice the record count.
  std::vector<int32_t> stage_slots_;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_FRONTIER_CACHE_H_
