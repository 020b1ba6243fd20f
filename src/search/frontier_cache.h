#ifndef GALVATRON_SEARCH_FRONTIER_CACHE_H_
#define GALVATRON_SEARCH_FRONTIER_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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
};

/// A Run signature as a packed word sequence: everything that determines the
/// frontiers EXCEPT the memory budget (see DpFrontierEntry). Built once into
/// thread-local scratch by each DpSearch stage search (Run, StageFacts) —
/// no strings, no per-lookup heap.
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
  /// Find/Insert. (SplitMix64-style mix per word, matching the cost-cache
  /// keys' scheme.)
  void Finalize();
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
/// DpSearch::StageFacts fills one; a DpFrontierCache record stores them.
struct DpStageFacts {
  /// Units of the assignment taking every layer's smallest option, summed
  /// (INT64_MAX when some layer has no option with finite seconds): some
  /// assignment fits a budget of U units iff min_units <= U.
  int64_t min_units = 0;
  /// Transient headroom reserved off every budget (2x the largest
  /// transient any option needs).
  int64_t max_transient = 0;
  /// The LP bound's budget-free part (see DpSearch::BoundStage): per
  /// distinct cost row, its layers at their smallest-units point, summed
  /// row by row; and the rows' lower-hull segments, steepest saving first.
  /// Empty when min_units is INT64_MAX.
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
  int64_t insertions = 0;  // frontiers stored or widened to a larger budget
  size_t size = 0;         // records holding a frontier
  /// All records, and the bytes the store's arrays reserve.
  size_t stage_entries = 0;
  size_t stage_bytes = 0;
};

/// Thread-safe store of one record per stage-search signature (a
/// DpFrontierKey: layer range, candidate set, batch/micro shape,
/// granularity — everything EXCEPT the memory budget). A record holds the
/// signature's DpStageFacts and, once a cold DpSearch::Run publishes one,
/// its frontier (see DpFrontierEntry), so a stage search makes one probe
/// for both. Frontiers are immutable once published and handed out as
/// shared_ptr: a reader keeps the one it took after the record is
/// replaced or the store cleared.
///
/// The store knows nothing about models or clusters: the caller (a
/// PlanningContext) must only share one store across searches whose
/// model, cluster topology and estimator agree — the same contract
/// SharedCostCache documents. Only budget-like cluster differences
/// (per-device memory) are safe to vary, because per-layer costs never
/// depend on the budget. Keys carry ids interned by one SharedCostCache,
/// so a store must always be used with the same cost cache.
class DpFrontierCache {
 public:
  DpFrontierCache() = default;
  DpFrontierCache(const DpFrontierCache&) = delete;
  DpFrontierCache& operator=(const DpFrontierCache&) = delete;

  /// Copies the facts of `key`'s record into `*facts` (reusing their
  /// capacity) and, when `frontier` is given, its frontier into
  /// `*frontier` (null until a Run publishes one), and returns true; false
  /// when the store holds no record. Counts no hit or miss: whether a
  /// frontier answers depends on the requested budget, which only the
  /// caller can check; it reports back via CountHit/CountMiss.
  bool Find(const DpFrontierKey& key, DpStageFacts* facts,
            std::shared_ptr<const DpFrontierEntry>* frontier) const;

  /// Stores `facts` under `key` unless a record is there, and `frontier`,
  /// when given, into the record unless it holds one built at a budget at
  /// least as large (frontiers only ever widen). A store holding
  /// kMaxStageEntries records is cleared whole before a new one is added.
  /// Facts and frontiers are pure functions of the key and the budget
  /// (the paired cost cache's contract), so concurrent fills of one key
  /// store equal records.
  void Insert(const DpFrontierKey& key, const DpStageFacts& facts,
              std::shared_ptr<const DpFrontierEntry> frontier = nullptr);

  void CountHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void CountMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  /// Records the store holds before it is cleared. A full sweep stores a
  /// few hundred to ~3,100 (BERT-Huge-32 with recompute on 8 TITAN GPUs at
  /// 16 GB: 3,128), each a few hundred bytes plus its frontier.
  static constexpr size_t kMaxStageEntries = 4096;

  DpFrontierCacheStats stats() const;

 private:
  /// One record: its key's hash and words and its facts, as ranges of the
  /// flat arrays below, and its frontier.
  struct Record {
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
    std::shared_ptr<const DpFrontierEntry> frontier;
  };
  /// The slot of `key` in slots_: its record's or the empty one a probe
  /// for it ends at.
  size_t Slot(const DpFrontierKey& key) const;
  /// Stores `frontier` into `record` unless it is null or not wider.
  void Widen(Record& record, std::shared_ptr<const DpFrontierEntry> frontier);

  mutable std::mutex mu_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  int64_t insertions_ = 0;
  size_t frontiers_ = 0;  // records holding a frontier
  std::vector<Record> records_;
  std::vector<int32_t> key_words_;
  std::vector<double> uniform_seconds_;
  std::vector<int64_t> uniform_peaks_;
  std::vector<DpLpSegment> segments_;
  /// Open-addressed index over records_ (-1 = empty), a power of two at
  /// least twice the record count.
  std::vector<int32_t> slots_;
};

}  // namespace galvatron

#endif  // GALVATRON_SEARCH_FRONTIER_CACHE_H_
