#pragma once
// Multi-model serving registry — one process, every model family.
//
// A DetectorRegistry maps string keys to `.hmdf` model artifacts on disk
// (core/model_artifact.h) and hands out shared_ptr snapshots of the
// serving-only detectors reconstructed from them:
//
//   - registration is cheap: add() / add_directory() record paths only;
//     an artifact is loaded lazily on the first get() of its key.
//   - get() is a snapshot lookup: the returned shared_ptr pins that
//     version of the detector for as long as the caller holds it, so
//     in-flight batches are never invalidated by a swap (or, at fleet
//     scale, by an eviction — see residency below).
//   - refresh() re-stats the *resident* artifacts and reloads the ones
//     whose identity (inode, mtime, size) changed — the field-update
//     story of Kuruvila et al. (arXiv:2005.03644): a retrained artifact
//     dropped over the old file (save_model's temp-file + rename keeps
//     that atomic, gives the replacement a fresh inode, and leaves
//     mappings of the old inode intact for in-flight snapshots) is
//     picked up without a restart and without dropping traffic on the
//     old version. An artifact that went missing or unreadable keeps
//     its last good snapshot — a registry never serves worse than it
//     already does.
//
// ## Fleet scale: sharded keys, filter front door, bounded residency
//
// The key store is a sharded map (fleet/sharded_map.h): N independently
// locked shards selected by key hash, so registration and first-touch
// lookups of distinct keys never serialise behind one global mutex. In
// front of it sits a dynamic cuckoo filter (fleet/cuckoo_filter.h):
// get()/try_get()/contains() of a key that was never registered is
// answered O(1) from the filter without touching any shard lock — the
// filter has no false negatives, and its false positives merely fall
// through to the exact map. Filter maintenance rides registration
// (add() inserts, remove() erases); answers are always exact. Key churn
// — registering and removing transient keys — grows the filter without
// ever shrinking it, so once enough erases accumulate (relative to the
// live key count) remove() rebuilds the filter from the live key set
// into one right-sized segment; rebuild_filter() forces the same
// compaction on demand. Registration and rebuild are ordered by a
// shared/exclusive maintenance lock: add()/remove() hold it shared (so
// they still run concurrently with each other), a rebuild holds it
// exclusive — the rebuilt filter can therefore never miss a key whose
// registration raced it. Lock-free probes are never excluded; they
// retry through the filter's seqlock during the swap.
//
// A byte budget (FleetOptions::residency_budget_bytes, hmd_serve
// --residency-mb) bounds how much artifact data stays resident: when a
// load pushes the total over, the coldest unleased entries are unmapped
// (fleet/residency.h). Eviction drops only the detector — the key stays
// registered, its health history (including quarantine state) is kept,
// and the next get() transparently reloads. An entry whose snapshot is
// held by an in-flight batch is lease-pinned and never evicted.
//
// ## refresh() contract at fleet scale
//
// refresh() is O(resident set), not O(registered keys): it re-stats only
// the entries currently holding a detector. Never-loaded keys stay lazy
// and *evicted* keys are verified lazily instead — their next get()
// re-stats and reloads from disk anyway, so a swap under an evicted key
// is picked up at first use without refresh() paying a stat() per
// registered key across a million-key fleet.
//
// ## Locking: loads happen OUTSIDE the map locks
//
// Shard locks only guard key → entry slots; artifact I/O never runs
// under them. Each entry carries its own two-mutex loading state:
//
//   - `state_mutex` (leaf lock, held for pointer reads/writes only)
//     guards the published snapshot + stat;
//   - `load_mutex` serialises loads *of that entry alone* and is held
//     across the artifact read.
//
// A load never includes a JIT compile: a forest the JIT policy accepts
// is published serving its interpreted arena kernels and compiles on
// the background JIT worker (jit/jit.h), so a hot-swap or a reload after
// eviction is back in service after map + verify + parse. Dropping a
// snapshot whose compile is still pending (swap, eviction, remove())
// cancels it; the drop waits at most for the one tree being emitted.
//
// get() is double-checked: a snapshot read under state_mutex first
// (loaded entries never touch load_mutex), then load_mutex + re-check,
// so a load happens at most once per concurrent wave of callers — and a
// slow load of key A never blocks get("B"): B's callers take B's locks
// only. refresh() follows the same discipline per entry, so it cannot
// stall lookups of other keys either. add() re-pointing a live key
// installs a *fresh* entry, so an in-flight load of the old path can
// only ever publish into the orphaned entry, never into the new one.
//
// ## Failure handling: retry, quarantine, degrade — never crash serving
//
// Every load attempt resolves to a typed LoadError (common/error.h).
// The registry's response depends on the error's class:
//
//   - *transient* codes (io / truncated / mmap-failed — a publish caught
//     mid-write, a flaky filesystem) are retried inside the load
//     operation with exponential backoff + jitter (RetryPolicy), bounded
//     by max_attempts;
//   - kMmapFailed additionally falls back to one stream-mode load before
//     counting as a failure — a filesystem without working mmap demotes
//     the entry to copied bytes, it does not take the model down;
//   - *persistent* codes (checksum / bad-magic / bad-version /
//     bad-structure) fail the operation immediately — the bytes are
//     wrong and re-reading them cannot help.
//
// A failed operation leaves the last good snapshot serving (kDegraded);
// quarantine_after consecutive failures quarantine the entry: get() on
// a quarantined key with no snapshot (never loaded, or evicted) fails
// fast on the cached error (no I/O), refresh() skips the entry
// entirely, and after quarantine_ms the next get()/refresh() re-probes
// — one real load attempt that either heals the entry or re-arms the
// quarantine. Failed loads never update the recorded artifact stat, so
// a repaired file is always seen as changed. health() exposes the whole
// state machine per key.
//
// All members are safe to call concurrently (the policy/loader setters
// excepted; see their comments).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "fleet/cuckoo_filter.h"
#include "fleet/fleet.h"
#include "fleet/residency.h"
#include "fleet/sharded_map.h"

namespace hmd::api {

/// On-disk identity of an artifact, used to detect swaps. All-zero means
/// "unreachable". The inode distinguishes rename-published replacements
/// whose size and mtime quantum both match the old file.
struct ArtifactStat {
  std::uint64_t inode = 0;
  std::int64_t mtime_ns = 0;
  std::uintmax_t bytes = 0;

  friend bool operator==(const ArtifactStat&, const ArtifactStat&) = default;
};

/// How the registry responds to failing loads (see file header). The
/// defaults retry a torn-publish-sized window (~10 + 40 ms) and
/// quarantine after three consecutive failed operations for five
/// seconds.
struct RetryPolicy {
  /// Attempts per load operation (first try included). Only transient
  /// errors are retried; persistent ones fail the operation on attempt 1.
  int max_attempts = 3;
  int initial_backoff_ms = 10;
  /// Each retry multiplies the backoff by this, capped at max_backoff_ms.
  int backoff_multiplier = 4;
  int max_backoff_ms = 250;
  /// Every sleep is scaled by a uniform draw from [1 - jitter, 1], so a
  /// fleet of entries failing together does not re-probe in lockstep.
  double jitter = 0.5;
  /// Consecutive failed operations before the entry is quarantined;
  /// <= 0 disables quarantine (every get()/refresh() probes).
  int quarantine_after = 3;
  /// How long a quarantined entry refuses probes before re-trying.
  int quarantine_ms = 5000;
};

enum class HealthState : std::uint8_t {
  kHealthy = 0,   ///< last load operation succeeded (or never needed)
  kDegraded,      ///< failing, below the quarantine threshold
  kQuarantined,   ///< failing repeatedly; probes gated by quarantine_ms
};

inline const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

/// Point-in-time health snapshot of one registry entry.
struct ModelHealth {
  std::string key;
  HealthState state = HealthState::kHealthy;
  /// True when a snapshot is being served (possibly an old one: a
  /// degraded entry with loaded=true is serving last-good). False for an
  /// evicted entry — loads_ok > 0 with loaded == false means evicted.
  bool loaded = false;
  std::uint64_t loads_ok = 0;
  std::uint64_t loads_failed = 0;  ///< failed operations (post-retry)
  std::uint64_t retries = 0;       ///< extra attempts inside operations
  /// Times this entry's detector was unmapped by the residency sweep.
  std::uint64_t evictions = 0;
  int consecutive_failures = 0;
  /// Code/what() of the most recent failure; meaningful when
  /// loads_failed > 0 (last_error empty otherwise).
  LoadErrorCode last_error_code = LoadErrorCode::kIo;
  std::string last_error;
  /// The served snapshot's batch-kernel backend ("jit" / "arena" /
  /// "stream-fallback"; see InferenceEngine::kernel_backend). Empty when
  /// nothing is loaded. A fresh load — first get(), hot-swap or reload
  /// after eviction — reports the interpreter until its background JIT
  /// compile installs native kernels (jit/jit.h), then "jit".
  std::string kernel_backend;
};

class DetectorRegistry {
 public:
  /// Loader signature: reconstruct a detector from an artifact path.
  /// Replaceable for tests (e.g. to make one key's load slow and prove
  /// it does not block the others).
  using Loader = std::function<std::shared_ptr<const core::TrustedHmd>(
      const std::string& path, int n_threads)>;

  /// `n_threads` sizes every loaded detector's serving thread pool
  /// (<= 0 = all cores) and `mode` how artifact bytes are materialised
  /// (mmap by default), exactly like core::load_model.
  /// `fleet` sizes the key shards, the filter front door, and the
  /// residency budget (defaults: 16 shards, filter on, unbounded).
  explicit DetectorRegistry(int n_threads = 0,
                            core::LoadMode mode = core::LoadMode::kAuto,
                            fleet::FleetOptions fleet = {});

  /// Register (or re-point) `key` at an artifact path. No I/O happens
  /// until the first get(); re-pointing an existing key installs a fresh
  /// unloaded entry so the next get() loads from the new path.
  void add(const std::string& key, const std::string& path);

  /// Register every `*.hmdf` in `dir`, keyed by file stem (e.g.
  /// "dvfs_RF_M100"). Returns the number of keys added or re-pointed;
  /// throws IoError when `dir` is not a directory.
  std::size_t add_directory(const std::string& dir);

  /// Unregister `key` (its artifact stays on disk; in-flight snapshots
  /// stay valid). Returns false when the key was not registered. Every
  /// kFilterRebuildFloor-th erase (at least) checks churn and may
  /// compact the filter — see rebuild_filter().
  bool remove(const std::string& key);

  /// Compact the cuckoo filter front door: re-insert exactly the live
  /// key set into one right-sized segment, shedding the stale slack and
  /// stacked segments that key churn accumulates. Called automatically
  /// by remove() once erases since the last rebuild reach the live key
  /// count (with a floor of kFilterRebuildFloor, so small registries
  /// never thrash); callable any time. No-op when the filter is off.
  void rebuild_filter();

  /// Erases before remove() considers an automatic filter rebuild.
  static constexpr std::uint64_t kFilterRebuildFloor = 256;

  /// Snapshot lookup. Loads the artifact on first use — and transparently
  /// *re*loads an evicted entry — with the retry / fallback discipline in
  /// the file header; throws IoError on an unknown key and LoadError on a
  /// failed load — a quarantined key with no snapshot fails fast on its
  /// cached error without touching the filesystem. The snapshot stays
  /// valid (and bit-stable) however many refresh() swaps or evictions
  /// happen after it.
  std::shared_ptr<const core::TrustedHmd> get(const std::string& key);

  /// get() that returns nullptr for unknown keys instead of throwing
  /// (load failures still throw). An unknown key is typically rejected by
  /// the filter front door without touching any shard lock.
  std::shared_ptr<const core::TrustedHmd> try_get(const std::string& key);

  /// Re-stat every *resident* artifact and hot-swap the changed ones
  /// (see "refresh() contract at fleet scale" in the file header).
  /// Returns the keys that were reloaded, sorted. Never-loaded keys stay
  /// lazy; evicted keys verify lazily on their next get(); quarantined
  /// keys are skipped until their TTL expires; vanished or unreadable
  /// artifacts keep serving their last good snapshot. Loads run outside
  /// the map locks, so a refresh never stalls get() of other keys.
  std::vector<std::string> refresh();

  /// Health snapshots for every key (sorted by key), or for one key
  /// (throws IoError when unknown). Lock-cheap: per-entry leaf locks
  /// only, no I/O.
  std::vector<ModelHealth> health() const;
  ModelHealth health(const std::string& key) const;

  /// Registered keys, sorted.
  std::vector<std::string> keys() const;

  /// The artifact path registered for `key` (the one refresh() re-stats);
  /// throws IoError on an unknown key.
  std::string path(const std::string& key) const;

  std::size_t size() const;

  /// Exact membership. Negative answers normally come from the filter
  /// front door — O(1), no shard lock; positives (and filter false
  /// positives) are confirmed against the exact map.
  bool contains(std::string_view key) const;

  /// Aggregate fleet accounting: key/shard counts, filter occupancy and
  /// rejection tally, residency budget/evictions.
  fleet::FleetStats fleet_stats() const;

  /// Adjust the resident-artifact byte budget at runtime (0 = unbounded).
  /// Shrinking sweeps immediately.
  void set_residency_budget_bytes(std::size_t bytes);

  /// Replace the artifact loader (test seam; defaults to
  /// core::load_model with this registry's LoadMode). Call before
  /// serving starts — it is not synchronised against in-flight loads.
  void set_loader_for_testing(Loader loader) { loader_ = std::move(loader); }

  /// Replace the failure-handling policy. Like the loader seam: call
  /// before serving starts, not synchronised against in-flight loads.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  const RetryPolicy& retry_policy() const { return policy_; }

  /// How this registry materialises artifact bytes.
  core::LoadMode load_mode() const { return load_mode_; }

 private:
  struct Entry : fleet::ResidencyManager::Resident {
    Entry(std::string entry_key, std::string artifact_path)
        : key(std::move(entry_key)), path(std::move(artifact_path)) {}

    const std::string key;   ///< for the residency sweep / refresh()
    const std::string path;  ///< immutable; re-pointing makes a new Entry

    /// Serialises loads of this entry only; held across artifact I/O
    /// (and across the in-operation retry sleeps).
    std::mutex load_mutex;
    /// Leaf lock for the published fields below (pointer-copy critical
    /// sections only — never held across I/O, never while taking
    /// another lock).
    mutable std::mutex state_mutex;
    ArtifactStat stat;
    std::shared_ptr<const core::TrustedHmd> detector;  ///< null until loaded
    /// Footprint admitted to the residency tracker (meaningful while
    /// detector != nullptr; guarded by state_mutex).
    std::size_t resident_bytes = 0;

    /// LRU use stamp (registry clock value of the last get() touch).
    std::atomic<std::uint64_t> last_used{0};

    // Health state machine (all guarded by state_mutex).
    HealthState health = HealthState::kHealthy;
    std::uint64_t loads_ok = 0;
    std::uint64_t loads_failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t evictions = 0;
    int consecutive_failures = 0;
    LoadErrorCode last_error_code = LoadErrorCode::kIo;
    std::string last_error;
    /// Probes refused until this instant while health == kQuarantined.
    std::chrono::steady_clock::time_point quarantine_until{};

    // fleet::ResidencyManager::Resident — victim-selection stamp and the
    // lease-checked unmap (see detector_registry.cpp).
    std::uint64_t residency_last_used() const override {
      return last_used.load(std::memory_order_relaxed);
    }
    std::size_t residency_evict() override;
  };

  /// The published snapshot (null when not yet loaded / evicted).
  static std::shared_ptr<const core::TrustedHmd> snapshot(const Entry& entry);

  /// Load entry's artifact with retry/backoff/fallback, publish it, and
  /// admit it to the residency tracker — or record the failure (health
  /// bookkeeping, quarantine arming) and rethrow the final LoadError.
  /// Returns the freshly loaded detector: the caller's copy is what
  /// lease-pins the entry through the admit-triggered sweep, so a brand
  /// new load can never be evicted before its caller sees it. Caller
  /// holds entry->load_mutex (and no other lock). Records the stat taken
  /// *before* the read, so a file swapped mid-load is seen as changed by
  /// the next refresh() rather than missed; a failed operation leaves
  /// the stat untouched, so the next refresh() always retries a repaired
  /// file.
  std::shared_ptr<const core::TrustedHmd> load_entry(
      const std::shared_ptr<Entry>& entry) const;

  /// One physical load attempt: the registry.load failpoint, the loader,
  /// and the one-shot stream fallback on kMmapFailed.
  std::shared_ptr<const core::TrustedHmd> attempt_load(
      const std::string& path) const;

  /// The entry registered under `key`, or null (brief shard-lock lookup).
  std::shared_ptr<Entry> find_entry(std::string_view key) const;

  /// Stamp `entry` as just-used on the registry's LRU clock.
  void touch(Entry& entry) const;

  /// Fill a ModelHealth from one entry (takes the entry's leaf lock).
  static ModelHealth health_of(const std::string& key, const Entry& entry);

  int n_threads_ = 0;
  core::LoadMode load_mode_ = core::LoadMode::kAuto;
  Loader loader_;
  RetryPolicy policy_;
  fleet::ShardedKeyMap<std::shared_ptr<Entry>> entries_;
  /// Null when FleetOptions::filter is off.
  std::unique_ptr<fleet::DynamicCuckooFilter> filter_;
  /// Orders filter+map mutation against filter rebuilds: add()/remove()
  /// shared, rebuild_filter() exclusive (see the fleet-scale section of
  /// the file header). Never held across I/O.
  mutable std::shared_mutex filter_maintenance_;
  /// Successful erases since the last filter rebuild.
  std::atomic<std::uint64_t> filter_erases_{0};
  /// Striped: the front door rejects at memory speed across threads, so
  /// the tally must not serialise them on one cache line.
  mutable fleet::StripedCounter filter_rejects_;
  mutable fleet::ResidencyManager residency_;
  /// Monotonic LRU clock; each get() touch stamps its entry with the
  /// next tick.
  mutable std::atomic<std::uint64_t> use_clock_{0};
};

}  // namespace hmd::api
