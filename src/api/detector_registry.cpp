#include "api/detector_registry.h"

#include <sys/stat.h>

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"

namespace hmd::api {

namespace {

namespace fs = std::filesystem;

/// Identity stat of `path` (zeroed when the file is unreachable). The
/// inode is the load-bearing field: save_model publishes via temp file +
/// rename, so every legitimate swap lands on a *new* inode even when the
/// replacement has the same byte count and an mtime inside the
/// filesystem's timestamp granularity (bagged linear artifacts of a fixed
/// (M, d) are always the same size). mtime + size still catch in-place
/// rewrites by foreign writers.
ArtifactStat stat_artifact(const std::string& path) {
  struct ::stat st = {};
  if (::stat(path.c_str(), &st) != 0 || st.st_size <= 0) return {};
#if defined(__APPLE__)
  const auto& mtime = st.st_mtimespec;  // BSD spelling of st_mtim
#else
  const auto& mtime = st.st_mtim;
#endif
  ArtifactStat out;
  out.inode = static_cast<std::uint64_t>(st.st_ino);
  out.mtime_ns = static_cast<std::int64_t>(mtime.tv_sec) * 1000000000 +
                 static_cast<std::int64_t>(mtime.tv_nsec);
  out.bytes = static_cast<std::uintmax_t>(st.st_size);
  return out;
}

/// Normalise any load failure to the typed taxonomy. Non-LoadError
/// exceptions (InvalidArgument for a rejected config, a foreign
/// std::exception from a custom loader) are content problems a re-read
/// cannot fix, so they classify as persistent kBadStructure.
LoadError as_load_error(const std::string& path, const std::exception& e) {
  if (const auto* typed = dynamic_cast<const LoadError*>(&e)) return *typed;
  return LoadError(LoadErrorCode::kBadStructure, path, e.what());
}

/// Backoff before retry number `completed_attempts + 1`: exponential,
/// capped, jittered by a uniform draw from [1 - jitter, 1] so entries
/// failing together do not re-probe in lockstep.
std::chrono::milliseconds backoff_delay(const RetryPolicy& policy,
                                        int completed_attempts) {
  double ms = static_cast<double>(std::max(0, policy.initial_backoff_ms));
  for (int i = 1; i < completed_attempts; ++i) {
    ms *= std::max(1, policy.backoff_multiplier);
    if (ms >= policy.max_backoff_ms) break;
  }
  ms = std::min(ms, static_cast<double>(std::max(0, policy.max_backoff_ms)));
  if (policy.jitter > 0.0) {
    // xorshift64*: no shared state, no <random> engine construction on a
    // path that exists to sleep anyway.
    thread_local std::uint64_t state =
        0x9E3779B97F4A7C15ull ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 1);
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const double u =
        static_cast<double>((state * 0x2545F4914F6CDD1Dull) >> 11) /
        static_cast<double>(std::uint64_t{1} << 53);
    ms *= 1.0 - std::min(1.0, policy.jitter) * u;
  }
  return std::chrono::milliseconds(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(ms)));
}

/// The residency ledger's idea of a detector's footprint: the flat
/// engine's arena (which for an mmap load *is* the mapped artifact
/// payload). Floor of 1 so even an exotic zero-reporting detector stays
/// visible to the eviction accounting.
std::size_t resident_footprint(const core::TrustedHmd& detector) {
  const std::size_t bytes =
      detector.uses_flat_engine() ? detector.engine().memory_bytes() : 0;
  return std::max<std::size_t>(1, bytes);
}

}  // namespace

std::size_t DetectorRegistry::Entry::residency_evict() {
  const std::lock_guard<std::mutex> lock(state_mutex);
  if (detector == nullptr) return 0;  // already evicted / never loaded
  // Lease check: a use_count above 1 means someone outside this entry
  // holds the snapshot (an in-flight batch, a caller mid-score). New
  // external references are only ever minted by snapshot() under this
  // same state_mutex, so the check cannot race a fresh lease.
  if (detector.use_count() > 1) return 0;
  const std::size_t freed = resident_bytes;
  detector.reset();  // unmap (last reference: the artifact drops here)
  resident_bytes = 0;
  ++evictions;
  // Health history (including quarantine state and the cached error)
  // deliberately survives eviction: a quarantined evicted key keeps
  // failing fast on its recorded error, not on a fresh I/O probe.
  return freed;
}

DetectorRegistry::DetectorRegistry(int n_threads, core::LoadMode mode,
                                   fleet::FleetOptions fleet)
    : n_threads_(n_threads),
      load_mode_(mode),
      loader_([mode](const std::string& path, int threads) {
        return std::make_shared<const core::TrustedHmd>(
            core::load_model(path, threads, mode));
      }),
      entries_(fleet.shards) {
  if (fleet.filter) {
    filter_ =
        std::make_unique<fleet::DynamicCuckooFilter>(fleet.filter_options);
  }
  residency_.set_budget_bytes(fleet.residency_budget_bytes);
}

void DetectorRegistry::add(const std::string& key, const std::string& path) {
  HMD_REQUIRE(!key.empty(), "DetectorRegistry::add: empty key");
  auto entry = std::make_shared<Entry>(key, path);
  // Shared maintenance lock: concurrent add()/remove() proceed freely,
  // but a filter rebuild (exclusive) sees filter insert + map insert as
  // one atomic step — otherwise a key registered mid-rebuild could land
  // its fingerprint in the segments the rebuild is about to retire and
  // be lost, a false negative on a registered key.
  const std::shared_lock<std::shared_mutex> maintenance(filter_maintenance_);
  // Filter before map, and only for keys not yet present: inserting
  // first keeps "registered implies may_contain" airtight (a concurrent
  // contains() between the two inserts sees a filter maybe + map miss =
  // correct "not yet registered", never a false negative). Two racing
  // adds of the same new key can both pass the presence check and store
  // a duplicate fingerprint — benign and bounded (see filter contract).
  if (filter_ != nullptr && !entries_.contains(key)) filter_->insert(key);
  // Always a fresh Entry — even when the key exists. An in-flight load
  // against the old entry then publishes into an orphan the map no
  // longer reaches, so a re-point can never be clobbered by stale I/O.
  entries_.insert_or_assign(key, std::move(entry));
}

std::size_t DetectorRegistry::add_directory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    throw IoError("DetectorRegistry: not a directory: " + dir);
  }
  // Non-throwing overloads throughout: an entry vanishing or failing to
  // stat mid-scan is skipped, never an escape of std::filesystem_error
  // past the documented IoError surface.
  fs::directory_iterator it(dir, ec);
  if (ec) throw IoError("DetectorRegistry: cannot scan " + dir);
  std::size_t added = 0;
  for (const auto& item : it) {
    if (!item.is_regular_file(ec) || ec) continue;
    const fs::path& path = item.path();
    if (path.extension() != ".hmdf") continue;
    add(path.stem().string(), path.string());
    ++added;
  }
  return added;
}

bool DetectorRegistry::remove(const std::string& key) {
  bool rebuild = false;
  {
    const std::shared_lock<std::shared_mutex> maintenance(
        filter_maintenance_);
    // Map first, then filter: between the two a lookup sees filter maybe
    // + map miss = correct "not registered". The filter erase only runs
    // for a key that was actually registered (so it can only remove a
    // fingerprint add() inserted — erasing a never-inserted key could
    // false-negative a colliding registered key).
    if (!entries_.erase(key)) return false;
    if (filter_ != nullptr) {
      filter_->erase(key);
      // Churn check: once erases since the last rebuild reach the live
      // key count (floored so small registries never thrash), the filter
      // is carrying at least as much retired slack as live state —
      // compact it. Checked outside the shared lock: rebuild_filter()
      // needs the exclusive one.
      const std::uint64_t erased =
          filter_erases_.fetch_add(1, std::memory_order_relaxed) + 1;
      rebuild = erased >= kFilterRebuildFloor && erased >= entries_.size();
    }
  }
  if (rebuild) rebuild_filter();
  return true;
}

void DetectorRegistry::rebuild_filter() {
  if (filter_ == nullptr) return;
  const std::lock_guard<std::shared_mutex> maintenance(filter_maintenance_);
  const std::vector<std::string> live = entries_.sorted_keys();
  filter_->rebuild({live.begin(), live.end()});
  filter_erases_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const core::TrustedHmd> DetectorRegistry::snapshot(
    const Entry& entry) {
  const std::lock_guard<std::mutex> lock(entry.state_mutex);
  return entry.detector;
}

std::shared_ptr<DetectorRegistry::Entry> DetectorRegistry::find_entry(
    std::string_view key) const {
  return entries_.find(key);
}

void DetectorRegistry::touch(Entry& entry) const {
  entry.last_used.store(use_clock_.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

std::shared_ptr<const core::TrustedHmd> DetectorRegistry::attempt_load(
    const std::string& path) const {
  // Armed with error:... this makes the whole load attempt fail before
  // any I/O — the seam the retry/quarantine tests (and the chaos script,
  // via HMD_FAILPOINTS) drive.
  HMD_FAILPOINT("registry.load", path.c_str());
  try {
    return loader_(path, n_threads_);
  } catch (const LoadError& error) {
    if (error.code() != LoadErrorCode::kMmapFailed) throw;
    // mmap specifically failed (a LoadMode::kMmap registry on a
    // filesystem without working mmap, or an injected fault): demote
    // this load to the full-copy stream path instead of failing the
    // model — graceful degradation, not an outage.
    return std::make_shared<const core::TrustedHmd>(
        core::load_model(path, n_threads_, core::LoadMode::kStream));
  }
}

std::shared_ptr<const core::TrustedHmd> DetectorRegistry::load_entry(
    const std::shared_ptr<Entry>& entry) const {
  const int max_attempts = std::max(1, policy_.max_attempts);
  std::uint64_t extra_attempts = 0;
  for (int attempt = 1;; ++attempt) {
    try {
      const ArtifactStat stat = stat_artifact(entry->path);
      auto detector = attempt_load(entry->path);
      const std::size_t bytes = resident_footprint(*detector);
      {
        const std::lock_guard<std::mutex> lock(entry->state_mutex);
        entry->detector = detector;  // copy — the local one is the lease
        entry->stat = stat;
        entry->resident_bytes = bytes;
        entry->health = HealthState::kHealthy;
        ++entry->loads_ok;
        entry->retries += extra_attempts;
        entry->consecutive_failures = 0;
      }
      touch(*entry);
      // Admit AFTER publishing, while the local `detector` copy holds
      // use_count >= 2: the sweep this admit may trigger sees the fresh
      // entry lease-pinned, so a brand-new load can never be evicted
      // before its caller receives it. Lock order: manager mutex ->
      // victim state_mutex; we hold neither here (load_mutex only).
      residency_.admit(entry, bytes);
      return detector;
    } catch (const std::exception& e) {
      const LoadError error = as_load_error(entry->path, e);
      if (error.transient() && attempt < max_attempts) {
        // Transient (torn publish, flaky I/O): back off and retry inside
        // this operation. The sleep holds only this entry's load_mutex —
        // other keys' gets and refreshes proceed untouched.
        ++extra_attempts;
        std::this_thread::sleep_for(backoff_delay(policy_, attempt));
        continue;
      }
      // Operation failed: record health (stat intentionally untouched,
      // so a later refresh() always sees a repaired file as changed).
      const std::lock_guard<std::mutex> lock(entry->state_mutex);
      ++entry->loads_failed;
      entry->retries += extra_attempts;
      ++entry->consecutive_failures;
      entry->last_error_code = error.code();
      entry->last_error = error.what();
      if (policy_.quarantine_after > 0 &&
          entry->consecutive_failures >= policy_.quarantine_after) {
        entry->health = HealthState::kQuarantined;
        entry->quarantine_until =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(std::max(0, policy_.quarantine_ms));
      } else {
        entry->health = HealthState::kDegraded;
      }
      throw error;
    }
  }
}

std::shared_ptr<const core::TrustedHmd> DetectorRegistry::get(
    const std::string& key) {
  auto detector = try_get(key);
  if (detector == nullptr) {
    throw IoError("DetectorRegistry: unknown model key '" + key + "'");
  }
  return detector;
}

std::shared_ptr<const core::TrustedHmd> DetectorRegistry::try_get(
    const std::string& key) {
  // Front door: a key that was never registered bounces off the filter
  // in O(1) — shared filter lock only, no shard lock, no allocation.
  // (No false negatives, so a registered key never takes this exit.)
  if (filter_ != nullptr && !filter_->may_contain(key)) {
    filter_rejects_.bump();
    return nullptr;
  }
  const std::shared_ptr<Entry> entry = find_entry(key);
  if (entry == nullptr) return nullptr;  // filter false positive
  // Fast path: already loaded — one leaf-lock pointer copy, no I/O
  // locks, no serialisation against loads of any key (even this one:
  // refresh() publishes the swapped detector with the same leaf lock).
  if (auto loaded = snapshot(*entry)) {
    touch(*entry);
    return loaded;
  }
  // Slow path: first load, or a reload after eviction. load_mutex makes
  // it at-most-once per concurrent wave of callers of *this* key; no map
  // lock is held, so callers of other keys proceed untouched.
  const std::lock_guard<std::mutex> load_lock(entry->load_mutex);
  if (auto loaded = snapshot(*entry)) {  // double-check
    touch(*entry);
    return loaded;
  }
  {
    // Quarantine gate (entries with no live snapshot only; loaded ones
    // returned above): fail fast on the cached error instead of
    // hammering a path that just failed repeatedly. After the TTL, fall
    // through — one real probe that either heals the entry or re-arms
    // the quarantine. An evicted quarantined entry takes this same gate.
    const std::lock_guard<std::mutex> state_lock(entry->state_mutex);
    if (entry->health == HealthState::kQuarantined &&
        std::chrono::steady_clock::now() < entry->quarantine_until) {
      throw LoadError(
          entry->last_error_code, entry->path,
          "quarantined after " +
              std::to_string(entry->consecutive_failures) +
              " consecutive load failures; last: " + entry->last_error);
    }
  }
  return load_entry(entry);
}

std::vector<std::string> DetectorRegistry::refresh() {
  // O(resident set): the residency tracker knows exactly which entries
  // hold a detector, so a million-key fleet refreshes by re-statting
  // only what is actually resident. Evicted and never-loaded keys are
  // verified lazily by their next get() (which re-stats and reloads
  // anyway). The tracker hands out shared_ptrs, so nothing here races an
  // entry being dropped.
  std::vector<std::string> reloaded;
  for (auto& resident : residency_.residents()) {
    auto entry = std::static_pointer_cast<Entry>(std::move(resident));
    // Orphan check: the key may have been re-pointed (fresh Entry) or
    // removed since this entry was admitted — its artifact no longer
    // speaks for the key, so don't stat or reload it.
    if (find_entry(entry->key).get() != entry.get()) continue;
    {
      const std::lock_guard<std::mutex> state_lock(entry->state_mutex);
      if (entry->detector == nullptr) continue;  // evicted meanwhile
      // A quarantined entry is left alone until its TTL expires — no
      // stat, no load. (It keeps serving its last-good snapshot; only
      // the *replacement* probing is suppressed.)
      if (entry->health == HealthState::kQuarantined &&
          std::chrono::steady_clock::now() < entry->quarantine_until) {
        continue;
      }
    }
    const std::lock_guard<std::mutex> load_lock(entry->load_mutex);
    ArtifactStat last_stat;
    {
      const std::lock_guard<std::mutex> state_lock(entry->state_mutex);
      last_stat = entry->stat;
    }
    const ArtifactStat stat = stat_artifact(entry->path);
    if (stat.bytes == 0) continue;  // vanished: keep the last good snapshot
    if (stat == last_stat) continue;
    try {
      load_entry(entry);
      reloaded.push_back(entry->key);
    } catch (const HmdError&) {
      // Unreadable or invalid replacement (a foreign writer without the
      // atomic rename discipline, or a well-formed file carrying a config
      // the detector rejects): keep serving the previous snapshot and let
      // a later refresh() retry — the stale stat fields guarantee it will.
    }
  }
  // The tracker iterates in address order; keep the reported keys
  // deterministic for callers and logs.
  std::sort(reloaded.begin(), reloaded.end());
  return reloaded;
}

ModelHealth DetectorRegistry::health_of(const std::string& key,
                                        const Entry& entry) {
  const std::lock_guard<std::mutex> lock(entry.state_mutex);
  ModelHealth out;
  out.key = key;
  out.state = entry.health;
  out.loaded = entry.detector != nullptr;
  out.loads_ok = entry.loads_ok;
  out.loads_failed = entry.loads_failed;
  out.retries = entry.retries;
  out.evictions = entry.evictions;
  out.consecutive_failures = entry.consecutive_failures;
  out.last_error_code = entry.last_error_code;
  out.last_error = entry.last_error;
  if (entry.detector != nullptr) {
    out.kernel_backend = entry.detector->engine().kernel_backend();
  }
  return out;
}

std::vector<ModelHealth> DetectorRegistry::health() const {
  const auto items = entries_.sorted_items();
  std::vector<ModelHealth> out;
  out.reserve(items.size());
  for (const auto& [key, entry] : items) out.push_back(health_of(key, *entry));
  return out;
}

ModelHealth DetectorRegistry::health(const std::string& key) const {
  const std::shared_ptr<Entry> entry = find_entry(key);
  if (entry == nullptr) {
    throw IoError("DetectorRegistry: unknown model key '" + key + "'");
  }
  return health_of(key, *entry);
}

std::vector<std::string> DetectorRegistry::keys() const {
  return entries_.sorted_keys();
}

std::string DetectorRegistry::path(const std::string& key) const {
  const std::shared_ptr<Entry> entry = find_entry(key);
  if (entry == nullptr) {
    throw IoError("DetectorRegistry: unknown model key '" + key + "'");
  }
  return entry->path;
}

std::size_t DetectorRegistry::size() const { return entries_.size(); }

bool DetectorRegistry::contains(std::string_view key) const {
  if (filter_ != nullptr && !filter_->may_contain(key)) {
    filter_rejects_.bump();
    return false;
  }
  return entries_.contains(key);
}

fleet::FleetStats DetectorRegistry::fleet_stats() const {
  fleet::FleetStats out;
  out.keys = entries_.size();
  out.shards = entries_.shard_count();
  if (filter_ != nullptr) {
    out.filter = filter_->stats();
    out.filter.rejected = filter_rejects_.value();
  }
  out.residency = residency_.stats();
  return out;
}

void DetectorRegistry::set_residency_budget_bytes(std::size_t bytes) {
  residency_.set_budget_bytes(bytes);
}

}  // namespace hmd::api
