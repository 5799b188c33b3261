#include "core/trie_cache.h"

#include <algorithm>
#include <utility>

#include "obs/stats.h"

namespace levelheaded {

namespace {

// Retries after a leader's build was evicted before the waiter could read
// it (only possible with a budget far smaller than one working set). After
// this many laps the waiter builds for itself, uncached.
constexpr int kMaxFlightAttempts = 3;

}  // namespace

TrieCache::TrieCache() : TrieCache(Config()) {}

TrieCache::TrieCache(Config config) : config_(config) {
  const int shards = std::max(1, config_.num_shards);
  config_.num_shards = shards;
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TrieCache::Shard& TrieCache::ShardFor(const std::string& signature) {
  return *shards_[std::hash<std::string>{}(signature) % shards_.size()];
}

std::shared_ptr<Trie> TrieCache::Probe(const std::string& signature) {
  Shard& shard = ShardFor(signature);
  ReadLock lock(&shard.mu);
  auto it = shard.map.find(signature);
  if (it == shard.map.end()) return nullptr;
  // Relaxed (both ops): the stamp is an LRU recency hint — a racing reader
  // that publishes a slightly stale tick only perturbs the eviction order.
  it->second->stamp.store(tick_.fetch_add(1, kRelaxed) + 1, kRelaxed);
  return it->second->trie;
}

std::shared_ptr<Trie> TrieCache::Get(const std::string& signature) {
  obs::ExecStats* stats = obs::ActiveStats();
  probes_.fetch_add(1, kRelaxed);
  if (stats != nullptr) stats->CountTrieCacheProbe();
  std::shared_ptr<Trie> trie = Probe(signature);
  if (trie != nullptr) {
    hits_.fetch_add(1, kRelaxed);
    if (stats != nullptr) stats->CountTrieCacheHit();
  } else {
    misses_.fetch_add(1, kRelaxed);
    if (stats != nullptr) stats->CountTrieCacheMiss();
  }
  return trie;
}

void TrieCache::Put(const std::string& signature, std::shared_ptr<Trie> trie) {
  if (trie == nullptr) return;
  const size_t entry_bytes = trie->MemoryBytes();
  {
    Shard& shard = ShardFor(signature);
    WriteLock lock(&shard.mu);
    auto it = shard.map.find(signature);
    if (it != shard.map.end()) {
      bytes_.fetch_sub(it->second->bytes, kRelaxed);
      shard.map.erase(it);
    }
    auto entry = std::make_unique<Entry>();
    entry->trie = std::move(trie);
    entry->bytes = entry_bytes;
    entry->stamp.store(tick_.fetch_add(1, kRelaxed) + 1,
                       kRelaxed);
    shard.map.emplace(signature, std::move(entry));
    bytes_.fetch_add(entry_bytes, kRelaxed);
  }
  EnforceBudget();
}

void TrieCache::EnforceBudget() {
  if (config_.budget_bytes == 0) return;
  // One evictor at a time: concurrent Puts would otherwise race each other
  // over the same LRU scan and double-evict.
  MutexLock evict_lock(&evict_mu_);
  while (bytes_.load(kRelaxed) > config_.budget_bytes) {
    // Global LRU candidate among entries no query currently holds: the
    // cache's shared_ptr is the only reference (use_count == 1). A trie
    // some executing query still points at is never evicted mid-query.
    size_t best_shard = 0;
    std::string best_sig;
    uint64_t best_stamp = 0;
    bool found = false;
    for (size_t s = 0; s < shards_.size(); ++s) {
      // Local reference so the analysis can match the capability expression
      // (`shard.mu` guards `shard.map`); indexing twice would defeat it.
      Shard& shard = *shards_[s];
      ReadLock lock(&shard.mu);
      for (const auto& [sig, entry] : shard.map) {
        if (entry->trie.use_count() > 1) continue;  // in use
        const uint64_t stamp = entry->stamp.load(kRelaxed);
        if (!found || stamp < best_stamp) {
          found = true;
          best_shard = s;
          best_sig = sig;
          best_stamp = stamp;
        }
      }
    }
    if (!found) return;  // everything in use; retry on the next insert
    {
      Shard& shard = *shards_[best_shard];
      WriteLock lock(&shard.mu);
      auto it = shard.map.find(best_sig);
      // Re-check under the exclusive lock: a probe may have touched the
      // entry (fresh stamp) or a query may have taken a reference since the
      // scan. Lookups need the shard lock, so no new holder can appear
      // while we hold it exclusively.
      if (it != shard.map.end() && it->second->trie.use_count() == 1 &&
          it->second->stamp.load(kRelaxed) == best_stamp) {
        bytes_.fetch_sub(it->second->bytes, kRelaxed);
        shard.map.erase(it);
        evictions_.fetch_add(1, kRelaxed);
        if (obs::ExecStats* stats = obs::ActiveStats()) {
          stats->CountCacheEviction();
        }
      }
      // else: the candidate was touched or taken — rescan.
    }
  }
}

Result<std::shared_ptr<Trie>> TrieCache::GetOrBuild(
    const std::vector<std::string>& probe_signatures, const BuildFn& build_fn,
    Outcome* outcome) {
  obs::ExecStats* stats = obs::ActiveStats();
  auto probe_all = [&]() -> std::shared_ptr<Trie> {
    for (const std::string& sig : probe_signatures) {
      probes_.fetch_add(1, kRelaxed);
      if (stats != nullptr) stats->CountTrieCacheProbe();
      if (std::shared_ptr<Trie> trie = Probe(sig)) return trie;
    }
    return nullptr;
  };
  auto run_build = [&]() -> Result<Built> {
    builds_.fetch_add(1, kRelaxed);
    return build_fn();
  };

  if (std::shared_ptr<Trie> trie = probe_all()) {
    hits_.fetch_add(1, kRelaxed);
    if (stats != nullptr) stats->CountTrieCacheHit();
    if (outcome != nullptr) *outcome = Outcome::kHit;
    return trie;
  }
  // One logical miss per call, however many flight laps follow.
  misses_.fetch_add(1, kRelaxed);
  if (stats != nullptr) stats->CountTrieCacheMiss();

  const std::string& key = probe_signatures.empty() ? std::string()
                                                    : probe_signatures[0];
  for (int attempt = 0; attempt < kMaxFlightAttempts; ++attempt) {
    std::shared_ptr<std::promise<Status>> promise;
    std::shared_future<Status> wait_on;
    std::shared_ptr<Flight> my_flight;
    uint64_t my_epoch = 0;
    {
      MutexLock lock(&flight_mu_);
      auto it = flights_.find(key);
      if (it != flights_.end()) {
        wait_on = it->second->done;
      } else {
        promise = std::make_shared<std::promise<Status>>();
        my_flight = std::make_shared<Flight>();
        my_flight->done = promise->get_future().share();
        flights_.emplace(key, my_flight);
        my_epoch = clear_epoch_;
      }
    }
    // Deregisters this leader's flight and reports whether the build may be
    // cached. Erases by *identity*, not just key: a Clear() between our
    // registration and now dropped our flight, and the slot may already
    // belong to a post-clear leader we must not evict. An epoch change
    // likewise means our build predates the clear — hand it to our caller
    // only, never Put it (header's Clear contract).
    auto finish_flight = [&]() -> bool {
      MutexLock lock(&flight_mu_);
      auto it = flights_.find(key);
      if (it != flights_.end() && it->second == my_flight) flights_.erase(it);
      return clear_epoch_ == my_epoch;
    };

    if (promise == nullptr) {
      // Follower: another query is already building this signature. Wait
      // for the leader, then pick its trie up from the cache.
      build_waits_.fetch_add(1, kRelaxed);
      if (stats != nullptr) stats->CountCacheBuildWait();
      const Status built = wait_on.get();
      if (!built.ok()) return built;
      if (std::shared_ptr<Trie> trie = probe_all()) {
        if (outcome != nullptr) *outcome = Outcome::kWaited;
        return trie;
      }
      continue;  // evicted before we could read it — take another lap
    }

    // Leader. Re-probe first: a previous leader may have finished between
    // our miss and the flight insertion.
    if (std::shared_ptr<Trie> trie = probe_all()) {
      finish_flight();
      promise->set_value(Status::OK());
      if (outcome != nullptr) *outcome = Outcome::kHit;
      return trie;
    }
    Result<Built> built = run_build();
    const bool cacheable = finish_flight();
    if (built.ok() && cacheable) Put(built.value().signature,
                                     built.value().trie);
    promise->set_value(built.ok() ? Status::OK() : built.status());
    if (!built.ok()) return built.status();
    if (outcome != nullptr) *outcome = Outcome::kBuilt;
    return std::move(built.value().trie);
  }

  // Flight laps exhausted (budget thrash): build privately, skip the cache.
  LH_ASSIGN_OR_RETURN(Built built, run_build());
  if (outcome != nullptr) *outcome = Outcome::kBuilt;
  return std::move(built.trie);
}

void TrieCache::Clear() {
  // Detach the in-flight builds first (see the header's Clear contract):
  // bumping the epoch makes every registered leader skip its Put, and
  // dropping flights_ lets the next miss elect a fresh leader immediately.
  // The leaders' promises are untouched — they still fire when the builds
  // finish, so followers wake, miss, and lap under the new epoch. Doing
  // this *before* the shard sweep means no pre-clear flight can repopulate
  // the cache after the sweep.
  {
    MutexLock lock(&flight_mu_);
    ++clear_epoch_;
    flights_.clear();
  }
  for (auto& shard : shards_) {
    WriteLock lock(&shard->mu);
    for (const auto& [sig, entry] : shard->map) {
      bytes_.fetch_sub(entry->bytes, kRelaxed);
    }
    shard->map.clear();
  }
}

size_t TrieCache::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    ReadLock lock(&shard->mu);
    n += shard->map.size();
  }
  return n;
}

}  // namespace levelheaded
