// Content-addressed compile cache for the rebuild engine.
//
// Works like ccache's "direct mode": the key digest is computed from
// everything that selects the computation — toolchain id, target ISA, working
// directory, and the exact argument vector — and each entry carries a
// manifest of the input files (path → content sha256) observed when the
// entry was stored. A lookup only hits when every manifest input still has
// the same digest, so a changed header or source transparently misses and
// recompiles. Entries store the produced output blobs, so a hit replays the
// outputs without running the toolchain at all.
//
// Like ccache's direct-mode manifests, one key holds up to kEntriesPerKey
// entries, each tried against its own input manifest. One command line can
// legitimately read different inputs: the `ar rcs lib<app>core.a …` job of a
// PGO rebuild has the same argv in the instrumented and the final pass but
// archives different objects; with one entry per key, each pass would evict
// the other's. A store into a full key evicts its least recently used entry.
//
// Concurrency model (RCU-style): the entry map is an immutable snapshot,
// republished as a whole by every mutation. Each reader thread caches the
// snapshot it last saw together with the cache's version stamp; lookup() —
// the hot path, hit every compile job of a warm rebuild — validates the
// cached snapshot with one atomic version load and proceeds with no lock;
// a hit writes only relaxed atomics (counters and the entry's recency
// stamp). Only when the version moved (someone stored)
// does the reader take the writer mutex for one brief snapshot refresh.
// Mutations (store, attach) copy-update-republish under the mutex; readers
// holding an old snapshot keep it alive. (An atomic shared_ptr would be the
// textbook publication primitive, but libstdc++'s implementation trips
// ThreadSanitizer, and the version check is cheaper anyway.)
// See docs/PERFORMANCE.md for why the hit path must be lock-free.
//
// attach() bolts the cache onto a store::KvStore: every store() writes the
// key's entry list through under "cache/<key digest>" and attach itself
// hydrates the lists the backing already holds, so a cache over a DiskStore
// directory starts warm in the next process. A persisted list whose checksum
// or layout fails deserialization — including one in the older one-entry
// layout — is dropped (degrades to a miss, never to a wrong hit).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace comt::sched {

/// Key prefix an attached CompileCache persists entries under.
inline constexpr std::string_view kCacheKeyPrefix = "cache/";

/// Entries one key keeps: one per pass of a two-pass (PGO) rebuild.
inline constexpr std::size_t kEntriesPerKey = 2;

/// Everything that identifies a compile computation, before inputs are read.
struct CacheKey {
  std::string toolchain_id;       ///< which simulated toolchain runs
  std::string target_arch;        ///< target ISA the driver lowers to
  std::string cwd;                ///< directory relative paths resolve in
  std::vector<std::string> argv;  ///< full rendered command line

  /// Stable sha256 over all four fields (length-prefixed so field
  /// boundaries can't collide).
  std::string digest() const;
};

/// One output blob a cached job produced.
struct CachedOutput {
  std::string path;     ///< absolute path inside the rebuild rootfs
  std::string content;  ///< full file content
  std::uint32_t mode = 0644;
};

/// A stored computation: the inputs it read (with their digests at store
/// time) and the outputs it wrote.
struct CacheEntry {
  /// Input path → sha256 at the time the entry was stored. Verified on
  /// lookup; any mismatch (or unreadable input) is a miss.
  std::map<std::string, std::string> input_digests;
  std::vector<CachedOutput> outputs;
};

/// Hit/miss/store counters for one cache over its lifetime. A consistent
/// point-in-time snapshot taken by stats().
struct CacheStats {
  std::uint64_t hits = 0;            ///< lookups whose manifest fully verified
  std::uint64_t misses = 0;          ///< absent key or stale manifest input
  std::uint64_t stores = 0;          ///< store() calls (inserts and replacements)
  std::uint64_t hydrated = 0;        ///< entries recovered from the backing store
  std::uint64_t corrupt_dropped = 0; ///< persisted keys rejected at hydration
  std::uint64_t remote_hits = 0;     ///< hits served via the backing-store fallback
};

/// Thread-safe in-memory compile cache shared by all jobs of a rebuild (and
/// across rebuilds, when the caller keeps it alive). Lookups are lock-free;
/// store/attach serialize on an internal writer mutex.
class CompileCache {
 public:
  /// Returns the current digest of `path` in the caller's filesystem, or an
  /// empty string when the file can't be read.
  using DigestFn = std::function<std::string(const std::string& path)>;

  /// Looks up `key_digest`. Tries the key's entries, most recently stored
  /// first, re-digesting each one's manifest inputs through `digest_of`; an
  /// entry only hits when all of them match. Returns the entry on a hit,
  /// nullptr on a miss. Counts one hit or one miss.
  /// Steady-state lock-free: one atomic version load validates this thread's
  /// cached snapshot; the mutex is touched only right after a store changed
  /// the map. Concurrent store() calls are invisible to an in-flight lookup
  /// (it reads the snapshot it started with).
  ///
  /// When attached, a key absent locally falls back to the backing store
  /// before giving up: an intact persisted list (stored by another replica
  /// sharing the backing, or by a store() this process has not re-read) is
  /// adopted into the local map and, manifest permitting, served as a hit —
  /// counted separately as CacheStats::remote_hits. This is what makes one
  /// replica's compile warm every other replica in a fleet without
  /// re-attaching.
  std::shared_ptr<const CacheEntry> lookup(const std::string& key_digest,
                                           const DigestFn& digest_of) const;

  /// Stores `entry` under `key_digest` as the key's most recent entry. It
  /// replaces an entry with the same input manifest; otherwise, when the key
  /// already holds kEntriesPerKey entries, the least recently used one (by
  /// store or hit) is evicted. Counts one store. When attached, the key's
  /// entry list also writes through to the backing store.
  /// Takes the writer mutex; safe against concurrent lookups and stores.
  void store(const std::string& key_digest, CacheEntry entry);

  /// Backs the cache with `backing` under `prefix`: hydrates every intact
  /// persisted entry (counting CacheStats::hydrated), erases and counts
  /// corrupt keys (CacheStats::corrupt_dropped), and writes every future
  /// store() through. Call before sharing the cache. Returns the number of
  /// entries hydrated. Passing nullptr detaches.
  std::size_t attach(std::shared_ptr<store::KvStore> backing,
                     std::string prefix = std::string(kCacheKeyPrefix));

  /// Attaches counters ("compile_cache.hits", "compile_cache.misses",
  /// "compile_cache.inserts", "compile_cache.hydrated",
  /// "compile_cache.corrupt_dropped", "compile_cache.remote_hits"). Pass
  /// nullptr to detach. Safe to call
  /// while lookups run (the instrument pointers are atomic), though counts
  /// bumped before the attach are not replayed into the registry.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Point-in-time counter snapshot (atomic reads, no lock).
  CacheStats stats() const;

  /// Entries currently published, over all keys.
  std::size_t size() const;

 private:
  /// One stored computation and when it was last stored or hit. The stamp is
  /// the only field that changes after publication: a hit bumps it with no
  /// lock, and a store into a full key evicts the smallest.
  struct Slot {
    CacheEntry entry;
    mutable std::atomic<std::uint64_t> last_used{0};
  };
  /// A key's entries, most recently stored first; unused slots are null.
  using Bucket = std::array<std::shared_ptr<const Slot>, kEntriesPerKey>;
  using EntryMap = std::map<std::string, Bucket>;

  static std::uint64_t next_instance_id();

  /// This thread's view of the entry map: the cached snapshot when the
  /// version stamp still matches (no lock), a mutex-protected refresh when
  /// it moved. The returned map is immutable and refcounted.
  std::shared_ptr<const EntryMap> snapshot() const;

  /// Backing-store fallback for a key absent locally: fetches, verifies, and
  /// adopts the persisted list under `key_digest`, or an empty bucket when
  /// the backing has no intact copy. Called from (const) lookup, hence the
  /// mutable state.
  Bucket fetch_remote(const std::string& key_digest) const;

  /// Next recency stamp; strictly increasing.
  std::uint64_t tick() const;

  /// A bucket holding `entries` (most recent first), freshly stamped.
  Bucket to_bucket(std::vector<CacheEntry> entries) const;

  // The current map, republished as a whole by every mutation under
  // `mutex_`; `version_` bumps on each publish so readers can validate
  // their thread-local snapshot with one atomic load. The map behind a
  // published pointer is never mutated. Mutable: lookup() adopts
  // backing-store entries on a local miss.
  mutable std::shared_ptr<const EntryMap> published_ =
      std::make_shared<const EntryMap>();     // guarded by mutex_
  mutable std::atomic<std::uint64_t> version_{1};
  mutable std::atomic<std::uint64_t> clock_{0};  // recency stamps, see Slot
  const std::uint64_t instance_id_ = next_instance_id();  // never reused
  mutable std::mutex mutex_;  // serializes store/attach/backing writes

  mutable std::atomic<std::uint64_t> hit_count_{0};
  mutable std::atomic<std::uint64_t> miss_count_{0};
  mutable std::atomic<std::uint64_t> remote_hit_count_{0};
  std::atomic<std::uint64_t> store_count_{0};
  std::atomic<std::uint64_t> hydrated_count_{0};
  std::atomic<std::uint64_t> corrupt_count_{0};

  std::shared_ptr<store::KvStore> backing_;  // guarded by mutex_
  std::string prefix_;                       // guarded by mutex_
  // Resolved in set_metrics; atomic because lookups read them with no lock.
  mutable std::atomic<obs::Counter*> hits_{nullptr};
  mutable std::atomic<obs::Counter*> misses_{nullptr};
  mutable std::atomic<obs::Counter*> remote_hits_{nullptr};
  std::atomic<obs::Counter*> inserts_{nullptr};
  std::atomic<obs::Counter*> hydrated_{nullptr};
  std::atomic<obs::Counter*> corrupt_dropped_{nullptr};
};

}  // namespace comt::sched
