#include "sched/compile_cache.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "store/wire.hpp"
#include "support/sha256.hpp"

namespace comt::sched {
namespace {

namespace wire = comt::store::wire;

void append_field(std::string& buffer, const std::string& field) {
  buffer += std::to_string(field.size());
  buffer += ':';
  buffer += field;
}

/// Persisted layout of one key's entries: kListMagic, [u32 n_entries], then
/// per entry, most recently stored first, [u32 n_inputs] n×(str path,
/// str digest) [u32 n_outputs] n×(str path, str content, u32 mode); followed
/// by the 64-hex-char sha256 of everything before it. The trailer makes
/// corruption detectable end-to-end even on a backing store without its own
/// framing — a damaged list must degrade to a miss, never replay wrong
/// outputs. The magic sets this layout apart from the older one-entry layout,
/// which began with the input count: such an entry reads as damaged.
constexpr std::string_view kListMagic = "comt-cc2";
constexpr std::size_t kEntryTrailerSize = 64;

std::string serialize_entries(const std::vector<const CacheEntry*>& entries) {
  std::string out(kListMagic);
  wire::put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const CacheEntry* entry : entries) {
    wire::put_u32(out, static_cast<std::uint32_t>(entry->input_digests.size()));
    for (const auto& [path, digest] : entry->input_digests) {
      wire::put_str(out, path);
      wire::put_str(out, digest);
    }
    wire::put_u32(out, static_cast<std::uint32_t>(entry->outputs.size()));
    for (const CachedOutput& output : entry->outputs) {
      wire::put_str(out, output.path);
      wire::put_str(out, output.content);
      wire::put_u32(out, output.mode);
    }
  }
  out += Sha256::hex_digest(out);
  return out;
}

std::optional<std::vector<CacheEntry>> deserialize_entries(std::string_view encoded) {
  if (encoded.size() < kListMagic.size() + kEntryTrailerSize) return std::nullopt;
  const std::string_view payload = encoded.substr(0, encoded.size() - kEntryTrailerSize);
  const std::string_view trailer = encoded.substr(encoded.size() - kEntryTrailerSize);
  if (Sha256::hex_digest(payload) != trailer) return std::nullopt;
  if (payload.substr(0, kListMagic.size()) != kListMagic) return std::nullopt;
  wire::Reader reader{payload.substr(kListMagic.size())};
  const std::uint32_t count = reader.u32();
  if (count == 0 || count > kEntriesPerKey) return std::nullopt;
  std::vector<CacheEntry> entries(count);
  for (CacheEntry& entry : entries) {
    const std::uint32_t inputs = reader.u32();
    for (std::uint32_t i = 0; i < inputs && reader.ok; ++i) {
      std::string path = reader.str();
      std::string digest = reader.str();
      entry.input_digests.emplace(std::move(path), std::move(digest));
    }
    const std::uint32_t outputs = reader.u32();
    for (std::uint32_t i = 0; i < outputs && reader.ok; ++i) {
      CachedOutput output;
      output.path = reader.str();
      output.content = reader.str();
      output.mode = reader.u32();
      entry.outputs.push_back(std::move(output));
    }
  }
  if (!reader.ok || !reader.at_end()) return std::nullopt;
  return entries;
}

}  // namespace

std::string CacheKey::digest() const {
  std::string buffer;
  append_field(buffer, toolchain_id);
  append_field(buffer, target_arch);
  append_field(buffer, cwd);
  buffer += std::to_string(argv.size());
  buffer += ';';
  for (const std::string& arg : argv) append_field(buffer, arg);
  return Sha256::hex_digest(buffer);
}

std::uint64_t CompileCache::next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<const CompileCache::EntryMap> CompileCache::snapshot() const {
  struct TlsSnapshot {
    std::uint64_t instance = 0;  // instance ids are unique for the process
    std::uint64_t version = 0;
    std::shared_ptr<const EntryMap> map;
  };
  thread_local TlsSnapshot tls;
  // Steady state (nobody stored since this thread last looked): one acquire
  // load, no lock, no shared write. The cached map is immutable, so reading
  // it is race-free even while a writer prepares the next snapshot.
  const std::uint64_t version = version_.load(std::memory_order_acquire);
  if (tls.instance == instance_id_ && tls.version == version) return tls.map;
  std::lock_guard<std::mutex> lock(mutex_);
  tls.instance = instance_id_;
  tls.version = version_.load(std::memory_order_relaxed);
  tls.map = published_;
  return tls.map;
}

std::uint64_t CompileCache::tick() const {
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

CompileCache::Bucket CompileCache::to_bucket(std::vector<CacheEntry> entries) const {
  Bucket bucket{};
  // Stamp oldest first, so the list's order survives as recency.
  for (std::size_t i = entries.size(); i-- > 0;) {
    auto slot = std::make_shared<Slot>();
    slot->entry = std::move(entries[i]);
    slot->last_used.store(tick(), std::memory_order_relaxed);
    bucket[i] = std::move(slot);
  }
  return bucket;
}

CompileCache::Bucket CompileCache::fetch_remote(const std::string& key_digest) const {
  std::shared_ptr<store::KvStore> backing;
  std::string backing_key;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    backing = backing_;
    backing_key = prefix_ + key_digest;
  }
  if (backing == nullptr) return {};
  auto value = backing->get(backing_key);
  if (!value.ok()) return {};
  auto entries = deserialize_entries(value.value());
  if (!entries.has_value()) return {};  // torn/corrupt: degrade to a miss
  Bucket bucket = to_bucket(std::move(*entries));
  // Adopt the list locally so the next lookup hits without the round trip.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<EntryMap>(*published_);
    (*next)[key_digest] = bucket;
    published_ = std::move(next);
    version_.fetch_add(1, std::memory_order_release);
  }
  return bucket;
}

std::shared_ptr<const CacheEntry> CompileCache::lookup(const std::string& key_digest,
                                                       const DigestFn& digest_of) const {
  const std::shared_ptr<const EntryMap> view = snapshot();
  Bucket bucket{};
  auto found = view->find(key_digest);
  if (found != view->end()) bucket = found->second;
  // Key absent locally → ask the backing store before giving up: another
  // replica sharing the backing may have compiled this already.
  bool from_remote = false;
  if (found == view->end()) {
    bucket = fetch_remote(key_digest);
    from_remote = bucket[0] != nullptr;
  }
  // Verify each candidate's input manifest — digest_of may do real work,
  // all lock-free. A key's entries mostly list the same inputs, so with more
  // than one entry each path is digested once per lookup.
  std::unordered_map<std::string, std::string> digested;
  auto current_digest = [&](const std::string& path) -> std::string {
    if (bucket[1] == nullptr) return digest_of(path);
    auto [it, inserted] = digested.try_emplace(path);
    if (inserted) it->second = digest_of(path);
    return it->second;
  };
  std::shared_ptr<const Slot> hit;
  for (const std::shared_ptr<const Slot>& slot : bucket) {
    if (slot == nullptr) break;
    bool matches = true;
    for (const auto& [path, digest] : slot->entry.input_digests) {
      if (current_digest(path) != digest) {
        matches = false;
        break;
      }
    }
    if (matches) {
      hit = slot;
      break;
    }
  }
  if (hit) {
    hit->last_used.store(tick(), std::memory_order_relaxed);
    hit_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* hits = hits_.load(std::memory_order_acquire)) hits->add();
    if (from_remote) {
      remote_hit_count_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Counter* remote = remote_hits_.load(std::memory_order_acquire)) {
        remote->add();
      }
    }
    // Aliasing pointer: the caller's entry keeps its slot alive.
    return std::shared_ptr<const CacheEntry>(hit, &hit->entry);
  }
  miss_count_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Counter* misses = misses_.load(std::memory_order_acquire)) misses->add();
  return nullptr;
}

void CompileCache::store(const std::string& key_digest, CacheEntry entry) {
  auto slot = std::make_shared<Slot>();
  slot->entry = std::move(entry);
  slot->last_used.store(tick(), std::memory_order_relaxed);
  Bucket updated{};
  std::shared_ptr<store::KvStore> backing;
  std::string backing_key;
  {
    // Copy-update-republish under the writer mutex; the version bump tells
    // readers their thread-local snapshot is stale. Concurrent lookups keep
    // reading the old snapshot until they observe the new version.
    std::lock_guard<std::mutex> lock(mutex_);
    auto next = std::make_shared<EntryMap>(*published_);
    Bucket& bucket = (*next)[key_digest];
    // Keep the key's other entries, most recently used first, up to the cap.
    // One with the same manifest is the same computation, now superseded.
    // Stamps are read once: hits may move them while this sorts.
    std::vector<std::pair<std::uint64_t, std::shared_ptr<const Slot>>> kept;
    for (const std::shared_ptr<const Slot>& old : bucket) {
      if (old == nullptr || old->entry.input_digests == slot->entry.input_digests) continue;
      kept.emplace_back(old->last_used.load(std::memory_order_relaxed), old);
    }
    std::sort(kept.begin(), kept.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    updated[0] = slot;
    for (std::size_t i = 0; i + 1 < kEntriesPerKey && i < kept.size(); ++i) {
      updated[i + 1] = kept[i].second;
    }
    bucket = updated;
    published_ = std::move(next);
    version_.fetch_add(1, std::memory_order_release);
    store_count_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Counter* inserts = inserts_.load(std::memory_order_acquire)) {
      inserts->add();
    }
    backing = backing_;
    backing_key = prefix_ + key_digest;
  }
  // Write through outside the lock: serialization copies the (possibly
  // large) outputs and the backing put may hit a real disk. Best effort — a
  // failed put only costs the next process a cache miss.
  if (backing != nullptr) {
    std::vector<const CacheEntry*> entries;
    for (const std::shared_ptr<const Slot>& kept : updated) {
      if (kept != nullptr) entries.push_back(&kept->entry);
    }
    (void)backing->put(backing_key, serialize_entries(entries));
  }
}

std::size_t CompileCache::attach(std::shared_ptr<store::KvStore> backing,
                                 std::string prefix) {
  std::lock_guard<std::mutex> lock(mutex_);
  backing_ = std::move(backing);
  prefix_ = std::move(prefix);
  if (backing_ == nullptr) return 0;
  auto next = std::make_shared<EntryMap>(*published_);
  std::size_t recovered = 0;
  for (const store::KvEntry& persisted : backing_->list(prefix_)) {
    const std::string key = persisted.key.substr(prefix_.size());
    auto value = backing_->get(persisted.key);
    std::optional<std::vector<CacheEntry>> entries;
    if (value.ok()) entries = deserialize_entries(value.value());
    if (!entries.has_value()) {
      // Torn, bit-flipped, or truncated on disk: erase it so the next
      // attach does not re-trip, and degrade to a miss.
      (void)backing_->erase(persisted.key);
      corrupt_count_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Counter* corrupt = corrupt_dropped_.load(std::memory_order_acquire)) {
        corrupt->add();
      }
      continue;
    }
    const std::size_t count = entries->size();
    (*next)[key] = to_bucket(std::move(*entries));
    hydrated_count_.fetch_add(count, std::memory_order_relaxed);
    if (obs::Counter* hydrated = hydrated_.load(std::memory_order_acquire)) {
      hydrated->add(count);
    }
    recovered += count;
  }
  published_ = std::move(next);
  version_.fetch_add(1, std::memory_order_release);
  return recovered;
}

void CompileCache::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (metrics == nullptr) {
    hits_.store(nullptr, std::memory_order_release);
    misses_.store(nullptr, std::memory_order_release);
    remote_hits_.store(nullptr, std::memory_order_release);
    inserts_.store(nullptr, std::memory_order_release);
    hydrated_.store(nullptr, std::memory_order_release);
    corrupt_dropped_.store(nullptr, std::memory_order_release);
    return;
  }
  hits_.store(&metrics->counter("compile_cache.hits"), std::memory_order_release);
  misses_.store(&metrics->counter("compile_cache.misses"), std::memory_order_release);
  remote_hits_.store(&metrics->counter("compile_cache.remote_hits"),
                     std::memory_order_release);
  inserts_.store(&metrics->counter("compile_cache.inserts"),
                 std::memory_order_release);
  hydrated_.store(&metrics->counter("compile_cache.hydrated"),
                  std::memory_order_release);
  corrupt_dropped_.store(&metrics->counter("compile_cache.corrupt_dropped"),
                         std::memory_order_release);
}

CacheStats CompileCache::stats() const {
  CacheStats out;
  out.hits = hit_count_.load(std::memory_order_relaxed);
  out.misses = miss_count_.load(std::memory_order_relaxed);
  out.stores = store_count_.load(std::memory_order_relaxed);
  out.hydrated = hydrated_count_.load(std::memory_order_relaxed);
  out.corrupt_dropped = corrupt_count_.load(std::memory_order_relaxed);
  out.remote_hits = remote_hit_count_.load(std::memory_order_relaxed);
  return out;
}

std::size_t CompileCache::size() const {
  std::size_t entries = 0;
  for (const auto& [key, bucket] : *snapshot()) {
    for (const std::shared_ptr<const Slot>& slot : bucket) entries += slot != nullptr;
  }
  return entries;
}

}  // namespace comt::sched
