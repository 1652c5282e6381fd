#include "reference.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "obs/stopwatch.hpp"
#include "script.hpp"
#include "stats.hpp"

namespace lifecycle {

namespace {

constexpr std::size_t kKeys = 100000;
constexpr std::size_t kTableSlots = std::size_t{1} << 18;
constexpr std::size_t kCopyBytes = std::size_t{32} << 20;
constexpr std::size_t kRecords = 60000;

/// The reference's work. Every buffer is made once, so a run allocates
/// nothing.
class Work {
 public:
  Work()
      : sorted_(kKeys), table_(kTableSlots), from_(kCopyBytes, 'x'), to_(kCopyBytes),
        text_(kRecords * 64) {
    Rng rng(0x5eed);
    keys_.reserve(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
      // At most 15 characters: short-string storage, no heap.
      keys_.push_back("sha" + std::to_string(rng.next() % 1000000000000ULL));
    }
  }

  std::array<double, Reference::kParts> run() {
    std::array<double, Reference::kParts> ms{};
    comt::obs::Stopwatch clock;
    // Sort short strings.
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    sink_ += sorted_[kKeys / 2].size();
    ms[0] = clock.elapsed_ms();

    // Fill an open-addressing table of 2 MiB to half, then probe it.
    clock.restart();
    std::fill(table_.begin(), table_.end(), 0);
    Rng rng(sink_);
    for (std::size_t i = 0; i < kTableSlots / 2; ++i) {
      const std::uint64_t key = rng.next() | 1;
      std::size_t slot = key & (kTableSlots - 1);
      while (table_[slot] != 0) slot = (slot + 1) & (kTableSlots - 1);
      table_[slot] = key;
    }
    for (std::size_t i = 0; i < kTableSlots; ++i) {
      const std::uint64_t key = rng.next() | 1;
      std::size_t slot = key & (kTableSlots - 1);
      while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & (kTableSlots - 1);
      sink_ += slot;
    }
    ms[1] = clock.elapsed_ms();

    // Copy 32 MiB, four times.
    clock.restart();
    for (std::size_t pass = 0; pass < 4; ++pass) {
      std::memcpy(to_.data(), from_.data(), kCopyBytes);
      from_[pass] = to_[kCopyBytes - 1 - pass];
    }
    ms[2] = clock.elapsed_ms();

    // Format JSON-like records.
    clock.restart();
    char* out = text_.data();
    for (std::size_t i = 0; i < kRecords; ++i) {
      out += std::snprintf(out, 64, "{\"size\": %.3f, \"digest\": \"%llx\"}\n",
                           static_cast<double>(i) * 1.37,
                           static_cast<unsigned long long>(i * 2654435761ULL));
    }
    sink_ += static_cast<std::uint64_t>(out - text_.data());
    ms[3] = clock.elapsed_ms();
    return ms;
  }

 private:
  std::vector<std::string> keys_, sorted_;
  std::vector<std::uint64_t> table_;
  std::vector<char> from_, to_, text_;
  std::uint64_t sink_ = 0;
};

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = read(fd, bytes, size);
    if (got <= 0) return false;
    bytes += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t put = write(fd, bytes, size);
    if (put <= 0) return false;
    bytes += put;
    size -= static_cast<std::size_t>(put);
  }
  return true;
}

/// The reference process: one run per request byte, until the pipe closes.
/// Its buffers are made, and touched by one untimed run, at the first
/// request, so nothing of that falls into the benchmark's set-up.
[[noreturn]] void serve(int requests, int replies) {
  std::optional<Work> work;
  char request = 0;
  while (read_all(requests, &request, 1)) {
    if (!work) {
      work.emplace();
      work->run();
    }
    const auto ms = work->run();
    if (!write_all(replies, ms.data(), sizeof ms)) break;
  }
  _exit(0);
}

}  // namespace

Reference::Reference() {
  int down[2], up[2];
  if (pipe(down) != 0) return;
  if (pipe(up) != 0) {
    close(down[0]);
    close(down[1]);
    return;
  }
  std::fflush(nullptr);  // the child must not flush the parent's buffers again
  child_ = fork();
  if (child_ == 0) {
    close(down[1]);
    close(up[0]);
    serve(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  if (child_ < 0) {
    close(to_child_);
    close(from_child_);
    to_child_ = from_child_ = -1;
  }
}

Reference::~Reference() {
  if (child_ <= 0) return;
  close(to_child_);  // the child sees the end of its requests and exits
  close(from_child_);
  int status = 0;
  waitpid(child_, &status, 0);
}

bool Reference::run() {
  if (child_ <= 0) return false;
  const char request = 1;
  std::array<double, kParts> ms{};
  if (!write_all(to_child_, &request, 1) || !read_all(from_child_, ms.data(), sizeof ms)) {
    return false;
  }
  for (std::size_t i = 0; i < kParts; ++i) samples_[i].push_back(ms[i]);
  return true;
}

std::array<double, Reference::kParts> Reference::part_ms() const {
  std::array<double, kParts> parts{};
  for (std::size_t i = 0; i < kParts; ++i) parts[i] = fastest_rounds(samples_[i]);
  return parts;
}

double Reference::ms() const {
  const auto parts = part_ms();
  return geomean(std::vector<double>(parts.begin(), parts.end()));
}

}  // namespace lifecycle
