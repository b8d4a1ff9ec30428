// timed_store.hpp — a store wrapper that records one span per call.
//
// net::Server<KV> is generic over its store, so the traced pass of the
// wire workload serves through TimedStore<kv::Store<...>> instead of the
// store itself: every call the server's workers make into the KV layer
// becomes a span carrying its key count. From those spans the benchmark
// derives how much of a client's round the KV layer owns and how many
// keys each server-side KV call carries. The wrapper forwards the
// durability hook, checkpoint count and health so the server takes the
// same code paths it takes over the bare store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

template <class KV>
class TimedStore {
 public:
  using Key = std::int64_t;
  static constexpr bool kOrdered = KV::kOrdered;

  explicit TimedStore(KV& store) : s_(store) {}

  std::optional<std::string> get(Key k) const {
    Scope sp(SpanName::kKvGet, true, 1);
    return s_.get(k);
  }
  bool put(Key k, std::string_view v) {
    Scope sp(SpanName::kKvPut, true, 1);
    return s_.put(k, v);
  }
  bool remove(Key k) {
    Scope sp(SpanName::kKvRemove, true, 1);
    return s_.remove(k);
  }
  std::vector<std::optional<std::string>> multi_get(
      std::span<const Key> keys) const {
    Scope sp(SpanName::kKvMultiGet, true, count(keys.size()));
    return s_.multi_get(keys);
  }
  std::vector<bool> multi_put(
      std::span<const std::pair<Key, std::string_view>> kvs) {
    Scope sp(SpanName::kKvMultiPut, true, count(kvs.size()));
    return s_.multi_put(kvs);
  }
  std::vector<bool> multi_remove(std::span<const Key> keys) {
    Scope sp(SpanName::kKvMultiRemove, true, count(keys.size()));
    return s_.multi_remove(keys);
  }

  std::size_t size() const noexcept { return s_.size(); }
  void note_write_commit() { s_.note_write_commit(); }
  std::uint64_t checkpoints() const noexcept { return s_.checkpoints(); }
  auto health() const noexcept { return s_.health(); }

 private:
  static std::uint32_t count(std::size_t n) {
    return static_cast<std::uint32_t>(n);
  }

  KV& s_;
};

}  // namespace perfbench
