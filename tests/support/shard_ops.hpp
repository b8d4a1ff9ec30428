// shard_ops.hpp — drive one kv::Shard directly, outside a Store.
//
// A Shard has no fencing operations of its own: Store's operation cores
// own the fences. Tests that exercise a bare shard use these helpers,
// which run the same protocol as the store's put and get cores on one
// element.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ds/batch.hpp"
#include "kv/shard.hpp"
#include "pmem/backend.hpp"
#include "recl/ebr.hpp"

namespace flit::test {

/// put(k, v) on a bare shard: flush the record, fence, publish with a
/// deferred fence, fence (a dependency fence, as in Store), untag, then
/// retire what the put superseded. Returns true on a fresh insert.
template <class ShardT>
bool shard_put(ShardT& shard, std::int64_t k, std::string_view v) {
  ds::PublishBatch batch;
  batch.reserve(1);
  std::vector<kv::Record*> superseded;
  superseded.reserve(1);
  kv::Record* rec = kv::Record::create<ShardT::Backend_::kPersistent>(v);
  pmem::pfence();
  const bool fresh = shard.put_batched(k, rec, batch, superseded);
  pmem::pfence_if_pending();
  batch.complete_all();
  for (kv::Record* r : superseded) {
    kv::Record::retire<ShardT::Backend_::kPersistent>(r);
  }
  return fresh;
}

/// get(k) on a bare shard: the lookup under a guard, then the completion
/// fence (issued only if the lookup flushed a tagged word).
template <class ShardT>
std::optional<std::string> shard_get(const ShardT& shard, std::int64_t k) {
  std::optional<std::string> out;
  {
    recl::Ebr::Guard g;
    out = shard.get_batched(k);
  }
  pmem::pfence_if_pending();
  return out;
}

}  // namespace flit::test
