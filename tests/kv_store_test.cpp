// Functional tests for the sharded KV store (src/kv/): API semantics,
// variable-length value records, shard routing, and concurrent mixed use.
#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pmem/stats.hpp"
#include "support/shard_ops.hpp"
#include "support/test_common.hpp"

namespace flit::kv {
namespace {

using flit::test::PmemTest;
using flit::test::shard_get;
using flit::test::shard_put;
using KvStore = Store<HashedWords, Automatic>;

class KvStoreTest : public PmemTest {};

/// Self-describing churn payload: 8-byte key + 8-byte salt header, then
/// filler whose char and length derive from both — a reader can verify
/// any committed generation byte for byte (and detect torn or
/// cross-wired records) without knowing which generation it caught.
std::string churn_value(std::int64_t k, std::uint64_t salt) {
  const std::size_t len = 16 + static_cast<std::size_t>(
                                   (static_cast<std::uint64_t>(k) * 131 +
                                    salt * 257) %
                                   200);
  std::string v(len, static_cast<char>('a' + (k + static_cast<std::int64_t>(
                                                      salt)) %
                                                 26));
  for (std::size_t i = 0; i < 8; ++i) {
    v[i] = static_cast<char>((static_cast<std::uint64_t>(k) >> (8 * i)) &
                             0xFF);
    v[8 + i] = static_cast<char>((salt >> (8 * i)) & 0xFF);
  }
  return v;
}

/// Address of k's value word, found by walking every shard's bucket
/// chains with private loads (no flushes, no tag checks); nullptr if k is
/// not linked. Lets a test hold one word tagged, as a writer between its
/// store and its untag would.
const void* value_word_of(const KvStore& kv, std::int64_t k) {
  using Node = KvStore::Shard_::Node;
  for (std::uint32_t i = 0; i < kv.nshards(); ++i) {
    const auto* roots = kv.shard(i).roots();
    for (std::size_t b = 0; b < roots->nbuckets; ++b) {
      const Node* n = roots->entries[b].head;
      while (n != nullptr && n != roots->entries[b].tail) {
        if (n->key.load_private() == k) return n->value.raw_address();
        n = reinterpret_cast<const Node*>(
            reinterpret_cast<std::uintptr_t>(n->next.load_private()) &
            ~std::uintptr_t{1});
      }
    }
  }
  return nullptr;
}

/// True iff `v` is churn_value(k, s) for some salt s.
bool churn_value_ok(std::int64_t k, const std::string& v) {
  if (v.size() < 16) return false;
  std::uint64_t rk = 0, salt = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    rk |= static_cast<std::uint64_t>(static_cast<unsigned char>(v[i]))
          << (8 * i);
    salt |= static_cast<std::uint64_t>(static_cast<unsigned char>(v[8 + i]))
            << (8 * i);
  }
  return rk == static_cast<std::uint64_t>(k) && v == churn_value(k, salt);
}

TEST_F(KvStoreTest, PutGetRemoveRoundTrip) {
  KvStore kv(4, 64);
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_TRUE(kv.put(1, "one"));
  EXPECT_EQ(kv.get(1), "one");
  EXPECT_TRUE(kv.contains(1));

  // Overwrite: not a fresh insert, new value visible afterwards.
  EXPECT_FALSE(kv.put(1, "uno"));
  EXPECT_EQ(kv.get(1), "uno");

  EXPECT_TRUE(kv.remove(1));
  EXPECT_EQ(kv.get(1), std::nullopt);
  EXPECT_FALSE(kv.remove(1));
}

TEST_F(KvStoreTest, VariableLengthValuesRoundTrip) {
  KvStore kv(2, 64);
  // Lengths straddle the pool's 1024-byte size-class boundary (the value
  // slab allocates headers + payload from both paths).
  const std::size_t lens[] = {0, 1, 15, 16, 100, 1000, 1020, 1024, 1025,
                              4096, 65536};
  std::int64_t k = 0;
  for (const std::size_t len : lens) {
    const std::string v(len, static_cast<char>('a' + (k % 26)));
    EXPECT_TRUE(kv.put(k, v));
    const auto got = kv.get(k);
    ASSERT_TRUE(got.has_value()) << "len " << len;
    EXPECT_EQ(*got, v) << "len " << len;
    ++k;
  }
  EXPECT_EQ(kv.size(), std::size(lens));
}

TEST_F(KvStoreTest, OverwriteChangesValueLength) {
  KvStore kv(2, 64);
  kv.put(7, std::string(2000, 'x'));
  kv.put(7, "short");
  EXPECT_EQ(kv.get(7), "short");
  kv.put(7, std::string(3000, 'y'));
  EXPECT_EQ(kv.get(7)->size(), 3000u);
  EXPECT_EQ(kv.size(), 1u);
}

TEST_F(KvStoreTest, KeysSpreadAcrossAllShards) {
  KvStore kv(8, 64);
  for (std::int64_t k = 0; k < 4'000; ++k) {
    kv.put(k, "v");
  }
  EXPECT_EQ(kv.size(), 4'000u);
  for (std::size_t i = 0; i < kv.nshards(); ++i) {
    // Uniform routing: each shard holds 500 ± a wide tolerance.
    EXPECT_GT(kv.shard(i).size(), 300u) << "shard " << i;
    EXPECT_LT(kv.shard(i).size(), 700u) << "shard " << i;
  }
}

TEST_F(KvStoreTest, ShardRoutingIsStable) {
  KvStore a(8, 64);
  KvStore b(8, 64);
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(a.shard_index(k), b.shard_index(k));
  }
}

TEST_F(KvStoreTest, ReservedSentinelKeysAreRejected) {
  // INT64_MIN/MAX are the Harris lists' sentinel keys: put must refuse
  // them (a put would otherwise corrupt a bucket's tail sentinel), and
  // reads must treat them as absent rather than matching a sentinel.
  KvStore kv(2, 64);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(kv.put(kMin, "x"), std::invalid_argument);
  EXPECT_THROW(kv.put(kMax, "x"), std::invalid_argument);
  EXPECT_EQ(kv.get(kMin), std::nullopt);
  EXPECT_EQ(kv.get(kMax), std::nullopt);
  EXPECT_FALSE(kv.contains(kMax));
  EXPECT_FALSE(kv.remove(kMax));
  // Neighbouring keys are ordinary.
  EXPECT_TRUE(kv.put(kMax - 1, "edge"));
  EXPECT_EQ(kv.get(kMax - 1), "edge");
}

TEST_F(KvStoreTest, FreshStoreHasGenerationOne) {
  KvStore kv(2, 64);
  EXPECT_EQ(kv.generation(), 1u);
  EXPECT_EQ(kv.nshards(), 2u);
  ASSERT_NE(kv.superblock(), nullptr);
  EXPECT_EQ(kv.superblock()->magic, KvStore::kMagic);
}

TEST_F(KvStoreTest, RecoverRejectsCorruptSuperblock) {
  KvStore kv(2, 64);
  auto* sb = kv.superblock();
  const auto saved = sb->magic;
  sb->magic = 0xBAD;
  EXPECT_THROW((void)KvStore::recover(sb), std::runtime_error);
  sb->magic = saved;
}

TEST_F(KvStoreTest, ShardMoveResetsTheSourceCounter) {
  // Regression: the move constructor used to copy approx_size_ and leave
  // the moved-from shard's counter populated — a husk summed by anything
  // still holding it would double-count every key.
  Shard<HashBackend<HashedWords, Automatic>> a(16);
  ASSERT_TRUE(shard_put(a, 1, "one"));
  ASSERT_TRUE(shard_put(a, 2, "two"));
  ASSERT_EQ(a.size(), 2u);
  Shard<HashBackend<HashedWords, Automatic>> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u) << "moved-from counter must be zeroed";
  EXPECT_EQ(shard_get(b, 1), "one");
  EXPECT_EQ(shard_get(b, 2), "two");
}

TEST_F(KvStoreTest, OverwriteChurnNeverHidesAKey) {
  // The tentpole's acceptance criterion on the hashed backend: under
  // 100% overwrite churn on a fixed key set, a concurrent get must
  // observe the old or the new complete value — never absence, never a
  // torn mix. (Before the in-place value CAS, put was remove + insert
  // and this test's absence counter fired readily.)
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 64;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, churn_value(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> absences{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      std::uint64_t salt = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        EXPECT_FALSE(kv.put(k, churn_value(k, salt++)))
            << "an overwrite must never report a fresh insert";
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&kv, &absences, &torn, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < 30'000; ++i) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        const auto v = kv.get(k);
        if (!v) {
          absences.fetch_add(1);
        } else if (!churn_value_ok(k, *v)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(absences.load(), 0u)
      << "a key under pure overwrite churn transiently disappeared";
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

TEST_F(KvStoreTest, SizeIsExactUnderPureOverwriteChurn) {
  // Overwrites no longer touch the per-shard counters (no remove+insert
  // sub/add dance), so size() reads exactly N even mid-churn — not just
  // at quiescence.
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 128;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, "v0");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 97 + 13);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = static_cast<std::int64_t>(rng() % kKeys);
        kv.put(k, churn_value(k, rng()));
      }
    });
  }
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(kv.size(), static_cast<std::size_t>(kKeys))
        << "size() dipped during an in-flight overwrite";
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

// --- batched multi-op path ---------------------------------------------------

// put/get/remove are the multi-op cores on one-element spans, so the
// batched path cannot be checked against scalar calls — that would
// compare the path with itself. The reference is an independent std::map
// model instead, as in kv_recovery_test's oracles.

std::optional<std::string> model_get(
    const std::map<std::int64_t, std::string>& model, std::int64_t k) {
  const auto it = model.find(k);
  if (it == model.end()) return std::nullopt;
  return it->second;
}

TEST_F(KvStoreTest, MultiGetMatchesMapModel) {
  KvStore kv(4, 64);
  std::map<std::int64_t, std::string> model;
  for (std::int64_t k = 0; k < 100; k += 2) {
    kv.put(k, churn_value(k, 7));  // even keys present, odd keys absent
    model[k] = churn_value(k, 7);
  }
  // Mixed hits/misses plus duplicate keys in one batch.
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; k < 100; ++k) keys.push_back(k);
  keys.push_back(4);   // duplicate hit
  keys.push_back(5);   // duplicate miss
  const auto got = kv.multi_get(keys);
  ASSERT_EQ(got.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(got[i], model_get(model, keys[i])) << "key " << keys[i];
  }
}

TEST_F(KvStoreTest, MultiPutMatchesMapModel) {
  // Same fresh-insert flags and same final contents as the model applying
  // the batch in order, duplicates included (last wins).
  KvStore kv(4, 64);
  std::map<std::int64_t, std::string> model;
  for (std::int64_t k = 0; k < 32; ++k) {
    kv.put(k, churn_value(k, 0));  // the first half becomes overwrites
    model[k] = churn_value(k, 0);
  }
  std::vector<std::pair<std::int64_t, std::string>> batch;
  for (std::int64_t k = 0; k < 64; ++k) {
    batch.emplace_back(k, churn_value(k, 1));
  }
  batch.emplace_back(5, churn_value(5, 2));    // duplicate of an overwrite
  batch.emplace_back(40, churn_value(40, 3));  // duplicate of an insert
  std::vector<std::pair<std::int64_t, std::string_view>> kvs;
  for (const auto& [k, v] : batch) kvs.emplace_back(k, v);

  const auto fresh = kv.multi_put(kvs);
  ASSERT_EQ(fresh.size(), kvs.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool model_fresh =
        model.insert_or_assign(batch[i].first, batch[i].second).second;
    EXPECT_EQ(static_cast<bool>(fresh[i]), model_fresh)
        << "element " << i << " key " << batch[i].first;
  }
  EXPECT_EQ(kv.size(), model.size());
  for (std::int64_t k = 0; k < 80; ++k) {
    EXPECT_EQ(kv.get(k), model_get(model, k)) << "key " << k;
  }
}

TEST_F(KvStoreTest, MultiRemoveMatchesScalarLoop) {
  KvStore kv(4, 64);
  for (std::int64_t k = 0; k < 40; ++k) kv.put(k, "v");
  // Present, absent, duplicate (second occurrence sees it gone), and a
  // reserved sentinel (reports false, like remove()).
  const std::vector<std::int64_t> keys = {
      3, 100, 7, 3, std::numeric_limits<std::int64_t>::max()};
  const auto out = kv.multi_remove(keys);
  ASSERT_EQ(out.size(), keys.size());
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  EXPECT_TRUE(out[2]);
  EXPECT_FALSE(out[3]) << "duplicate remove in one batch: second loses";
  EXPECT_FALSE(out[4]);
  EXPECT_EQ(kv.get(3), std::nullopt);
  EXPECT_EQ(kv.get(7), std::nullopt);
  EXPECT_EQ(kv.size(), 38u);
}

TEST_F(KvStoreTest, MultiPutDuplicateKeysApplyInOrderLastWins) {
  // Documented duplicate semantics: every occurrence is applied in batch
  // order, so the last value wins and at most the first occurrence can be
  // a fresh insert.
  KvStore kv(4, 64);
  kv.put(5, "pre");
  const std::vector<std::pair<std::int64_t, std::string_view>> kvs = {
      {9, "v1"}, {5, "a"}, {9, "v2"}, {9, "v3"}};
  const auto fresh = kv.multi_put(kvs);
  EXPECT_TRUE(fresh[0]) << "first occurrence of 9 inserts";
  EXPECT_FALSE(fresh[1]) << "5 was prefilled";
  EXPECT_FALSE(fresh[2]) << "second occurrence overwrites";
  EXPECT_FALSE(fresh[3]);
  EXPECT_EQ(kv.get(9), "v3");
  EXPECT_EQ(kv.get(5), "a");
  EXPECT_EQ(kv.size(), 2u) << "duplicates count once";
}

TEST_F(KvStoreTest, MultiOpsHandleEmptyAndSingletonBatches) {
  KvStore kv(2, 64);
  EXPECT_TRUE(kv.multi_get(std::vector<std::int64_t>{}).empty());
  EXPECT_TRUE(kv.multi_put({}).empty());
  EXPECT_TRUE(kv.multi_remove(std::vector<std::int64_t>{}).empty());
  const std::vector<std::pair<std::int64_t, std::string_view>> one = {
      {1, "x"}};
  EXPECT_TRUE(kv.multi_put(one)[0]);
  const auto got = kv.multi_get(std::vector<std::int64_t>{1});
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(*got[0], "x");
  EXPECT_TRUE(kv.multi_remove(std::vector<std::int64_t>{1})[0]);
  EXPECT_EQ(kv.size(), 0u);
}

TEST_F(KvStoreTest, OneElementCallsPayTheBatchFenceBill) {
  // The persistence cost of the one operation path, single-threaded: a
  // put costs exactly what multi_put of one element costs — one fence
  // making the record durable before its link, one covering the link
  // before the call returns. A read fences only when it flushed a tagged
  // word: with no pwb outstanding its completion fence would complete
  // nothing, so it is skipped (ARCHITECTURE.md, "Dependency fences").
  KvStore kv(4, 64);
  const auto cost = [](const auto& op) {
    const pmem::StatsSnapshot before = pmem::stats_snapshot();
    op();
    return pmem::stats_snapshot() - before;
  };
  const auto pfences = [&](const auto& op) { return cost(op).pfences; };
  const std::vector<std::pair<std::int64_t, std::string_view>> one = {
      {2, "b"}};

  // Overwrites: the record fence and the covering publish fence.
  kv.put(1, "a");
  kv.multi_put(one);
  const std::uint64_t overwrite = pfences([&] { kv.put(1, "a2"); });
  EXPECT_EQ(overwrite, 2u);
  EXPECT_EQ(pfences([&] { kv.multi_put(one); }), overwrite);

  // Fresh inserts add the new node's own persist fence: its bytes must
  // be durable before the link can be observed.
  const std::uint64_t fresh = pfences([&] { kv.put(3, "c"); });
  EXPECT_EQ(fresh, 3u);
  const std::vector<std::pair<std::int64_t, std::string_view>> fresh_one = {
      {4, "d"}};
  EXPECT_EQ(pfences([&] { kv.multi_put(fresh_one); }), fresh);

  // Reads of an untagged store flush nothing, so they fence nothing.
  EXPECT_EQ(pfences([&] { (void)kv.get(1); }), 0u);
  EXPECT_EQ(pfences([&] { (void)kv.get(99); }), 0u);  // a miss too
  const std::vector<std::int64_t> key = {1};
  EXPECT_EQ(pfences([&] { (void)kv.multi_get(key); }), 0u);

  // A read that meets a word held tagged (a writer between its store
  // and its untag) flushes it and must then fence it.
  const void* word = value_word_of(kv, 1);
  ASSERT_NE(word, nullptr);
  HashedPolicy::tag(word);
  const pmem::StatsSnapshot tagged_get = cost([&] { (void)kv.get(1); });
  HashedPolicy::untag(word);
  EXPECT_EQ(tagged_get.pwbs, 1u);
  EXPECT_EQ(tagged_get.pfences, 1u);

  // A removal of a present key pays one trailing fence per persistent
  // CAS and no leading or completion fence: under Automatic that is the
  // mark, the value claim and the unlink. An absent key changes nothing
  // and fences nothing.
  EXPECT_EQ(pfences([&] { EXPECT_TRUE(kv.remove(3)); }), 3u);
  EXPECT_EQ(pfences([&] { EXPECT_FALSE(kv.remove(3)); }), 0u);

  // Under Manual the claim and unlink are cleanup stores, which are
  // volatile: only the mark CAS fences.
  Store<HashedWords, Manual> manual(4, 64);
  manual.put(5, "e");
  EXPECT_EQ(pfences([&] { EXPECT_TRUE(manual.remove(5)); }), 1u);
  EXPECT_EQ(pfences([&] { EXPECT_FALSE(manual.remove(5)); }), 0u);
}

TEST_F(KvStoreTest, MultiPutReservedKeyThrowsBeforeAnySideEffect) {
  // Validation is all-or-nothing: a reserved sentinel anywhere in the
  // batch must reject the whole batch before any element is applied.
  KvStore kv(2, 64);
  const std::vector<std::pair<std::int64_t, std::string_view>> kvs = {
      {1, "a"}, {std::numeric_limits<std::int64_t>::min(), "boom"}, {2, "b"}};
  EXPECT_THROW((void)kv.multi_put(kvs), std::invalid_argument);
  EXPECT_EQ(kv.get(1), std::nullopt) << "no element may be applied";
  EXPECT_EQ(kv.get(2), std::nullopt);
  EXPECT_EQ(kv.size(), 0u);
  // Reserved keys in read/remove batches are simply absent, as scalar.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(kv.multi_get(std::vector<std::int64_t>{kMax})[0], std::nullopt);
}

TEST_F(KvStoreTest, MultiGetUnderConcurrentUpsertsNeverMissesACommittedKey) {
  // The batched churn analogue of OverwriteChurnNeverHidesAKey, and the
  // TSan target for the multi-op path (this suite carries the kv label):
  // while writers overwrite a fixed committed key set with one-key puts
  // and 8-key multi_puts, a multi_get batch must never
  // observe absence or a torn value — the deferred-fence publish is a
  // plain atomic CAS to readers.
  KvStore kv(4, 64);
  constexpr std::int64_t kKeys = 48;
  for (std::int64_t k = 0; k < kKeys; ++k) kv.put(k, churn_value(k, 0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> absences{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&kv, &stop, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
      std::uint64_t salt = 1;
      std::vector<std::pair<std::int64_t, std::string>> vals;
      std::vector<std::pair<std::int64_t, std::string_view>> kvs;
      while (!stop.load(std::memory_order_relaxed)) {
        if (t == 0) {  // one-key overwrites
          const auto k = static_cast<std::int64_t>(rng() % kKeys);
          kv.put(k, churn_value(k, salt++));
        } else {  // batched overwrites
          vals.clear();
          kvs.clear();
          for (int i = 0; i < 8; ++i) {
            const auto k = static_cast<std::int64_t>(rng() % kKeys);
            vals.emplace_back(k, churn_value(k, salt++));
          }
          for (const auto& [k, v] : vals) kvs.emplace_back(k, v);
          kv.multi_put(kvs);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&kv, &absences, &torn, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      std::vector<std::int64_t> keys;
      for (int i = 0; i < 4'000; ++i) {
        keys.clear();
        for (int j = 0; j < 12; ++j) {
          keys.push_back(static_cast<std::int64_t>(rng() % kKeys));
        }
        const auto got = kv.multi_get(keys);
        for (std::size_t j = 0; j < keys.size(); ++j) {
          if (!got[j]) {
            absences.fetch_add(1);
          } else if (!churn_value_ok(keys[j], *got[j])) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(absences.load(), 0u)
      << "a committed key transiently vanished from a multi_get";
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(kv.size(), static_cast<std::size_t>(kKeys));
}

TEST_F(KvStoreTest, ConcurrentMixedOpsKeepValuesConsistent) {
  // Writers only ever store the deterministic pattern for a key; any read
  // must observe either absence or that exact pattern (never a torn or
  // cross-wired record).
  KvStore kv(4, 256);
  constexpr std::int64_t kRange = 512;
  constexpr int kThreads = 4;
  auto value_for = [](std::int64_t k) {
    return std::string(static_cast<std::size_t>(17 + 13 * (k % 97)),
                       static_cast<char>('A' + k % 23));
  };

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      for (int i = 0; i < 20'000; ++i) {
        const auto k = static_cast<std::int64_t>(rng() % kRange);
        switch (rng() % 4) {
          case 0:
            kv.put(k, value_for(k));
            break;
          case 1:
            kv.remove(k);
            break;
          default: {
            const auto v = kv.get(k);
            if (v && *v != value_for(k)) bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(bad.load(), 0u) << "reads must never observe torn values";

  // Post-quiescence: store agrees with a sequential sweep oracle.
  std::size_t present = 0;
  for (std::int64_t k = 0; k < kRange; ++k) {
    const auto v = kv.get(k);
    if (v) {
      EXPECT_EQ(*v, value_for(k)) << k;
      ++present;
    }
  }
  EXPECT_EQ(kv.size(), present);
}

}  // namespace
}  // namespace flit::kv
