// perfbench — the repository benchmark's load generator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans FILE] [--corrupt-one-read]
//   perfbench --self-test --workdir DIR
//
// Four closed-loop workloads, all YCSB key choice (scrambled zipfian,
// theta 0.99) with 100-byte values, at most four busy threads:
//
//   net_a_p64       YCSB A over loopback: in-process net::Server (2
//                   workers, hashed pool-backed store, durability never),
//                   2 client connections at pipeline depth 64 driven by
//                   one client thread, 200k keys; client and server share
//                   one CPU.
//   kv_a_scalar_2m  YCSB A in process: 2 threads of scalar get/put on a
//                   hashed pool-backed store of 2M keys (larger than LLC).
//   kv_c_b16_20k    YCSB C in process: 2 threads of 16-key multi_get on a
//                   hashed store of 20k keys (about 4 MB), then a short
//                   phase of 16-key multi_put overwrites that supplies
//                   the write percentiles.
//   ordered_e_file  YCSB E in process: 2 threads of scans (95%) and
//                   inserts (5%) on a file-backed ordered store in
//                   everysec durability, 200k keys loaded and a reserve
//                   of 100k for inserts; then close and reopen.
//
// The untraced run (--trace 0) sets up several times (setup_s is the
// median), measures for --seconds, recovers several times (recover_s is
// the median) and verifies the recovered store. The traced run (--trace 1)
// runs three fresh passes of a third of --seconds each — untraced,
// traced, and traced under the no-op persistence backend — and derives
// the per-layer metrics from their spans, counters and probes. Every read
// is checked against its key's payload stamp, every scan for order and
// completeness, every insert after reopen; any failure makes the exit
// code nonzero. The last line of stdout is the JSON result.
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/ycsb.hpp"
#include "core/modes.hpp"
#include "kv/store.hpp"
#include "metrics.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "pmem/backend.hpp"
#include "pmem/file_region.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"
#include "selftest.hpp"
#include "timed_store.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using flit::bench::Rng;
using flit::bench::Zipfian;
using HashStore = flit::kv::Store<flit::HashedWords, flit::NVTraverse>;
using OrderedStore =
    flit::kv::OrderedStore<flit::HashedWords, flit::NVTraverse>;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kValueBytes = 100;
constexpr double kTheta = 0.99;
constexpr int kWorkers = 2;      ///< load threads in process
constexpr int kLoadThreads = 4;  ///< most loader threads during set-up
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kPwbNominalNs = 90;
constexpr std::uint32_t kPfenceNominalNs = 60;

// --- verification ------------------------------------------------------------

/// Armed by --corrupt-one-read: the next verified read is corrupted
/// before its check, so the run must count exactly one failure.
std::atomic<bool> g_corrupt_next{false};

bool value_ok(std::int64_t k, const std::string& v) {
  if (g_corrupt_next.load(std::memory_order_relaxed) &&
      g_corrupt_next.exchange(false)) {
    std::string bad = v;
    if (!bad.empty()) bad[0] = static_cast<char>(bad[0] ^ 0x5A);
    return flit::bench::ycsb_value_matches(k, bad, kValueBytes);
  }
  return flit::bench::ycsb_value_matches(k, v, kValueBytes);
}

std::string value_for(std::int64_t k) {
  return flit::bench::ycsb_value(k, kValueBytes);
}

std::uint64_t thread_seed(std::uint64_t seed, int t) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t) + 1;
}

// --- CPU placement -----------------------------------------------------------

/// Restrict the calling thread to one CPU (threads it starts inherit it).
void run_on(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// The first CPU this process may run on.
int first_allowed_cpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) return c;
  }
  throw std::runtime_error("no CPU allowed");
}

/// Runs the calling thread on one CPU until the scope ends.
class PinnedScope {
 public:
  explicit PinnedScope(int cpu) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    run_on(cpu);
  }
  ~PinnedScope() { sched_setaffinity(0, sizeof saved_, &saved_); }
  PinnedScope(const PinnedScope&) = delete;
  PinnedScope& operator=(const PinnedScope&) = delete;

 private:
  cpu_set_t saved_;
};

// --- the timed phase ---------------------------------------------------------

/// Worker-side controls of one timed phase.
struct Ctl {
  static constexpr int kWindows = 10;
  std::atomic<bool> stop{false};
  /// The measured window samples go to, or -1 (warm-up, wind-down).
  std::atomic<int> window{-1};
  struct alignas(64) Count {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Count, kWorkers> ops;

  bool running() const noexcept {
    return !stop.load(std::memory_order_relaxed);
  }
  int current_window() const noexcept {
    return window.load(std::memory_order_relaxed);
  }
  /// Owner-thread-only increment (a plain relaxed store; main reads it).
  void add_ops(int t, std::uint64_t n) noexcept {
    auto& c = ops[static_cast<std::size_t>(t)].v;
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t s = 0;
    for (const Count& c : ops) s += c.v.load(std::memory_order_relaxed);
    return s;
  }
};

/// What one worker thread saw.
struct Out {
  std::vector<Series> read{Ctl::kWindows}, write{Ctl::kWindows};
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::int64_t> inserted;
  std::string bytes_sent;  ///< wire: sample of the request bytes
  std::string error;
};

/// One timed phase's results.
struct Pass {
  double mops = 0;  ///< median over the measured windows
  std::vector<double> window_mops;
  std::uint64_t ops = 0;  ///< every op of the phase, warm-up included
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Series> read{Ctl::kWindows}, write{Ctl::kWindows};
  flit::pmem::StatsSnapshot persist;  ///< delta over the phase
  double space_amp = 0;
  std::size_t limbo_max = 0;
  std::uint64_t epochs = 0;
  std::vector<std::int64_t> inserted;
  std::vector<Span> spans;
  std::string bytes_sent;
  std::uint64_t stats_scalar = 0, stats_batched = 0;  ///< wire STATS deltas
  std::vector<std::string> errors;
};

void sleep_sampling(Clock::time_point until, std::size_t& limbo_max) {
  while (Clock::now() < until) {
    limbo_max = std::max(limbo_max, flit::recl::Ebr::instance().limbo_size());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Run `body(t, ctl, out)` on `workers` threads (at most kWorkers): a
/// warm-up of a tenth of `seconds` (at most 1 s), then `seconds` measured
/// in Ctl::kWindows windows. Workers file each latency sample under the current window;
/// rates and percentiles are taken per window and reported as the median
/// window's, which keeps a burst of interference from other tenants of
/// the host (visible as steal time) from moving the figures.
template <class Body>
Pass run_timed(double seconds, Body body, int workers = kWorkers) {
  Ctl ctl;
  std::vector<Out> outs(static_cast<std::size_t>(workers));
  Pass p;
  const flit::pmem::StatsSnapshot before = flit::pmem::stats_snapshot();
  const std::uint64_t epoch0 = flit::recl::Ebr::instance().epoch();
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      Out& o = outs[static_cast<std::size_t>(t)];
      try {
        body(t, ctl, o);
      } catch (const std::exception& e) {
        o.error = e.what();
        ++o.attempted;
        ++o.failed;
        ctl.stop.store(true);
      }
    });
  }
  const auto start = Clock::now();
  const auto warm = std::chrono::duration<double>(std::min(1.0, seconds / 10));
  sleep_sampling(start + std::chrono::duration_cast<Clock::duration>(warm),
                 p.limbo_max);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / Ctl::kWindows));
  std::vector<double> rates;
  auto t_prev = Clock::now();
  std::uint64_t ops_prev = ctl.total();
  for (int w = 0; w < Ctl::kWindows && ctl.running(); ++w) {
    ctl.window.store(w);
    sleep_sampling(t_prev + window, p.limbo_max);
    const auto t_now = Clock::now();
    const std::uint64_t ops_now = ctl.total();
    rates.push_back(static_cast<double>(ops_now - ops_prev) /
                    std::chrono::duration<double>(t_now - t_prev).count());
    t_prev = t_now;
    ops_prev = ops_now;
  }
  ctl.window.store(-1);
  ctl.stop.store(true);
  for (std::thread& th : threads) th.join();
  p.persist = flit::pmem::stats_snapshot() - before;
  p.epochs = flit::recl::Ebr::instance().epoch() - epoch0;
  p.ops = ctl.total();
  for (const double r : rates) p.window_mops.push_back(r / 1e6);
  p.mops = median(p.window_mops);
  for (Out& o : outs) {
    for (int w = 0; w < Ctl::kWindows; ++w) {
      p.read[w].merge(o.read[w]);
      p.write[w].merge(o.write[w]);
    }
    p.attempted += o.attempted;
    p.failed += o.failed;
    p.inserted.insert(p.inserted.end(), o.inserted.begin(), o.inserted.end());
    p.bytes_sent += o.bytes_sent;
    if (!o.error.empty()) p.errors.push_back(o.error);
  }
  return p;
}

// --- set-up helpers ----------------------------------------------------------

/// Load the n keys 0, stride, 2 * stride, ... with multi_put(batch) calls
/// on one loader thread per 500k keys (at least 1, at most kLoadThreads).
/// A load of a few hundred milliseconds or less stays on one thread:
/// several short-lived loaders were at times stacked on one CPU by the
/// scheduler and at times not, which made such set-up times bimodal.
template <class KV>
void load_keys(KV& store, std::int64_t n, std::size_t batch,
               std::int64_t stride = 1) {
  const int loaders = static_cast<int>(
      std::clamp<std::int64_t>(n / 500'000, 1, kLoadThreads));
  std::vector<std::string> errors(static_cast<std::size_t>(loaders));
  std::vector<std::thread> threads;
  for (int t = 0; t < loaders; ++t) {
    threads.emplace_back([&, t] {
      try {
        const std::int64_t lo = n * t / loaders;
        const std::int64_t hi = n * (t + 1) / loaders;
        std::vector<std::string> vals;
        std::vector<std::pair<std::int64_t, std::string_view>> kvs;
        for (std::int64_t k = lo; k < hi;) {
          const std::int64_t end =
              std::min<std::int64_t>(hi, k + static_cast<std::int64_t>(batch));
          vals.clear();
          kvs.clear();
          for (std::int64_t j = k; j < end; ++j) {
            vals.push_back(value_for(j * stride));
          }
          for (std::int64_t j = k; j < end; ++j) {
            kvs.emplace_back(j * stride, vals[static_cast<std::size_t>(j - k)]);
          }
          store.multi_put(kvs);
          k = end;
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("load failed: " + e);
  }
}

/// How often to repeat a short measurement (set-up, recovery): at least
/// `min` times and until `seconds` have been spent, at most `max` times.
struct Repeat {
  int min, max;
  double seconds;

  bool more(const std::vector<double>& done) const {
    double spent = 0;
    for (const double d : done) spent += d;
    const auto n = static_cast<int>(done.size());
    return n < max && (n < min || spent < seconds);
  }
};

/// Times and verifies recoveries of a store.
struct Recovery {
  std::vector<double> seconds;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

/// Start a store from an empty pool of `bytes`. The first call maps the
/// pool; later calls drop every allocation but keep the mapping and its
/// faulted-in pages, so repeated set-ups time building the store rather
/// than the host's page-fault service, which varied from run to run.
void fresh_pool(std::size_t bytes) {
  flit::pmem::Pool& pool = flit::pmem::Pool::instance();
  if (pool.capacity() == bytes) {
    pool.reset();
  } else {
    pool.reinit(bytes);
  }
}

/// Pool bytes handed out per live value byte.
double space_amp(std::size_t live_keys) {
  return static_cast<double>(flit::pmem::Pool::instance().bump_used()) /
         (static_cast<double>(live_keys) * kValueBytes);
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Pool-backed recovery: close the store and rebuild it from its
/// superblock as often as `rep` says; the last recovered store is
/// verified (key count and a probe of 1000 keys) and handed back.
std::unique_ptr<HashStore> recover_pool_store(std::unique_ptr<HashStore> s,
                                              std::int64_t keys, Repeat rep,
                                              std::uint64_t seed,
                                              Recovery& rec) {
  HashStore::Superblock* sb = s->superblock();
  while (rep.more(rec.seconds)) {
    s->close();
    s.reset();
    const std::uint64_t t0 = now_ns();
    s = std::make_unique<HashStore>(HashStore::recover(sb));
    rec.seconds.push_back(seconds_since(t0));
  }
  rec.check(s->size() == static_cast<std::size_t>(keys),
            "recovered key count " + std::to_string(s->size()) + " != " +
                std::to_string(keys));
  Rng rng(thread_seed(seed, 99));
  for (int i = 0; i < 1000; ++i) {
    const auto k = static_cast<std::int64_t>(rng.next() %
                                             static_cast<std::uint64_t>(keys));
    const auto v = s->get(k);
    rec.check(v && value_ok(k, *v),
              "key " + std::to_string(k) + " bad after recovery");
  }
  return s;
}

// --- workloads ---------------------------------------------------------------

struct RunConfig {
  std::uint64_t seed = 1;
  std::string workdir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a fresh store (and server) and load it; returns seconds.
  virtual double setup(const RunConfig& rc) = 0;
  /// The timed phase on the store setup() built.
  virtual Pass run(double seconds, bool traced, const RunConfig& rc) = 0;
  /// Recover the store as often as `rep` says, timing each, and verify.
  virtual void recover(Repeat rep, const RunConfig& rc, Recovery& rec) = 0;
  /// Drop the store (and server).
  virtual void teardown() = 0;
  virtual bool wire() const { return false; }
};

/// kv_a_scalar_2m and kv_c_b16_20k: hashed pool-backed store driven in
/// process. batch == 1 runs YCSB A as scalar get/put (50/50); batch > 1
/// runs YCSB C as read-only multi_get calls of `batch` keys.
class InProcessHashed final : public Workload {
 public:
  InProcessHashed(std::int64_t keys, std::size_t batch,
                  std::size_t pool_bytes, int trace_every)
      : keys_(keys),
        batch_(batch),
        pool_bytes_(pool_bytes),
        trace_every_(trace_every),
        zipf_(static_cast<std::uint64_t>(keys), kTheta) {}

  double setup(const RunConfig&) override {
    teardown();
    const std::uint64_t t0 = now_ns();
    fresh_pool(pool_bytes_);
    store_ = std::make_unique<HashStore>(
        kShards, static_cast<std::size_t>(keys_) / kShards);
    load_keys(*store_, keys_, 64);
    return seconds_since(t0);
  }

  Pass run(double seconds, bool traced, const RunConfig& rc) override {
    HashStore& s = *store_;
    Pass p = run_timed(seconds, [&](int t, Ctl& ctl, Out& o) {
      Rng rng(thread_seed(rc.seed, t));
      std::uint64_t n = 0;
      std::vector<std::int64_t> keys(batch_);
      while (ctl.running()) {
        const bool trace = traced && (++n % static_cast<std::uint64_t>(
                                                 trace_every_) == 0);
        const int win = ctl.current_window();
        if (batch_ > 1) {
          for (auto& k : keys) {
            k = static_cast<std::int64_t>(zipf_.next_scrambled(rng));
          }
          Scope op(SpanName::kDriverOp, trace,
                   static_cast<std::uint32_t>(batch_));
          const std::uint64_t t0 = now_ns();
          std::vector<std::optional<std::string>> vals;
          {
            Scope call(SpanName::kKvMultiGet, trace,
                       static_cast<std::uint32_t>(batch_));
            vals = s.multi_get(keys);
          }
          const std::uint64_t t1 = now_ns();
          if (win >= 0) o.read[win].add(t1 - t0);
          for (std::size_t i = 0; i < batch_; ++i) {
            ++o.attempted;
            if (!vals[i] || !value_ok(keys[i], *vals[i])) ++o.failed;
          }
          ctl.add_ops(t, batch_);
          continue;
        }
        const auto k = static_cast<std::int64_t>(zipf_.next_scrambled(rng));
        Scope op(SpanName::kDriverOp, trace, 1);
        ++o.attempted;
        if (rng.next_unit() < 0.5) {
          const std::uint64_t t0 = now_ns();
          std::optional<std::string> v;
          {
            Scope call(SpanName::kKvGet, trace, 1);
            v = s.get(k);
          }
          const std::uint64_t t1 = now_ns();
          if (win >= 0) o.read[win].add(t1 - t0);
          if (!v || !value_ok(k, *v)) ++o.failed;
        } else {
          const std::string v = value_for(k);
          const std::uint64_t t0 = now_ns();
          bool fresh = false;
          {
            Scope call(SpanName::kKvPut, trace, 1);
            fresh = s.put(k, v);
          }
          const std::uint64_t t1 = now_ns();
          if (win >= 0) o.write[win].add(t1 - t0);
          if (fresh) ++o.failed;  // every key was loaded: an overwrite
        }
        ctl.add_ops(t, 1);
      }
    });
    p.space_amp = space_amp(s.size());
    if (batch_ > 1) add_overwrite_phase(seconds / 4, traced, rc, p);
    return p;
  }

  void recover(Repeat rep, const RunConfig& rc, Recovery& rec) override {
    store_ = recover_pool_store(std::move(store_), keys_, rep, rc.seed, rec);
  }

  void teardown() override { store_.reset(); }

 private:
  /// YCSB C has no writes, yet every workload reports write percentiles:
  /// after the measured reads (whose rate, counters and space figure are
  /// already taken), a short phase of `batch_`-key multi_put overwrites
  /// supplies them.
  void add_overwrite_phase(double seconds, bool traced, const RunConfig& rc,
                           Pass& p) {
    HashStore& s = *store_;
    Pass w = run_timed(seconds, [&](int t, Ctl& ctl, Out& o) {
      Rng rng(thread_seed(rc.seed + 1, t));
      std::uint64_t n = 0;
      std::vector<std::int64_t> keys(batch_);
      std::vector<std::string> vals(batch_);
      std::vector<std::pair<std::int64_t, std::string_view>> kvs(batch_);
      while (ctl.running()) {
        const bool trace = traced && (++n % static_cast<std::uint64_t>(
                                                 trace_every_) == 0);
        const int win = ctl.current_window();
        for (std::size_t i = 0; i < batch_; ++i) {
          keys[i] = static_cast<std::int64_t>(zipf_.next_scrambled(rng));
          vals[i] = value_for(keys[i]);
          kvs[i] = {keys[i], vals[i]};
        }
        Scope op(SpanName::kDriverOp, trace,
                 static_cast<std::uint32_t>(batch_));
        const std::uint64_t t0 = now_ns();
        std::vector<bool> fresh;
        {
          Scope call(SpanName::kKvMultiPut, trace,
                     static_cast<std::uint32_t>(batch_));
          fresh = s.multi_put(kvs);
        }
        if (win >= 0) o.write[win].add(now_ns() - t0);
        for (std::size_t i = 0; i < batch_; ++i) {
          ++o.attempted;
          if (fresh[i]) ++o.failed;  // every key was loaded: an overwrite
        }
        ctl.add_ops(t, batch_);
      }
    });
    p.write = std::move(w.write);
    p.attempted += w.attempted;
    p.failed += w.failed;
    p.errors.insert(p.errors.end(), w.errors.begin(), w.errors.end());
  }

  std::int64_t keys_;
  std::size_t batch_;
  std::size_t pool_bytes_;
  int trace_every_;
  Zipfian zipf_;
  std::unique_ptr<HashStore> store_;
};

/// A net::Server over some store type, listening on a background thread.
struct RunningServer {
  virtual ~RunningServer() = default;
  virtual std::uint16_t port() const = 0;
};

template <class KV>
class ServerOf final : public RunningServer {
 public:
  ServerOf(KV& store, flit::net::ServerConfig cfg)
      : server_(store, std::move(cfg)), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: server stopped: %s\n", e.what());
          }
        }) {}
  ~ServerOf() override {
    server_.shutdown();
    thread_.join();
  }
  ServerOf(const ServerOf&) = delete;
  ServerOf& operator=(const ServerOf&) = delete;

  std::uint16_t port() const override { return server_.port(); }

 private:
  flit::net::Server<KV> server_;
  std::thread thread_;
};

std::uint64_t stats_field(const std::string& stats, const char* key) {
  const std::string k = std::string(" ") + key + "=";
  const std::string padded = " " + stats;
  const auto pos = padded.find(k);
  if (pos == std::string::npos) {
    throw std::runtime_error(std::string("STATS lacks ") + key);
  }
  return std::strtoull(padded.c_str() + pos + k.size(), nullptr, 10);
}

/// net_a_p64: YCSB A through the epoll server over loopback.
class Wire final : public Workload {
  /// One client connection and the burst it has in flight.
  struct Connection {
    explicit Connection(std::uint16_t port)
        : client(flit::net::Client::connect("127.0.0.1", port)) {}

    flit::net::Client client;
    std::vector<std::int64_t> rk, wk;
    std::uint64_t t0 = 0;  ///< when the burst was flushed

    /// Choose kDepth keys, half reads and half writes, and queue the
    /// burst: reads first, then writes, which the server turns into one
    /// multi_get and one multi_put. `sample` also appends its bytes to
    /// `sent` for the parser probe.
    void prepare(const Zipfian& zipf, Rng& rng, bool sample,
                 std::string& sent) {
      rk.clear();
      wk.clear();
      for (std::size_t i = 0; i < kDepth; ++i) {
        const auto k = static_cast<std::int64_t>(zipf.next_scrambled(rng));
        (rng.next_unit() < 0.5 ? rk : wk).push_back(k);
      }
      for (const auto k : rk) {
        const std::string key = std::to_string(k);
        client.enqueue({"GET", key});
        if (sample) flit::net::append_request(sent, {"GET", key});
      }
      for (const auto k : wk) {
        const std::string key = std::to_string(k);
        const std::string value = value_for(k);
        client.enqueue({"SET", key, value});
        if (sample) flit::net::append_request(sent, {"SET", key, value});
      }
    }

    /// Read and check the burst's replies; latency runs from the flush.
    void collect(int win, Out& o) {
      for (const auto k : rk) {
        const flit::net::Reply r = client.read_reply();
        if (win >= 0) o.read[win].add(now_ns() - t0);
        ++o.attempted;
        if (r.type != flit::net::Reply::Type::kBulk || !value_ok(k, r.str)) {
          ++o.failed;
        }
      }
      for (std::size_t i = 0; i < wk.size(); ++i) {
        const flit::net::Reply r = client.read_reply();
        if (win >= 0) o.write[win].add(now_ns() - t0);
        ++o.attempted;
        if (!r.ok()) ++o.failed;
      }
    }
  };

 public:
  static constexpr std::int64_t kKeys = 200'000;
  static constexpr std::size_t kDepth = 64;
  static constexpr int kConnections = 2;
  /// Rounds (one burst per connection each) whose bytes feed the parser
  /// probe.
  static constexpr int kParseSampleRounds = 256;

  Wire() : zipf_(kKeys, kTheta), cpu_(first_allowed_cpu()) {}

  double setup(const RunConfig&) override {
    teardown();
    const std::uint64_t t0 = now_ns();
    fresh_pool(std::size_t{256} << 20);
    store_ = std::make_unique<HashStore>(kShards, kKeys / kShards);
    load_keys(*store_, kKeys, 64);
    boot(false);
    return seconds_since(t0);
  }

  bool wire() const override { return true; }

  Pass run(double seconds, bool traced, const RunConfig& rc) override {
    // The traced pass serves through the timing wrapper (its spans are
    // the server-side KV calls); the untraced pass serves the bare store.
    if (traced) boot(true);
    const std::uint16_t port = server_->port();
    const std::string before = stats(port);
    // One client thread drives both connections: it flushes a burst on
    // each, then reads both bursts' replies. With a client thread per
    // connection, the five threads sharing the CPU fell into a different
    // order of hand-offs in each run, and throughput and p50 spread 0.16
    // and 0.23 (IQR over median, five 20 s runs) against 0.05 and 0.06.
    Pass p = run_timed(seconds, [&](int t, Ctl& ctl, Out& o) {
      run_on(cpu_);
      std::vector<Connection> conns;
      for (int i = 0; i < kConnections; ++i) conns.emplace_back(port);
      Rng rng(thread_seed(rc.seed, t));
      int sampled = 0;
      while (ctl.running()) {
        const bool sample = traced && sampled < kParseSampleRounds;
        if (sample) ++sampled;
        for (Connection& c : conns) c.prepare(zipf_, rng, sample, o.bytes_sent);
        const int win = ctl.current_window();
        Scope round(SpanName::kNetRound, traced,
                    static_cast<std::uint32_t>(kDepth * conns.size()));
        for (Connection& c : conns) {
          Scope flush(SpanName::kNetFlush, traced, kDepth);
          c.t0 = now_ns();
          c.client.flush();
        }
        for (Connection& c : conns) c.collect(win, o);
        ctl.add_ops(t, kDepth * conns.size());
      }
    }, 1);
    const std::string after = stats(port);
    p.stats_scalar =
        stats_field(after, "scalar_ops") - stats_field(before, "scalar_ops");
    p.stats_batched = stats_field(after, "batched_keys") -
                      stats_field(before, "batched_keys");
    p.space_amp = space_amp(store_->size());
    return p;
  }

  void recover(Repeat rep, const RunConfig& rc, Recovery& rec) override {
    stop_server();
    store_ = recover_pool_store(std::move(store_), kKeys, rep, rc.seed, rec);
  }

  void teardown() override {
    stop_server();
    store_.reset();
  }

 private:
  static std::string stats(std::uint16_t port) {
    flit::net::Client c = flit::net::Client::connect("127.0.0.1", port);
    const flit::net::Reply r = c.command({"STATS"});
    if (r.type != flit::net::Reply::Type::kBulk) {
      throw std::runtime_error("STATS failed: " + r.str);
    }
    return r.str;
  }

  void boot(bool timed) {
    stop_server();
    flit::net::ServerConfig cfg;
    cfg.host = "127.0.0.1";
    cfg.port = 0;
    cfg.workers = 2;
    // The server's threads inherit the CPU of the thread that starts them.
    PinnedScope pin(cpu_);
    if (timed) {
      timed_ = std::make_unique<TimedStore<HashStore>>(*store_);
      server_ = std::make_unique<ServerOf<TimedStore<HashStore>>>(*timed_, cfg);
    } else {
      server_ = std::make_unique<ServerOf<HashStore>>(*store_, cfg);
    }
  }

  void stop_server() {
    server_.reset();
    timed_.reset();
  }

  Zipfian zipf_;
  /// The client and the whole server (listener and workers) share one
  /// CPU: a round trip then hands the CPU from thread to thread and never
  /// wakes an idle vCPU. On a shared host that wake-up waits for the
  /// hypervisor (it shows as steal time); with the threads spread over
  /// all four vCPUs, or the clients on one CPU and the server on
  /// another, it dominated this workload's run-to-run spread. The price:
  /// the two workers never run at once, so this workload does not
  /// measure worker concurrency or client/server overlap.
  int cpu_;
  std::unique_ptr<HashStore> store_;
  std::unique_ptr<TimedStore<HashStore>> timed_;
  std::unique_ptr<RunningServer> server_;  // destroyed before the store
};

/// ordered_e_file: YCSB E on a file-backed ordered store, everysec.
///
/// The load takes the even keys 0, 2, ..., 2 * (kKeys - 1); inserts take
/// odd keys from a reserve of kReserve, scattered over the whole key range
/// (so over every shard). Once a thread has filled its share of the
/// reserve, its writes overwrite its own inserts in the same order. The
/// store the run leaves (and that recover_s reopens) thus has kKeys +
/// kReserve keys whatever the throughput was, as long as the reserve
/// fills within the run (it takes about a third of a 20 s run).
class OrderedFile final : public Workload {
 public:
  static constexpr std::int64_t kKeys = 200'000;
  static constexpr std::int64_t kReserve = 100'000;
  /// Reserve slot s holds odd key 2 * (s * kScatter mod kKeys) + 1;
  /// kScatter is prime to kKeys, so the slots map to distinct keys.
  static constexpr std::int64_t kScatter = 7919;
  static constexpr std::size_t kFileBytes = std::size_t{512} << 20;
  static constexpr std::uint64_t kMaxScan = 100;
  static constexpr std::uint64_t kTraceEvery = 8;  ///< ops per traced op

  OrderedFile() : zipf_(kKeys, kTheta) {}

  double setup(const RunConfig& rc) override {
    teardown();
    path_ = rc.workdir + "/ordered_e.img";
    flit::pmem::FileRegion::destroy(path_);
    const std::uint64_t t0 = now_ns();
    store_ = std::make_unique<OrderedStore>(open());
    load_keys(*store_, kKeys, 64, 2);
    const double s = seconds_since(t0);
    // The load is durable before the timed phase. The msync writes the
    // file to disk, whose speed varies with the host's other tenants, so
    // it is left out of setup_s.
    store_->checkpoint();
    // Each checkpoint pre→post becomes a span on the flusher thread. The
    // hooks go in before the flusher starts (they are not thread-safe
    // against a running checkpoint).
    store_->set_checkpoint_hooks(
        [this] { ckpt_start_ = now_ns(); },
        [this] {
          Tracer::instance().record(SpanName::kKvCheckpoint, ckpt_start_,
                                    now_ns());
        });
    store_->set_durability_mode(flit::kv::DurabilityMode::kEverySec);
    return s;
  }

  Pass run(double seconds, bool traced, const RunConfig& rc) override {
    OrderedStore& s = *store_;
    Pass p = run_timed(seconds, [&](int t, Ctl& ctl, Out& o) {
      Rng rng(thread_seed(rc.seed, t));
      std::vector<std::pair<std::int64_t, std::string>> out;
      std::uint64_t n = 0;
      std::int64_t writes = 0;
      while (ctl.running()) {
        const int win = ctl.current_window();
        const bool trace = traced && ++n % kTraceEvery == 0;
        ++o.attempted;
        if (rng.next_unit() < 0.95) {
          const auto start =
              2 * static_cast<std::int64_t>(zipf_.next_scrambled(rng));
          const std::uint64_t len = 1 + rng.next() % kMaxScan;
          Scope op(SpanName::kDriverOp, trace, 1);
          const std::uint64_t t0 = now_ns();
          {
            Scope call(SpanName::kKvScan, trace);
            s.scan(start, len, out);
            call.set_items(static_cast<std::uint32_t>(out.size()));
          }
          const std::uint64_t t1 = now_ns();
          if (win >= 0) o.read[win].add(t1 - t0);
          if (!scan_ok(start, len, out)) ++o.failed;
        } else {
          // Thread t owns reserve slots t, t + kWorkers, ...
          constexpr std::int64_t kShare = kReserve / kWorkers;
          const bool insert = writes < kShare;
          const std::int64_t k = reserve_key(t + (writes % kShare) * kWorkers);
          ++writes;
          const std::string v = value_for(k);
          Scope op(SpanName::kDriverOp, trace, 1);
          const std::uint64_t t0 = now_ns();
          bool fresh = false;
          {
            Scope call(SpanName::kKvPut, trace, 1);
            fresh = s.put(k, v);
          }
          const std::uint64_t t1 = now_ns();
          if (win >= 0) o.write[win].add(t1 - t0);
          if (fresh != insert) ++o.failed;
          if (insert) o.inserted.push_back(k);
        }
        ctl.add_ops(t, 1);
      }
    });
    p.space_amp = space_amp(s.size());
    inserted_ = p.inserted;
    return p;
  }

  void recover(Repeat rep, const RunConfig&, Recovery& rec) override {
    const std::size_t expect =
        static_cast<std::size_t>(kKeys) + inserted_.size();
    while (rep.more(rec.seconds)) {
      store_->close();
      store_.reset();
      const std::uint64_t t0 = now_ns();
      store_ = std::make_unique<OrderedStore>(open());
      rec.seconds.push_back(seconds_since(t0));
    }
    OrderedStore& s = *store_;
    rec.check(s.size() == expect, "reopened key count " +
                                      std::to_string(s.size()) + " != " +
                                      std::to_string(expect));
    for (const std::int64_t k : inserted_) {
      const auto v = s.get(k);
      rec.check(v && value_ok(k, *v),
                "insert " + std::to_string(k) + " missing after reopen");
    }
    // One pass over everything: strictly ascending, stamps intact.
    std::vector<std::pair<std::int64_t, std::string>> out;
    std::int64_t next = std::numeric_limits<std::int64_t>::min();
    std::size_t seen = 0;
    for (;;) {
      s.scan(next, 4096, out);
      if (out.empty()) break;
      bool ok = true;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ok = ok && value_ok(out[i].first, out[i].second) &&
             (i == 0 || out[i - 1].first < out[i].first) &&
             out[i].first >= next;
      }
      rec.check(ok, "reopened scan out of order or corrupt near key " +
                        std::to_string(out.front().first));
      seen += out.size();
      next = out.back().first + 1;
    }
    rec.check(seen == expect, "reopened scan saw " + std::to_string(seen) +
                                  " keys, expected " + std::to_string(expect));
  }

  void teardown() override {
    store_.reset();
    if (!path_.empty()) {
      // A closed file store leaves the pool on the unmapped region.
      flit::pmem::Pool::instance().reinit(std::size_t{64} << 20);
      flit::pmem::FileRegion::destroy(path_);
    }
  }

 private:
  OrderedStore open() {
    return OrderedStore::open(path_, kFileBytes, kShards, 64,
                              flit::kv::KeyRange{0, 2 * kKeys});
  }

  static std::int64_t reserve_key(std::int64_t slot) {
    return 2 * (slot * kScatter % kKeys) + 1;
  }

  /// A scan from a loaded (even) key returns ascending keys from start on,
  /// with intact stamps, and every loaded key up to its last one (inserts
  /// may add odd keys between them; nothing is removed). It returns `len`
  /// keys unless it reached the last loaded key.
  static bool scan_ok(
      std::int64_t start, std::uint64_t len,
      const std::vector<std::pair<std::int64_t, std::string>>& out) {
    if (out.empty() || out.size() > len || out.front().first != start) {
      return false;
    }
    std::int64_t evens = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t k = out[i].first;
      if (k >= 2 * kKeys || (i > 0 && out[i - 1].first >= k)) return false;
      if (!value_ok(k, out[i].second)) return false;
      if (k % 2 == 0) ++evens;
    }
    const std::int64_t last = out.back().first;
    if (evens != (last - last % 2 - start) / 2 + 1) return false;
    return out.size() == len || last >= 2 * (kKeys - 1);
  }

  Zipfian zipf_;
  std::string path_;
  std::unique_ptr<OrderedStore> store_;
  std::vector<std::int64_t> inserted_;
  std::uint64_t ckpt_start_ = 0;  ///< flusher thread only
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "net_a_p64") return std::make_unique<Wire>();
  if (name == "kv_a_scalar_2m") {
    return std::make_unique<InProcessHashed>(2'000'000, 1,
                                             std::size_t{3} << 29, 32);
  }
  if (name == "kv_c_b16_20k") {
    return std::make_unique<InProcessHashed>(20'000, 16,
                                             std::size_t{64} << 20, 16);
  }
  if (name == "ordered_e_file") return std::make_unique<OrderedFile>();
  return nullptr;
}

// --- probes ------------------------------------------------------------------

/// Achieved ns per call of `fn`, median of eleven rounds of `n` calls.
template <class Fn>
double probe_ns(int n, Fn fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 11; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) fn(i);
    rounds.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  return median(rounds);
}

struct Calibration {
  double pwb_ns = 0, pfence_ns = 0;
};

Calibration calibrate_pmem() {
  alignas(64) static char lines[64 * 64];
  Calibration c;
  c.pwb_ns = probe_ns(20000, [](int i) {
    flit::pmem::pwb(lines + (i % 64) * 64);
  });
  c.pfence_ns = probe_ns(20000, [](int) { flit::pmem::pfence(); });
  return c;
}

/// Parse the recorded request bytes until at least 20 ms have passed.
double parse_ns_per_req(const std::string& bytes) {
  if (bytes.empty()) return 0;
  std::uint64_t reqs = 0;
  const std::uint64_t t0 = now_ns();
  do {
    flit::net::RequestParser parser;
    parser.feed(bytes);
    flit::net::Request req;
    while (parser.next(req) == flit::net::ParseStatus::kOk) ++reqs;
  } while (now_ns() - t0 < 20'000'000);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(reqs);
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_quantile(const char* label, const PartsQuantile& q, double scale,
                    const char* unit) {
  std::printf("  %-16s %12.3f %s  (median of %zu windows, n=%llu%s)\n",
              label, q.value * scale, unit, q.parts,
              static_cast<unsigned long long>(q.n),
              q.unresolved ? ", UNRESOLVED: a part has fewer than 10 beyond"
                           : "");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string spans;
  bool corrupt_one_read = false;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE] "
               "[--corrupt-one-read] | --self-test --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--spans") {
      o.spans = value();
    } else if (a == "--corrupt-one-read") {
      o.corrupt_one_read = true;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!o.self_test && o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string js = std::string("{\"correct\": ") +
                   (correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(attempted) +
                   ", \"failed\": " + std::to_string(failed) +
                   ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    js += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
          ", \"unit\": \"" + m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
}

void print_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::printf("  FAILURE: %s\n", e.c_str());
  }
}

/// Set-ups and recoveries are short, so each run repeats them and
/// reports the median.
constexpr Repeat kSetupRepeat{3, 40, 2.0};
constexpr Repeat kRecoverRepeat{5, 50, 0.5};

int run_untraced(Workload& w, const Options& o, const RunConfig& rc) {
  // Several set-ups, each from scratch; the last one is measured.
  std::vector<double> setups;
  while (kSetupRepeat.more(setups)) setups.push_back(w.setup(rc));
  Pass p = w.run(o.seconds, false, rc);
  Recovery rec;
  w.recover(kRecoverRepeat, rc, rec);
  w.teardown();

  const PartsQuantile r50 = parts_quantile(p.read, 0.50);
  const PartsQuantile r99 = parts_quantile(p.read, 0.99);
  const PartsQuantile w50 = parts_quantile(p.write, 0.50);
  const PartsQuantile w99 = parts_quantile(p.write, 0.99);
  const std::uint64_t attempted = p.attempted + rec.attempted;
  const std::uint64_t failed = p.failed + rec.failed;
  const double ops = static_cast<double>(std::max<std::uint64_t>(p.ops, 1));

  std::printf("workload %s seed %llu: %.3f s measured, %llu ops\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, static_cast<unsigned long long>(p.ops));
  std::printf("  window Mops     ");
  for (const double r : p.window_mops) std::printf(" %.3f", r);
  std::printf("\n");
  print_quantile("read p50", r50, 1e-3, "us");
  print_quantile("read p99", r99, 1e-3, "us");
  print_quantile("write p50", w50, 1e-3, "us");
  print_quantile("write p99", w99, 1e-3, "us");
  std::printf("  set-ups (s)     ");
  for (const double t : setups) std::printf(" %.4f", t);
  std::printf("\n  recoveries (s)  ");
  for (const double t : rec.seconds) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("  failed_frac      %12.6g ratio (%llu of %llu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  pwbs_per_op      %12.4f pwbs/op\n",
              static_cast<double>(p.persist.pwbs) / ops);
  print_errors(p.errors);
  print_errors(rec.errors);

  const std::vector<Metric> metrics = {
      {"throughput_mops", p.mops, "Mops"},
      {"read_p50_us", r50.value / 1e3, "us"},
      {"read_p99_us", r99.value / 1e3, "us"},
      {"write_p50_us", w50.value / 1e3, "us"},
      {"write_p99_us", w99.value / 1e3, "us"},
      {"setup_s", median(setups), "s"},
      {"recover_s", median(rec.seconds), "s"},
      {"space_amp", p.space_amp, "ratio"},
      {"pfences_per_op", static_cast<double>(p.persist.pfences) / ops,
       "pfences/op"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-16s %12.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int run_traced(Workload& w, const Options& o, const RunConfig& rc,
               const Calibration& cal) {
  const double third = o.seconds / 3;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto pass = [&](bool traced, flit::pmem::Backend backend) {
    flit::pmem::set_backend(backend);
    w.setup(rc);
    Tracer::instance().set_enabled(traced);
    Pass p = w.run(third, traced, rc);
    Tracer::instance().set_enabled(false);
    Recovery rec;
    w.recover(Repeat{1, 1, 0}, rc, rec);
    w.teardown();
    // Only now has every thread that records spans (server workers, the
    // checkpoint flusher) stopped.
    p.spans = Tracer::instance().take();
    flit::pmem::set_backend(flit::pmem::Backend::kSimLatency);
    attempted += p.attempted + rec.attempted;
    failed += p.failed + rec.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    errors.insert(errors.end(), rec.errors.begin(), rec.errors.end());
    return p;
  };
  const Pass plain = pass(false, flit::pmem::Backend::kSimLatency);
  Pass traced = pass(true, flit::pmem::Backend::kSimLatency);
  const Pass noop = pass(true, flit::pmem::Backend::kNoOp);

  if (!o.spans.empty()) write_spans(o.spans, traced.spans);
  std::map<SpanName, SpanTotals> agg = aggregate(traced.spans);
  const auto total = [&](SpanName n) { return agg[n].total_ns; };
  const auto per_item = [&](SpanName n) {
    const SpanTotals& t = agg[n];
    return t.items ? static_cast<double>(t.total_ns) / t.items : 0.0;
  };
  const auto pct = [&](SpanName n, double q) {
    return nearest_rank(agg[n].durations, q).value;
  };

  double kv_share = 0, keys_per_call = 0, scalar_share = 0, parse_ns = 0;
  if (w.wire()) {
    std::uint64_t kv_ns = 0, kv_calls = 0, kv_keys = 0;
    for (const SpanName n :
         {SpanName::kKvGet, SpanName::kKvPut, SpanName::kKvRemove,
          SpanName::kKvMultiGet, SpanName::kKvMultiPut,
          SpanName::kKvMultiRemove}) {
      kv_ns += agg[n].self_ns;
      kv_calls += agg[n].count;
      kv_keys += agg[n].items;
    }
    const std::uint64_t rounds = total(SpanName::kNetRound);
    kv_share = rounds ? static_cast<double>(kv_ns) / rounds : 0;
    keys_per_call = kv_calls ? static_cast<double>(kv_keys) / kv_calls : 0;
    const std::uint64_t keys = traced.stats_scalar + traced.stats_batched;
    scalar_share = keys ? static_cast<double>(traced.stats_scalar) / keys : 0;
    parse_ns = parse_ns_per_req(traced.bytes_sent);
  }
  const SpanTotals& ckpt = agg[SpanName::kKvCheckpoint];
  std::vector<std::uint64_t> ckpt_ns = ckpt.durations;

  flit::pmem::Pool::instance().reinit(std::size_t{64} << 20);
  const double guard_ns = probe_ns(1'000'000, [](int) {
    flit::recl::Ebr::Guard g;
  });
  const std::size_t rec_bytes = flit::kv::Record::bytes(kValueBytes);
  const double alloc_ns = probe_ns(200'000, [rec_bytes](int) {
    auto& pool = flit::pmem::Pool::instance();
    pool.dealloc(pool.alloc(rec_bytes), rec_bytes);
  });

  const double plain_ops =
      static_cast<double>(std::max<std::uint64_t>(plain.ops, 1));
  const std::vector<Metric> metrics = {
      {"net.kv_share", kv_share, "ratio"},
      {"net.keys_per_kv_call", keys_per_call, "keys/call"},
      {"net.scalar_key_share", scalar_share, "ratio"},
      {"net.parse_ns_per_req", parse_ns, "ns"},
      {"kv.get_ns_p50", pct(SpanName::kKvGet, 0.50), "ns"},
      {"kv.get_ns_p99", pct(SpanName::kKvGet, 0.99), "ns"},
      {"kv.put_ns_p50", pct(SpanName::kKvPut, 0.50), "ns"},
      {"kv.put_ns_p99", pct(SpanName::kKvPut, 0.99), "ns"},
      {"kv.multi_get_ns_per_key", per_item(SpanName::kKvMultiGet), "ns"},
      {"kv.multi_put_ns_per_key", per_item(SpanName::kKvMultiPut), "ns"},
      {"kv.scan_ns_per_entry", per_item(SpanName::kKvScan), "ns"},
      {"kv.checkpoints", static_cast<double>(ckpt.count), "count"},
      {"kv.checkpoint_ms_p50", nearest_rank(ckpt_ns, 0.5).value / 1e6, "ms"},
      {"kv.checkpoint_ms_max",
       ckpt_ns.empty() ? 0.0
                       : static_cast<double>(*std::max_element(
                             ckpt_ns.begin(), ckpt_ns.end())) / 1e6,
       "ms"},
      {"recl.limbo_max", static_cast<double>(traced.limbo_max), "count"},
      {"recl.epochs_per_kop",
       static_cast<double>(traced.epochs) * 1000.0 /
           static_cast<double>(std::max<std::uint64_t>(traced.ops, 1)),
       "1/kop"},
      {"recl.guard_ns", guard_ns, "ns"},
      {"pmem.pwb_ns", cal.pwb_ns, "ns"},
      {"pmem.pfence_ns", cal.pfence_ns, "ns"},
      {"pmem.pwb_vs_nominal", cal.pwb_ns / kPwbNominalNs, "ratio"},
      {"pmem.pfence_vs_nominal", cal.pfence_ns / kPfenceNominalNs, "ratio"},
      {"pmem.pwbs_per_op", static_cast<double>(plain.persist.pwbs) / plain_ops,
       "pwbs/op"},
      {"pmem.empty_pfences_per_op",
       static_cast<double>(plain.persist.empty_pfences) / plain_ops,
       "pfences/op"},
      {"pmem.persist_share", noop.mops > 0 ? 1 - traced.mops / noop.mops : 0,
       "ratio"},
      {"pmem.alloc_ns", alloc_ns, "ns"},
      {"trace.overhead", plain.mops > 0 ? 1 - traced.mops / plain.mops : 0,
       "ratio"},
  };
  std::printf("workload %s seed %llu (traced): untraced %.4f Mops, traced "
              "%.4f Mops, no-op backend %.4f Mops, %zu spans\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              plain.mops, traced.mops, noop.mops, traced.spans.size());
  for (const auto& [name, t] : agg) {
    if (t.count == 0) continue;
    std::printf("  span %-16s n=%-9llu total %10.3f ms  self %10.3f ms  "
                "items %llu\n",
                std::string(to_string(name)).c_str(),
                static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                t.self_ns / 1e6, static_cast<unsigned long long>(t.items));
  }
  for (const Metric& m : metrics) {
    std::printf("  %-26s %12.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_errors(errors);
  print_result(failed == 0, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return failed == 0 ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.self_test) return self_test(o.workdir);
  std::unique_ptr<Workload> w = make_workload(o.workload);
  if (!w) usage("unknown workload " + o.workload);

  flit::pmem::set_backend(flit::pmem::Backend::kSimLatency);
  flit::pmem::set_sim_latency(kPwbNominalNs, kPfenceNominalNs);
  // Report-only: the simulator's achieved cost beside its nominal cost.
  const Calibration cal = calibrate_pmem();
  std::printf("pmem calibration: pwb %.1f ns (nominal %u, x%.2f), pfence "
              "%.1f ns (nominal %u, x%.2f)\n",
              cal.pwb_ns, kPwbNominalNs, cal.pwb_ns / kPwbNominalNs,
              cal.pfence_ns, kPfenceNominalNs,
              cal.pfence_ns / kPfenceNominalNs);
  g_corrupt_next.store(o.corrupt_one_read);

  RunConfig rc;
  rc.seed = o.seed;
  rc.workdir = o.workdir;
  return o.trace ? run_traced(*w, o, rc, cal) : run_untraced(*w, o, rc);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
