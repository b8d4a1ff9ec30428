// flit_loadgen — closed-loop verified load generator for flit-server.
//
// N connections (one thread each) × pipeline depth × a YCSB-style mix:
// every round, each connection assembles `pipeline` operations from the
// mix — reads first, then writes, so the server's run-grouping turns the
// burst into one multi_get plus one multi_put — flushes them as one
// pipelined batch, and reads the replies back before starting the next
// round. Closed loop: per-request latency is the round's flush-to-last-
// reply time (every request in the burst is in flight for the whole
// round), recorded in a log2-linear histogram (p50/p99/p999).
//
// Verification gives the run teeth, like bench/ycsb_kv:
//   * every GET of a prefilled key must hit, and its payload's key stamp
//     must match (A/B/C/E never remove keys);
//   * SCAN replies must be ascending, start at/after the requested key,
//     and stamp-match every pair;
//   * any -ERR reply or connection drop counts as an error.
// Any miss/mismatch/error fails the process (exit 1), so the CI smoke
// run is an end-to-end correctness check of the network path.
//
// The server's STATS command is sampled before and after each point:
// pfences/op on the wire-facing workload is the paper's fence-coalescing
// argument measured through real pipelined connections (flat ~O(1)
// fences per *batch* means pfences/op falls with pipeline depth; the
// server-smoke gate asserts pipelined << scalar).
//
//   ./flit_loadgen --port=7379                       # one point
//   ./flit_loadgen --port=7379 --sweep               # conns × pipeline grid
//   ./flit_loadgen --port=7379 --mix=E               # scans (ordered server)
//
// Flags: --host= --port= --conns=N --pipeline=N --mix=A|B|C|E --keys=N
//        --value-bytes=N --seconds=F --seed=N --sweep --no-load
//        --shutdown (send SHUTDOWN when done)
//        --chaos (misbehave on purpose: randomly abandon a flushed burst
//        without reading replies, half-close mid-round, or send a
//        truncated frame and hang up — then reconnect and resume. The
//        server must shrug every one of these off: verification still
//        runs on well-behaved rounds and any miss/mismatch, or a failure
//        to reconnect, fails the process. A connection the server closes
//        before any reply of a burst arrives (an --idle-timeout-ms reap)
//        is reconnected once and counted in the JSON row's "reaped"; a
//        close after some replies were read is an error. SET payloads
//        are a pure function of the key, so a torn burst's half-applied
//        writes are indistinguishable from applied ones.)
//
// Emits CSV rows (CsvWriter) and BENCH_flit_loadgen.json; columns are
// understood by scripts/bench_diff.py (which tolerates their absence in
// old snapshots).
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/histogram.hpp"
#include "bench_util/table.hpp"
#include "bench_util/ycsb.hpp"
#include "net/client.hpp"

namespace {

using namespace flit;
using namespace flit::bench;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int conns = 4;
  std::size_t pipeline = 16;
  std::string mix = "A";
  std::uint64_t keys = 20'000;
  std::size_t value_bytes = 100;
  double seconds = 0.3;
  std::uint64_t seed = 0x5EEDu;
  bool sweep = false;
  bool no_load = false;
  bool shutdown = false;
  bool chaos = false;
};

const char* arg_value(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = arg_value(a, "--host")) {
      o.host = v;
    } else if (const char* v = arg_value(a, "--port")) {
      o.port = std::atoi(v);
    } else if (const char* v = arg_value(a, "--conns")) {
      o.conns = std::atoi(v);
    } else if (const char* v = arg_value(a, "--pipeline")) {
      o.pipeline = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--mix")) {
      o.mix = v;
    } else if (const char* v = arg_value(a, "--keys")) {
      o.keys = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--value-bytes")) {
      o.value_bytes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = arg_value(a, "--seconds")) {
      o.seconds = std::atof(v);
    } else if (const char* v = arg_value(a, "--seed")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--sweep") == 0) {
      o.sweep = true;
    } else if (std::strcmp(a, "--no-load") == 0) {
      o.no_load = true;
    } else if (std::strcmp(a, "--shutdown") == 0) {
      o.shutdown = true;
    } else if (std::strcmp(a, "--chaos") == 0) {
      o.chaos = true;
    } else {
      std::fprintf(stderr, "flit_loadgen: unknown flag %s\n", a);
      std::exit(2);
    }
  }
  if (o.port <= 0 || o.port > 65535) {
    std::fprintf(stderr, "flit_loadgen: --port=N is required\n");
    std::exit(2);
  }
  if (o.conns < 1 || o.pipeline < 1 || o.keys == 0 || o.seconds <= 0) {
    std::fprintf(stderr, "flit_loadgen: bad --conns/--pipeline/--keys\n");
    std::exit(2);
  }
  if (o.mix != "A" && o.mix != "B" && o.mix != "C" && o.mix != "E") {
    std::fprintf(stderr, "flit_loadgen: --mix must be A, B, C or E\n");
    std::exit(2);
  }
  return o;
}

YcsbMix mix_of(const std::string& name) {
  if (name == "B") return YcsbMix::b();
  if (name == "C") return YcsbMix::c();
  if (name == "E") return YcsbMix::e();
  return YcsbMix::a();
}

/// Pull "name=value" out of the STATS bulk reply; 0 when absent.
std::uint64_t parse_stat(const std::string& text, const char* name) {
  const std::string needle = std::string(name) + "=";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

std::string parse_stat_str(const std::string& text, const char* name) {
  const std::string needle = std::string(name) + "=";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  const std::size_t end = text.find(' ', from);
  return text.substr(from, end == std::string::npos ? end : end - from);
}

/// Prefill keys [0, keys) through the wire: MSET in chunks (well under
/// the server's array-element limit), verified +OK.
void load_phase(const Options& o) {
  net::Client c = net::Client::connect(o.host,
                                       static_cast<std::uint16_t>(o.port));
  constexpr std::size_t kChunk = 128;
  std::vector<std::string> parts;
  std::vector<std::string_view> views;
  for (std::uint64_t k0 = 0; k0 < o.keys; k0 += kChunk) {
    const std::uint64_t hi = std::min(o.keys, k0 + kChunk);
    parts.clear();
    parts.push_back("MSET");
    for (std::uint64_t k = k0; k < hi; ++k) {
      parts.push_back(std::to_string(k));
      parts.push_back(
          ycsb_value(static_cast<std::int64_t>(k), o.value_bytes));
    }
    views.assign(parts.begin(), parts.end());
    c.enqueue_parts(views.data(), views.size());
    c.flush();
    const net::Reply r = c.read_reply();
    if (!r.ok()) {
      std::fprintf(stderr, "flit_loadgen: load MSET failed: %s\n",
                   r.str.c_str());
      std::exit(1);
    }
  }
}

struct ConnResult {
  std::uint64_t ops = 0;
  std::uint64_t misses = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
  std::uint64_t scan_entries = 0;
  std::uint64_t chaos_events = 0;  ///< rounds sacrificed to --chaos
  /// --chaos rounds whose connection the server closed before any reply
  /// arrived (reaped as idle); each cost one reconnect, not a failure.
  std::uint64_t reaped = 0;
  LatencyHistogram hist;  ///< per-request sojourn, nanoseconds
};

/// One connection's closed loop. Reads-then-writes per round: safe for
/// these mixes (no read-modify-write), and it presents the server with
/// exactly two command runs per burst — the multi-op fast path.
ConnResult run_conn(const Options& o, const YcsbMix& mix, int tid,
                    std::atomic<std::int64_t>& frontier,
                    const Zipfian& zipf, Clock::time_point deadline) {
  ConnResult res;
  const auto port = static_cast<std::uint16_t>(o.port);
  std::optional<net::Client> c(net::Client::connect(o.host, port));
  // Replace the connection. A failure to reconnect is an error: neither
  // a chaos round nor an idle reap may cost us the server.
  const auto reconnect = [&] {
    c.reset();
    try {
      c.emplace(net::Client::connect(o.host, port));
      return true;
    } catch (const std::exception&) {
      ++res.errors;
      return false;
    }
  };
  Rng rng(o.seed + 0x9000ull * static_cast<std::uint64_t>(tid + 1));

  struct PendingRead {
    std::int64_t key;
    bool is_scan;
  };
  std::vector<PendingRead> reads;
  std::vector<std::int64_t> writes;
  std::string value;

  while (Clock::now() < deadline) {
    reads.clear();
    writes.clear();
    // Assemble the round: reads (GET/SCAN) first, then writes (SET).
    for (std::size_t i = 0; i < o.pipeline; ++i) {
      switch (mix.pick(rng)) {
        case YcsbOp::kRead:
          reads.push_back(
              {static_cast<std::int64_t>(zipf.next_scrambled(rng)), false});
          break;
        case YcsbOp::kScan:
          reads.push_back(
              {static_cast<std::int64_t>(zipf.next_scrambled(rng)), true});
          break;
        case YcsbOp::kUpdate:
          writes.push_back(
              static_cast<std::int64_t>(zipf.next_scrambled(rng)));
          break;
        case YcsbOp::kInsert:
          writes.push_back(
              frontier.fetch_add(1, std::memory_order_relaxed));
          break;
        case YcsbOp::kRmw:
          // Not offered by the loadgen mixes; treat as update.
          writes.push_back(
              static_cast<std::int64_t>(zipf.next_scrambled(rng)));
          break;
      }
    }
    for (const PendingRead& r : reads) {
      const std::string key = std::to_string(r.key);
      if (r.is_scan) {
        const std::uint64_t len = 1 + rng.next() % mix.max_scan_len;
        c->enqueue({"SCAN", key, std::to_string(len)});
      } else {
        c->enqueue({"GET", key});
      }
    }
    for (const std::int64_t k : writes) {
      value = ycsb_value(k, o.value_bytes);
      c->enqueue({"SET", std::to_string(k), value});
    }

    // Chaos: sacrifice ~1 round in 8 to deliberate client misbehavior.
    // The server owes the process nothing for these rounds — the test is
    // that it survives them and keeps serving the reconnected client.
    if (o.chaos && rng.next() % 8 == 0) {
      ++res.chaos_events;
      switch (rng.next() % 3) {
        case 0:
          // Abandon: flush the burst, hang up without reading replies.
          c->flush();
          break;
        case 1:
          // Half-close: signal EOF mid-conversation, then drain. The
          // server must flush the replies it owes before closing.
          c->flush();
          ::shutdown(c->fd(), SHUT_WR);
          try {
            for (;;) (void)c->read_reply();
          } catch (const std::exception&) {
            // EOF is the expected outcome.
          }
          break;
        default: {
          // Torn frame: the flushed burst plus a request cut off
          // mid-bulk. The parser must discard the partial state.
          c->flush();
          static const char kTorn[] = "*2\r\n$3\r\nGET\r\n$5\r\n12";
          (void)::send(c->fd(), kTorn, sizeof(kTorn) - 1, MSG_NOSIGNAL);
          break;
        }
      }
      if (!reconnect()) return res;
      continue;
    }

    const auto t0 = Clock::now();
    std::size_t replies = 0;
    try {
      c->flush();
      for (const PendingRead& r : reads) {
        const net::Reply rep = c->read_reply();
        ++replies;
        if (rep.is_error()) {
          ++res.errors;
          continue;
        }
        if (r.is_scan) {
          if (rep.type != net::Reply::Type::kArray ||
              rep.elems.size() % 2 != 0) {
            ++res.errors;
            continue;
          }
          if (rep.elems.empty()) {
            ++res.misses;  // prefilled keyspace, start key in range
            continue;
          }
          std::int64_t prev = std::numeric_limits<std::int64_t>::min();
          for (std::size_t j = 0; j + 1 < rep.elems.size(); j += 2) {
            const char* ks = rep.elems[j].str.c_str();
            const std::int64_t sk = std::strtoll(ks, nullptr, 10);
            if (sk < r.key || sk <= prev ||
                !ycsb_value_matches(sk, rep.elems[j + 1].str,
                                    o.value_bytes)) {
              ++res.mismatches;
            }
            prev = sk;
            ++res.scan_entries;
          }
        } else {
          if (rep.is_null()) {
            ++res.misses;  // A/B/C never remove: a miss is a lost record
          } else if (rep.type != net::Reply::Type::kBulk ||
                     !ycsb_value_matches(r.key, rep.str, o.value_bytes)) {
            ++res.mismatches;
          }
        }
      }
      for (std::size_t j = 0; j < writes.size(); ++j) {
        const net::Reply rep = c->read_reply();
        ++replies;
        if (!rep.ok()) ++res.errors;
      }
    } catch (const net::ConnectionClosed&) {
      // Under --chaos the connection may sit idle long enough (a fresh
      // reconnect, then a descheduled client) for a server running
      // --idle-timeout-ms to reap it. A close before any reply of the
      // burst is that reap: reconnect once and skip the round. A close
      // mid-burst, or outside --chaos, is a failure.
      if (!o.chaos || replies > 0) {
        ++res.errors;
        return res;
      }
      ++res.reaped;
      if (!reconnect()) return res;
      continue;
    }
    const auto dt = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    // Closed loop: every request in the burst was in flight for the whole
    // round, so the round time IS each request's sojourn time.
    res.hist.record(dt);
    res.ops += o.pipeline;
  }
  return res;
}

struct PointRow {
  std::string layout, mix;
  int conns;
  std::size_t pipeline;
  double mops, p50_us, p99_us, p999_us, pfences_per_op, pwbs_per_op;
  std::uint64_t misses, mismatches, errors, chaos_events, reaped;
};

PointRow run_point(const Options& o, int conns, std::size_t pipeline,
                   CsvWriter& csv, Table& table) {
  Options p = o;
  p.conns = conns;
  p.pipeline = pipeline;
  const YcsbMix mix = mix_of(p.mix);
  const Zipfian zipf(p.keys, 0.99);
  std::atomic<std::int64_t> frontier{static_cast<std::int64_t>(p.keys)};

  net::Client control = net::Client::connect(
      p.host, static_cast<std::uint16_t>(p.port));
  const net::Reply before = control.command({"STATS"});
  const std::string layout = parse_stat_str(before.str, "layout");

  std::vector<ConnResult> results(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(p.seconds));
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          run_conn(p, mix, t, frontier, zipf, deadline);
    });
  }
  for (auto& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  // Fresh connection for the closing sample: the control connection sat
  // idle for the whole point and a server running --idle-timeout-ms may
  // have legitimately reaped it.
  net::Client control2 = net::Client::connect(
      p.host, static_cast<std::uint16_t>(p.port));
  const net::Reply after = control2.command({"STATS"});

  ConnResult tot;
  for (const ConnResult& r : results) {
    tot.ops += r.ops;
    tot.misses += r.misses;
    tot.mismatches += r.mismatches;
    tot.errors += r.errors;
    tot.scan_entries += r.scan_entries;
    tot.chaos_events += r.chaos_events;
    tot.reaped += r.reaped;
    tot.hist.merge(r.hist);
  }
  const std::uint64_t pfences =
      parse_stat(after.str, "pfences") - parse_stat(before.str, "pfences");
  const std::uint64_t pwbs =
      parse_stat(after.str, "pwbs") - parse_stat(before.str, "pwbs");

  PointRow row;
  row.layout = layout.empty() ? "hashed" : layout;
  row.mix = p.mix;
  row.conns = conns;
  row.pipeline = pipeline;
  row.mops = seconds > 0
                 ? static_cast<double>(tot.ops) / seconds / 1e6
                 : 0.0;
  row.p50_us = static_cast<double>(tot.hist.percentile(0.50)) / 1e3;
  row.p99_us = static_cast<double>(tot.hist.percentile(0.99)) / 1e3;
  row.p999_us = static_cast<double>(tot.hist.percentile(0.999)) / 1e3;
  row.pfences_per_op =
      tot.ops > 0
          ? static_cast<double>(pfences) / static_cast<double>(tot.ops)
          : 0.0;
  row.pwbs_per_op =
      tot.ops > 0 ? static_cast<double>(pwbs) / static_cast<double>(tot.ops)
                  : 0.0;
  row.misses = tot.misses;
  row.mismatches = tot.mismatches;
  row.errors = tot.errors;
  row.chaos_events = tot.chaos_events;
  row.reaped = tot.reaped;

  const std::string conns_s = Table::fmt_u(static_cast<std::uint64_t>(conns));
  const std::string pipe_s = Table::fmt_u(pipeline);
  csv.row({"net", row.layout, row.mix, pipe_s, conns_s,
           Table::fmt(row.mops, 3), Table::fmt(row.p50_us, 1),
           Table::fmt(row.p99_us, 1), Table::fmt(row.p999_us, 1),
           Table::fmt(row.pfences_per_op, 3),
           Table::fmt(row.pwbs_per_op, 3), Table::fmt_u(row.misses),
           Table::fmt_u(row.mismatches), Table::fmt_u(row.errors),
           Table::fmt_u(row.chaos_events)});
  table.add_row({row.layout, row.mix, conns_s, pipe_s,
                 Table::fmt(row.mops, 3), Table::fmt(row.p50_us, 1),
                 Table::fmt(row.p99_us, 1), Table::fmt(row.p999_us, 1),
                 Table::fmt(row.pfences_per_op, 3)});
  return row;
}

void write_json(const char* path, const std::vector<PointRow>& rows,
                const Options& o, bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("flit_loadgen: warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"flit_loadgen\",\n  \"keys\": %llu,\n"
               "  \"value_bytes\": %zu,\n  \"seconds_per_point\": %.3f,\n"
               "  \"ok\": %s,\n  \"rows\": [\n",
               static_cast<unsigned long long>(o.keys), o.value_bytes,
               o.seconds, ok ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PointRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"words\": \"net\", \"layout\": \"%s\", \"mix\": \"%s\", "
        "\"batch\": %zu, \"conns\": %d, \"mops\": %.4f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
        "\"pfences_per_op\": %.4f, \"pwbs_per_op\": %.4f, "
        "\"misses\": %llu, \"mismatches\": %llu, \"errors\": %llu, "
        "\"chaos_events\": %llu, \"reaped\": %llu}%s\n",
        r.layout.c_str(), r.mix.c_str(), r.pipeline, r.conns, r.mops,
        r.p50_us, r.p99_us, r.p999_us, r.pfences_per_op, r.pwbs_per_op,
        static_cast<unsigned long long>(r.misses),
        static_cast<unsigned long long>(r.mismatches),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.chaos_events),
        static_cast<unsigned long long>(r.reaped),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("flit_loadgen: wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::printf(
      "# flit_loadgen: %s:%d mix=%s keys=%llu value=%zuB "
      "seconds/point=%.2f%s\n",
      o.host.c_str(), o.port, o.mix.c_str(),
      static_cast<unsigned long long>(o.keys), o.value_bytes, o.seconds,
      o.sweep ? " (sweep: conns x pipeline grid)" : "");

  try {
    if (!o.no_load) load_phase(o);

    Table table({"layout", "mix", "conns", "pipeline", "Mops", "p50_us",
                 "p99_us", "p999_us", "pfences/op"});
    CsvWriter csv("flit_loadgen",
                  {"words", "layout", "mix", "batch", "conns", "Mops",
                   "p50_us", "p99_us", "p999_us", "pfences/op", "pwbs/op",
                   "misses", "mismatches", "errors", "chaos"});
    std::vector<PointRow> rows;
    if (o.sweep) {
      for (const int conns : {1, 2, 4, 8}) {
        for (const std::size_t pipeline : {1u, 4u, 16u, 64u}) {
          rows.push_back(run_point(o, conns, pipeline, csv, table));
        }
      }
    } else {
      rows.push_back(run_point(o, o.conns, o.pipeline, csv, table));
    }

    table.print("flit-server throughput vs connections x pipeline depth");
    std::printf(
        "\nExpected shape: Mops rises with pipeline depth (each burst is\n"
        "one multi-op batch on the server) and with connections until the\n"
        "worker threads saturate; pfences/op falls with pipeline depth on\n"
        "write mixes — the coalesced-fence path driven by real traffic.\n");

    std::uint64_t misses = 0, mismatches = 0, errors = 0, chaos = 0;
    std::uint64_t reaped = 0;
    for (const PointRow& r : rows) {
      misses += r.misses;
      mismatches += r.mismatches;
      errors += r.errors;
      chaos += r.chaos_events;
      reaped += r.reaped;
    }
    const bool ok = misses == 0 && mismatches == 0 && errors == 0;
    write_json("BENCH_flit_loadgen.json", rows, o, ok);

    if (o.shutdown) {
      net::Client c = net::Client::connect(
          o.host, static_cast<std::uint16_t>(o.port));
      const net::Reply r = c.command({"SHUTDOWN"});
      if (!r.ok()) {
        std::fprintf(stderr, "flit_loadgen: SHUTDOWN failed\n");
        return 1;
      }
    }
    if (!ok) {
      std::printf(
          "flit_loadgen: FAILED (%llu misses, %llu mismatches, "
          "%llu errors)\n",
          static_cast<unsigned long long>(misses),
          static_cast<unsigned long long>(mismatches),
          static_cast<unsigned long long>(errors));
      return 1;
    }
    if (o.chaos) {
      std::printf(
          "flit_loadgen: OK (%llu chaos rounds survived, %llu idle "
          "reaps reconnected)\n",
          static_cast<unsigned long long>(chaos),
          static_cast<unsigned long long>(reaped));
    } else {
      std::printf("flit_loadgen: OK\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flit_loadgen: fatal: %s\n", e.what());
    return 1;
  }
}
