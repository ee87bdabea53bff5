// reo_loadgen: closed-loop load generator for reo_server.
//
// Opens N connections, each driven by its own thread in a closed loop
// (one outstanding request per connection — the paper's replay style,
// §VI.A), issuing a configurable read/write mix over a Zipf-popular
// object set (common/zipf). Latencies land in common/histogram
// instances, are merged into a MetricRegistry, and the summary
// (throughput, p50/p99/p999) plus the JSON snapshot are reported from
// that registry. Exits non-zero if the wire saw any frame/CRC/decode
// error, so CI can assert a clean run. Examples:
//
//   reo_loadgen --port 9555 --connections 8 --requests 5000
//   reo_loadgen --port $(cat port.txt) --write-ratio 0.3 --zipf 0.9
//       --stats-out loadgen_stats.json
//
// Crash testing (used by the CI crash-recovery smoke job):
//
//   # classify everything dirty, SIGKILL the server after 200 acked burst
//   # writes, and record which writes were acknowledged:
//   reo_loadgen --port N --write-class 1 --write-ratio 1.0
//       --kill-after 200 --kill-pid-file server.pid --ack-manifest acks.txt
//   # after restart: verify every acknowledged object is readable with
//   # the correct contents (exit 4 on any loss):
//   reo_loadgen --port N --verify-manifest acks.txt
//
// Cluster mode (used by the CI cluster-smoke job): workers route through
// a consistent-hash ClusterInitiator over the listed nodes; --kill-node
// SIGKILLs one node mid-burst, after which the loadgen runs the
// cross-node differentiated recovery (survivor OWNERS -> backend refetch
// of class 0/1) and drain-verifies every acked object per class:
//
//   reo_loadgen --cluster 127.0.0.1:9551,127.0.0.1:9552,127.0.0.1:9553
//       --class-cycle --kill-node 1 --kill-after 200
//       --kill-pid-file node1.pid
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_initiator.h"
#include "cluster/recovery_driver.h"
#include "common/file_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "fault/fault_spec.h"
#include "loadgen_exit.h"
#include "osd/osd_initiator.h"
#include "server/socket_initiator.h"
#include "telemetry/bench_json.h"
#include "telemetry/metric_registry.h"

// --- Allocation counting ----------------------------------------------------
//
// The bench report's allocations/op comes from a global operator new
// counter: every heap allocation in this binary (workers, framing, the
// initiator) bumps it. Relaxed atomics keep the overhead to one uncontended
// RMW per allocation — noise next to malloc itself.

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}

// GCC 12 sees the inlined free() below meet a pointer from operator new
// and calls the pair mismatched; both replacements use malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

using namespace reo;

namespace {

/// user+system CPU seconds consumed by this process so far.
double ProcessCpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 4;
  uint64_t requests = 2000;  ///< per connection
  double write_ratio = 0.3;
  uint32_t objects = 1000;
  double zipf_skew = 0.9;
  uint64_t object_bytes = 64 * 1024;
  uint64_t seed = 42;
  /// Shard count of the server under test (reo_server --shards). Purely
  /// descriptive: it labels the bench report / summary so scaling-curve
  /// runs are self-describing. The wire protocol is shard-transparent.
  size_t shards = 1;
  bool verify = true;
  std::string stats_out;
  std::string bench_out;  ///< write BENCH_serve.json here (see bench_json.h)

  // Crash-testing modes.
  int write_class = -1;        ///< classify every object via #SETID# (-1: off)
  uint64_t kill_after = 0;     ///< SIGKILL the server after N acked writes
  std::string kill_pid_file;   ///< where the server's pid lives
  std::string ack_manifest;    ///< write acknowledged ranks here
  std::string verify_manifest; ///< verify-only mode: read ranks from here

  /// Chaos mode: the server is running with `reo_server --fault-spec` on
  /// the same spec file. The loadgen turns on client-side partial-failure
  /// tolerance (receive deadlines, reconnect-retry, bounded op retries)
  /// and finishes with a drain-verify pass proving that no acknowledged
  /// write was lost (exit 4) or corrupted (exit 3) despite the injection.
  bool chaos = false;

  /// Cluster mode: route every request through a ClusterInitiator over
  /// these nodes instead of one SocketInitiator (--cluster host:port,...).
  std::vector<ClusterEndpoint> cluster;
  /// Classify rank r into class r % 4 during populate, so every
  /// redundancy class is represented in the node-kill drill.
  bool class_cycle = false;
  /// Ring index of the node --kill-after SIGKILLs (its pid comes from
  /// --kill-pid-file). After the burst the loadgen announces the death,
  /// runs the differentiated cross-node recovery, and drain-verifies.
  int kill_node = -1;
};

/// The redundancy class `rank` was assigned at populate, -1 = never
/// classified (server default). The drill's per-class verdict hangs off
/// this: 0/1 must survive a node kill, 2/3 may degrade to clean misses.
int ClassOfRank(const Options& opt, uint32_t rank) {
  if (opt.class_cycle) return static_cast<int>(rank % 4);
  return opt.write_class;
}

/// Client-side tolerance posture for chaos runs.
SocketInitiatorConfig ChaosInitiatorConfig(const Options& opt, uint64_t salt) {
  SocketInitiatorConfig cfg;
  cfg.receive_timeout_ms = 15000;
  cfg.max_retries = 4;
  cfg.retry_backoff_ms = 20;
  cfg.seed = opt.seed + salt;
  return cfg;
}

/// Cluster client posture: receive deadlines so a killed node fails fast
/// instead of hanging a worker; per-instance seeds keep the reconnect
/// jitter streams distinct (on top of the per-node streams inside).
ClusterInitiatorConfig ClusterConfigFor(const Options& opt, uint64_t salt) {
  ClusterInitiatorConfig cfg;
  cfg.session.receive_timeout_ms = 15000;
  cfg.session.retry_backoff_ms = 20;
  cfg.session.seed = opt.seed + salt;
  return cfg;
}

/// Acknowledged-write bookkeeping shared by the worker threads.
std::atomic<uint64_t> g_acked_writes{0};
std::atomic<bool> g_killed{false};

/// SIGKILLs the process named in `opt.kill_pid_file` (crash testing).
void KillServer(const Options& opt) {
  auto pid_text = ReadFileToString(opt.kill_pid_file);
  if (!pid_text.ok()) {
    std::fprintf(stderr, "kill: cannot read %s: %s\n",
                 opt.kill_pid_file.c_str(),
                 pid_text.status().to_string().c_str());
    return;
  }
  long pid = std::strtol(pid_text->c_str(), nullptr, 10);
  if (pid <= 1) {
    std::fprintf(stderr, "kill: implausible pid %ld\n", pid);
    return;
  }
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  g_killed.store(true);
  std::printf("SIGKILL sent to server pid %ld after %llu acked writes\n", pid,
              static_cast<unsigned long long>(g_acked_writes.load()));
  std::fflush(stdout);
}

/// Everything one worker thread produces; merged on the main thread
/// after join (MetricRegistry itself is single-threaded by design).
struct WorkerResult {
  Histogram read_us;
  Histogram write_us;
  Histogram all_us;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t sense_errors = 0;
  uint64_t verify_errors = 0;
  std::vector<uint32_t> acked_ranks;  ///< writes the server acknowledged
  SocketInitiatorStats wire;
  ClusterInitiatorStats cluster;  ///< cluster mode only (failovers etc.)
  Status fatal = Status::Ok();
};

ObjectId IdForRank(uint32_t rank) {
  // Skip past the exofs reserved metadata oids (Table I: 0x10000-0x10004).
  return ObjectId{kFirstUserId, kFirstUserId + 0x1000 + rank};
}

/// Deterministic per-object payload so any reader can verify contents.
std::vector<uint8_t> PayloadFor(uint32_t rank, uint64_t bytes) {
  std::vector<uint8_t> data(bytes);
  Pcg32 rng(/*seed=*/rank + 1, /*stream=*/0x9e3779b9);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

/// The server may return chunk-padded payloads; the logical-size prefix
/// must match exactly.
bool Matches(const OsdResponse& resp, std::span<const uint8_t> want) {
  return resp.data.size() >= want.size() &&
         std::equal(want.begin(), want.end(), resp.data.begin());
}

/// Per-rank payload cache for populate and the timed run. PayloadFor is
/// deterministic but costs a PCG call per byte — regenerating 64 KiB per
/// read-verify (and per write) burned more client CPU than the whole wire
/// round trip, so the harness was largely measuring itself. Built once
/// before the clock starts; shared read-only across workers.
class PayloadCache {
 public:
  PayloadCache(uint32_t objects, uint64_t bytes) {
    payloads_.reserve(objects);
    for (uint32_t rank = 0; rank < objects; ++rank) {
      payloads_.push_back(PayloadFor(rank, bytes));
    }
  }
  std::span<const uint8_t> Of(uint32_t rank) const { return payloads_[rank]; }

 private:
  std::vector<std::vector<uint8_t>> payloads_;
};

bool Ok(const OsdResponse& resp) { return resp.ok(); }
bool Ok(SenseCode sense) { return sense == SenseCode::kOk; }

/// One client session: a SocketInitiator to --host/--port, or a
/// ClusterInitiator over the --cluster members. Opening one is the only
/// place the loadgen tells the two apart; every command goes through
/// osd(), the typed OsdInitiator over whichever channel was opened.
/// `salt` keeps each session's reconnect-jitter streams distinct.
class Session {
 public:
  Session(const Options& opt, uint64_t salt) : opt_(opt) {
    if (opt.cluster.empty()) {
      socket_.emplace(opt.chaos ? ChaosInitiatorConfig(opt, salt)
                                : SocketInitiatorConfig{});
      osd_.emplace(*socket_);
      return;
    }
    cluster_.emplace(opt.cluster, ClusterConfigFor(opt, salt));
    osd_.emplace(*cluster_);
    // Seed the classes populate assigns, so power-of-two read counts
    // re-hint hotness to the survivors (hot-before-cold refetch ordering).
    for (uint32_t rank = 0; rank < opt.objects; ++rank) {
      int cls = ClassOfRank(opt, rank);
      if (cls >= 0) {
        cluster_->NoteObject(IdForRank(rank), static_cast<uint8_t>(cls));
      }
    }
  }
  // osd_ refers into this object.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status Open() {
    return socket_ ? socket_->Connect(opt_.host, opt_.port)
                   : cluster_->ConnectAll();
  }

  OsdInitiator& osd() { return *osd_; }
  /// The cluster under a --cluster session (null otherwise).
  ClusterInitiator* cluster() { return cluster_ ? &*cluster_ : nullptr; }

  /// A single-node session whose connection dropped. A cluster session
  /// routes around dead nodes by itself and never reports one.
  bool lost() const { return socket_ && !socket_->connected(); }
  bool Reconnect() {
    return socket_ && socket_->Connect(opt_.host, opt_.port).ok();
  }

  /// Runs one typed call; in chaos mode against one node, a failed call
  /// is retried (reconnecting first if the session dropped) up to
  /// `attempts` times in all. Loadgen payloads are content-stable per
  /// rank, so any replay is safe. A cluster fails over by itself.
  template <typename Call>
  auto Retry(int attempts, Call call) {
    auto result = call(*osd_);
    for (int r = 1; !Ok(result) && opt_.chaos && socket_ && r < attempts;
         ++r) {
      if (lost() && !Reconnect()) break;
      result = call(*osd_);
    }
    return result;
  }

  /// The acked-object contract: one node must serve everything it acked;
  /// a cluster may lose a killed node's class-2/3 objects to clean misses
  /// (the cache refills them from the backend), never class 0/1.
  bool MayMiss(int cls) const { return cluster_ && cls != 0 && cls != 1; }

  SocketInitiatorStats wire() const {
    return socket_ ? socket_->stats() : cluster_->WireStats();
  }
  ClusterInitiatorStats cluster_stats() const {
    return cluster_ ? cluster_->stats() : ClusterInitiatorStats{};
  }
  bool wire_errors() const {
    SocketInitiatorStats w = wire();
    return w.crc_errors + w.frame_errors + w.decode_errors > 0;
  }

 private:
  const Options& opt_;
  std::optional<SocketInitiator> socket_;
  std::optional<ClusterInitiator> cluster_;
  std::optional<OsdInitiator> osd_;
};

/// One closed-loop worker. Mid-run failures are tolerated where the mode
/// expects them: in chaos mode a dropped connection is re-established
/// (the failed op counts as a sense error); in kill mode the server
/// vanishing is the point; a cluster re-routes around a dead node, and a
/// write the ring could not place is simply not acked.
void Worker(const Options& opt, const ZipfSampler& zipf,
            const PayloadCache& payloads, size_t index, WorkerResult* out) {
  Session session(opt, 0x100 + index);
  Status st = session.Open();
  if (!st.ok()) {
    out->fatal = st;
    return;
  }
  OsdInitiator& osd = session.osd();
  Pcg32 rng(opt.seed + 0x1000 + index, /*stream=*/index);
  for (uint64_t i = 0; i < opt.requests; ++i) {
    uint32_t rank = zipf.Sample(rng);
    bool is_write = rng.NextDouble() < opt.write_ratio;
    std::span<const uint8_t> payload = payloads.Of(rank);
    auto start = std::chrono::steady_clock::now();
    OsdResponse resp =
        is_write
            ? osd.WriteObject(IdForRank(rank), payload, payload.size(), 0)
            : osd.ReadObject(IdForRank(rank), 0);
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (session.lost()) {
      if (opt.chaos && session.Reconnect()) {
        ++out->sense_errors;
        continue;
      }
      if (!g_killed.load()) {
        out->fatal = Status{ErrorCode::kUnavailable, "connection lost mid-run"};
      }
      break;
    }
    (is_write ? out->write_us : out->read_us).Add(us);
    out->all_us.Add(us);
    ++(is_write ? out->writes : out->reads);
    if (is_write && resp.ok()) {
      // This response means the owning server committed (and, for
      // replicated classes, fsynced) the write before answering: from
      // here on a crash must not lose it. Record it, and pull the trigger
      // at the threshold.
      out->acked_ranks.push_back(rank);
      uint64_t acked = g_acked_writes.fetch_add(1) + 1;
      if (opt.kill_after > 0 && acked == opt.kill_after) KillServer(opt);
    }
    if (!resp.ok()) {
      if (!g_killed.load()) ++out->sense_errors;
    } else if (!is_write && opt.verify && !Matches(resp, payload)) {
      // Compared against the cache: no allocation or regeneration on the
      // timed path.
      ++out->verify_errors;
    }
  }
  out->wire = session.wire();
  out->cluster = session.cluster_stats();
}

/// Writes every object once so the measured phase reads warm data: FORMAT
/// (fanned out to every member of a cluster), then per object CREATE,
/// SETID when a class is configured (on a cluster this also places the
/// #OWNER# hint on the ring successor), and WRITE. Populate writes count
/// as acknowledged too: the server committed them.
Status Populate(const Options& opt, const PayloadCache& payloads,
                std::vector<uint32_t>* acked_ranks) {
  Session session(opt, 0x90b);
  REO_RETURN_IF_ERROR(session.Open());
  // FORMAT also creates the first user partition (exofs convention).
  if (!session.osd().FormatOsd(4 * opt.objects * opt.object_bytes).ok()) {
    return Status{ErrorCode::kInternal, "FORMAT failed"};
  }
  for (uint32_t rank = 0; rank < opt.objects; ++rank) {
    ObjectId id = IdForRank(rank);
    if (!session
             .Retry(4, [&](OsdInitiator& osd) {
               return osd.CreateObject(id, opt.object_bytes, 0);
             })
             .ok()) {
      return Status{ErrorCode::kInternal,
                    "CREATE failed for rank " + std::to_string(rank)};
    }
    int cls = ClassOfRank(opt, rank);
    if (cls >= 0 && !Ok(session.Retry(4, [&](OsdInitiator& osd) {
          return osd.SetClassId(id, static_cast<uint8_t>(cls), 0);
        }))) {
      return Status{ErrorCode::kInternal,
                    "SETID failed for rank " + std::to_string(rank)};
    }
    OsdResponse wr = session.Retry(4, [&](OsdInitiator& osd) {
      return osd.WriteObject(id, payloads.Of(rank), opt.object_bytes, 0);
    });
    if (!wr.ok()) {
      return Status{ErrorCode::kInternal,
                    "populate WRITE failed for rank " + std::to_string(rank) +
                        " (sense " + std::string(to_string(wr.sense)) + ")"};
    }
    if (acked_ranks != nullptr) acked_ranks->push_back(rank);
  }
  if (session.wire_errors()) {
    return Status{ErrorCode::kCorrupted, "wire errors during populate"};
  }
  return Status::Ok();
}

/// The "backend" of the node-kill drill: the deterministic payload
/// generator, keyed back from ObjectId to rank — exactly what a real
/// origin store would serve for a cache refetch.
Result<std::vector<uint8_t>> OriginFetch(const Options& opt, ObjectId id) {
  const uint64_t base = kFirstUserId + 0x1000;
  if (id.pid != kFirstUserId || id.oid < base ||
      id.oid >= base + opt.objects) {
    return Status{ErrorCode::kNotFound,
                  "no such origin object " + id.ToString()};
  }
  return PayloadFor(static_cast<uint32_t>(id.oid - base), opt.object_bytes);
}

/// Reads every acked rank back and proves the reliability contract:
/// anything served must byte-match (exit 3 otherwise), and an acked object
/// that reads back missing is loss (exit 4) unless the session's contract
/// allows a clean miss for its class (Session::MayMiss). A single-node
/// session that drops outside chaos mode cannot finish the pass (exit 1);
/// wire corruption exits 2. In chaos mode each read gets `attempts` tries.
int VerifyAcked(const Options& opt, Session& session,
                const std::set<uint32_t>& ranks, const char* label,
                int attempts) {
  uint64_t missing = 0, mismatched = 0, clean_misses = 0;
  for (uint32_t rank : ranks) {
    OsdResponse resp = session.Retry(attempts, [&](OsdInitiator& osd) {
      return osd.ReadObject(IdForRank(rank), 0);
    });
    if (session.lost() && !opt.chaos) {
      std::fprintf(stderr, "connection lost during %s\n", label);
      return 1;
    }
    int cls = ClassOfRank(opt, rank);
    if (!resp.ok()) {
      if (session.MayMiss(cls)) {
        ++clean_misses;  // the cache refills it from the backend
        continue;
      }
      ++missing;
      std::fprintf(stderr, "rank %u (class %d): acked object missing in %s"
                   " (sense %s)\n", rank, cls, label,
                   std::string(to_string(resp.sense)).c_str());
      continue;
    }
    if (!Matches(resp, PayloadFor(rank, opt.object_bytes))) {
      ++mismatched;
      std::fprintf(stderr, "rank %u (class %d): payload corrupt in %s\n",
                   rank, cls, label);
    }
  }
  std::printf("%s: %zu acked objects, %llu missing, %llu corrupt, %llu"
              " clean misses (cluster class 2/3)\n",
              label, ranks.size(), static_cast<unsigned long long>(missing),
              static_cast<unsigned long long>(mismatched),
              static_cast<unsigned long long>(clean_misses));
  if (session.wire_errors()) return 2;
  if (mismatched > 0) return 3;
  if (missing > 0) return 4;
  return 0;
}

/// Opens a fresh session and runs VerifyAcked over it (exit 1 when it
/// cannot connect).
int OpenAndVerify(const Options& opt, uint64_t salt,
                  const std::set<uint32_t>& ranks, const char* label,
                  int attempts) {
  Session session(opt, salt);
  Status st = session.Open();
  if (!st.ok()) {
    std::fprintf(stderr, "%s connect failed: %s\n", label,
                 st.to_string().c_str());
    return 1;
  }
  return VerifyAcked(opt, session, ranks, label, attempts);
}

/// Post-kill phase of the node-kill drill: announce the death to the
/// survivors, run the differentiated cross-node recovery (class 0/1
/// refetched from the origin, class 0 before 1, hot before cold; 2/3
/// degrade), then drain-verify every acked object per class.
int RecoverAndVerify(const Options& opt, const std::set<uint32_t>& acked) {
  Session session(opt, 0xd7a1);
  Status st = session.Open();
  if (!st.ok()) {
    std::fprintf(stderr, "cluster recovery connect failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  ClusterRecoveryDriver driver(
      *session.cluster(), [&opt](ObjectId id) { return OriginFetch(opt, id); });
  auto report = driver.Recover(static_cast<uint32_t>(opt.kill_node));
  if (!report.ok()) {
    std::fprintf(stderr, "cluster recovery failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("cluster recovery: %llu survivors answered OWNERS, %llu"
              " dead-node objects; refetched %llu class-0 + %llu class-1"
              " (hot first), degraded %llu class-2 + %llu class-3 to clean"
              " misses, %llu refetch failures\n",
              static_cast<unsigned long long>(report->survivors_queried),
              static_cast<unsigned long long>(report->dead_entries),
              static_cast<unsigned long long>(report->refetched_class0),
              static_cast<unsigned long long>(report->refetched_class1),
              static_cast<unsigned long long>(report->clean_miss_class2),
              static_cast<unsigned long long>(report->clean_miss_class3),
              static_cast<unsigned long long>(report->refetch_failures));
  return VerifyAcked(opt, session, acked, "cluster drain-verify", 1);
}

/// Verify-only mode: reads every rank listed in the manifest back (after
/// a restart, or with a killed cluster member still down) and applies the
/// acked-object contract to each.
int VerifyManifest(const Options& opt) {
  auto text = ReadFileToString(opt.verify_manifest);
  if (!text.ok()) {
    std::fprintf(stderr, "cannot read manifest %s: %s\n",
                 opt.verify_manifest.c_str(),
                 text.status().to_string().c_str());
    return 1;
  }
  std::set<uint32_t> ranks;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ranks.insert(static_cast<uint32_t>(std::strtoul(line.c_str(), nullptr, 10)));
  }
  return OpenAndVerify(opt, 0x3e1f, ranks, "manifest verify", 1);
}

void Usage(const char* argv0) {
  std::printf(
      "usage: %s --port N [options]\n"
      "  --host ADDR          server address (default 127.0.0.1)\n"
      "  --port N             server port (required)\n"
      "  --connections N      closed-loop connections/threads (default 4)\n"
      "  --requests N         requests per connection (default 2000)\n"
      "  --write-ratio F      fraction of writes (default 0.3)\n"
      "  --objects N          distinct objects (default 1000)\n"
      "  --zipf S             Zipf popularity skew (default 0.9)\n"
      "  --object-kb N        object size in KiB (default 64)\n"
      "  --seed N             RNG seed (default 42)\n"
      "  --shards N           shard count of the server under test; labels\n"
      "                       the bench report for scaling curves (default 1)\n"
      "  --no-verify          skip read-payload content verification\n"
      "  --stats-out PATH     write the telemetry snapshot JSON\n"
      "  --bench-out PATH     write the BENCH_serve.json bench report\n"
      "crash testing:\n"
      "  --write-class C      classify objects into class C via #SETID#\n"
      "  --kill-after N       SIGKILL the server after N acked burst writes\n"
      "  --kill-pid-file PATH file holding the server pid (for --kill-after)\n"
      "  --ack-manifest PATH  record acknowledged write ranks, one per line\n"
      "  --verify-manifest PATH  verify-only mode: read each listed rank\n"
      "                       back and compare contents (exit 3 on\n"
      "                       corruption, 4 on loss)\n"
      "chaos testing:\n"
      "  --chaos-spec PATH    the fault spec the server is running with\n"
      "                       (reo_server --fault-spec). Turns on client\n"
      "                       tolerance (timeouts, reconnect-retry) and a\n"
      "                       final drain-verify of every acked write:\n"
      "                       exit 3 on corruption, 4 on acked-write loss\n"
      "cluster mode:\n"
      "  --cluster LIST       route through a consistent-hash ring over the\n"
      "                       comma-separated host:port members (replaces\n"
      "                       --host/--port)\n"
      "  --class-cycle        classify rank r into class r%%4 at populate,\n"
      "                       so the node-kill drill covers every class\n"
      "  --kill-node K        ring index of the member --kill-after kills\n"
      "                       (pid from --kill-pid-file); afterwards the\n"
      "                       loadgen announces the death, runs the\n"
      "                       differentiated cross-node recovery (class\n"
      "                       0/1 refetched hot-first; 2/3 clean misses),\n"
      "                       and drain-verifies per class (exit 3/4)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) opt.host = next();
    else if (!std::strcmp(argv[i], "--port")) opt.port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    else if (!std::strcmp(argv[i], "--connections")) opt.connections = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--requests")) opt.requests = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--write-ratio")) opt.write_ratio = std::atof(next());
    else if (!std::strcmp(argv[i], "--objects")) opt.objects = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    else if (!std::strcmp(argv[i], "--zipf")) opt.zipf_skew = std::atof(next());
    else if (!std::strcmp(argv[i], "--object-kb")) opt.object_bytes = std::strtoull(next(), nullptr, 10) * 1024;
    else if (!std::strcmp(argv[i], "--seed")) opt.seed = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--shards")) {
      opt.shards = std::strtoull(next(), nullptr, 10);
      if (opt.shards == 0) opt.shards = 1;
    }
    else if (!std::strcmp(argv[i], "--no-verify")) opt.verify = false;
    else if (!std::strcmp(argv[i], "--stats-out")) opt.stats_out = next();
    else if (!std::strcmp(argv[i], "--bench-out")) opt.bench_out = next();
    else if (!std::strcmp(argv[i], "--write-class")) opt.write_class = std::atoi(next());
    else if (!std::strcmp(argv[i], "--kill-after")) opt.kill_after = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--kill-pid-file")) opt.kill_pid_file = next();
    else if (!std::strcmp(argv[i], "--ack-manifest")) opt.ack_manifest = next();
    else if (!std::strcmp(argv[i], "--verify-manifest")) opt.verify_manifest = next();
    else if (!std::strcmp(argv[i], "--cluster")) {
      opt.cluster = ParseClusterEndpoints(next());
      if (opt.cluster.empty()) {
        std::fprintf(stderr, "bad --cluster list (want host:port,...)\n");
        return 2;
      }
    }
    else if (!std::strcmp(argv[i], "--class-cycle")) opt.class_cycle = true;
    else if (!std::strcmp(argv[i], "--kill-node")) opt.kill_node = std::atoi(next());
    else if (!std::strcmp(argv[i], "--chaos-spec")) {
      // Validate the spec (same parser the server uses) so a typo fails
      // here rather than silently running a chaos test with no chaos.
      auto spec = LoadFaultSpecFile(next());
      if (!spec.ok()) {
        std::fprintf(stderr, "bad chaos spec: %s\n",
                     spec.status().to_string().c_str());
        return 2;
      }
      if (spec->empty()) {
        std::fprintf(stderr, "chaos spec has no rules\n");
        return 2;
      }
      opt.chaos = true;
    }
    else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
      return 2;
    }
  }
  if (opt.port == 0 && opt.cluster.empty()) {
    std::fprintf(stderr, "--port (or --cluster) is required\n");
    Usage(argv[0]);
    return 2;
  }
  if (opt.kill_node >= 0 &&
      (opt.cluster.empty() ||
       opt.kill_node >= static_cast<int>(opt.cluster.size()))) {
    std::fprintf(stderr, "--kill-node needs --cluster with that member\n");
    return 2;
  }
  if (!opt.verify_manifest.empty()) return VerifyManifest(opt);
  if (opt.kill_after > 0 && opt.kill_pid_file.empty()) {
    std::fprintf(stderr, "--kill-after requires --kill-pid-file\n");
    return 2;
  }

  PayloadCache payloads(opt.objects, opt.object_bytes);
  std::vector<uint32_t> populate_acks;
  Status setup = Populate(opt, payloads, &populate_acks);
  if (!setup.ok()) {
    std::fprintf(stderr, "populate failed: %s\n", setup.to_string().c_str());
    return 1;
  }
  std::printf("populated %u objects x %llu KiB; starting %zu connections"
              " x %llu requests (%.0f%% writes, zipf %.2f)\n",
              opt.objects, static_cast<unsigned long long>(opt.object_bytes >> 10),
              opt.connections, static_cast<unsigned long long>(opt.requests),
              opt.write_ratio * 100, opt.zipf_skew);
  std::fflush(stdout);

  ZipfSampler zipf(opt.objects, opt.zipf_skew);
  std::vector<WorkerResult> results(opt.connections);
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  double cpu_before = ProcessCpuSeconds();
  auto bench_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (size_t i = 0; i < opt.connections; ++i) {
      threads.emplace_back(Worker, std::cref(opt), std::cref(zipf),
                           std::cref(payloads), i, &results[i]);
    }
    for (auto& t : threads) t.join();
  }
  double elapsed_sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - bench_start)
                           .count();
  double cpu_sec = ProcessCpuSeconds() - cpu_before;
  uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  // Merge the per-thread results into one registry; everything reported
  // below is read back out of its snapshot.
  MetricRegistry registry;
  ShardedHistogram& read_us = registry.GetHistogram("loadgen.latency.read_us");
  ShardedHistogram& write_us =
      registry.GetHistogram("loadgen.latency.write_us");
  ShardedHistogram& all_us = registry.GetHistogram("loadgen.latency.all_us");
  Counter& reads = registry.GetCounter("loadgen.reads");
  Counter& writes = registry.GetCounter("loadgen.writes");
  Counter& sense_errors = registry.GetCounter("loadgen.sense_errors");
  Counter& verify_errors = registry.GetCounter("loadgen.verify_errors");
  Counter& bytes_sent = registry.GetCounter("loadgen.bytes_sent");
  Counter& bytes_received = registry.GetCounter("loadgen.bytes_received");
  Counter& crc_errors = registry.GetCounter("loadgen.wire.crc_errors");
  Counter& frame_errors = registry.GetCounter("loadgen.wire.frame_errors");
  Counter& decode_errors = registry.GetCounter("loadgen.wire.decode_errors");
  Counter& read_failovers =
      registry.GetCounter("loadgen.cluster.read_failovers");
  Counter& transport_failures =
      registry.GetCounter("loadgen.cluster.transport_failures");
  Counter& failed_writes = registry.GetCounter("loadgen.cluster.failed_writes");
  Counter& hints_sent = registry.GetCounter("loadgen.cluster.hints_sent");
  int fatal = 0;
  for (const WorkerResult& r : results) {
    read_us.Merge(r.read_us);
    write_us.Merge(r.write_us);
    all_us.Merge(r.all_us);
    reads.Inc(r.reads);
    writes.Inc(r.writes);
    sense_errors.Inc(r.sense_errors);
    verify_errors.Inc(r.verify_errors);
    bytes_sent.Inc(r.wire.bytes_sent);
    bytes_received.Inc(r.wire.bytes_received);
    crc_errors.Inc(r.wire.crc_errors);
    frame_errors.Inc(r.wire.frame_errors);
    decode_errors.Inc(r.wire.decode_errors);
    read_failovers.Inc(r.cluster.read_failovers);
    transport_failures.Inc(r.cluster.transport_failures);
    failed_writes.Inc(r.cluster.failed_writes);
    hints_sent.Inc(r.cluster.hints_sent);
    if (!r.fatal.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", r.fatal.to_string().c_str());
      fatal = 1;
    }
  }
  uint64_t total_ops = reads.value() + writes.value();
  registry.GetGauge("loadgen.elapsed_sec").Set(elapsed_sec);
  registry.GetGauge("loadgen.throughput.ops_per_sec")
      .Set(elapsed_sec > 0 ? static_cast<double>(total_ops) / elapsed_sec : 0);
  registry.GetGauge("loadgen.throughput.mbps")
      .Set(elapsed_sec > 0
               ? static_cast<double>(bytes_sent.value() + bytes_received.value()) /
                     1e6 / elapsed_sec
               : 0);

  MetricSnapshot snap = registry.Snapshot();
  const MetricSnapshot::Entry* lat = snap.Find("loadgen.latency.all_us");
  const MetricSnapshot::Entry* ops_s = snap.Find("loadgen.throughput.ops_per_sec");
  const MetricSnapshot::Entry* mbps = snap.Find("loadgen.throughput.mbps");
  std::printf("%llu ops in %.2f s: %.0f ops/s, %.1f MB/s on the wire\n",
              static_cast<unsigned long long>(total_ops), elapsed_sec,
              ops_s ? ops_s->value : 0.0, mbps ? mbps->value : 0.0);
  if (lat != nullptr && lat->count > 0) {
    std::printf("latency: p50 %.0f us, p99 %.0f us, p999 %.0f us"
                " (mean %.0f, max %.0f)\n",
                lat->p50, lat->p99, lat->p999, lat->mean, lat->max);
  }
  if (!opt.cluster.empty()) {
    std::printf("cluster: %llu read failovers, %llu transport failures,"
                " %llu unacked writes, %llu hints placed\n",
                static_cast<unsigned long long>(read_failovers.value()),
                static_cast<unsigned long long>(transport_failures.value()),
                static_cast<unsigned long long>(failed_writes.value()),
                static_cast<unsigned long long>(hints_sent.value()));
  }
  std::printf("cost: %.2f s CPU, %.1f allocations/op\n", cpu_sec,
              total_ops > 0
                  ? static_cast<double>(allocs) / static_cast<double>(total_ops)
                  : 0.0);
  if (!opt.bench_out.empty()) {
    BenchServeReport report;
    report.bench = "reo_loadgen";
    char wl[160];
    std::snprintf(wl, sizeof(wl),
                  "%zuconn x %llureq, %u obj x %lluKiB, %.0f%% writes, "
                  "zipf %.2f, %zu shard%s",
                  opt.connections,
                  static_cast<unsigned long long>(opt.requests), opt.objects,
                  static_cast<unsigned long long>(opt.object_bytes >> 10),
                  opt.write_ratio * 100, opt.zipf_skew, opt.shards,
                  opt.shards == 1 ? "" : "s");
    report.workload = wl;
    if (!opt.cluster.empty()) {
      report.workload +=
          ", " + std::to_string(opt.cluster.size()) + "-node cluster";
    }
    report.ops = total_ops;
    report.wall_seconds = elapsed_sec;
    report.cpu_seconds = cpu_sec;
    report.throughput_ops_per_sec = ops_s ? ops_s->value : 0.0;
    if (lat != nullptr) {
      report.p50_us = lat->p50;
      report.p99_us = lat->p99;
      report.p999_us = lat->p999;
    }
    uint64_t wire_bytes = bytes_sent.value() + bytes_received.value();
    report.bytes_per_op =
        total_ops > 0
            ? static_cast<double>(wire_bytes) / static_cast<double>(total_ops)
            : 0.0;
    report.allocs_per_op =
        total_ops > 0
            ? static_cast<double>(allocs) / static_cast<double>(total_ops)
            : 0.0;
    Status wf = WriteBenchServeJson(opt.bench_out, report);
    if (!wf.ok()) {
      std::fprintf(stderr, "bench report write failed: %s\n",
                   wf.to_string().c_str());
      return 1;
    }
    std::printf("bench report -> %s\n", opt.bench_out.c_str());
  }
  std::printf("errors: %llu sense, %llu verify, wire %llu crc / %llu frame"
              " / %llu decode\n",
              static_cast<unsigned long long>(sense_errors.value()),
              static_cast<unsigned long long>(verify_errors.value()),
              static_cast<unsigned long long>(crc_errors.value()),
              static_cast<unsigned long long>(frame_errors.value()),
              static_cast<unsigned long long>(decode_errors.value()));
  if (!opt.stats_out.empty()) {
    Status wf = WriteFileAtomic(opt.stats_out, snap.ToJson());
    if (!wf.ok()) {
      std::fprintf(stderr, "stats write failed: %s\n", wf.to_string().c_str());
      return 1;
    }
    std::printf("telemetry snapshot -> %s\n", opt.stats_out.c_str());
  }
  // Every rank any connection saw acknowledged, deduped: the exact set
  // the post-restart (or post-chaos, post-kill) verify pass must find
  // intact.
  std::set<uint32_t> acked(populate_acks.begin(), populate_acks.end());
  for (const WorkerResult& r : results) {
    acked.insert(r.acked_ranks.begin(), r.acked_ranks.end());
  }
  if (!opt.ack_manifest.empty()) {
    std::ostringstream manifest;
    for (uint32_t rank : acked) manifest << rank << "\n";
    Status wf = WriteFileAtomic(opt.ack_manifest, manifest.str());
    if (!wf.ok()) {
      std::fprintf(stderr, "manifest write failed: %s\n",
                   wf.to_string().c_str());
      return 1;
    }
    std::printf("ack manifest (%zu ranks) -> %s\n", acked.size(),
                opt.ack_manifest.c_str());
  }
  // Verdict precedence lives in loadgen_exit.h so it is unit-tested; in
  // particular a fatal worker fails the run even in kill mode (previously
  // kill-mode success was checked first and masked dead workers).
  loadgen::RunOutcome outcome;
  outcome.worker_fatal = fatal != 0;
  outcome.kill_mode = opt.kill_after > 0;
  outcome.killed = g_killed.load();
  outcome.wire_errors =
      crc_errors.value() + frame_errors.value() + decode_errors.value();
  outcome.verify_errors = verify_errors.value();
  int code = loadgen::ExitCode(outcome);
  if (outcome.kill_mode && !outcome.killed) {
    std::fprintf(stderr, "kill mode: server was never killed"
                 " (fewer than %llu writes acked?)\n",
                 static_cast<unsigned long long>(opt.kill_after));
  }
  if (code != 0) return code;
  if (outcome.kill_mode) {
    // Node-kill mode (--kill-node implies --cluster) keeps going: the
    // survivors are still serving, so the cross-node recovery and the
    // per-class drain-verify run now. Killing the only server ends the
    // run: nothing is left to drain.
    return opt.kill_node >= 0 ? RecoverAndVerify(opt, acked) : 0;
  }
  if (opt.chaos) {
    return OpenAndVerify(opt, 0xd7a1, acked, "chaos drain-verify", 6);
  }
  return 0;
}
