// perfbench_client: one run of the Reo serving benchmark.
//
//   perfbench_client --workload hot_read --seed 7 --seconds 30 --trace 0
//       --work-dir DIR
//
// Starts reo_server pinned to the first core(s), populates it, and drives
// it closed loop from this process (one thread per connection, on the
// remaining cores) through the public client API, SocketInitiator. Every
// read is checked byte for byte and traced to the write it returned.
// After the timed phase it checks the server's invariants, then runs the
// crash phase on a durable server of the same shape: load, SIGKILL,
// restart, and verify every acked write. With --trace 1 it then runs the
// in-process traced replay (replay.h).
//
// Prints every metric with its unit and clock, then, as the last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// check failed.
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "clock.h"
#include "load.h"
#include "persist/persistence.h"
#include "procfs.h"
#include "replay.h"
#include "report.h"
#include "server/socket_initiator.h"
#include "server_process.h"
#include "stats.h"
#include "telemetry/json_scan.h"
#include "workload.h"

// --- Allocation counting ----------------------------------------------------
// client.allocs_per_op: every heap allocation in this process bumps one
// relaxed counter.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace perfbench;
using reo::OsdCommand;
using reo::OsdOp;
using reo::OsdResponse;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Restarts in the crash phase; persist.restart_s is their median. The
// first is the crash recovery that the acked writes are verified after.
constexpr int kRestarts = 9;
// Untimed closed-loop warm-up between populate and the timed phase.
constexpr uint64_t kWarmupNs = 500'000'000;
// Closed-loop load on the durable server before it is killed.
constexpr uint64_t kCrashLoadNs = 1'000'000'000;
// Windows per second of the timed phase; metrics are medians over them.
constexpr int kWindowsPerSecond = 1;
// Ops in each pass of the traced replay.
constexpr size_t kReplayOps = 10000;
// The run is invalid when the client's own cores are this busy: the
// client, not the server, would then set the pace.
constexpr double kClientSaturation = 0.9;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  int trace = 0;
  std::string server = PERFBENCH_SERVER_BINARY;  ///< built alongside
  std::string work_dir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (a == "--workload") opt->workload = v;
    else if (a == "--seed") opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opt->seconds = std::atoi(v.c_str());
    else if (a == "--trace") opt->trace = std::atoi(v.c_str());
    else if (a == "--work-dir") opt->work_dir = v;
    else return false;
  }
  return !opt->workload.empty() && opt->seconds > 0 &&
         (opt->trace == 0 || opt->trace == 1);
}

// --- ADMIN STATS ------------------------------------------------------------

class Stats {
 public:
  static std::optional<Stats> Fetch(reo::SocketInitiator& client) {
    auto resp = client.AdminRoundtrip(reo::AdminOp::kStats, 0);
    if (!resp.ok() || resp->status != 0) return std::nullopt;
    auto doc = reo::JsonDoc::Parse(resp->json);
    if (!doc) return std::nullopt;
    return Stats(std::move(*doc));
  }

  double Counter(std::string_view name) const {
    return doc_.number(doc_.Find({"counters", name}));
  }
  double HistCount(std::string_view name) const {
    return doc_.number(doc_.Find({"histograms", name, "count"}));
  }
  double HistSum(std::string_view name) const {
    return doc_.number(doc_.Find({"histograms", name, "sum"}));
  }
  /// Sum over counters or gauges whose name matches prefix*suffix.
  double SumMatching(const char* section, std::string_view prefix,
                     std::string_view suffix) const {
    int node = doc_.member(doc_.root(), section);
    double total = 0.0;
    for (size_t i = 0; i < doc_.size(node); ++i) {
      const std::string& k = doc_.key(node, i);
      if (k.starts_with(prefix) && k.ends_with(suffix)) {
        total += doc_.number(doc_.value(node, i));
      }
    }
    return total;
  }
  /// Names of nonzero counters starting with `prefix`.
  std::vector<std::string> NonzeroCounters(std::string_view prefix) const {
    std::vector<std::string> out;
    int node = doc_.member(doc_.root(), "counters");
    for (size_t i = 0; i < doc_.size(node); ++i) {
      if (doc_.key(node, i).starts_with(prefix) &&
          doc_.number(doc_.value(node, i)) != 0.0) {
        out.push_back(doc_.key(node, i));
      }
    }
    return out;
  }

 private:
  explicit Stats(reo::JsonDoc doc) : doc_(std::move(doc)) {}
  reo::JsonDoc doc_;
};

/// Wire errors and fault counters must be zero; with shards, every
/// forwarded frame must have been executed.
void CheckServerInvariants(const WorkloadSpec& spec, const Stats& s,
                           const char* phase, Report& report) {
  for (const char* c :
       {"server.crc_errors", "server.frame_errors", "server.decode_errors"}) {
    if (s.Counter(c) != 0.0) {
      report.Fail(std::string(phase) + ": " + c + " = " + Num(s.Counter(c)),
                  static_cast<uint64_t>(s.Counter(c)));
    }
  }
  for (const std::string& c : s.NonzeroCounters("fault.")) {
    report.Fail(std::string(phase) + ": " + c + " = " + Num(s.Counter(c)));
  }
  if (spec.shards > 1 &&
      s.Counter("server.forwarded") != s.Counter("server.forward_executed")) {
    report.Fail(std::string(phase) + ": server.forwarded " +
                Num(s.Counter("server.forwarded")) +
                " != server.forward_executed " +
                Num(s.Counter("server.forward_executed")));
  }
}

/// Everything sampled at a phase boundary.
struct Snapshot {
  std::optional<Stats> stats;
  ProcCpu server_cpu;
  uint64_t server_ctx = 0;
  double client_cpu_s = 0.0;
  uint64_t allocations = 0;
  uint64_t steal_ticks = 0;  ///< whole machine
  uint64_t ns = 0;
};

double ClientCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

Snapshot TakeSnapshot(reo::SocketInitiator& admin, pid_t server) {
  Snapshot s;
  s.stats = Stats::Fetch(admin);
  s.server_cpu = ReadProcCpu(server).value_or(ProcCpu{});
  s.server_ctx = ReadContextSwitches(server).value_or(0);
  s.client_cpu_s = ClientCpuSeconds();
  s.allocations = g_allocations.load(std::memory_order_relaxed);
  s.steal_ticks = ReadStealTicks().value_or(0);
  s.ns = NowNs();
  return s;
}

// --- Set-up -------------------------------------------------------------------

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::string& data_dir) {
  std::vector<std::string> args = {"--port", "0"};
  if (spec.shards > 1) {
    args.push_back("--shards");
    args.push_back(std::to_string(spec.shards));
  }
  if (!data_dir.empty()) {
    args.push_back("--data-dir");
    args.push_back(data_dir);
  }
  return args;
}

/// Starts a server and populates it: the set-up that setup_s times.
reo::Status StartAndPopulate(ServerProcess& server, const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::vector<int>& cores,
                             const std::string& log, Load& load) {
  REO_RETURN_IF_ERROR(server.Start(binary, args, cores, log));
  return Populate(load, server.port());
}

/// Writes back the dirty pages of the file system holding `dir`.
void SyncWorkDir(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

// --- The crash phase ------------------------------------------------------------

struct CrashResult {
  std::vector<double> restarts;  ///< seconds from exec to HEALTH
  uint64_t writes = 0;           ///< acked writes of the load
  double fsyncs = 0.0;           ///< persist.fsyncs during the load
  double journal_bytes = 0.0;    ///< persist.bytes_journaled during the load
  uint64_t verified = 0;         ///< objects read back after the crash
  uint64_t clean_rolled_back = 0;  ///< class 2/3 back at an older write
  uint64_t clean_missing = 0;      ///< class 2/3 gone (a clean miss)
};

/// Restarts the server and returns the seconds until it answers HEALTH.
std::optional<double> TimedRestart(ServerProcess& server,
                                   const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::vector<int>& cores,
                                   const std::string& log, Report& report) {
  server.Kill();
  uint64_t t0 = NowNs();
  reo::Status st = server.Start(binary, args, cores, log);
  if (!st.ok()) {
    report.Fail("restart: " + st.to_string());
    return std::nullopt;
  }
  reo::SocketInitiator probe;
  if (!probe.Connect("127.0.0.1", server.port()).ok() ||
      !probe.AdminRoundtrip(reo::AdminOp::kHealth).ok()) {
    report.Fail("restarted server does not answer HEALTH");
    return std::nullopt;
  }
  return Seconds(NowNs() - t0);
}

/// Reads every object after the crash restart. Classes 0/1 are fsynced
/// before the ack, so each must come back at its latest acked write.
/// Classes 2/3 are group-committed: the unsynced tail of a batch may be
/// lost, so they may come back at an older acked write or be missing,
/// which is counted, not failed. Bytes that match no acked write fail in
/// every class.
void VerifyAfterCrash(const Load& load, uint16_t port, CrashResult& out,
                      Report& report) {
  const WorkloadSpec& spec = load.spec;
  History h(load);
  reo::SocketInitiator client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    report.Fail("cannot connect for the crash check", spec.objects);
    return;
  }
  uint64_t lost = 0, corrupt = 0;
  for (uint32_t rank = 0; rank < spec.objects; ++rank) {
    int cls = ClassOfRank(spec, rank);
    bool synced = cls == 0 || cls == 1;
    OsdCommand read;
    read.op = OsdOp::kRead;
    read.id = IdForRank(rank);
    OsdResponse resp = client.Roundtrip(read);
    ++out.verified;
    if (!resp.ok()) {
      ++(synced ? lost : out.clean_missing);
      continue;
    }
    auto got = CheckPayload(
        load.payloads[rank], rank,
        std::span<const uint8_t>(resp.data.data(), resp.data.size()));
    auto src = got ? h.Find(rank, *got) : std::nullopt;
    if (!src) {
      ++corrupt;
    } else if (!h.Current(*src, ~0ull)) {
      ++(synced ? lost : out.clean_rolled_back);
    }
  }
  report.attempted_ops += out.verified;
  if (lost) report.Fail(std::to_string(lost) + " acked class 0/1 writes lost across the crash", lost);
  if (corrupt) report.Fail(std::to_string(corrupt) + " objects corrupt after the crash", corrupt);
}

/// A durable server of the workload's shape: populate, 1 s of the same
/// closed-loop load, SIGKILL, then kRestarts timed restarts on the data
/// dir. The acked writes are verified after the first.
CrashResult RunCrashPhase(const Load& base,
                          const std::vector<std::vector<Op>>& streams,
                          const std::string& binary,
                          const std::vector<int>& server_cores,
                          const std::string& work, Report& report) {
  CrashResult out;
  const std::string data_dir = work + "/data";
  const std::string log = work + "/server.log";
  const std::vector<std::string> args = ServerArgs(base.spec, data_dir);
  Load load{base.spec, base.payloads, base.cores, {}, {}};
  ServerProcess server;
  reo::Status st = StartAndPopulate(server, binary, args, server_cores, log, load);
  if (st.ok()) st = Connect(load, streams, server.port());
  if (!st.ok()) {
    report.Fail("crash phase set-up: " + st.to_string());
    return out;
  }
  auto before = Stats::Fetch(load.workers[0].client);
  RunPhaseAll(load, NowNs() + kCrashLoadNs, false);
  auto after = Stats::Fetch(load.workers[0].client);
  CheckLoad(load, "crash phase", report);
  if (!before || !after) {
    report.Fail("crash phase: ADMIN STATS unavailable");
    return out;
  }
  CheckServerInvariants(base.spec, *after, "crash phase", report);
  for (const Worker& w : load.workers) {
    for (const OpRecord& r : w.records) out.writes += r.write && r.ok;
  }
  out.fsyncs = after->Counter("persist.fsyncs") - before->Counter("persist.fsyncs");
  out.journal_bytes = after->Counter("persist.bytes_journaled") -
                      before->Counter("persist.bytes_journaled");
  CloseAll(load);
  for (int k = 0; k < kRestarts; ++k) {
    auto r = TimedRestart(server, binary, args, server_cores, log, report);
    if (!r) break;
    out.restarts.push_back(*r);
    if (k == 0) VerifyAfterCrash(load, server.port(), out, report);
  }
  int code = server.Stop();
  if (code != 0) report.Fail("durable server shutdown exit code " + std::to_string(code));
  return out;
}

// --- The traced replay ------------------------------------------------------------

void AddReplayMetrics(const WorkloadSpec& spec,
                      const std::vector<std::vector<uint8_t>>& payloads,
                      const std::vector<std::vector<Op>>& streams,
                      const std::string& work, Report& report) {
  // The first ops of every connection, interleaved.
  std::vector<Op> ops;
  std::vector<Stamp> stamps;
  for (size_t i = 0; ops.size() < kReplayOps; ++i) {
    for (uint32_t c = 0; c < spec.connections && ops.size() < kReplayOps; ++c) {
      ops.push_back(streams[c][i]);
      stamps.push_back(Stamp{streams[c][i].rank, c, i});
    }
  }
  ReplayResult r = RunReplay(spec, payloads, ops, stamps, work);
  report.attempted_ops += 3 * r.ops;
  if (r.failures) {
    report.Fail("replay: " + std::to_string(r.failures) + " failures, first: " + r.error, r.failures);
  }
  if (std::abs(r.unattributed_share()) > kSelfSumTolerance) {
    report.Fail("replay self times miss " + Num(r.unattributed_share()) +
                " of the traced wall time (tolerance " + Num(kSelfSumTolerance) + ")");
  }
  auto& pl = report.per_layer;
  auto count = [](const SpanMean& s, const char* what) {
    return std::to_string(s.count) + " " + what;
  };
  report.Add(pl, "frame.req_encode_us", r.req_encode.mean_us(), "us", "wall",
             "replay of " + std::to_string(r.ops) + " ops");
  report.Add(pl, "frame.req_decode_us", r.req_decode.mean_us(), "us", "wall");
  report.Add(pl, "frame.resp_encode_us", r.resp_encode.mean_us(), "us", "wall");
  report.Add(pl, "frame.resp_decode_us", r.resp_decode.mean_us(), "us", "wall");
  report.Add(pl, "osd.execute_read_us", r.execute_read.mean_us(), "us", "wall");
  report.Add(pl, "osd.execute_write_us", r.execute_write.mean_us(), "us", "wall");
  report.Add(pl, "osd.self_us", r.osd_self.mean_us(), "us", "wall", "execute minus data plane");
  report.Add(pl, "data_plane.read_us", r.dp_read.mean_us(), "us", "wall");
  report.Add(pl, "data_plane.write_us", r.dp_write.mean_us(), "us", "wall");
  report.Add(pl, "data_plane.set_class_us", r.dp_set_class.mean_us(), "us", "wall",
             count(r.dp_set_class, "#SETID# class changes"));
  report.Add(pl, "stripe.put_us.none", r.stripe_put_none.mean_us(), "us", "wall",
             count(r.stripe_put_none, "puts"));
  report.Add(pl, "stripe.put_us.parity", r.stripe_put_parity.mean_us(), "us", "wall",
             count(r.stripe_put_parity, "puts"));
  report.Add(pl, "stripe.put_us.replica", r.stripe_put_replica.mean_us(), "us", "wall",
             count(r.stripe_put_replica, "puts"));
  report.Add(pl, "stripe.get_us", r.stripe_get.mean_us(), "us", "wall");
  report.Add(pl, "persist.commit_us.sync", r.persist_sync.mean_us(), "us", "wall",
             count(r.persist_sync, "commits"));
  report.Add(pl, "persist.commit_us.group", r.persist_group.mean_us(), "us", "wall",
             count(r.persist_group, "commits"));
  report.Add(pl, "replay.wall_us_per_op", r.traced_wall_us_per_op, "us", "wall", "traced pass");
  report.Add(pl, "replay.self_sum_us_per_op", r.self_sum_us_per_op, "us", "wall");
  report.Add(pl, "replay.tracing_overhead_us_per_op", r.tracing_overhead_us_per_op(), "us", "wall",
             "traced minus untraced wall");
  report.Add(pl, "replay.unattributed_share", r.unattributed_share(), "ratio", "wall",
             "tolerance " + Num(kSelfSumTolerance));
  report.Add(report.info, "replay.client_build_us", r.client_build.mean_us(), "us", "wall");
  report.Add(report.info, "replay.client_verify_us", r.client_verify.mean_us(), "us", "wall");
  report.Add(report.info, "replay.untimed_wall_us_per_op", r.untimed_wall_us_per_op, "us", "wall");
}

// --- Pinning ----------------------------------------------------------------------

/// CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

std::string CoreList(const std::vector<int>& cores) {
  std::string s;
  for (int c : cores) s += (s.empty() ? "" : ",") + std::to_string(c);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds N --trace 0|1"
                 " [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  auto found = FindWorkload(opt.workload);
  if (!found) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "unknown workload %s; known:%s\n",
                 opt.workload.c_str(), names.c_str());
    return 2;
  }
  const WorkloadSpec spec = *found;
  if (!std::filesystem::exists(opt.server)) {
    std::fprintf(stderr, "no server binary at %s\n", opt.server.c_str());
    return 2;
  }

  // Pinning: the server on the first `shards` allowed CPUs, the client on
  // the rest.
  std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < spec.shards + 1) {
    std::fprintf(stderr, "need %u CPUs, have %zu\n", spec.shards + 1,
                 cpus.size());
    return 2;
  }
  const std::vector<int> server_cores(cpus.begin(), cpus.begin() + spec.shards);
  const std::vector<int> client_cores(cpus.begin() + spec.shards, cpus.end());

  const std::string work = opt.work_dir + "/" + spec.name;
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  const std::string log = work + "/server.log";
  const std::vector<std::string> args = ServerArgs(spec, "");

  const reo::PersistenceConfig persist_defaults;
  std::string argline;
  for (const std::string& a : args) argline += " " + a;
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace);
  std::printf("server: reo_server%s on cores [%s]; client on cores [%s],"
              " %u closed-loop connections, one thread each\n",
              argline.c_str(), CoreList(server_cores).c_str(),
              CoreList(client_cores).c_str(), spec.connections);
  std::printf("crash phase: the same plus --data-dir; server defaults kept:"
              " fsync batch %llu records, checkpoint every %llu records\n",
              static_cast<unsigned long long>(persist_defaults.fsync_batch_records),
              static_cast<unsigned long long>(
                  persist_defaults.checkpoint_interval_records));
  std::printf("objects %u x %llu B, zipf %.2f, writes %.0f%%, %s\n",
              spec.objects, static_cast<unsigned long long>(spec.object_bytes),
              spec.zipf_skew, spec.write_ratio * 100,
              spec.class_cycle ? "class r%4 via #SETID#" : "unclassified");

  // Inputs, all before any clock starts.
  const auto payloads = GeneratePayloads(spec, opt.seed);
  std::vector<std::vector<Op>> streams;
  for (uint32_t c = 0; c < spec.connections; ++c) {
    streams.push_back(GenerateOps(spec, opt.seed, c, kStreamOps));
  }

  Report report;
  Load load{spec, payloads, client_cores, {}, {}};

  // Set-up, several times: start, FORMAT, populate. The last server stays.
  ServerProcess server;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    server.Kill();
    uint64_t t0 = NowNs();
    reo::Status st = StartAndPopulate(server, opt.server, args, server_cores, log, load);
    if (!st.ok()) {
      std::printf("CHECK FAILED: set-up: %s\n", st.to_string().c_str());
      return 1;
    }
    setups.push_back(Seconds(NowNs() - t0));
  }
  reo::Status st = Connect(load, streams, server.port());
  if (!st.ok()) {
    std::printf("CHECK FAILED: connect: %s\n", st.to_string().c_str());
    return 1;
  }

  // The timed phase, between two snapshots.
  RunPhaseAll(load, NowNs() + kWarmupNs, false);
  const Snapshot s0 = TakeSnapshot(load.workers[0].client, server.pid());
  const uint64_t deadline = s0.ns + static_cast<uint64_t>(opt.seconds) * 1'000'000'000ull;
  RunPhaseAll(load, deadline, true);
  const uint64_t timed_end = NowNs();
  const Snapshot s1 = TakeSnapshot(load.workers[0].client, server.pid());
  const auto status = ReadProcStatus(server.pid());
  CloseAll(load);
  int code = server.Stop();
  if (code != 0) report.Fail("server shutdown exit code " + std::to_string(code));
  if (!s0.stats || !s1.stats) {
    std::printf("CHECK FAILED: ADMIN STATS unavailable\n");
    return 1;
  }
  CheckLoad(load, "timed phase", report);
  CheckServerInvariants(spec, *s1.stats, "timed phase", report);

  uint64_t reads = 0, writes = 0;
  std::vector<Sample> samples;
  for (const Worker& w : load.workers) {
    for (const OpRecord& r : w.records) {
      if (!r.timed) continue;
      ++(r.write ? writes : reads);
      samples.push_back(Sample{r.send_ns, static_cast<double>(r.done_ns - r.send_ns) / 1e3, r.write});
    }
  }
  if (reads == 0 || writes == 0) report.Fail("timed phase ran no reads or no writes");
  const double ops = static_cast<double>(std::max<size_t>(samples.size(), 1));
  const double wall_s = Seconds(timed_end - s0.ns);

  // Client saturation guard.
  const double client_cpu_s = s1.client_cpu_s - s0.client_cpu_s;
  const double busy_share = client_cpu_s / (wall_s * static_cast<double>(client_cores.size()));
  if (busy_share > kClientSaturation) {
    report.Fail("client saturated: busy share " + Num(busy_share) + " > " +
                Num(kClientSaturation) + "; the run measures the client");
  }

  CrashResult crash = RunCrashPhase(load, streams, opt.server, server_cores, work, report);

  // --- End-to-end metrics --------------------------------------------------------
  const Stats& a = *s0.stats;
  const Stats& b = *s1.stats;
  auto delta = [&](std::string_view counter) { return b.Counter(counter) - a.Counter(counter); };
  const double tick = SecondsPerTick();
  const double user_us = static_cast<double>(s1.server_cpu.utime_ticks - s0.server_cpu.utime_ticks) * tick * 1e6;
  const double sys_us = static_cast<double>(s1.server_cpu.stime_ticks - s0.server_cpu.stime_ticks) * tick * 1e6;
  const double user_bytes = static_cast<double>(writes * spec.object_bytes);
  const double flash_written = b.SumMatching("gauges", "flash.dev", ".bytes_written") -
                               a.SumMatching("gauges", "flash.dev", ".bytes_written");

  // Throughput and latencies are medians over windows of the timed phase:
  // a stall confined to one window moves them less.
  const auto windows = SummariseWindows(samples, s0.ns, deadline,
                                        static_cast<size_t>(opt.seconds) * kWindowsPerSecond);
  auto across = [&](auto field) {
    std::vector<double> v;
    for (const WindowSummary& w : windows) v.push_back(field(w));
    return Median(v);
  };
  auto tail = [&](Tail WindowSummary::*field, std::vector<Metric>& to, const char* name) {
    size_t fewest = ~size_t{0};
    double q = 1.0;
    for (const WindowSummary& w : windows) {
      fewest = std::min(fewest, (w.*field).samples);
      q = std::min(q, (w.*field).quantile);
    }
    report.Add(to, name, across([field](const WindowSummary& w) { return (w.*field).value; }), "us", "wall",
               "median of " + std::to_string(windows.size()) + " windows: p" + Num(q * 100) + " of >= " +
                   std::to_string(fewest) + " samples each");
  };
  auto& e2e = report.end_to_end;
  report.Add(e2e, "ops_per_s", across([](const WindowSummary& w) { return w.ops_per_s; }), "1/s", "wall",
             "median of " + std::to_string(windows.size()) + " windows");
  tail(&WindowSummary::read_p50, e2e, "read_p50_us");
  tail(&WindowSummary::read_p99, e2e, "read_p99_us");
  tail(&WindowSummary::write_p50, e2e, "write_p50_us");
  tail(&WindowSummary::write_p99, e2e, "write_p99_us");
  report.Add(e2e, "setup_s", Median(setups), "s", "wall", "median of " + std::to_string(setups.size()) + " set-ups");
  report.Add(e2e, "server_cpu_us_per_op", (user_us + sys_us) / ops, "us", "cpu");
  report.Add(e2e, "server_rss_mib", status ? static_cast<double>(status->vm_hwm_kib) / 1024.0 : 0.0, "MiB", "count",
             "VmHWM");
  report.Add(e2e, "flash_write_amp", user_bytes > 0 ? flash_written / user_bytes : 0.0, "ratio", "count");

  // --- Per-layer metrics -------------------------------------------------------------
  auto hist_mean = [&](std::string_view h) {
    double n = b.HistCount(h) - a.HistCount(h);
    return n > 0 ? (b.HistSum(h) - a.HistSum(h)) / n : 0.0;
  };
  auto per_write = [&](double v) { return crash.writes ? v / static_cast<double>(crash.writes) : 0.0; };
  auto& pl = report.per_layer;
  report.Add(pl, "server.handle_read_us", hist_mean("server.latency.read_us"), "us", "wall");
  report.Add(pl, "server.handle_write_us", hist_mean("server.latency.write_us"), "us", "wall");
  report.Add(pl, "server.cpu_user_us_per_op", user_us / ops, "us", "cpu");
  report.Add(pl, "server.cpu_sys_us_per_op", sys_us / ops, "us", "cpu");
  report.Add(pl, "server.ctx_switches_per_op", static_cast<double>(s1.server_ctx - s0.server_ctx) / ops, "count",
             "count");
  report.Add(pl, "flash.device_writes_per_op",
             (b.SumMatching("counters", "flash.dev", ".writes") - a.SumMatching("counters", "flash.dev", ".writes")) / ops,
             "count", "count");
  report.Add(pl, "flash.device_reads_per_op",
             (b.SumMatching("counters", "flash.dev", ".reads") - a.SumMatching("counters", "flash.dev", ".reads")) / ops,
             "count", "count");
  report.Add(pl, "dataplane.reserve_rejections", b.Counter("dataplane.reserve_rejections"), "count", "count",
             "since start, populate included");
  report.Add(pl, "persist.fsyncs_per_write", per_write(crash.fsyncs), "count", "count", "crash-phase load");
  report.Add(pl, "persist.journal_bytes_per_write", per_write(crash.journal_bytes), "B", "count", "crash-phase load");
  std::string restart_ms;
  for (double r : crash.restarts) restart_ms += " " + std::to_string(static_cast<int>(r * 1e3));
  report.Add(pl, "persist.restart_s", Median(crash.restarts), "s", "wall",
             "SIGKILL, then exec on the data dir until HEALTH; median of (ms):" + restart_ms);
  report.Add(pl, "persist.clean_rolled_back", static_cast<double>(crash.clean_rolled_back + crash.clean_missing),
             "count", "count", "class 2/3 objects not at their last acked write after the crash");
  const double requests = delta("server.requests");
  report.Add(pl, "shard.forwarded_share", requests > 0 ? delta("server.forwarded") / requests : 0.0, "ratio",
             "count");
  report.Add(pl, "client.cpu_us_per_op", client_cpu_s * 1e6 / ops, "us", "cpu");
  report.Add(pl, "client.busy_share", busy_share, "ratio", "cpu",
             "client CPU / (wall x " + std::to_string(client_cores.size()) + " cores)");
  report.Add(pl, "client.allocs_per_op", static_cast<double>(s1.allocations - s0.allocations) / ops, "count",
             "count");
  if (opt.trace == 1) AddReplayMetrics(spec, payloads, streams, work + "/replay", report);

  // --- Run facts ------------------------------------------------------------------------
  auto& info = report.info;
  report.Add(info, "attempted", static_cast<double>(report.attempted_ops), "ops", "count",
             "warm-up, timed, crash-phase and replay ops, crash reads");
  report.Add(info, "failed", static_cast<double>(report.failed_ops), "ops", "count");
  report.Add(info, "error_rate",
             static_cast<double>(report.failed_ops) / static_cast<double>(std::max<uint64_t>(report.attempted_ops, 1)),
             "ratio", "count", "failed / attempted");
  report.Add(info, "timed_wall_s", wall_s, "s", "wall");
  if (windows.size() >= 2) {
    std::vector<double> per_window;
    for (const WindowSummary& w : windows) per_window.push_back(w.ops_per_s);
    Quartiles q = QuartilesOf(per_window);
    report.Add(info, "window_spread.ops_per_s", (q.q3 - q.q1) / q.q2, "ratio", "wall",
               "interquartile range / median over this run's windows");
  }
  report.Add(info, "host_steal_share",
             static_cast<double>(s1.steal_ticks - s0.steal_ticks) * tick /
                 (wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))),
             "ratio", "cpu", "vCPU time the hypervisor gave to others; high values spread the timings");
  report.Add(info, "server_busy_share", (user_us + sys_us) / 1e6 / (wall_s * static_cast<double>(server_cores.size())),
             "ratio", "cpu", "server CPU / (wall x cores)");
  report.Add(info, "crash.verified_objects", static_cast<double>(crash.verified), "count", "count");
  report.Add(info, "crash.clean_rolled_back", static_cast<double>(crash.clean_rolled_back), "count", "count");
  report.Add(info, "crash.clean_missing", static_cast<double>(crash.clean_missing), "count", "count");

  PrintMetrics("end-to-end", report.end_to_end);
  PrintMetrics("per-layer", report.per_layer);
  PrintMetrics("run", report.info);

  const bool correct = report.checks_failed == 0;
  const std::vector<Metric>& out = opt.trace == 1 ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted_ops) +
                     ", \"failed\": " + std::to_string(report.failed_ops) + ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + Num(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(work, ec);
  SyncWorkDir(opt.work_dir);  // leave nothing of this run to write back
  return correct ? 0 : 1;
}
