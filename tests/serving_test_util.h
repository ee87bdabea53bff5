// Shared by the loopback serving tests (server_test, shard_test,
// cluster_test): a payload-preserving data plane, a fixture running a
// ShardedServer over N of them, a raw client socket, and a reaper for
// forked server processes.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "osd/osd_target.h"
#include "server/frame.h"
#include "shard/sharded_server.h"
#include "telemetry/metric_registry.h"
#include "telemetry/time_series.h"
#include "trace/event_log.h"
#include "trace/tracer.h"

namespace reo {

/// Payload-preserving data plane: enough storage semantics to verify
/// byte-exact round trips without dragging in the flash stack.
class MapDataPlane final : public DataPlane {
 public:
  Result<DataPlaneIo> WriteObject(ObjectId id, std::span<const uint8_t> payload,
                                  uint64_t, uint8_t, SimTime now) override {
    data_[id].assign(payload.begin(), payload.end());
    return DataPlaneIo{.complete = now};
  }
  Result<DataPlaneIo> ReadObject(ObjectId id, SimTime now) override {
    auto it = data_.find(id);
    if (it == data_.end()) return Status{ErrorCode::kNotFound, "no data"};
    DataPlaneIo io;
    io.complete = now;
    io.payload.assign(it->second.begin(), it->second.end());
    return io;
  }
  Status RemoveObject(ObjectId id) override {
    return data_.erase(id) ? Status::Ok()
                           : Status{ErrorCode::kNotFound, "no data"};
  }
  Status SetObjectClass(ObjectId, uint8_t, SimTime) override {
    return Status::Ok();
  }
  ObjectHealth Health(ObjectId id) const override {
    return data_.contains(id) ? ObjectHealth::kIntact : ObjectHealth::kAbsent;
  }
  bool recovery_active() const override { return false; }
  bool HasSpaceFor(uint64_t, uint8_t) const override { return true; }

 private:
  std::unordered_map<ObjectId, std::vector<uint8_t>, ObjectIdHash> data_;
};

/// FORMAT of a 4 MiB logical unit (a sharded server splits it evenly).
inline OsdCommand FormatCmd() {
  OsdCommand c;
  c.op = OsdOp::kFormat;
  c.capacity_bytes = 4 << 20;
  return c;
}

/// `shards` independent MapDataPlane targets behind one ShardedServer,
/// run on its own thread and torn down in order. Each shard carries its
/// own registry, so admin tests exercise the real cross-shard merge.
class ServingTest : public ::testing::Test {
 protected:
  /// With `tracer`, shard 0 and its target trace requests into shard 0's
  /// stage histograms (Tracer holds one active context: one shard only).
  void StartShards(size_t shards, ShardedServerConfig cfg = {},
                   Tracer* tracer = nullptr) {
    std::vector<OsdTarget*> targets;
    std::vector<MetricRegistry*> registries;
    for (size_t k = 0; k < shards; ++k) {
      planes_.push_back(std::make_unique<MapDataPlane>());
      targets_.push_back(std::make_unique<OsdTarget>(*planes_.back()));
      registries_.push_back(std::make_unique<MetricRegistry>());
      targets_.back()->AttachTelemetry(*registries_.back());
      targets.push_back(targets_.back().get());
      registries.push_back(registries_.back().get());
    }
    server_ = std::make_unique<ShardedServer>(targets, cfg);
    server_->AttachEvents(events_);
    for (size_t k = 0; k < shards; ++k) {
      server_->AttachShardTelemetry(k, *registries_[k]);
    }
    if (tracer != nullptr) {
      tracer->AttachStageMetrics(*registries_[0]);
      targets_[0]->AttachTracing(*tracer);
      server_->AttachShardTracing(0, *tracer);
    }
    TrackServingDefaults(registries, series_, /*num_devices=*/0);
    server_->AttachAdmin(registries, &series_);
    ASSERT_TRUE(server_->Listen().ok());
    ASSERT_GT(server_->port(), 0);
    run_thread_ = std::thread([this] { server_->Run(); });
  }

  void DrainAndJoin() {
    if (!server_ || !run_thread_.joinable()) return;
    server_->RequestDrain();
    run_thread_.join();
  }

  void TearDown() override { DrainAndJoin(); }

  std::vector<std::unique_ptr<MapDataPlane>> planes_;
  std::vector<std::unique_ptr<OsdTarget>> targets_;
  std::vector<std::unique_ptr<MetricRegistry>> registries_;
  EventLog events_;
  TimeSeriesRing series_{
      TimeSeriesConfig{.window_ns = 50'000'000, .capacity = 64}};
  std::unique_ptr<ShardedServer> server_;
  std::thread run_thread_;
};

/// A blocking TCP socket connected to 127.0.0.1:`port`, or -1. For
/// tests that must put bytes on the wire no initiator would send.
inline int ConnectRaw(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads one frame's payload from blocking socket `fd` into `*payload`;
/// false when the peer closes first or framing is lost.
inline bool ReadFramePayload(int fd, std::vector<uint8_t>* payload) {
  FrameDecoder decoder;
  for (;;) {
    FrameStatus st = decoder.Next(payload);
    if (st == FrameStatus::kFrame) return true;
    if (st != FrameStatus::kNeedMore) return false;
    uint8_t buf[4096];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    decoder.Feed({buf, static_cast<size_t>(n)});
  }
}

/// SIGKILLs and reaps every still-running forked child on scope exit, so
/// a failing ASSERT cannot leak server processes. A pid <= 0 is skipped.
struct ChildReaper {
  std::vector<pid_t> pids;
  ~ChildReaper() {
    for (pid_t pid : pids) {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  }
};

}  // namespace reo
