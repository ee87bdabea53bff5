// One accepted TCP connection: non-blocking socket IO, incremental frame
// reassembly, pipelined request dispatch, and a bounded write queue with
// read backpressure.
//
// Lifecycle: a ShardWorker (shard/sharded_server.cpp) adopts the accepted
// socket and owns the Connection; the Connection registers itself with the EventLoop and calls back into its
// ConnectionHost for every decoded frame. All entry points run on the
// loop thread. Close is single-shot: the connection reports its reason to
// the host exactly once, and the host destroys it (no member may be
// touched after OnClose fires).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/event_loop.h"
#include "server/frame.h"
#include "server/frame_queue.h"

namespace reo {

class Connection;

/// Outcome of dispatching one frame to the host.
///
/// The synchronous shape (`deferred == false`) ships `response`
/// immediately: the frame executed on the connection's own loop. The
/// deferred shape is the cross-shard hook: the host parked the request
/// (e.g. forwarded it to another shard's loop) and will deliver the
/// response later via Connection::Complete() with the token the
/// connection assigned to this frame (Connection::last_dispatch_token()).
/// Responses always flush in request order regardless of completion
/// order. A `barrier` result additionally stalls dispatch of every
/// later pipelined frame on this connection until it completes — the
/// ordering fence for fan-out ops like FORMAT.
struct FrameResult {
  FramePayload response;  ///< shipped now (deferred == false); empty = none
  bool deferred = false;
  bool barrier = false;  ///< only meaningful with deferred == true
};

/// Server-side callbacks a Connection drives. OnClose hands ownership
/// back: the host is expected to destroy the connection.
class ConnectionHost {
 public:
  virtual ~ConnectionHost() = default;

  /// A complete, CRC-verified frame arrived; returns the response payload
  /// to ship back as scatter-gather parts (all-empty = no response), or a
  /// deferred marker (see FrameResult). `payload` views the connection's
  /// reassembly buffer in place (no copy) and is only valid for the
  /// duration of the call — decode it, don't retain it.
  virtual FrameResult OnFrame(Connection& conn,
                              std::span<const uint8_t> payload) = 0;

  /// The stream produced a corrupt frame (CRC mismatch) or lost framing
  /// (bad magic / oversized length). The connection closes right after;
  /// this hook exists so the corruption is counted and logged, never
  /// silently swallowed.
  virtual void OnCorruptFrame(Connection& conn, FrameStatus status) = 0;

  /// Raw byte accounting (called per successful read/write batch).
  virtual void OnBytes(uint64_t bytes_in, uint64_t bytes_out) = 0;

  /// Terminal notification; the host destroys `conn`.
  virtual void OnClose(Connection& conn, std::string_view reason) = 0;
};

struct ConnectionConfig {
  /// Pending response bytes above which the connection stops reading
  /// (and stops executing further pipelined frames).
  size_t write_high_watermark = 4u << 20;
  /// Hard cap: a peer that will not drain its responses gets closed.
  size_t write_hard_limit = 64u << 20;
  /// Close connections idle (no complete frame) this long. 0 = never.
  uint64_t idle_timeout_ms = 60'000;
  size_t max_frame_payload = kMaxFramePayload;
  /// Deferred (cross-shard) responses outstanding above which the
  /// connection stops dispatching further pipelined frames — bounds the
  /// per-connection forwarding window the same way the write watermark
  /// bounds response bytes.
  size_t max_inflight = 128;
};

class Connection {
 public:
  /// Takes ownership of `fd` (nonblocking). Registers with `loop`.
  /// `pool` recycles frame-metadata blocks across the host's connections;
  /// it must outlive the connection.
  Connection(int fd, uint64_t id, EventLoop& loop, ConnectionHost& host,
             ConnectionConfig config, std::string peer, FrameMetaPool& pool);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  const std::string& peer() const { return peer_; }
  int fd() const { return fd_; }

  /// Bytes of response data accepted but not yet written to the socket.
  size_t pending_write_bytes() const { return out_.pending_bytes(); }

  /// Frames decoded and dispatched on this connection.
  uint64_t frames_handled() const { return frames_handled_; }

  /// Token of the frame currently being dispatched (valid only inside
  /// ConnectionHost::OnFrame); a host returning deferred keeps it to
  /// Complete() the frame later.
  uint64_t last_dispatch_token() const { return dispatch_token_; }

  /// Deferred responses not yet completed.
  size_t inflight() const { return slots_.size(); }

  /// Delivers the response for a deferred frame. Must run on the loop
  /// thread (cross-shard completions arrive via EventLoop::Post). The
  /// response is queued in request order: it flushes once every earlier
  /// frame's response has been produced. May destroy the connection
  /// (flush failure / drain completion) — callers must not touch it
  /// afterwards.
  void Complete(uint64_t token, FramePayload response);

  /// Enters drain mode: one final read pass (requests already sent by
  /// the peer count as in-flight), then stop reading, finish dispatching
  /// every buffered frame, flush the responses, and close ("drained").
  /// Idempotent.
  void BeginDrain();

  bool draining() const { return draining_; }

 private:
  void OnReady(uint32_t events);
  /// Reads until EAGAIN / EOF / backpressure; returns false on fatal error.
  bool DoRead();
  /// Dispatches buffered frames until backpressure or exhaustion.
  bool ProcessFrames();
  /// Moves the contiguous completed prefix of slots_ into the write
  /// queue; returns false on write-queue overflow (connection failed).
  bool FlushSlots();
  /// Writes pending bytes until EAGAIN; returns false on fatal error.
  bool DoWrite();
  void UpdateInterest();
  /// Schedules the idle check `delay_ms` out. A frame only stamps
  /// last_frame_ms_; the check re-arms for what is left of the timeout,
  /// or closes the connection once a whole timeout passed without one.
  void ArmIdleTimer(uint64_t delay_ms);
  /// Records the close reason (first wins) and schedules teardown.
  void Fail(std::string_view reason);
  /// Final step of every event: reports close to the host (which deletes
  /// `this`) if a reason was recorded. Nothing may run after it.
  void FinishEvent();

  int fd_;
  uint64_t id_;
  EventLoop& loop_;
  ConnectionHost& host_;
  ConnectionConfig config_;
  std::string peer_;

  FrameDecoder decoder_;
  FrameQueue out_;  ///< framed responses: pooled metadata + moved payloads
  uint32_t interest_ = 0;
  bool draining_ = false;
  bool closing_ = false;
  std::string close_reason_;
  uint64_t frames_handled_ = 0;
  TimerId idle_timer_ = 0;
  uint64_t last_frame_ms_ = 0;  ///< loop clock at the last complete frame

  /// In-order response slots. Only frames dispatched while responses are
  /// outstanding (or themselves deferred) occupy a slot; the common
  /// synchronous case bypasses the deque entirely.
  struct Slot {
    uint64_t token = 0;
    bool done = false;
    FramePayload response;
  };
  std::deque<Slot> slots_;
  uint64_t next_token_ = 1;
  uint64_t dispatch_token_ = 0;
  uint64_t stall_token_ = 0;  ///< nonzero: barrier op pending, no dispatch
};

}  // namespace reo
