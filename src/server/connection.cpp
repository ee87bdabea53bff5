#include "server/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace reo {
namespace {

/// Input-side buffering bound: always admits one maximum-size frame (or
/// the decoder could deadlock below the watermark), plus a read quantum.
size_t InputCap(const ConnectionConfig& c) {
  return FramedSize(c.max_frame_payload) + 64 * 1024;
}

/// iovec entries gathered per sendmsg (16 frames' worth of spans).
constexpr size_t kWriteIovBatch = 48;

}  // namespace

Connection::Connection(int fd, uint64_t id, EventLoop& loop,
                       ConnectionHost& host, ConnectionConfig config,
                       std::string peer, FrameMetaPool& pool)
    : fd_(fd),
      id_(id),
      loop_(loop),
      host_(host),
      config_(config),
      peer_(std::move(peer)),
      decoder_(config.max_frame_payload),
      out_(pool) {
  interest_ = EPOLLIN;
  Status st = loop_.Add(fd_, interest_, [this](uint32_t ev) { OnReady(ev); });
  if (!st.ok()) {
    closing_ = true;
    close_reason_ = st.to_string();
    // Tear down from the loop, not the constructor: the host must finish
    // inserting us into its connection table first.
    loop_.AddTimer(0, [this] { host_.OnClose(*this, close_reason_); });
    return;
  }
  last_frame_ms_ = loop_.now_ms();
  if (config_.idle_timeout_ms != 0) ArmIdleTimer(config_.idle_timeout_ms);
}

Connection::~Connection() {
  if (idle_timer_) loop_.CancelTimer(idle_timer_);
  loop_.Remove(fd_);
  close(fd_);
}

void Connection::ArmIdleTimer(uint64_t delay_ms) {
  idle_timer_ = loop_.AddTimer(delay_ms, [this] {
    idle_timer_ = 0;
    uint64_t idle_ms = loop_.now_ms() - last_frame_ms_;
    if (idle_ms < config_.idle_timeout_ms) {
      ArmIdleTimer(config_.idle_timeout_ms - idle_ms);
      return;
    }
    Fail("idle timeout");
    FinishEvent();
  });
}

void Connection::Fail(std::string_view reason) {
  if (!closing_) {
    closing_ = true;
    close_reason_ = reason;
  }
}

void Connection::FinishEvent() {
  if (closing_) host_.OnClose(*this, close_reason_);  // deletes this
}

void Connection::BeginDrain() {
  if (draining_ || closing_) return;
  // Final read pass: requests the peer already sent (sitting in the
  // kernel receive buffer) are still in-flight and get served; only
  // bytes arriving after this point are refused.
  if (!DoRead()) {
    draining_ = true;
    FinishEvent();
    return;
  }
  draining_ = true;
  if (!ProcessFrames()) {
    FinishEvent();
    return;
  }
  UpdateInterest();
}

void Connection::OnReady(uint32_t events) {
  if (closing_) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    Fail(events & EPOLLERR ? "socket error" : "peer hangup");
    FinishEvent();
    return;
  }
  if ((events & EPOLLIN) && !draining_ && !DoRead()) {
    FinishEvent();
    return;
  }
  // Both readable and writable events land here: Pump executes whatever
  // frames became decodable and flushes whatever became writable.
  if (!ProcessFrames()) {
    FinishEvent();
    return;
  }
  UpdateInterest();
  FinishEvent();
}

bool Connection::DoRead() {
  uint8_t buf[64 * 1024];
  for (;;) {
    if (pending_write_bytes() >= config_.write_high_watermark ||
        decoder_.buffered() >= InputCap(config_)) {
      break;  // backpressure: stop pulling bytes off the socket
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      host_.OnBytes(static_cast<uint64_t>(n), 0);
      decoder_.Feed({buf, static_cast<size_t>(n)});
      if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained the socket
      continue;
    }
    if (n == 0) {
      // Orderly shutdown from the peer: execute and answer what is
      // already buffered, then close (same path as a server drain).
      draining_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Fail("read error");
    return false;
  }
  return true;
}

bool Connection::ProcessFrames() {
  std::span<const uint8_t> payload;
  for (;;) {
    bool input_exhausted = true;
    bool deferred_blocked =
        stall_token_ != 0 || slots_.size() >= config_.max_inflight;
    if (!deferred_blocked &&
        pending_write_bytes() < config_.write_high_watermark) {
      FrameStatus st = decoder_.NextView(&payload);
      if (st == FrameStatus::kFrame) {
        ++frames_handled_;
        last_frame_ms_ = loop_.now_ms();
        dispatch_token_ = next_token_++;
        FrameResult r = host_.OnFrame(*this, payload);
        if (r.deferred) {
          // Response arrives later via Complete(); hold its place so the
          // wire order matches the request order.
          slots_.push_back(Slot{dispatch_token_, false, {}});
          if (r.barrier) stall_token_ = dispatch_token_;
        } else if (!r.response.empty()) {
          if (slots_.empty()) {
            // The handler's buffer is shipped as-is: the queue frames it
            // with a pooled header/trailer block, no payload copy.
            out_.Push(std::move(r.response));
            if (pending_write_bytes() > config_.write_hard_limit) {
              Fail("write queue overflow");
              return false;
            }
          } else {
            // Earlier responses are still pending: queue behind them.
            slots_.push_back(
                Slot{dispatch_token_, true, std::move(r.response)});
          }
        }
        continue;  // keep executing the pipeline
      }
      if (st != FrameStatus::kNeedMore) {
        // Corruption or lost framing: surface it loudly, then drop.
        host_.OnCorruptFrame(*this, st);
        Fail(st == FrameStatus::kCrcMismatch ? "crc mismatch" : "bad framing");
        return false;
      }
    } else if (deferred_blocked) {
      input_exhausted = false;  // Complete() resumes dispatch
    } else {
      input_exhausted = false;  // stopped by backpressure, not input
    }
    if (!DoWrite()) return false;
    if (pending_write_bytes() >= config_.write_high_watermark) {
      return true;  // EPOLLOUT resumes us
    }
    if (deferred_blocked) return true;  // Complete() resumes us
    if (input_exhausted) {
      if (draining_ && pending_write_bytes() == 0 && slots_.empty()) {
        Fail("drained");
        return false;
      }
      return true;
    }
    // Backpressure cleared by the flush: loop and execute more frames.
  }
}

bool Connection::FlushSlots() {
  while (!slots_.empty() && slots_.front().done) {
    if (!slots_.front().response.empty()) {
      out_.Push(std::move(slots_.front().response));
    }
    slots_.pop_front();
    if (pending_write_bytes() > config_.write_hard_limit) {
      Fail("write queue overflow");
      return false;
    }
  }
  return true;
}

void Connection::Complete(uint64_t token, FramePayload response) {
  if (closing_) return;
  for (Slot& s : slots_) {
    if (s.token == token) {
      s.done = true;
      s.response = std::move(response);
      break;
    }
  }
  if (stall_token_ == token) stall_token_ = 0;
  // A completion is a loop event of its own: flush what became ordered,
  // resume the pipeline the deferral blocked, and tear down on failure
  // or once a drain has nothing left in flight.
  if (!FlushSlots()) {
    FinishEvent();
    return;
  }
  if (!ProcessFrames()) {
    FinishEvent();
    return;
  }
  UpdateInterest();
  FinishEvent();
}

bool Connection::DoWrite() {
  while (!out_.empty()) {
    // Scatter-gather flush: header/payload/trailer spans go to the socket
    // in place (one syscall per batch, no flat staging copy).
    struct iovec iov[kWriteIovBatch];
    size_t n_iov = out_.Gather(iov, kWriteIovBatch);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      host_.OnBytes(0, static_cast<uint64_t>(n));
      out_.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Fail("write error");
    return false;
  }
  return true;
}

void Connection::UpdateInterest() {
  uint32_t want = 0;
  if (!draining_ && pending_write_bytes() < config_.write_high_watermark &&
      decoder_.buffered() < InputCap(config_)) {
    want |= EPOLLIN;
  }
  if (pending_write_bytes() > 0) want |= EPOLLOUT;
  if (want == 0) want = EPOLLHUP;  // still detect peer teardown
  if (want != interest_) {
    interest_ = want;
    (void)loop_.Modify(fd_, interest_);
  }
}

}  // namespace reo
