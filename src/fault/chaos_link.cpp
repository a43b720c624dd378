#include "fault/chaos_link.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string_view>

#include "common/assert.hpp"

namespace basrpt::fault {

namespace {

/// Read-ahead cap per direction; small so op boundaries are honored
/// promptly and backpressure propagates through the proxy.
constexpr std::size_t kBufCap = 16 * 1024;

/// Verb of a basrpt-decisions-v1 decision frame (srv/wire.hpp); spelled
/// out here because src/fault sits below srv.
constexpr std::string_view kDecisionFramePrefix = "decision,";

}  // namespace

ChaosLink::ChaosLink(const ChaosLinkConfig& config) : config_(config) {
  listener_ = listen_endpoint(config_.listen);
  if (config_.plan != nullptr) {
    for (const FaultEvent& e : config_.plan->events()) {
      if (!is_link_fault(e.kind)) {
        continue;
      }
      Op op;
      op.kind = e.kind;
      op.offset = static_cast<std::uint64_t>(e.start);
      op.count = e.count;
      op.seconds = e.duration;
      // kLinkReset triggers on the c2s offset; kLinkDup is s2c-only
      // (duplicating feed records upstream would legally re-arrive
      // flows and change the run — the protocol prevents c2s dupes via
      // the hello cursor instead).
      const bool c2s = e.kind == FaultKind::kLinkReset ||
                       (e.kind != FaultKind::kLinkDup && e.port == 0);
      (c2s ? c2s_ops_ : s2c_ops_).push_back(op);
    }
    // Plan events are sorted by `start`, which interleaves offsets with
    // simulator times; re-sort each direction by offset to be safe.
    auto by_offset = [](const Op& a, const Op& b) {
      return a.offset < b.offset;
    };
    std::stable_sort(c2s_ops_.begin(), c2s_ops_.end(), by_offset);
    std::stable_sort(s2c_ops_.begin(), s2c_ops_.end(), by_offset);
  }
}

ChaosLink::~ChaosLink() { stop(); }

void ChaosLink::start() {
  BASRPT_REQUIRE(!thread_.joinable(), "chaos link already started");
  thread_ = std::thread([this] { run(); });
}

void ChaosLink::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  wake_.notify();
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listener_.valid()) {
    listener_.reset();
    unlink_endpoint(config_.listen);
  }
}

bool ChaosLink::apply_ops(bool c2s) {
  auto& ops = c2s ? c2s_ops_ : s2c_ops_;
  auto& next = c2s ? c2s_next_ : s2c_next_;
  const std::uint64_t off = c2s ? c2s_off_ : s2c_off_;
  while (next < ops.size() && ops[next].offset <= off) {
    const Op op = ops[next];
    ++next;
    switch (op.kind) {
      case FaultKind::kLinkReset:
        ++stats_.resets;
        return false;  // drop the link; the client dials back in
      case FaultKind::kLinkCorrupt:
        corrupt_end_[c2s ? 0 : 1] = off + static_cast<std::uint64_t>(
                                              op.count);
        break;
      case FaultKind::kLinkStall:
        ++stats_.stalls;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(op.seconds));
        break;
      case FaultKind::kLinkDup:
        dup_pending_ += op.count;
        break;
      default:
        BASRPT_ASSERT(false, "non-link op in chaos queue");
    }
  }
  return true;
}

bool ChaosLink::pump_direction(bool c2s, int from_fd, int to_fd) {
  const int dir = c2s ? 0 : 1;
  std::string& out = out_buf_[dir];
  std::uint64_t& off = c2s ? c2s_off_ : s2c_off_;

  // Drain what's already transformed.
  while (!out.empty()) {
    const long put = write_some(to_fd, out.data(), out.size());
    if (put == -EAGAIN || put == -EWOULDBLOCK) {
      break;
    }
    if (put <= 0) {
      return false;  // peer gone mid-write: drop the link
    }
    out.erase(0, static_cast<std::size_t>(put));
  }
  if (out.size() >= kBufCap) {
    return true;  // backpressure: stop reading until the peer drains
  }

  char chunk[4096];
  const long got = read_some(from_fd, chunk, sizeof(chunk));
  if (got == -EAGAIN || got == -EWOULDBLOCK) {
    return true;
  }
  if (got < 0) {
    return false;
  }
  if (got == 0) {
    return false;  // EOF: the caller flushes pending s2c bytes and drops
  }

  // Transform [off, off + got), stopping at every op boundary.
  long pos = 0;
  while (pos < got) {
    if (!apply_ops(c2s)) {
      return false;  // reset fired
    }
    auto& ops = c2s ? c2s_ops_ : s2c_ops_;
    auto& next = c2s ? c2s_next_ : s2c_next_;
    std::uint64_t limit = static_cast<std::uint64_t>(got - pos);
    if (next < ops.size()) {
      limit = std::min(limit, ops[next].offset - off);
    }
    for (std::uint64_t k = 0; k < limit; ++k) {
      char b = chunk[pos + static_cast<long>(k)];
      if (off + k < corrupt_end_[dir]) {
        b = static_cast<char>(b ^ 0x20);
        ++stats_.corrupted_bytes;
      }
      out.push_back(b);
      if (!c2s) {
        s2c_partial_.push_back(b);
        if (b == '\n') {
          // Only decision frames are re-delivered: a second header or
          // hello is a protocol violation, not a duplicate, so a pending
          // dup waits for the next decision frame.
          if (dup_pending_ > 0 &&
              s2c_partial_.starts_with(kDecisionFramePrefix)) {
            for (std::int64_t d = 0; d < dup_pending_; ++d) {
              out.append(s2c_partial_);
            }
            stats_.dup_frames += dup_pending_;
            dup_pending_ = 0;
          }
          s2c_partial_.clear();
        }
      }
    }
    off += limit;
    pos += static_cast<long>(limit);
    (c2s ? stats_.c2s_bytes : stats_.s2c_bytes) +=
        static_cast<std::int64_t>(limit);
  }
  return true;
}

void ChaosLink::run() {
  UniqueFd client, upstream;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!client.valid()) {
      struct pollfd fds[2] = {{listener_.get(), POLLIN, 0},
                              {wake_.read_fd(), POLLIN, 0}};
      poll_fds(fds, 2, 200);
      wake_.drain();
      if (stopping_.load(std::memory_order_relaxed)) {
        break;
      }
      if ((fds[0].revents & POLLIN) == 0) {
        continue;
      }
      client = accept_on(listener_.get());
      if (!client.valid()) {
        continue;
      }
      upstream = connect_endpoint(config_.upstream);
      if (!upstream.valid()) {
        // Daemon down (e.g. the SIGKILL window). Bounce the client; its
        // backoff absorbs the outage.
        client.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      set_nonblocking(client.get());
      set_nonblocking(upstream.get());
      ++stats_.connections;
      out_buf_[0].clear();
      out_buf_[1].clear();
      // The server opens a fresh decisions stream on reconnect; a
      // half-forwarded old frame must not bleed into its line tracking.
      s2c_partial_.clear();
      continue;
    }

    struct pollfd fds[3] = {{client.get(), 0, 0},
                            {upstream.get(), 0, 0},
                            {wake_.read_fd(), POLLIN, 0}};
    if (out_buf_[0].size() < kBufCap) {
      fds[0].events |= POLLIN;
    }
    if (!out_buf_[1].empty()) {
      fds[0].events |= POLLOUT;
    }
    if (out_buf_[1].size() < kBufCap) {
      fds[1].events |= POLLIN;
    }
    if (!out_buf_[0].empty()) {
      fds[1].events |= POLLOUT;
    }
    poll_fds(fds, 3, 200);
    wake_.drain();
    if (stopping_.load(std::memory_order_relaxed)) {
      break;
    }
    const bool c2s_ok = pump_direction(true, client.get(), upstream.get());
    const bool s2c_ok =
        c2s_ok && pump_direction(false, upstream.get(), client.get());
    if (!c2s_ok || !s2c_ok) {
      // Link drop (scripted reset, EOF, or error). Flush any transformed
      // server→client bytes first: the `complete` frame rides just ahead
      // of the server's close and the client deserves to see it.
      if (!out_buf_[1].empty() && client.valid()) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!out_buf_[1].empty() &&
               std::chrono::steady_clock::now() < deadline) {
          const long put = write_some(client.get(), out_buf_[1].data(),
                                      out_buf_[1].size());
          if (put == -EAGAIN || put == -EWOULDBLOCK) {
            struct pollfd flush_fd = {client.get(), POLLOUT, 0};
            poll_fds(&flush_fd, 1, 100);
            continue;
          }
          if (put <= 0) {
            break;
          }
          out_buf_[1].erase(0, static_cast<std::size_t>(put));
        }
      }
      client.reset();
      upstream.reset();
    }
  }
}

}  // namespace basrpt::fault
