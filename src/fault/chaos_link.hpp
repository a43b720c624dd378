// ChaosLink: a deterministic chaos proxy for the serving transport.
//
// Sits between srv::Client and the basrptd listener, forwarding bytes in
// both directions while replaying the link-* ops of a fault plan:
// connection resets, mid-frame byte corruption, wall-clock stalls, and
// frame-aligned duplicate delivery. Every op triggers on a *cumulative
// byte offset* of the proxied stream (client→server or server→client),
// never on wall time — so a chaos run perturbs exactly the same byte
// positions regardless of host speed, write chunking, or pacing, and the
// end-to-end differential (chaos run + client retries vs clean run →
// identical final counters) is reproducible anywhere.
//
// Offsets accumulate across reconnects: after a scripted reset the
// client dials back through the proxy, and the next op picks up at the
// same global offset. One link is proxied at a time (the serving
// protocol is single-producer); an overlapping dial-in during connection
// teardown is refused and absorbed by the client's backoff.
//
// The proxy is transport-agnostic on purpose: it never parses frames
// (except to find '\n' boundaries and the `decision,` verb for link-dup,
// which must inject a *parseable* duplicate decision frame to exercise
// the client's sequence dedupe rather than its parser) and lives in
// src/fault, below srv.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hpp"
#include "common/net.hpp"
#include "fault/fault_plan.hpp"

namespace basrpt::fault {

struct ChaosLinkConfig {
  /// Where the client dials in.
  Endpoint listen;
  /// The real daemon endpoint.
  Endpoint upstream;
  /// Source of link-* ops (all other kinds are ignored). May be null
  /// for a transparent proxy.
  const FaultPlan* plan = nullptr;
};

struct ChaosLinkStats {
  std::int64_t connections = 0;
  std::int64_t resets = 0;
  std::int64_t corrupted_bytes = 0;
  std::int64_t stalls = 0;
  std::int64_t dup_frames = 0;
  std::int64_t c2s_bytes = 0;
  std::int64_t s2c_bytes = 0;
};

class ChaosLink {
 public:
  /// Binds the listen endpoint immediately (clients may dial in before
  /// start()): throws ConfigError if the endpoint is unusable.
  explicit ChaosLink(const ChaosLinkConfig& config);
  ~ChaosLink();

  ChaosLink(const ChaosLink&) = delete;
  ChaosLink& operator=(const ChaosLink&) = delete;

  /// Runs the proxy loop on a background thread.
  void start();
  /// Stops the loop, joins the thread, closes the listener.
  void stop();

  /// Safe after stop() (or from the run thread itself).
  const ChaosLinkStats& stats() const { return stats_; }

 private:
  struct Op {
    FaultKind kind = FaultKind::kLinkReset;
    std::uint64_t offset = 0;
    std::int64_t count = 0;
    double seconds = 0.0;
  };

  void run();
  /// Moves bytes one direction; returns false when the link must drop.
  bool pump_direction(bool c2s, int from_fd, int to_fd);
  /// Applies any op whose offset the direction has reached.
  bool apply_ops(bool c2s);

  ChaosLinkConfig config_;
  UniqueFd listener_;
  WakePipe wake_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;

  std::vector<Op> c2s_ops_, s2c_ops_;
  std::size_t c2s_next_ = 0, s2c_next_ = 0;
  std::uint64_t c2s_off_ = 0, s2c_off_ = 0;
  // Active corruption window per direction: [begin, end) stream offsets.
  std::uint64_t corrupt_end_[2] = {0, 0};
  // Pending duplicate delivery: inject after the next s2c decision frame.
  std::int64_t dup_pending_ = 0;
  std::string s2c_partial_;   // transformed s2c bytes since the last '\n'
  std::string out_buf_[2];    // transformed, not yet written (0=c2s,1=s2c)
  ChaosLinkStats stats_;
};

}  // namespace basrpt::fault
