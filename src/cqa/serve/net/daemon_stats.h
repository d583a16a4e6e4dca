#ifndef CQA_SERVE_NET_DAEMON_STATS_H_
#define CQA_SERVE_NET_DAEMON_STATS_H_

#include <initializer_list>
#include <mutex>
#include <utility>

#include "cqa/serve/net/protocol.h"

namespace cqa {

enum class CloseReason;

/// Thread-safe accumulator for `DaemonStats`, shared by the daemon and all
/// of its connections (connections outlive neither the collector nor the
/// daemon that owns both).
class DaemonStatsCollector {
 public:
  using Counter = uint64_t DaemonStats::*;

  /// Adds `n` to one counter: the whole rule for a counter that only
  /// counts events.
  void Add(Counter counter, uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.*counter += n;
  }

  /// Several adds under one lock hold, for one event that moves more than
  /// one counter (e.g. a frame and whether it was garbage).
  void Add(std::initializer_list<std::pair<Counter, uint64_t>> adds) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [counter, n] : adds) stats_.*counter += n;
  }

  /// Decrements `connections_active` and counts the close under its
  /// reason's counter (reasons without one count nothing).
  void OnConnectionClosed(CloseReason reason);

  // Replication accounting (primary side). `outstanding` is the calling
  // stream's sent-minus-acked count, published as the `repl_lag` gauge —
  // last writer wins, which is exact for the common single-follower case.
  void OnReplStreamClosed() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repl_streams_closed;
    if (stats_.repl_streams_closed >= stats_.repl_streams_opened) {
      stats_.repl_lag = 0;  // no live stream left to lag
    }
  }

  void OnReplEventSent(uint64_t outstanding) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repl_events_sent;
    stats_.repl_lag = outstanding;
  }

  void OnReplAckReceived(uint64_t outstanding) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repl_acks_received;
    stats_.repl_lag = outstanding;
  }

  DaemonStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  DaemonStats stats_;
};

}  // namespace cqa

#endif  // CQA_SERVE_NET_DAEMON_STATS_H_
