// A net::Backend decorator that times the daemon's calls into its backend.
//
// net::RouteServer dispatches every query frame to Backend::query() and
// every delta frame to Backend::submit(). Wrapping the real backend (a
// net::ServiceBackend over the primary's RouteService, or a
// replica::ReplicaService) in TracedBackend and handing the wrapper to
// RouteServer(Backend&, ...) times those calls inside the daemon with no
// change to the daemon's source. With tracing off every call forwards
// untouched; with tracing on, query() and submit() record their span:
//
//   * into a histogram (the service layer's own latency), and
//   * into a small slot table keyed by the batch's fingerprint, so the
//     client that sent the frame can look up the daemon-side span of *its*
//     frame and subtract it from the round trip (the transport's self
//     time). A slot overwritten before the client reads it is simply not
//     paired; spans are never attributed to the wrong frame because the
//     client checks the full 64-bit key.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "histogram.h"
#include "net/backend.h"

namespace loadbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Content fingerprint of a request batch; client and decorator compute it
/// independently. Never 0 (0 marks an empty slot).
inline std::uint64_t fingerprint(
    std::span<const fpss::service::Request> batch) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ batch.size();
  for (const auto& r : batch) {
    h = (h ^ ((static_cast<std::uint64_t>(r.k) << 32) | r.i)) *
        0x100000001b3ull;
    h = (h ^ ((static_cast<std::uint64_t>(r.j) << 8) |
              static_cast<std::uint64_t>(r.kind))) *
        0xff51afd7ed558ccdull;
  }
  return h == 0 ? 1 : h;
}

class TracedBackend final : public fpss::net::Backend {
 public:
  explicit TracedBackend(fpss::net::Backend& inner) : inner_(inner) {}

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// The daemon-side span of the frame whose batch had `key`, or 0 when
  /// its slot was reused before this lookup.
  std::uint64_t take_span(std::uint64_t key) const {
    const Slot& slot = slots_[key % kSlots];
    if (slot.key.load(std::memory_order_acquire) != key) return 0;
    const std::uint64_t ns = slot.ns.load(std::memory_order_relaxed);
    return slot.key.load(std::memory_order_acquire) == key ? ns : 0;
  }

  /// Span of the most recent submit() — the benchmark's writers keep one
  /// write in flight per backend, so this is the span of their own write.
  std::uint64_t last_submit_ns() const {
    return last_submit_ns_.load(std::memory_order_acquire);
  }

  Histogram& query_ns() { return *query_ns_; }
  Histogram& submit_ns() { return *submit_ns_; }
  /// Fresh histograms for the next measurement window.
  void reset_histograms() {
    query_ns_ = std::make_unique<Histogram>();
    submit_ns_ = std::make_unique<Histogram>();
  }

  // --- net::Backend --------------------------------------------------------

  std::size_t node_count() const override { return inner_.node_count(); }
  std::uint64_t version() const override { return inner_.version(); }
  std::uint64_t published_at_ns() const override {
    return inner_.published_at_ns();
  }
  std::uint64_t publish_count() const override {
    return inner_.publish_count();
  }
  std::vector<fpss::service::Reply> query(
      std::span<const fpss::service::Request> batch) const override {
    if (!tracing()) return inner_.query(batch);
    const std::uint64_t start = now_ns();
    auto replies = inner_.query(batch);
    const std::uint64_t span = now_ns() - start;
    query_ns_->add(span);
    const std::uint64_t key = fingerprint(batch);
    Slot& slot = slots_[key % kSlots];
    slot.key.store(0, std::memory_order_release);
    slot.ns.store(span, std::memory_order_relaxed);
    slot.key.store(key, std::memory_order_release);
    return replies;
  }
  fpss::service::RouteService::Counters counters() const override {
    return inner_.counters();
  }
  bool replica_counters(fpss::net::ReplicaCounters& out) const override {
    return inner_.replica_counters(out);
  }
  std::uint32_t hop_count() const override { return inner_.hop_count(); }
  SubmitOutcome submit(
      const std::vector<fpss::service::RouteService::Delta>& deltas) override {
    if (!tracing()) return inner_.submit(deltas);
    const std::uint64_t start = now_ns();
    auto outcome = inner_.submit(deltas);
    const std::uint64_t span = now_ns() - start;
    submit_ns_->add(span);
    last_submit_ns_.store(span, std::memory_order_release);
    return outcome;
  }
  std::uint64_t drain() override { return inner_.drain(); }
  std::shared_ptr<const fpss::service::ShardedSnapshotStore> store()
      const override {
    return inner_.store();
  }
  std::uint64_t wait_for_publish_beyond(std::uint64_t count,
                                        int timeout_ms) const override {
    return inner_.wait_for_publish_beyond(count, timeout_ms);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> ns{0};
  };
  static constexpr std::size_t kSlots = 4096;

  fpss::net::Backend& inner_;
  std::atomic<bool> tracing_{false};
  // Histograms are swapped only between windows, while no frame is in
  // flight; the pointers are stable while the daemon records into them.
  std::unique_ptr<Histogram> query_ns_ = std::make_unique<Histogram>();
  std::unique_ptr<Histogram> submit_ns_ = std::make_unique<Histogram>();
  std::atomic<std::uint64_t> last_submit_ns_{0};
  mutable std::array<Slot, kSlots> slots_{};
};

}  // namespace loadbench
