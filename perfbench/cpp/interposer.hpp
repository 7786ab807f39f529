// The benchmark's interposing io::BlockDriver. It sits between a client
// (the workload generator, or the database and its filesystems) and the
// driver under test, and measures that boundary from outside:
//  - a `submit` span around every submit_* call and a `complete` span
//    around every client completion, both tagged with the request's id;
//  - simulated submit -> acknowledgement latency of every write (the
//    sync-write latency a client of the driver waits for), and the submit
//    time of every write not yet acknowledged;
//  - block read / write counts (the db and fs demand on the driver).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "io/block.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

class Interposer final : public trail::io::BlockDriver {
 public:
  Interposer(trail::sim::Simulator& sim, trail::io::BlockDriver& inner, SpanTracer& tracer)
      : sim_(sim), inner_(inner), tracer_(tracer) {}
  Interposer(const Interposer&) = delete;
  Interposer& operator=(const Interposer&) = delete;

  void submit_write(trail::io::BlockAddr addr, std::uint32_t count,
                    std::span<const std::byte> data, Completion cb) override {
    const std::uint64_t id = ++next_id_;
    ++writes_;
    write_sectors_ += count;
    SpanTracer::Scope span(tracer_, SpanKind::kSubmit, id);
    unacked_.emplace(id, sim_.now().ns());
    inner_.submit_write(addr, count, data,
                        [this, id, t0 = sim_.now(), cb = std::move(cb)] {
                          unacked_.erase(id);
                          writes_acked_.push_back({t0.ns(), (sim_.now() - t0).ms()});
                          SpanTracer::Scope done(tracer_, SpanKind::kComplete, id);
                          cb();
                        });
  }

  void submit_read(trail::io::BlockAddr addr, std::uint32_t count, std::span<std::byte> out,
                   Completion cb) override {
    const std::uint64_t id = ++next_id_;
    ++reads_;
    SpanTracer::Scope span(tracer_, SpanKind::kSubmit, id);
    inner_.submit_read(addr, count, out, [this, id, cb = std::move(cb)] {
      SpanTracer::Scope done(tracer_, SpanKind::kComplete, id);
      cb();
    });
  }

  void drain(Completion cb) override { inner_.drain(std::move(cb)); }

  struct AckedWrite {
    std::int64_t submit_ns;  // simulated submit time
    double latency_ms;       // simulated submit -> acknowledgement
  };
  /// Latencies of the acknowledged writes submitted in [from, to).
  [[nodiscard]] std::vector<double> latencies_ms(trail::sim::TimePoint from,
                                                 trail::sim::TimePoint to) const {
    std::vector<double> out;
    for (const AckedWrite& w : writes_acked_)
      if (w.submit_ns >= from.ns() && w.submit_ns < to.ns()) out.push_back(w.latency_ms);
    return out;
  }
  /// For each write submitted and not acknowledged by `now`, the time it
  /// has waited so far (a lower bound on its latency).
  [[nodiscard]] std::vector<double> unacked_waits_ms(trail::sim::TimePoint now) const {
    std::vector<double> out;
    for (const auto& [id, submit_ns] : unacked_)
      out.push_back(static_cast<double>(now.ns() - submit_ns) / 1e6);
    return out;
  }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t write_sectors() const { return write_sectors_; }

 private:
  trail::sim::Simulator& sim_;
  trail::io::BlockDriver& inner_;
  SpanTracer& tracer_;
  std::uint64_t next_id_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t write_sectors_ = 0;
  std::vector<AckedWrite> writes_acked_;
  std::unordered_map<std::uint64_t, std::int64_t> unacked_;  // write id -> simulated submit ns
};

}  // namespace perfbench
