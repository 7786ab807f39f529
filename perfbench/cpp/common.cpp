#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double host_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double host_wall_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double ChunkRates::median_rate() const { return median(rates_); }

double ChunkRates::first_half() const {
  return median(std::vector<double>(rates_.begin(), rates_.begin() + rates_.size() / 2));
}

double ChunkRates::second_half() const {
  return median(std::vector<double>(rates_.begin() + rates_.size() / 2, rates_.end()));
}

// ---- report ----------------------------------------------------------------

void Report::fail(const std::string& what, std::uint64_t ops) {
  failures.push_back(what);
  failed += ops;
}

namespace {

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kSim: return "sim";
    case Clock::kHost: return "host";
    case Clock::kCount: return "count";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
           "\", \"clock\": \"" + clock_name(m.clock) + "\"}";
  }
  return out + "}";
}

void print_block(const char* title, const std::vector<Metric>& metrics) {
  std::printf("--- %s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6f %-8s [%s]\n", m.name.c_str(), m.value, m.unit.c_str(),
                clock_name(m.clock));
}

}  // namespace

void Report::print() const {
  std::printf("=== perfbench %s seed=%llu trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), traced ? 1 : 0);
  for (const std::string& line : notes) std::printf("  %s\n", line.c_str());
  print_block("end-to-end", e2e);
  print_block("per-layer", layer);
  std::printf("--- checks: %s (attempted=%llu failed=%llu)\n", correct() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string failures_json = "[";
  for (std::size_t i = 0; i < failures.size(); ++i)
    failures_json += (i ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
  failures_json += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, \"measured_cpu_s\": %s, "
      "\"ledger_s\": %s, \"e2e\": %s, \"layer\": %s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), traced ? "true" : "false",
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), failures_json.c_str(),
      number(measured_cpu_s).c_str(), number(ledger_s).c_str(), metrics_json(e2e).c_str(),
      metrics_json(layer).c_str());
  std::fflush(stdout);
}

// ---- spans -----------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit: return "submit";
    case SpanKind::kComplete: return "complete";
    case SpanKind::kStep: return "step";
    case SpanKind::kMount: return "mount";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kVerify: return "verify";
    case SpanKind::kGen: return "gen";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanTracer::SpanTracer(bool enabled, std::size_t keep)
    : enabled_(enabled), keep_(keep), origin_ns_(host_now_ns()) {
  if (enabled_) {
    open_.reserve(64);
    spans_.reserve(keep_);
  }
}

void SpanTracer::end() {
  const std::int64_t now = host_now_ns();
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t dur = now - o.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (spans_.size() < keep_)
    spans_.push_back({o.start_ns - origin_ns_, dur, o.id, o.kind});
  else
    ++dropped_;
}

void SpanTracer::reset_totals() {
  for (Totals& t : totals_) t = Totals{};
  // The export shows the measured phase, not set-up and warm-up.
  spans_.clear();
  dropped_ = 0;
  // Spans open across the reset must not charge pre-reset time to the
  // measured phase: restart them at the reset instant.
  const std::int64_t now = host_now_ns();
  for (Open& o : open_) {
    o.start_ns = now;
    o.child_ns = 0;
  }
}

bool SpanTracer::write_chrome_trace(const std::string& path,
                                    const std::string& process_name) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"dropped_spans\": " << dropped_
      << "}, \"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \""
      << json_escape(process_name) << "\"}}";
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}",
                  span_name(s.kind), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- payload ---------------------------------------------------------------

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void fill_sector(std::uint64_t write_id, std::uint64_t key, std::span<std::byte> out) {
  std::uint64_t words[kSector / 8];
  words[0] = write_id;
  words[1] = key;
  std::uint64_t state = write_id * 0x2545f4914f6cdd1dULL ^ key;
  for (std::size_t i = 2; i < kSector / 8; ++i) words[i] = splitmix(state);
  std::memcpy(out.data(), words, kSector);
}

std::uint64_t sector_write_id(std::uint64_t key, std::span<const std::byte> sector) {
  std::uint64_t head[2];
  std::memcpy(head, sector.data(), sizeof head);
  if (head[0] == 0) {
    for (const std::byte b : sector.first(kSector))
      if (b != std::byte{0}) return kCorruptSector;
    return 0;
  }
  if (head[1] != key) return kCorruptSector;
  std::byte expect[kSector];
  fill_sector(head[0], key, expect);
  return std::memcmp(expect, sector.data(), kSector) == 0 ? head[0] : kCorruptSector;
}

}  // namespace perfbench
