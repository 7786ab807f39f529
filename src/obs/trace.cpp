#include "obs/trace.hpp"

#include <cstdio>

namespace trail::obs {

namespace {

// Event encoding: one mask byte, then varint fields for what changed.
//   bits 0-1  TracePhase
//   bit  2    has_value (value zigzag-delta follows the timestamp/dur)
//   bit  3    name differs from the previous event (interned id follows)
//   bit  4    cat differs (interned id follows)
//   bit  5    tid differs (tid follows)
// The timestamp zigzag-delta is always present; the duration varint is
// present exactly for kComplete events.
constexpr std::uint8_t kPhaseMask = 0x03;
constexpr std::uint8_t kHasValue = 0x04;
constexpr std::uint8_t kNameChanged = 0x08;
constexpr std::uint8_t kCatChanged = 0x10;
constexpr std::uint8_t kTidChanged = 0x20;

}  // namespace

EventTracer::EventTracer(const sim::Simulator& sim, std::size_t capacity)
    : sim_(&sim), ring_(capacity) {}

void EventTracer::set_track_name(std::uint32_t tid, std::string name) {
  track_names_[tid] = std::move(name);
}

const char* EventTracer::intern_name(std::string_view name) {
  auto it = owned_names_.find(name);
  if (it == owned_names_.end()) it = owned_names_.emplace(name).first;
  return it->c_str();
}

std::uint32_t EventTracer::Codec::intern(const char* s) {
  const auto [it, inserted] =
      intern_ids.try_emplace(s, static_cast<std::uint32_t>(interned.size()));
  if (inserted) interned.push_back(s);
  return it->second;
}

void EventTracer::Codec::encode(const TraceEvent& e, State& tail,
                                std::vector<std::uint8_t>& out) {
  std::uint8_t mask = static_cast<std::uint8_t>(e.ph) & kPhaseMask;
  if (e.has_value) mask |= kHasValue;
  if (e.name != tail.name) mask |= kNameChanged;
  if (e.cat != tail.cat) mask |= kCatChanged;
  if (e.tid != tail.tid) mask |= kTidChanged;
  out.push_back(mask);
  if ((mask & kNameChanged) != 0) {
    tail.name = e.name;
    put_varint(out, intern(e.name));
  }
  if ((mask & kCatChanged) != 0) {
    tail.cat = e.cat;
    put_varint(out, intern(e.cat));
  }
  if ((mask & kTidChanged) != 0) {
    tail.tid = e.tid;
    put_varint(out, e.tid);
  }
  put_delta(out, e.ts_ns, tail.ts);
  tail.ts = e.ts_ns;
  if (e.ph == TracePhase::kComplete) put_varint(out, static_cast<std::uint64_t>(e.dur_ns));
  if (e.has_value) {
    put_delta(out, e.value, tail.value);
    tail.value = e.value;
  }
}

TraceEvent EventTracer::Codec::decode(const std::vector<std::uint8_t>& in, std::size_t& off,
                                      State& state) const {
  const std::uint8_t mask = in[off++];
  if ((mask & kNameChanged) != 0) state.name = interned[get_varint(in, off)];
  if ((mask & kCatChanged) != 0) state.cat = interned[get_varint(in, off)];
  if ((mask & kTidChanged) != 0) state.tid = static_cast<std::uint32_t>(get_varint(in, off));
  state.ts = get_delta(in, off, state.ts);
  TraceEvent e;
  e.name = state.name;
  e.cat = state.cat;
  e.tid = state.tid;
  e.ts_ns = state.ts;
  e.ph = static_cast<TracePhase>(mask & kPhaseMask);
  if (e.ph == TracePhase::kComplete) e.dur_ns = static_cast<std::int64_t>(get_varint(in, off));
  if ((mask & kHasValue) != 0) {
    state.value = get_delta(in, off, state.value);
    e.value = state.value;
    e.has_value = true;
  }
  return e;
}

void EventTracer::complete(const char* name, const char* cat, sim::TimePoint begin,
                           sim::Duration dur, std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = begin.ns();
  e.dur_ns = dur.ns();
  e.tid = tid;
  e.ph = TracePhase::kComplete;
  ring_.push(e);
}

void EventTracer::instant(const char* name, const char* cat, std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.tid = tid;
  e.ph = TracePhase::kInstant;
  ring_.push(e);
}

void EventTracer::instant_value(const char* name, const char* cat, std::int64_t value,
                                std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.value = value;
  e.has_value = true;
  e.tid = tid;
  e.ph = TracePhase::kInstant;
  ring_.push(e);
}

void EventTracer::counter(const char* name, const char* cat, std::int64_t value,
                          std::uint32_t tid) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = sim_->now().ns();
  e.value = value;
  e.has_value = true;
  e.tid = tid;
  e.ph = TracePhase::kCounter;
  ring_.push(e);
}

namespace {

/// Nanoseconds -> Chrome's microsecond timestamps, exactly ("123.456").
void append_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

std::string EventTracer::export_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const auto& [tid, name] : track_names_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid, name.c_str());
    out += buf;
    first = false;
  }
  ring_.for_each(0, [&](const TraceEvent& e) {
    std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%u,",
                  first ? "" : ",", e.name, e.cat, e.tid);
    out += buf;
    first = false;
    out += "\"ts\":";
    append_us(out, e.ts_ns);
    switch (e.ph) {
      case TracePhase::kComplete:
        out += ",\"ph\":\"X\",\"dur\":";
        append_us(out, e.dur_ns);
        out += "}";
        break;
      case TracePhase::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        if (e.has_value) {
          std::snprintf(buf, sizeof buf, ",\"args\":{\"value\":%lld}",
                        static_cast<long long>(e.value));
          out += buf;
        }
        out += "}";
        break;
      case TracePhase::kCounter:
        std::snprintf(buf, sizeof buf, ",\"ph\":\"C\",\"args\":{\"value\":%lld}}",
                      static_cast<long long>(e.value));
        out += buf;
        break;
    }
  });
  out += "]}";
  return out;
}

}  // namespace trail::obs
