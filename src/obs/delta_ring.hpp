// One bounded, delta-encoded record ring for the observability layer.
//
// The event tracer (obs/trace.hpp) and the flight recorder (obs/req.hpp)
// both retain records with the delta/mask capture idiom of hardware
// trace loggers: each record is encoded against its predecessor, so a
// steady-state record costs a handful of bytes and decode reconstructs
// the exact sequence. The ring owns what the two share: the byte stream,
// the fixed record capacity, the retained and dropped counts, the head
// and tail codec states, eviction, compaction, a bounds-checked at() and
// the oldest-first walk. A Codec supplies only the record format:
//
//   struct Codec {
//     using Record = ...;  // the decoded value
//     using State = ...;   // the reference a record is encoded against;
//                          // value-initialized == before the first record
//     void encode(const Record& r, State& tail, std::vector<std::uint8_t>& out);
//     Record decode(const std::vector<std::uint8_t>& in, std::size_t& off,
//                   State& state) const;  // advances off and state
//   };
//
// Like every obs primitive, the ring belongs to the simulation thread and
// takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace trail::obs {

/// LEB128-style unsigned varint: 7 bits per byte, high bit = more.
inline void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t get_varint(const std::vector<std::uint8_t>& buf, std::size_t& off) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = buf[off++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// Signed -> unsigned so small magnitudes of either sign stay short.
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Zigzag varint of `v - ref`, subtracted in two's complement so any two
/// int64 values round-trip (no signed overflow at the extremes).
inline void put_delta(std::vector<std::uint8_t>& buf, std::int64_t v, std::int64_t ref) {
  put_varint(buf, zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) -
                                                   static_cast<std::uint64_t>(ref))));
}

/// Inverse of put_delta: `ref` plus the next zigzag varint.
inline std::int64_t get_delta(const std::vector<std::uint8_t>& buf, std::size_t& off,
                              std::int64_t ref) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(ref) +
                                   static_cast<std::uint64_t>(unzigzag(get_varint(buf, off))));
}

template <class Codec>
class DeltaRing {
 public:
  using Record = typename Codec::Record;
  using State = typename Codec::State;

  /// `capacity` bounds retained RECORDS, not bytes (0 is taken as 1).
  explicit DeltaRing(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {}

  /// Append a record, evicting the oldest first if the ring is full.
  void push(const Record& r) {
    if (count_ == cap_) drop_oldest();
    codec_.encode(r, tail_, buf_);
    ++count_;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// Records evicted because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Bytes held by the retained records' encoding.
  [[nodiscard]] std::size_t encoded_bytes() const { return buf_.size() - head_off_; }

  /// Oldest-first access, i in [0, size()); throws std::out_of_range
  /// otherwise. Ascending indices are O(1) amortized through the decode
  /// cursor; a backward step re-decodes from the oldest record.
  [[nodiscard]] Record at(std::size_t i) const {
    if (i >= count_) throw std::out_of_range("DeltaRing::at");
    if (cursor_.index == 0 || i < cursor_.index) cursor_ = {0, head_off_, head_};
    Record r;
    do {
      r = codec_.decode(buf_, cursor_.off, cursor_.state);
      ++cursor_.index;
    } while (cursor_.index <= i);
    return r;
  }

  /// Call fn(record) for records [first, size()), oldest first.
  template <class Fn>
  void for_each(std::size_t first, Fn&& fn) const {
    for (std::size_t i = first; i < count_; ++i) fn(at(i));
  }

  /// Drop every record and zero the counts; the codec (the tracer's
  /// intern table, say) survives.
  void clear() {
    buf_.clear();
    buf_.shrink_to_fit();
    head_off_ = 0;
    count_ = 0;
    dropped_ = 0;
    tail_ = State{};
    head_ = State{};
    cursor_.index = 0;
  }

 private:
  /// Where at() resumes: record `index` starts at byte `off`, decoded
  /// against `state`. Index 0 means "start from the oldest record".
  struct Cursor {
    std::size_t index = 0;
    std::size_t off = 0;
    State state{};
  };

  /// The dead prefix is reclaimed once it reaches this many bytes AND the
  /// size of the live stream: each byte moves O(1) times amortized, and
  /// the buffer stays within twice the retained encoding plus this slack.
  static constexpr std::size_t kMinReclaimBytes = 1 << 12;

  void drop_oldest() {
    (void)codec_.decode(buf_, head_off_, head_);
    --count_;
    ++dropped_;
    if (cursor_.index > 0) --cursor_.index;  // same record, one index lower
    compact();
  }

  void compact() {
    if (head_off_ < kMinReclaimBytes || head_off_ < buf_.size() - head_off_) return;
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_off_));
    if (cursor_.index > 0) cursor_.off -= head_off_;
    head_off_ = 0;
  }

  const std::size_t cap_;
  Codec codec_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_off_ = 0;  // byte offset of the oldest retained record
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  State tail_{};  // encoder reference: the last record pushed
  State head_{};  // decoder reference: the state before the oldest record
  mutable Cursor cursor_;
};

}  // namespace trail::obs
