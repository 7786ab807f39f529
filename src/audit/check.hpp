// trail::audit — the invariant-check substrate shared by the offline log
// verifier (fsck.trail) and the quiesce-point runtime audits.
//
// A Check is one named invariant with pass/fail accounting and a bounded
// list of concrete findings; a Report is an ordered registry of checks.
// Layers append to a Report through their `audit(...)` methods, and the
// result lands in the existing metrics.json as `audit.<check>.pass` /
// `audit.<check>.fail` counters via record_to(), so every instrumented
// run carries its invariant status alongside its latency numbers.
//
// This header is intentionally self-contained (header-only) so that low
// layers (disk, core, db) can implement audit methods without linking a
// separate audit library; only the offline log verifier lives in
// trail_audit proper.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace trail::audit {

enum class Severity : std::uint8_t {
  kError,    // invariant violated: the image / state is corrupt
  kWarning,  // legal-but-noteworthy (e.g. a torn tail record after a crash)
};

struct Finding {
  /// Sentinel for findings that are not tied to a disk location.
  static constexpr std::uint64_t kNoLba = ~std::uint64_t{0};

  Severity severity = Severity::kError;
  std::uint64_t lba = kNoLba;
  std::string message;
};

/// One named invariant. pass() is cheap (a counter bump); fail() records
/// a finding, keeping at most kMaxStoredFindings messages so a badly
/// corrupted image cannot balloon the report.
class Check {
 public:
  static constexpr std::size_t kMaxStoredFindings = 24;

  explicit Check(std::string name) : name_(std::move(name)) {}

  void pass(std::uint64_t n = 1) { passes_ += n; }

  void fail(std::string message, std::uint64_t lba = Finding::kNoLba,
            Severity severity = Severity::kError) {
    if (severity == Severity::kError)
      ++errors_;
    else
      ++warnings_;
    if (findings_.size() < kMaxStoredFindings)
      findings_.push_back(Finding{severity, lba, std::move(message)});
  }

  /// pass()/fail() in one step; returns `condition` so call sites can
  /// chain dependent checks.
  bool require(bool condition, std::string_view message,
               std::uint64_t lba = Finding::kNoLba) {
    if (condition)
      pass();
    else
      fail(std::string(message), lba);
    return condition;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  [[nodiscard]] std::uint64_t warnings() const { return warnings_; }
  [[nodiscard]] const std::vector<Finding>& findings() const { return findings_; }
  [[nodiscard]] bool ok() const { return errors_ == 0; }

  /// One summary line plus the stored findings.
  [[nodiscard]] std::string to_string() const {
    std::string out = name_ + ": " + (ok() ? "ok" : "FAIL") + " (" + std::to_string(passes_) +
                      " pass, " + std::to_string(errors_) + " error, " +
                      std::to_string(warnings_) + " warning)\n";
    for (const Finding& f : findings_) {
      out += f.severity == Severity::kError ? "  error: " : "  warning: ";
      out += f.message;
      if (f.lba != Finding::kNoLba) out += " @lba " + std::to_string(f.lba);
      out += '\n';
    }
    const std::uint64_t dropped = errors_ + warnings_ - findings_.size();
    if (dropped > 0)
      out += "  (+" + std::to_string(dropped) + " further findings not stored)\n";
    return out;
  }

 private:
  std::string name_;
  std::uint64_t passes_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t warnings_ = 0;
  std::vector<Finding> findings_;
};

/// Ordered registry of checks: iteration (and therefore to_string and the
/// metric dump) is name-ordered, so two identical runs report identically.
class Report {
 public:
  Check& check(std::string_view name) {
    auto it = checks_.find(name);
    if (it == checks_.end())
      it = checks_.emplace(std::string(name), Check(std::string(name))).first;
    return it->second;
  }

  [[nodiscard]] const std::map<std::string, Check, std::less<>>& checks() const {
    return checks_;
  }

  [[nodiscard]] bool ok() const {
    for (const auto& [name, check] : checks_)
      if (!check.ok()) return false;
    return true;
  }

  [[nodiscard]] std::uint64_t total_errors() const {
    std::uint64_t n = 0;
    for (const auto& [name, check] : checks_) n += check.errors();
    return n;
  }

  [[nodiscard]] std::uint64_t total_warnings() const {
    std::uint64_t n = 0;
    for (const auto& [name, check] : checks_) n += check.warnings();
    return n;
  }

  /// Human-readable dump: one line per check plus its stored findings.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const auto& [name, check] : checks_) out += check.to_string();
    return out;
  }

  /// Dump pass/fail counts into the shared metrics registry as
  /// `audit.<check>.pass` / `audit.<check>.fail` counters, so the audit
  /// status rides along in every exported metrics.json.
  void record_to(obs::MetricsRegistry& metrics) const {
    for (const auto& [name, check] : checks_) {
      metrics.counter("audit." + name + ".pass").inc(check.passes());
      metrics.counter("audit." + name + ".fail").inc(check.errors());
    }
  }

 private:
  std::map<std::string, Check, std::less<>> checks_;
};

/// The quiesce-point verdict shared by every layer's TRAIL_AUDIT hook:
/// record the report's counters into `obs`'s metrics (when given), then,
/// if any check failed, throw std::logic_error naming `who` and `where`
/// with the report and, as post-mortem context, the last requests the
/// flight recorder saw.
inline void enforce(const Report& report, std::string_view who, std::string_view where,
                    obs::Obs* obs) {
  if (obs != nullptr) report.record_to(obs->metrics);
  if (report.ok()) return;
  std::string msg = std::string(who) + ": invariant audit failed at " + std::string(where) +
                    "\n" + report.to_string();
  if (obs != nullptr && obs->flight.size() > 0) {
    msg += '\n';
    msg += obs->flight.dump_tail(16);
  }
  throw std::logic_error(msg);
}

}  // namespace trail::audit
