// Continuation helpers for asynchronous sequencing.
//
// Most driver and database operations are chains of commands issued one
// after another: stamp every header replica, then reposition; fetch a
// tree page, then its child; take a lock, then read the row. Two shapes
// cover them all:
//
//   sim::loop_while(more, body, done)   run `body` while `more()` holds
//   sim::Steps s; s.then(a).then(b);   run a fixed list of steps in
//   std::move(s).run(done);             order
//
// Each step or loop body receives a `Next` continuation and calls it
// once when its work completes, possibly synchronously. `next(false)`
// ends the sequence early: the remaining steps are skipped and `done`
// receives false.
//
// Ownership: the sequence is held only by the `Next` copies that pending
// completions carry. Nothing owns itself, so a step whose completion is
// dropped (say, by a crash that invalidates an alive flag) frees the
// whole sequence with it. The helper calls each step synchronously from
// inside the completion that triggers it and schedules no simulator
// events of its own.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace trail::sim {

namespace detail {

struct Sequence : std::enable_shared_from_this<Sequence> {
  Sequence() = default;
  Sequence(const Sequence&) = delete;
  Sequence& operator=(const Sequence&) = delete;
  virtual ~Sequence() = default;
  /// Start the next step, or finish with `ok`.
  virtual void advance(bool ok) = 0;
};

}  // namespace detail

/// Continuation of a running sequence. Call it once per step.
class Next {
 public:
  explicit Next(std::shared_ptr<detail::Sequence> seq) : seq_(std::move(seq)) {}

  /// Continue with the next step; `false` skips the rest.
  void operator()(bool ok = true) const {
    // The step may drop the closure that holds this Next.
    const std::shared_ptr<detail::Sequence> seq = seq_;
    seq->advance(ok);
  }

 private:
  std::shared_ptr<detail::Sequence> seq_;
};

/// Run `body(next)` while `more()` holds, then `done(true)`. A body that
/// calls `next(false)` ends the loop with `done(false)`.
template <typename More, typename Body, typename Done>
void loop_while(More more, Body body, Done done) {
  struct Loop final : detail::Sequence {
    Loop(More m, Body b, Done d) : more(std::move(m)), body(std::move(b)), done(std::move(d)) {}
    void advance(bool ok) override {
      if (ok && more())
        body(Next(shared_from_this()));
      else
        done(ok);
    }
    More more;
    Body body;
    Done done;
  };
  Next(std::make_shared<Loop>(std::move(more), std::move(body), std::move(done)))();
}

/// Ordered list of asynchronous steps.
class Steps {
 public:
  using Step = std::function<void(Next)>;

  Steps& then(Step step) {
    steps_.push_back(std::move(step));
    return *this;
  }

  /// Run every step in order, then `done(true)`; `done(false)` as soon as
  /// a step calls `next(false)`.
  void run(std::function<void(bool)> done) && {
    struct State {
      std::vector<Step> steps;
      std::size_t index = 0;
    };
    auto st = std::make_shared<State>(State{std::move(steps_)});
    loop_while([st] { return st->index < st->steps.size(); },
               [st](Next next) { st->steps[st->index++](std::move(next)); }, std::move(done));
  }

 private:
  std::vector<Step> steps_;
};

}  // namespace trail::sim
