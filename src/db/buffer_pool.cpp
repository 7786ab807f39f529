#include "db/buffer_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/check.hpp"

namespace trail::db {

namespace {
/// CPU cost charged for a buffer-cache hit.
constexpr sim::Duration kHitDelay = sim::micros(1);
}  // namespace

BufferPool::BufferPool(sim::Simulator& sim, std::size_t capacity_pages, LogManager* wal)
    : sim_(sim), capacity_(capacity_pages), wal_(wal) {
  if (capacity_ == 0) throw std::invalid_argument("BufferPool: zero capacity");
}

std::uint32_t BufferPool::register_file(PageFile& file) {
  files_.push_back(&file);
  return static_cast<std::uint32_t>(files_.size() - 1);
}

void BufferPool::attach_obs(obs::Obs* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    c_hits_ = c_misses_ = c_evictions_ = c_dirty_wb_ = nullptr;
    g_resident_ = nullptr;
    return;
  }
  c_hits_ = &obs_->metrics.counter("db.cache_hits");
  c_misses_ = &obs_->metrics.counter("db.cache_misses");
  c_evictions_ = &obs_->metrics.counter("db.evictions");
  c_dirty_wb_ = &obs_->metrics.counter("db.dirty_writebacks");
  g_resident_ = &obs_->metrics.gauge("db.resident_pages");
  obs_->tracer.set_track_name(obs::kDbCacheTid, "db.cache");
}

void BufferPool::touch(const FrameKey& key, Frame& frame) {
  lru_.erase(frame.lru_pos);
  lru_.push_front(key);
  frame.lru_pos = lru_.begin();
}

BufferPool::Frame& BufferPool::frame_at(std::uint32_t file_id, PageNo page) {
  auto it = frames_.find(FrameKey{file_id, page});
  if (it == frames_.end()) throw std::logic_error("BufferPool: page not resident");
  return *it->second;
}

void BufferPool::fetch(std::uint32_t file_id, PageNo page,
                       std::function<void(std::span<std::byte>)> use) {
  const FrameKey key{file_id, page};
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    Frame& frame = *it->second;
    touch(key, frame);
    if (frame.loading) {
      frame.waiters.push_back(std::move(use));
      return;
    }
    ++stats_.hits;
    if (c_hits_ != nullptr) c_hits_->inc();
    // Charge a tiny CPU cost; run asynchronously to bound stack depth.
    Frame* fp = it->second.get();
    sim_.schedule(kHitDelay, [fp, use = std::move(use)] { use(fp->data); });
    return;
  }

  // Miss: allocate a frame and read the page.
  ++stats_.misses;
  if (c_misses_ != nullptr) c_misses_->inc();
  auto frame = std::make_unique<Frame>();
  frame->data.resize(kPageSize);
  frame->loading = true;
  frame->waiters.push_back(std::move(use));
  lru_.push_front(key);
  frame->lru_pos = lru_.begin();
  Frame* fp = frame.get();
  frames_.emplace(key, std::move(frame));
  maybe_evict();

  if (g_resident_ != nullptr) g_resident_->set(static_cast<std::int64_t>(frames_.size()));
  sim::TimePoint load_begin{};
  const bool traced = obs_ != nullptr && obs_->tracer.enabled();
  if (traced) load_begin = sim_.now();
  auto alive = alive_;
  files_.at(file_id)->read_page(page, fp->data, [this, alive, fp, traced, load_begin] {
    if (!*alive) return;
    if (traced && obs_ != nullptr && obs_->tracer.enabled())
      obs_->tracer.complete("db.page_load", "db", load_begin, sim_.now() - load_begin,
                            obs::kDbCacheTid);
    fp->loading = false;
    auto waiters = std::move(fp->waiters);
    fp->waiters.clear();
    for (auto& w : waiters) w(fp->data);
  });
}

void BufferPool::mark_dirty(std::uint32_t file_id, PageNo page) {
  Frame& f = frame_at(file_id, page);
  f.dirty = true;
  ++f.write_gen;
  // WAL rule bookkeeping: everything logged so far (including the record
  // for this change — transactions append before applying) must reach
  // disk before this page may.
  if (wal_ != nullptr) f.flush_lsn = wal_->next_lsn();
}

void BufferPool::pin(std::uint32_t file_id, PageNo page) { ++frame_at(file_id, page).pins; }

void BufferPool::unpin(std::uint32_t file_id, PageNo page) {
  Frame& f = frame_at(file_id, page);
  if (f.pins == 0) throw std::logic_error("BufferPool: unpin of unpinned page");
  --f.pins;
}

void BufferPool::drop(FrameMap::iterator it) {
  lru_.erase(it->second->lru_pos);
  frames_.erase(it);
  ++stats_.evictions;
  if (c_evictions_ != nullptr) c_evictions_->inc();
  if (g_resident_ != nullptr) g_resident_->set(static_cast<std::int64_t>(frames_.size()));
}

void BufferPool::write_back(const FrameKey& key, Frame& frame, std::function<void()> then) {
  frame.flushing = true;
  auto write_page = [this, alive = alive_, fp = &frame, key, gen = frame.write_gen,
                     then = std::move(then)]() mutable {
    if (!*alive) return;
    files_.at(key.file)->write_page(key.page, fp->data,
                                    [alive, fp, gen, then = std::move(then)] {
                                      if (!*alive) return;
                                      fp->flushing = false;
                                      if (fp->write_gen == gen) fp->dirty = false;
                                      then();
                                    });
  };
  if (wal_ != nullptr)
    wal_->flush_until(frame.flush_lsn, std::move(write_page));
  else
    write_page();
}

void BufferPool::maybe_evict() {
  while (frames_.size() > capacity_) {
    // Scan from the LRU tail for an evictable frame.
    auto victim = frames_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto fit = frames_.find(*it);
      const Frame& f = *fit->second;
      if (f.pins > 0 || f.loading || f.flushing) continue;
      victim = fit;
      break;
    }
    if (victim == frames_.end()) return;  // everything pinned/in-flight: soft cap

    if (!victim->second->dirty) {
      drop(victim);
      continue;
    }
    // Dirty victim: honour the WAL rule, write it back, then drop it.
    ++stats_.dirty_writebacks;
    if (c_dirty_wb_ != nullptr) {
      c_dirty_wb_->inc();
      if (obs_->tracer.enabled())
        obs_->tracer.instant("db.evict_dirty", "db", obs::kDbCacheTid);
    }
    const FrameKey key = victim->first;
    Frame* fp = victim->second.get();
    write_back(key, *fp, [this, key, fp] {
      // Drop it now unless someone touched it meanwhile.
      auto it = frames_.find(key);
      if (it != frames_.end() && it->second.get() == fp && !fp->dirty && fp->pins == 0 &&
          !fp->loading)
        drop(it);
      maybe_evict();
    });
    return;  // the rest of the eviction continues asynchronously
  }
}

void BufferPool::flush_dirty(std::function<void()> done) {
  struct Join {
    std::size_t pending = 0;
    std::function<void()> done;
  };
  auto join = std::make_shared<Join>(Join{0, std::move(done)});
  for (auto& [key, frame] : frames_) {
    if (!frame->dirty || frame->pins > 0 || frame->loading || frame->flushing) continue;
    ++join->pending;
    ++stats_.checkpoint_writes;
    write_back(key, *frame, [join] {
      if (--join->pending == 0 && join->done) join->done();
    });
  }
  if (join->pending == 0 && join->done) join->done();
}

void BufferPool::reset() {
  // In-flight completions for dropped frames must become no-ops: swap the
  // liveness token.
  *alive_ = false;
  alive_ = std::make_shared<bool>(true);
  frames_.clear();
  lru_.clear();
}

void BufferPool::audit(audit::Report& report, bool quiescent) const {
  audit::Check& check = report.check("pool.frames");
  check.require(lru_.size() == frames_.size(), "LRU list and frame map disagree in size");
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    const auto fit = frames_.find(*it);
    if (!check.require(fit != frames_.end(), "LRU entry without a frame")) continue;
    check.require(fit->second->lru_pos == it, "frame's LRU position points elsewhere");
  }
  for (const auto& [key, frame] : frames_) {
    if (frame->dirty && wal_ != nullptr)
      check.require(frame->flush_lsn <= wal_->next_lsn(),
                    "dirty frame's WAL flush LSN beyond the append point");
    if (!frame->loading)
      check.require(frame->waiters.empty(), "fetch waiters on a frame that is not loading");
    if (quiescent) {
      check.require(frame->pins == 0, "pinned frame at a quiesce point");
      check.require(!frame->loading && !frame->flushing,
                    "frame I/O still in flight at a quiesce point");
    }
  }
}

std::size_t BufferPool::dirty_pages() const {
  std::size_t n = 0;
  for (const auto& [key, frame] : frames_)
    if (frame->dirty) ++n;
  return n;
}

}  // namespace trail::db
