#include "sim/shard_engine.hpp"

#include <algorithm>
#include <cassert>

#include "obs/lane.hpp"

namespace peertrack::sim {

constinit thread_local ShardEngine::TlsState ShardEngine::tls_;

namespace {

constexpr double kInf = std::numeric_limits<Time>::infinity();

}  // namespace

ShardEngine::ShardEngine(Simulator& root, std::size_t shards,
                         double lookahead_ms)
    : control_(&root), lookahead_(lookahead_ms) {
  assert(shards >= 1 && "need at least one shard");
  if (shards > 1) {
    assert(lookahead_ms > 0.0 &&
           "conservative windows require a positive latency floor");
    owned_control_ = std::make_unique<Simulator>();
    control_ = owned_control_.get();
  }
  shards_.reserve(shards);
  shards_.push_back(&root);
  for (std::size_t s = 1; s < shards; ++s) {
    owned_.push_back(std::make_unique<Simulator>());
    shards_.push_back(owned_.back().get());
  }
  mail_.resize(shards * shards);
  workers_.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    workers_.emplace_back(
        [this, s] { WorkerMain(static_cast<std::uint32_t>(s)); });
  }
}

ShardEngine::~ShardEngine() {
  {
    std::lock_guard<std::mutex> lk(m_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardEngine::PinActor(std::uint32_t actor, std::uint32_t shard) {
  assert(!InParallelSection() && "pinning must happen between windows");
  assert(shard < shards_.size());
  if (actor >= pinned_.size()) pinned_.resize(actor + 1, 0);
  pinned_[actor] = shard + 1;
}

void ShardEngine::StageCrossShard(std::uint32_t dst_shard, Time deliver,
                                  util::UniqueFunction<void()> action) {
  const std::uint32_t src = tls_.shard;
  assert(src != kCoordinator &&
         "cross-shard staging requires a shard window context");
  // window_end_ is written under m_ before the window's workers wake and
  // is stable until they all park again, so this unguarded read is
  // ordered by the barrier handshake.
  if (deliver < window_end_) {
    deliver = window_end_;
    deferrals_.fetch_add(1, std::memory_order_relaxed);
  }
  mail_[src * shards_.size() + dst_shard].push_back(
      Staged{deliver, std::move(action)});
}

std::uint64_t ShardEngine::ProcessedEvents() const noexcept {
  // At S=1 the root is both shard 0 and control: count it once.
  std::uint64_t total =
      owned_control_ != nullptr ? owned_control_->ProcessedEvents() : 0;
  for (const Simulator* s : shards_) total += s->ProcessedEvents();
  return total;
}

void ShardEngine::ParkShards(Time at) {
  for (Simulator* s : shards_) {
    assert(s->NextEventTime() >= at && "parking would skip pending events");
    s->AdvanceClock(at);
  }
}

void ShardEngine::DrainMailboxes() {
  const std::size_t count = shards_.size();
  // Push each destination's boxes in source-shard order, each box in its
  // send order. The destination queue breaks same-time ties by push
  // sequence, so same-instant deliveries run in (source shard, send order)
  // whichever thread staged first — the same order run after run.
  for (std::size_t dst = 0; dst < count; ++dst) {
    Simulator& sim = *shards_[dst];
    for (std::uint32_t src = 0; src < count; ++src) {
      std::vector<Staged>& box = mail_[src * count + dst];
      for (Staged& staged : box) {
        sim.ScheduleAt(staged.deliver, std::move(staged.action));
        ++cross_msgs_;
      }
      box.clear();
    }
  }
}

void ShardEngine::RunShardWindow(std::uint32_t shard) {
  const TlsState saved = tls_;
  tls_.sim = shards_[shard];
  tls_.shard = shard;
  {
    obs::LaneScope lane(shard, /*window=*/true);
    shards_[shard]->RunWindow(window_end_, window_inclusive_);
  }
  tls_ = saved;
}

void ShardEngine::RunWindowParallel(Time w_end, bool inclusive) {
  {
    std::lock_guard<std::mutex> lk(m_);
    window_end_ = w_end;
    window_inclusive_ = inclusive;
    parallel_.store(true, std::memory_order_relaxed);
    pending_ = static_cast<std::uint32_t>(shards_.size() - 1);
    ++epoch_;
  }
  cv_work_.notify_all();
  RunShardWindow(0);  // the coordinator thread doubles as shard 0's worker
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [this] { return pending_ == 0; });
    parallel_.store(false, std::memory_order_relaxed);
  }
  ++windows_;
  if (window_epilogue_) window_epilogue_();
}

void ShardEngine::RunOnShards(const std::function<void(std::uint32_t)>& fn) {
  assert(!InParallelSection() && "fan-out needs every shard parked");
  if (shards_.size() == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    task_ = &fn;
    pending_ = static_cast<std::uint32_t>(shards_.size() - 1);
    ++epoch_;
  }
  cv_work_.notify_all();
  {
    obs::LaneScope lane(0);
    fn(0);
  }
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [this] { return pending_ == 0; });
  task_ = nullptr;
}

void ShardEngine::WorkerMain(std::uint32_t shard) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::uint32_t)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return quit_ || epoch_ != seen_epoch; });
      if (quit_) return;
      seen_epoch = epoch_;
      task = task_;
    }
    if (task != nullptr) {
      obs::LaneScope lane(shard);
      (*task)(shard);
    } else {
      RunShardWindow(shard);
    }
    {
      std::lock_guard<std::mutex> lk(m_);
      --pending_;
    }
    cv_done_.notify_one();
  }
}

std::uint64_t ShardEngine::Advance(Time bound, bool inclusive) {
  const std::uint64_t before = ProcessedEvents();
  for (;;) {
    DrainMailboxes();
    Time next_shard = kInf;
    for (Simulator* s : shards_) {
      next_shard = std::min(next_shard, s->NextEventTime());
    }
    const Time next_control = control_->NextEventTime();
    const Time next = std::min(next_shard, next_control);
    if (next == kInf) break;  // fully drained
    if (inclusive ? next > bound : next >= bound) break;
    if (next_control <= next) {
      // Control events run serially with every shard parked at exactly
      // this instant; cross-actor direct calls are safe here.
      ParkShards(next_control);
      control_->RunUntil(next_control);
      continue;
    }
    Time w_end = next + lookahead_;
    if (next_control < w_end) w_end = next_control;
    bool run_inclusive = false;
    if (w_end > bound) {
      // Final partial window up to the caller's bound; events at exactly
      // the bound run iff the caller asked for RunUntil semantics.
      w_end = bound;
      run_inclusive = inclusive;
    }
    RunWindowParallel(w_end, run_inclusive);
  }
  return ProcessedEvents() - before;
}

std::uint64_t ShardEngine::Run() {
  if (shards_.size() == 1) return control_->Run();  // S=1 pass-through
  const std::uint64_t n = Advance(kInf, false);
  // Clocks never overshoot their last executed event (RunWindow does not
  // park), so the max across shards + control IS the global last-event
  // time — align everyone there, matching the single-threaded kernel's
  // Now() after a drain.
  Time latest = control_->Now();
  for (const Simulator* s : shards_) latest = std::max(latest, s->Now());
  ParkShards(latest);
  control_->AdvanceClock(latest);
  return n;
}

std::uint64_t ShardEngine::RunUntil(Time until) {
  if (shards_.size() == 1) return control_->RunUntil(until);  // pass-through
  const std::uint64_t n = Advance(until, true);
  ParkShards(until);
  control_->AdvanceClock(until);
  return n;
}

}  // namespace peertrack::sim
