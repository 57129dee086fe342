#include "serve/micro_batcher.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "tensor/parallel.h"

namespace ppgnn::serve {

std::chrono::steady_clock::time_point effective_deadline(
    const SlackView& e, std::chrono::steady_clock::duration budget) {
  auto d = e.deadline;
  if (budget.count() > 0) {
    const auto aged = e.enqueued + budget;
    if (aged < d) d = aged;
  }
  return d;
}

std::size_t least_slack_index(const std::vector<SlackView>& entries,
                              std::chrono::steady_clock::duration budget) {
  std::size_t best = SIZE_MAX;
  std::chrono::steady_clock::time_point best_deadline{};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto d = effective_deadline(entries[i], budget);
    // Strict '<': ties keep the earliest index, i.e. the oldest entry
    // under FIFO enqueue order — so without explicit deadlines this IS
    // drop-head.
    if (best == SIZE_MAX || d < best_deadline) {
      best = i;
      best_deadline = d;
    }
  }
  return best;
}

MicroBatcher::MicroBatcher(InferenceSession& session,
                           const MicroBatchConfig& cfg, ServerStats* stats)
    : session_(session), cfg_(cfg), stats_(stats) {
  if (cfg_.max_batch_size == 0 || cfg_.queue_capacity == 0) {
    throw std::invalid_argument("MicroBatcher: zero batch size or capacity");
  }
  cfg_.clock = clock_or_real(cfg_.clock);  // every now() below is injected
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

void MicroBatcher::push_locked(ClassQueue& cq, Pending&& p) {
  auto& q = cq.by_tenant[p.tenant];
  if (q.empty()) cq.sched.arm(p.tenant);
  q.push_back(std::move(p));
  ++cq.size;
}

template <typename WeightFn>
MicroBatcher::Pending MicroBatcher::pop_next_locked(ClassQueue& cq,
                                                    WeightFn&& weight_of) {
  const std::uint32_t t = cq.sched.next(weight_of);
  const auto it = cq.by_tenant.find(t);
  assert(it != cq.by_tenant.end() && !it->second.empty());
  Pending p = std::move(it->second.front());
  it->second.pop_front();
  const bool emptied = it->second.empty();
  if (emptied) cq.by_tenant.erase(it);
  cq.sched.note_popped(t, emptied);
  --cq.size;
  return p;
}

std::chrono::steady_clock::time_point MicroBatcher::oldest_enqueued_locked()
    const {
  // Sub-queues are FIFO per tenant, so the oldest part in a class is one
  // of the tenant fronts; either class can hold the oldest arrival.
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const ClassQueue& cq : queues_) {
    for (const auto& [tenant, q] : cq.by_tenant) {
      (void)tenant;
      if (!q.empty()) oldest = std::min(oldest, q.front().enqueued);
    }
  }
  return oldest;
}

bool MicroBatcher::over_budget_locked(
    std::chrono::steady_clock::time_point now) const {
  if (queued_locked() == 0) return false;
  return now - oldest_enqueued_locked() > cfg_.shed_budget;
}

void MicroBatcher::recompute_low_expiry_locked() {
  low_next_expiry_ = std::chrono::steady_clock::time_point::max();
  if (cfg_.shed_budget.count() <= 0) return;  // sweeps only shed with a budget
  const auto& low = queues_[static_cast<std::size_t>(Priority::kLow)];
  for (const auto& [tenant, q] : low.by_tenant) {
    (void)tenant;
    for (const Pending& p : q) {
      const SlackView v{p.enqueued,
                        cfg_.deadline_aware
                            ? p.deadline
                            : std::chrono::steady_clock::time_point::max()};
      low_next_expiry_ =
          std::min(low_next_expiry_, effective_deadline(v, cfg_.shed_budget));
    }
  }
}

void MicroBatcher::sweep_expired_low_locked(
    std::chrono::steady_clock::time_point now, std::vector<Pending>* victims) {
  if (now < low_next_expiry_) return;  // nothing can have expired yet
  auto& low = queues_[static_cast<std::size_t>(Priority::kLow)];
  for (auto qit = low.by_tenant.begin(); qit != low.by_tenant.end();) {
    auto& q = qit->second;
    if (cfg_.deadline_aware) {
      for (auto it = q.begin(); it != q.end();) {
        const SlackView v{it->enqueued, it->deadline};
        if (effective_deadline(v, cfg_.shed_budget) < now) {
          ++counters_.admission.shed;
          --low.size;
          victims->push_back(std::move(*it));
          it = q.erase(it);
        } else {
          ++it;
        }
      }
    } else {
      // FIFO baseline: within one tenant's sub-queue, age ordering equals
      // expiry ordering, so only its front can be expired — the PR-2
      // drop-head pass, per tenant.
      while (!q.empty() && now - q.front().enqueued > cfg_.shed_budget) {
        ++counters_.admission.shed;
        --low.size;
        victims->push_back(std::move(q.front()));
        q.pop_front();
      }
    }
    if (q.empty()) {
      low.sched.disarm(qit->first);
      qit = low.by_tenant.erase(qit);
    } else {
      ++qit;
    }
  }
  recompute_low_expiry_locked();
}

void MicroBatcher::evict_one_low_locked(std::vector<Pending>* victims) {
  auto& low = queues_[static_cast<std::size_t>(Priority::kLow)];
  assert(low.size > 0);
  // Flatten every tenant sub-queue into one deterministic scan order
  // (tenant ascending, then FIFO position) and pick the victim GLOBALLY.
  // Picking from a single tenant's head — e.g. whichever tenant DWRR
  // would visit next — would evict parts that still have slack while a
  // doomed part sits in another tenant's queue; the slack policy must see
  // the whole class, exactly as it did when the class was one flat FIFO.
  std::vector<SlackView> views;
  std::vector<std::pair<std::uint32_t, std::size_t>> where;  // tenant, pos
  views.reserve(low.size);
  where.reserve(low.size);
  for (const auto& [tenant, q] : low.by_tenant) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (cfg_.deadline_aware) {
        views.push_back({q[i].enqueued, q[i].deadline});
      } else {
        // FIFO baseline: order on age alone (no explicit deadlines) so
        // least_slack_index degenerates to the globally oldest part.
        views.push_back(
            {q[i].enqueued, std::chrono::steady_clock::time_point::max()});
      }
      where.emplace_back(tenant, i);
    }
  }
  const std::size_t victim = least_slack_index(views, cfg_.shed_budget);
  assert(victim < where.size());
#ifndef NDEBUG
  // The regression guard for the per-tenant refactor: the chosen victim's
  // effective deadline is the class-wide minimum, not just its own
  // tenant's.
  for (const SlackView& v : views) {
    assert(effective_deadline(views[victim], cfg_.shed_budget) <=
           effective_deadline(v, cfg_.shed_budget));
  }
#endif
  const auto [vt, vpos] = where[victim];
  auto qit = low.by_tenant.find(vt);
  ++counters_.admission.shed;
  --low.size;
  victims->push_back(std::move(qit->second[vpos]));
  qit->second.erase(qit->second.begin() + static_cast<std::ptrdiff_t>(vpos));
  if (qit->second.empty()) {
    low.sched.disarm(vt);
    low.by_tenant.erase(qit);
  }
  recompute_low_expiry_locked();
}

void MicroBatcher::finish_shed(std::vector<Pending>& victims,
                               std::chrono::steady_clock::time_point now) {
  for (Pending& p : victims) {
    // An entry whose explicit deadline has passed is a deadline miss
    // whichever policy dropped it; one shed while it could still have
    // been answered elsewhere is a plain (retriable) shed.
    const bool missed = p.deadline < now;
    StageTimings t;
    t.admission_wait_us =
        std::chrono::duration<double, std::micro>(now - p.enqueued).count();
    if (stats_) {
      stats_->record_shed(p.tenant);
      // The honest shed column: a shed part's queue wait was latency its
      // client paid — record it instead of reporting zeros.
      stats_->record_shed_wait(t.admission_wait_us);
      if (missed) stats_->record_deadline_miss();
    }
    p.state->finish_part(p.slot,
                         missed ? ServeStatus::kDeadlineExceeded
                                : ServeStatus::kShed,
                         nullptr, 0, t);
  }
  victims.clear();
}

RejectReason MicroBatcher::try_submit_parts(
    const std::shared_ptr<RequestState>& state, const std::uint32_t* slots,
    std::size_t n) {
  if (n == 0) return RejectReason::kNone;
  const bool shedding = cfg_.shed_budget.count() > 0;
  const auto& nodes = state->request().nodes;
  const Priority pri = state->priority();
  const std::uint32_t tenant = state->request().tenant;
  std::vector<Pending> victims;
  RejectReason reason = RejectReason::kNone;
  if (n > cfg_.queue_capacity) {
    // A sub-batch that can never fit must not block forever (backpressure
    // wait) or throw out of the exactly-one-response contract — it is a
    // permanent overload refusal, resolved like any other.
    std::lock_guard<std::mutex> lk(mu_);
    counters_.admission.rejected += n;
    reason = RejectReason::kOverload;
  }
  if (reason == RejectReason::kNone) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!shedding) {
      // Backpressure mode: block for space, always accept — unless the
      // replica starts draining, which must wake blocked waiters and turn
      // them away (they re-route; see begin_drain in the header).
      cv_space_.wait(lk, [this, n] {
        return stop_ || draining_ ||
               queued_locked() + n <= cfg_.queue_capacity;
      });
      // Draining outranks stopped: a retired replica's batcher is both,
      // and a straggler routed by a pre-resize snapshot (it may have slept
      // through the whole drain) must get the re-routable bounce, not the
      // "server shut down" error reserved for a stopped fleet.
      if (draining_) return RejectReason::kDraining;
      if (stop_) throw std::runtime_error("MicroBatcher: stopped");
      const auto now = cfg_.clock->now();
      if (cfg_.deadline_aware && state->deadline() < now) {
        // Already blown while (possibly) blocked for space: refusing here
        // is the cheapest shed there is — nothing was ever queued.
        counters_.admission.rejected += n;
        reason = RejectReason::kDeadline;
      } else {
        // One class regardless of priority (see Priority in serve_api.h):
        // a strict-priority drain without a drop policy would let
        // sustained kHigh load starve queued kLow forever.  Within the
        // class, parts still land in per-tenant FIFOs so DWRR fair share
        // applies even in backpressure mode.
        auto& cq = queues_[static_cast<std::size_t>(Priority::kHigh)];
        for (std::size_t i = 0; i < n; ++i) {
          Pending p;
          p.node = nodes[slots[i]];
          p.slot = slots[i];
          p.tenant = tenant;
          p.state = state;
          p.enqueued = now;
          p.deadline = state->deadline();
          push_locked(cq, std::move(p));
        }
        counters_.admission.admitted += n;
      }
    } else {
      if (draining_) return RejectReason::kDraining;  // outranks stopped
      if (stop_) throw std::runtime_error("MicroBatcher: stopped");
      const auto now = cfg_.clock->now();
      if (cfg_.deadline_aware && state->deadline() < now) {
        counters_.admission.rejected += n;
        reason = RejectReason::kDeadline;
      } else {
        // Shed queued kLow parts that have outlived their effective
        // deadline — min(explicit deadline, enqueue + budget).  Gated on
        // the precomputed next-expiry so the common no-expiry arrival
        // stays O(1).
        sweep_expired_low_locked(now, &victims);
        // A full queue never turns away kHigh while kLow occupies it —
        // but only evict when the admission will actually succeed: if the
        // head of line is over budget, or the kLow queue cannot cover the
        // whole shortfall, the kHigh is about to be refused anyway and
        // killing servable kLow for it would waste both.
        auto& low = queues_[static_cast<std::size_t>(Priority::kLow)];
        if (pri == Priority::kHigh && !over_budget_locked(now)) {
          const std::size_t after = queued_locked() + n;
          const std::size_t shortfall =
              after > cfg_.queue_capacity ? after - cfg_.queue_capacity : 0;
          if (shortfall > 0 && shortfall <= low.size) {
            while (queued_locked() + n > cfg_.queue_capacity) {
              evict_one_low_locked(&victims);
            }
          }
        }
        if (over_budget_locked(now) ||
            queued_locked() + n > cfg_.queue_capacity) {
          counters_.admission.rejected += n;
          reason = RejectReason::kOverload;
        } else {
          auto& cq = queues_[static_cast<std::size_t>(pri)];
          for (std::size_t i = 0; i < n; ++i) {
            Pending p;
            p.node = nodes[slots[i]];
            p.slot = slots[i];
            p.tenant = tenant;
            p.state = state;
            p.enqueued = now;
            p.deadline = state->deadline();
            if (pri == Priority::kLow) {
              const SlackView v{p.enqueued, cfg_.deadline_aware
                                                ? p.deadline
                                                : std::chrono::steady_clock::
                                                      time_point::max()};
              low_next_expiry_ = std::min(
                  low_next_expiry_, effective_deadline(v, cfg_.shed_budget));
            }
            push_locked(cq, std::move(p));
          }
          counters_.admission.admitted += n;
        }
      }
    }
  }
  // Deliveries and stats happen outside the queue lock: finishing a part
  // may run an arbitrary caller callback (CompletionQueue sinks), and a
  // callback that blocked on mu_ would deadlock the admission path.
  if (!victims.empty()) {
    cv_space_.notify_all();
    finish_shed(victims, cfg_.clock->now());
  }
  if (reason == RejectReason::kNone) {
    if (stats_) {
      for (std::size_t i = 0; i < n; ++i) stats_->record_admitted(tenant);
    }
    cv_arrival_.notify_one();
    return RejectReason::kNone;
  }
  // Terminal refusal: the batcher resolves the parts itself (kDraining
  // never reaches here — the caller re-routes those).
  const bool deadline_refusal = reason == RejectReason::kDeadline;
  for (std::size_t i = 0; i < n; ++i) {
    if (stats_) {
      stats_->record_rejected(tenant);
      if (deadline_refusal) stats_->record_deadline_miss();
    }
    state->finish_part(slots[i],
                       deadline_refusal ? ServeStatus::kDeadlineExceeded
                                        : ServeStatus::kShed,
                       nullptr, 0, StageTimings{});
  }
  return reason;
}

Admission MicroBatcher::try_submit(std::int64_t node, Priority pri) {
  // The PR-1 surface as a thin shim over a single-node envelope: the
  // envelope's sink fulfils a promise, so legacy callers keep their
  // future — at the cost of the promise allocation the v2 path exists to
  // avoid.
  auto prom = std::make_shared<std::promise<std::vector<float>>>();
  auto fut = prom->get_future();
  ServeRequest req;
  req.nodes.push_back(node);
  req.priority = pri;
  auto state = std::make_shared<RequestState>(
      std::move(req), [prom](ServeResponse&& r) {
        switch (r.status) {
          case ServeStatus::kOk:
            prom->set_value(std::move(r.logits[0]));
            break;
          case ServeStatus::kError:
            prom->set_exception(r.error);
            break;
          default:
            prom->set_exception(std::make_exception_ptr(RejectedError(
                "shed from queue: delay budget exceeded")));
        }
      });
  const std::uint32_t slot = 0;
  const RejectReason reason = try_submit_parts(state, &slot, 1);
  Admission a;
  a.accepted = reason == RejectReason::kNone;
  a.reason = reason;
  if (a.accepted) a.result = std::move(fut);
  return a;
}

std::future<std::vector<float>> MicroBatcher::submit(std::int64_t node,
                                                     Priority pri) {
  Admission a = try_submit(node, pri);
  if (!a.accepted) {
    throw RejectedError("rejected at admission: queue-delay budget exceeded");
  }
  return std::move(a.result);
}

std::vector<float> MicroBatcher::infer_blocking(std::int64_t node) {
  return submit(node).get();
}

std::vector<MicroBatcher::Pending> MicroBatcher::next_batch(
    std::vector<Pending>* expired,
    std::chrono::steady_clock::time_point* pop_time) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_arrival_.wait(lk, [this] { return stop_ || queued_locked() > 0; });
    if (queued_locked() == 0) return {};  // stopping and fully drained
    // The batch window opens when the oldest pending request arrived; close
    // it at size or deadline, whichever first.  On stop, dispatch
    // immediately — drain latency beats batch quality during shutdown.
    const auto window_close = oldest_enqueued_locked() + cfg_.max_delay;
    while (!stop_ && queued_locked() < cfg_.max_batch_size) {
      if (cv_arrival_.wait_until(lk, window_close) ==
          std::cv_status::timeout) {
        break;
      }
    }
    // Shedding may have emptied the queue while the window was open.
    if (queued_locked() == 0) continue;
    const auto now = cfg_.clock->now();
    std::vector<Pending> batch;
    batch.reserve(std::min(queued_locked(), cfg_.max_batch_size));
    bool popped_low = false;
    // DWRR weights come from the registry snapshot as of this batch close
    // — one atomic load per batch, never per part, and a contract flip
    // mid-storm simply takes effect at the next batch boundary.
    const auto tenant_snap = cfg_.tenants ? cfg_.tenants->snapshot() : nullptr;
    const auto weight_of = [&](std::uint32_t t) {
      return tenant_snap ? tenant_snap->weight_of(t) : 1u;
    };
    // kHigh drains strictly first: under overload the sheddable class
    // waits, which is what makes its queue delay (and shedding) absorb the
    // excess.  Within a class, tenants are drained deficit-weighted
    // round-robin (src/tenancy/fair_share.h) — a weight-2 tenant fills
    // twice the batch slots of a weight-1 peer when both are backlogged,
    // and a lone tenant degenerates to the old FIFO.  A part whose
    // explicit deadline is already blown is moved to `expired` instead of
    // the batch — shedding it here, BEFORE compute, is the deadline-aware
    // half of the v2 contract: a blown request must not burn a batch slot
    // on an answer nobody will read.
    for (auto& cq : queues_) {
      while (batch.size() < cfg_.max_batch_size && !cq.empty()) {
        Pending p = pop_next_locked(cq, weight_of);
        popped_low = popped_low || &cq == &queues_[1];
        if (cfg_.deadline_aware && p.deadline < now) {
          ++counters_.admission.shed;
          expired->push_back(std::move(p));
          continue;
        }
        batch.push_back(std::move(p));
      }
    }
    if (popped_low) recompute_low_expiry_locked();
    if (batch.empty() && expired->empty()) continue;
    if (!batch.empty()) {
      counters_.requests += batch.size();
      ++counters_.batches;
      counters_.max_batch_observed =
          std::max(counters_.max_batch_observed, batch.size());
      in_service_ = batch.size();  // cleared by the dispatcher once answered
    }
    *pop_time = now;
    lk.unlock();
    cv_space_.notify_all();
    if (stats_) {
      // Queue delay (enqueue -> dispatch) is the overload signal the
      // autoscaler watches; record it at the moment the wait ends.
      for (const Pending& p : batch) {
        stats_->record_queue_delay(
            std::chrono::duration<double, std::micro>(now - p.enqueued)
                .count());
      }
    }
    return batch;
  }
}

void MicroBatcher::dispatcher_loop() {
  // Each replica's dispatcher is one unit of parallelism: its kernels run
  // inline instead of fanning a micro-batch out over the shared pool,
  // whose wake-up costs more than the forward it would split.
  const SerialRegion serial;
  std::vector<std::int64_t> nodes;
  std::vector<Pending> expired;
  for (;;) {
    expired.clear();
    std::chrono::steady_clock::time_point t_pop{};
    std::vector<Pending> batch = next_batch(&expired, &t_pop);
    const bool had_expired = !expired.empty();
    if (had_expired) finish_shed(expired, t_pop);
    if (batch.empty()) {
      if (!had_expired) return;  // stopped and drained
      continue;  // the whole pop was deadline-shed; wait for more work
    }
    nodes.clear();
    for (const auto& p : batch) nodes.push_back(p.node);
    const auto t_start = cfg_.clock->now();
    try {
      const Tensor logits = session_.infer_nodes(nodes);
      const auto done = cfg_.clock->now();
      if (stats_) stats_->record_batch(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& p = batch[i];
        StageTimings t;
        t.admission_wait_us =
            std::chrono::duration<double, std::micro>(t_pop - p.enqueued)
                .count();
        t.dispatch_delay_us =
            std::chrono::duration<double, std::micro>(t_start - t_pop)
                .count();
        t.compute_us =
            std::chrono::duration<double, std::micro>(done - t_start).count();
        // A part finished past its deadline is answered anyway — the
        // results may still be useful — but flagged as a miss.  Counted
        // in BOTH eviction modes, so the FIFO baseline's misses are
        // measured, just not acted on.
        const bool late = p.deadline < done;
        // Record before finishing: a finished part may release the
        // client, which could read stats before this loop moves on.
        if (stats_) {
          stats_->record(std::chrono::duration<double, std::micro>(
                             done - p.enqueued)
                             .count(),
                         p.tenant);
          stats_->record_stages(t.admission_wait_us, t.dispatch_delay_us,
                                t.compute_us);
          if (late) stats_->record_deadline_miss();
        }
        p.state->finish_part(
            p.slot, late ? ServeStatus::kDeadlineExceeded : ServeStatus::kOk,
            logits.row(i), logits.cols(), t);
      }
    } catch (...) {
      // A bad node id (or any backend failure) fails this batch's
      // requests, not the server.
      for (auto& p : batch) {
        p.state->finish_part(p.slot, ServeStatus::kError, nullptr, 0,
                             StageTimings{}, std::current_exception());
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    in_service_ = 0;
  }
}

void MicroBatcher::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  // Wake backpressure-blocked submitters so they can re-route.
  cv_space_.notify_all();
}

bool MicroBatcher::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return draining_;
}

void MicroBatcher::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_arrival_.notify_all();
  cv_space_.notify_all();
  // Claim the thread under the lock so concurrent stop() calls (e.g. an
  // explicit stop racing the destructor) can't both join it.
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    t = std::move(dispatcher_);
  }
  if (t.joinable()) t.join();
}

BatchCounters MicroBatcher::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_locked() + in_service_;
}

std::size_t MicroBatcher::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_locked();
}

}  // namespace ppgnn::serve
