#include "src/llm/engine.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace metis {

LlmEngine::LlmEngine(Simulator* sim, EngineConfig config, uint64_t /*seed*/)
    : sim_(sim),
      config_(std::move(config)),
      kv_(config_.kv_pool_bytes, config_.block_tokens, config_.model.kv_bytes_per_token) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK_GT(config_.max_batched_tokens, 0);
  METIS_CHECK_GT(config_.max_running, 0);
}

double LlmEngine::BytesNeededFor(int prompt_tokens, int output_tokens) const {
  return kv_.BytesForTokens(prompt_tokens + output_tokens) +
         config_.admit_buffer_frac * kv_.total_bytes();
}

double LlmEngine::oldest_waiting_age() const {
  // The queue is submit-ordered (push_back in Submit; group-aware admission
  // may remove from the middle but never reorders), so the front is the
  // earliest-submitted request still waiting.
  if (waiting_.empty()) {
    return 0;
  }
  return sim_->now() - waiting_.front()->timing.submit_time;
}

double LlmEngine::projected_free_kv_bytes() const {
  // Mirror AdmitIfFits's accounting instead of charging every waiting request
  // its full prompt + output: a request with a shared prefix only ever owns
  // its tail (prompt - shared + output, block-rounded separately from the
  // prefix), the prefix itself is paid once per group, and not at all when it
  // is already resident. Charging N queued siblings the full prefix each
  // under-reports headroom under grouped load, which made the overload
  // controller's KV-deficit term over-shed.
  double claimed = 0;
  std::unordered_set<uint64_t> counted_groups;
  for (const auto& rq : waiting_) {
    int shared = 0;
    if (config_.prefix_sharing && rq->req.prefix_group != 0 &&
        rq->req.shared_prefix_tokens > 0) {
      shared = rq->req.shared_prefix_tokens;
      if (!kv_.PrefixResident(rq->req.prefix_group) &&
          counted_groups.insert(rq->req.prefix_group).second) {
        claimed += kv_.BytesForTokens(shared);  // First sibling pays the prefix.
      }
    }
    claimed += kv_.BytesForTokens(rq->req.prompt_tokens - shared + rq->req.output_tokens);
  }
  return kv_.free_bytes() + kv_.retained_bytes() - claimed;
}

uint64_t LlmEngine::Submit(InferenceRequest request) {
  METIS_CHECK_GT(request.prompt_tokens, 0);
  METIS_CHECK_GT(request.output_tokens, 0);
  METIS_CHECK_LE(request.shared_prefix_tokens, request.prompt_tokens);
  // A request must be satisfiable by an empty pool, or it would block forever.
  METIS_CHECK_LE(kv_.BytesForTokens(request.prompt_tokens + request.output_tokens),
                 kv_.total_bytes());

  auto rq = std::make_unique<Rq>();
  rq->id = next_id_++;
  rq->req = std::move(request);
  rq->timing.id = rq->id;
  rq->timing.submit_time = sim_->now();
  rq->timing.prompt_tokens = rq->req.prompt_tokens;
  rq->timing.output_tokens = rq->req.output_tokens;
  uint64_t id = rq->id;
  waiting_.push_back(std::move(rq));
  ++stats_.submitted;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth,
                                     static_cast<uint64_t>(waiting_.size()));
  Kick();
  return id;
}

void LlmEngine::Kick() {
  if (!step_in_flight_) {
    PlanStep();
  }
}

bool LlmEngine::AdmitIfFits(Rq* rq) {
  if (running_.size() >= static_cast<size_t>(config_.max_running)) {
    return false;
  }

  // Pool-otherwise-empty probe BEFORE acquiring this request's own prefix:
  // the admission buffer exists to absorb concurrent decode growth, and with
  // no running request and no live allocation nothing else can grow. Without
  // the waiver below, a request needing between total - buffer and total
  // bytes passes Submit's satisfiability check yet can never admit — a
  // permanent head-of-line livelock.
  bool pool_otherwise_empty = running_.empty() && kv_.live_requests() == 0;

  int shared = 0;
  bool holds_prefix = false;
  bool prefix_was_resident = false;
  bool prefix_was_retained = false;
  if (config_.prefix_sharing && rq->req.prefix_group != 0 && rq->req.shared_prefix_tokens > 0) {
    prefix_was_resident = kv_.PrefixResident(rq->req.prefix_group);
    prefix_was_retained = kv_.PrefixRetained(rq->req.prefix_group);
    int64_t newly = kv_.AcquirePrefix(rq->req.prefix_group, rq->req.shared_prefix_tokens);
    if (newly < 0) {
      return false;
    }
    holds_prefix = true;
    shared = rq->req.shared_prefix_tokens;
  }

  // The first sibling computes the prefix; later siblings skip those tokens.
  int charged = prefix_was_resident ? rq->req.prompt_tokens - shared : rq->req.prompt_tokens;
  int owned_tokens = (rq->req.prompt_tokens - shared) + rq->req.output_tokens;

  double buffer = pool_otherwise_empty ? 0.0 : config_.admit_buffer_frac * kv_.total_bytes();
  // Retained (refs==0) prefixes count toward the fit: the allocator evicts
  // them on demand, so they are headroom, not occupancy.
  bool fits = kv_.BytesForTokens(owned_tokens) + buffer <=
              kv_.free_bytes() + kv_.retained_bytes();
  if (fits) {
    fits = kv_.Allocate(rq->id, owned_tokens);
  }
  if (!fits) {
    if (holds_prefix) {
      if (prefix_was_resident && config_.prefix_retention_s > 0) {
        // Keep a warm (already-prefilled) prefix parked instead of destroying
        // it just because this admission attempt failed.
        kv_.ReleasePrefixRetained(rq->req.prefix_group, sim_->now());
      } else {
        kv_.ReleasePrefix(rq->req.prefix_group);
      }
    }
    return false;
  }

  if (prefix_was_resident) {
    stats_.prefill_tokens_saved += shared;
    ++stats_.prefix_hits;
    if (prefix_was_retained) {
      ++stats_.retained_prefix_hits;
    }
  }
  rq->holds_prefix = holds_prefix;
  rq->charged_prefill = charged;
  rq->prefilled = 0;
  rq->generated = 0;
  rq->timing.admit_time = sim_->now();
  rq->timing.prefill_tokens_charged = charged;
  double used = kv_.total_bytes() - kv_.free_bytes();
  stats_.peak_kv_bytes = std::max(stats_.peak_kv_bytes, used);
  return true;
}

bool LlmEngine::PrefillBacklogFull() const {
  // Admission stops once the admitted-but-unprefilled token backlog covers a
  // few steps of compute. Without this, queued requests would reserve KV long
  // before the GPU can touch them, pinning "free memory" at zero under load —
  // real engines allocate as computation progresses, so free memory tracks
  // the active working set (decoding incumbents + imminent prefill).
  int64_t backlog = 0;
  for (const auto& rq : running_) {
    backlog += rq->charged_prefill - rq->prefilled;
  }
  return backlog >= static_cast<int64_t>(2) * config_.max_batched_tokens;
}

void LlmEngine::PlanStep() {
  METIS_CHECK(!step_in_flight_);
  stats_.peak_queue_age_s = std::max(stats_.peak_queue_age_s, oldest_waiting_age());
  double retention_s = config_.prefix_retention_s;
  if (retention_s > 0) {
    // Retained prefixes past the grace window stop earning their keep.
    kv_.ExpireRetained(sim_->now() - retention_s);
    stats_.retained_evictions = kv_.retained_evictions();
    stats_.retained_expirations = kv_.retained_expirations();
  }

  // --- Admission ---
  bool progressed = true;
  while (progressed && !waiting_.empty() && !PrefillBacklogFull()) {
    progressed = false;
    Rq* head = waiting_.front().get();
    if (AdmitIfFits(head)) {
      running_.push_back(std::move(waiting_.front()));
      waiting_.pop_front();
      progressed = true;
      continue;
    }
    if (config_.policy == AdmissionPolicy::kGroupAware) {
      // Head does not fit: look a bounded distance down the queue for a
      // sibling whose shared prefix is already resident — it is cheap (its
      // prefix KV is free) and keeps the GPU busy instead of head-of-line
      // blocking. This is the Parrot*-style app-aware batching.
      constexpr size_t kScanLimit = 32;
      size_t limit = std::min(waiting_.size(), kScanLimit);
      for (size_t i = 1; i < limit; ++i) {
        Rq* cand = waiting_[i].get();
        if (cand->req.prefix_group != 0 && kv_.PrefixResident(cand->req.prefix_group) &&
            AdmitIfFits(cand)) {
          running_.push_back(std::move(waiting_[i]));
          waiting_.erase(waiting_.begin() + static_cast<int64_t>(i));
          progressed = true;
          break;
        }
      }
    }
  }

  if (running_.empty()) {
    return;  // Idle; the next Submit() kicks the loop again.
  }

  // --- Step composition: decodes first, then chunked prefill. ---
  struct PrefillSlice {
    Rq* rq;
    int chunk;
    int start_pos;  // Context length before this slice (incl. shared prefix).
  };
  std::vector<Rq*> decoding;
  std::vector<PrefillSlice> slices;
  int budget = config_.max_batched_tokens;

  for (auto& rq : running_) {
    if (rq->prefilled >= rq->charged_prefill) {
      decoding.push_back(rq.get());
    }
  }
  budget -= static_cast<int>(decoding.size());
  budget = std::max(budget, 0);

  for (auto& rq : running_) {
    if (budget == 0) {
      break;
    }
    int remaining = rq->charged_prefill - rq->prefilled;
    if (remaining > 0) {
      int chunk = std::min(remaining, budget);
      int skipped = rq->req.prompt_tokens - rq->charged_prefill;  // Shared-prefix discount.
      slices.push_back(PrefillSlice{rq.get(), chunk, skipped + rq->prefilled});
      budget -= chunk;
    }
  }

  // --- Step latency ---
  const ModelSpec& m = config_.model;
  double prefill_tokens = 0;
  double attn = 0;
  for (const auto& s : slices) {
    prefill_tokens += s.chunk;
    // Each token at position p attends over p tokens: sum over the slice is
    // chunk * (start + chunk/2).
    attn += m.attn_prefill_coeff * s.chunk *
            (static_cast<double>(s.start_pos) + static_cast<double>(s.chunk) / 2.0);
  }
  for (const Rq* rq : decoding) {
    double ctx = rq->req.prompt_tokens + rq->generated;
    attn += m.attn_decode_coeff * ctx;
  }
  double linear = (prefill_tokens + static_cast<double>(decoding.size())) /
                  m.prefill_tokens_per_sec;
  double step_time = m.step_overhead_sec + linear + attn;

  ++stats_.steps;
  stats_.busy_seconds += step_time;
  stats_.prefill_tokens += static_cast<int64_t>(prefill_tokens);
  stats_.decode_tokens += static_cast<int64_t>(decoding.size());

  step_in_flight_ = true;
  // Record just ids; requests cannot disappear while a step is in flight.
  std::vector<Rq*> decode_set = decoding;
  std::vector<std::pair<Rq*, int>> prefill_set;
  prefill_set.reserve(slices.size());
  for (const auto& s : slices) {
    prefill_set.emplace_back(s.rq, s.chunk);
  }

  sim_->ScheduleAfter(step_time, [this, decode_set, prefill_set]() {
    // --- Apply step results ---
    for (auto& [rq, chunk] : prefill_set) {
      rq->prefilled += chunk;
      METIS_CHECK_LE(rq->prefilled, rq->charged_prefill);
      if (rq->prefilled == rq->charged_prefill) {
        // The final prefill chunk emits the first output token.
        rq->timing.first_token_time = sim_->now();
        rq->generated = 1;
      }
    }
    for (Rq* rq : decode_set) {
      ++rq->generated;
    }

    // Collect completions (preserve relative order for determinism).
    std::vector<std::unique_ptr<Rq>> done;
    for (auto& rq : running_) {
      if (rq->prefilled >= rq->charged_prefill && rq->generated >= rq->req.output_tokens) {
        done.push_back(std::move(rq));
      }
    }
    running_.erase(std::remove(running_.begin(), running_.end(), nullptr), running_.end());

    // Completion callbacks may Submit follow-up requests (e.g. the reduce
    // stage); keep the step marked in-flight so their Kick() is a no-op and
    // the single PlanStep below sees all of them.
    for (auto& rq : done) {
      Complete(std::move(rq));
    }
    step_in_flight_ = false;
    PlanStep();
  });
}

void LlmEngine::Complete(std::unique_ptr<Rq> rq) {
  rq->timing.finish_time = sim_->now();
  if (rq->timing.first_token_time == 0 && rq->timing.finish_time > 0) {
    rq->timing.first_token_time = rq->timing.finish_time;
  }
  kv_.Free(rq->id);
  if (rq->holds_prefix) {
    if (config_.prefix_retention_s > 0) {
      kv_.ReleasePrefixRetained(rq->req.prefix_group, sim_->now());
    } else {
      kv_.ReleasePrefix(rq->req.prefix_group);
    }
  }
  ++stats_.completed;
  if (rq->req.on_complete) {
    rq->req.on_complete(rq->timing);
  }
}

double LlmEngine::busy_cost_usd() const {
  return stats_.busy_seconds * config_.model.usd_per_gpu_sec * config_.model.num_gpus;
}

ApiLlmClient::ApiLlmClient(Simulator* sim, ModelSpec model, uint64_t seed)
    : sim_(sim), model_(std::move(model)), seed_(seed) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(model_.api_model);
}

double ApiLlmClient::CostOf(int input_tokens, int output_tokens) const {
  return input_tokens * model_.usd_per_1m_input_tokens / 1e6 +
         output_tokens * model_.usd_per_1m_output_tokens / 1e6;
}

void ApiLlmClient::Call(int input_tokens, int output_tokens,
                        std::function<void(double)> done, double billed_input_frac) {
  METIS_CHECK_GE(input_tokens, 0);
  METIS_CHECK_GE(output_tokens, 0);
  Rng rng(seed_ ^ (0xA5A5A5A5ull + calls_ * 0x9E3779B97F4A7C15ull));
  double latency = model_.api_rtt_sec +
                   input_tokens / std::max(1.0, model_.api_prefill_tokens_per_sec) +
                   output_tokens / std::max(1.0, model_.api_decode_tokens_per_sec);
  latency *= std::max(0.6, 1.0 + rng.Normal(0, 0.08));
  ++calls_;
  total_cost_usd_ += CostOf(static_cast<int>(input_tokens * billed_input_frac),
                            output_tokens);
  sim_->ScheduleAfter(latency, [latency, cb = std::move(done)]() { cb(latency); });
}

}  // namespace metis
