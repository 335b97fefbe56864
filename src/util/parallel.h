// parallel.h — deterministic sharded execution over index ranges.
//
// The project's parallelism contract is *bit-identical results for every
// thread count*, so experiments stay reproducible when scaled out:
//
//  * parallel_shards splits [0, n) into one contiguous chunk per worker.
//    Shard boundaries depend on the thread count, so callers must only use
//    it where each index's output is independent of the shard it lands in
//    (e.g. per-bucket sorts, column gathers).
//
//  * parallel_claims hands out single indices from a shared cursor, for
//    items of very uneven cost whose outputs have fixed, item-owned slots
//    (the trace generator's per-content session ranges).
//
//  * parallel_chunked_reduce splits [0, n) into fixed-size chunks whose
//    boundaries depend only on n, hands chunks to workers, and merges the
//    per-chunk accumulators in ascending chunk order. Floating-point
//    reductions (RunningStats::merge, Kahan-free sums) therefore produce
//    the same bits at --threads 1 and --threads 64.
//
//  * parallel_chunked_reduce_stateful is the same reduction plus one
//    scratch object per worker (reusable event/peer buffers, a Matcher
//    instance), for chunk work with allocation-heavy inner loops — the
//    simulator's per-swarm sweep is the canonical user.
//
// Reductions fold in one fixed shape — per-chunk partials merged in
// ascending chunk order — that depends only on (n, chunk_len), so results
// depend on the inputs alone: not on the thread count, not on the host.
//
// Exceptions thrown inside workers are captured and rethrown on the
// calling thread (first one wins).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace cl {

/// Resolves a thread-count knob: 0 means "use all hardware threads".
/// Explicit values are capped at max(4 × hardware threads, 16) — past
/// that oversubscription only burns memory on stacks, and an absurd
/// request (--threads 100000) must not crash the process — and clamped
/// to [1, n] when n > 0.
[[nodiscard]] inline unsigned resolve_threads(unsigned requested,
                                              std::size_t n = 0) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  unsigned t = requested == 0 ? hw : requested;
  t = std::min(t, std::max(hw * 4, 16u));
  if (n > 0) {
    t = static_cast<unsigned>(
        std::min<std::size_t>(t, std::max<std::size_t>(1, n)));
  }
  return std::max(1u, t);
}

/// Wall-clock phase breakdown of one parallel_chunked_reduce call
/// (cl simulate --timing): the concurrent chunk phase and the ascending
/// fold of the per-chunk partials.
struct ReduceTiming {
  double work_seconds = 0;
  double merge_seconds = 0;
};

namespace detail {

/// Runs fn on `workers` std::threads (the calling thread doubles as
/// worker 0), propagating the first exception.
template <typename Fn>
void run_workers(unsigned workers, Fn&& fn) {
  if (workers <= 1) {
    fn(0u);
    return;
  }
  std::exception_ptr error;
  std::mutex error_mutex;
  auto guarded = [&](unsigned worker) {
    try {
      fn(worker);
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back(guarded, w);
    }
  } catch (...) {
    // Thread creation failed (resource exhaustion): join what started —
    // joinable std::thread destructors would otherwise std::terminate.
    for (auto& t : pool) t.join();
    throw;
  }
  guarded(0u);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

/// Splits [0, n) into one contiguous half-open range per shard and calls
/// fn(shard, begin, end) concurrently on `threads` workers. Shard `s`
/// covers indices [s*n/T, (s+1)*n/T), so ranges ascend with the shard
/// index — recombining per-shard output in shard order preserves the
/// sequential index order.
template <typename Fn>
void parallel_shards(std::size_t n, unsigned threads, Fn&& fn) {
  const unsigned t = resolve_threads(threads, n);
  if (n == 0) return;
  if (t <= 1) {
    fn(0u, std::size_t{0}, n);
    return;
  }
  detail::run_workers(t, [&](unsigned shard) {
    const std::size_t begin = n * shard / t;
    const std::size_t end = n * (shard + 1) / t;
    if (begin < end) fn(shard, begin, end);
  });
}

/// Calls fn(i) once for every i in [0, n) on `threads` workers that claim
/// indices one at a time, in ascending order, from a shared cursor — the
/// load balances however uneven the items are (callers put the largest
/// first). Which worker runs which item is racy, so fn must write only
/// item-owned output.
template <typename Fn>
void parallel_claims(std::size_t n, unsigned threads, Fn&& fn) {
  const unsigned t = resolve_threads(threads, n);
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  detail::run_workers(t, [&](unsigned) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  });
}

/// Default chunk length of parallel_chunked_reduce. Small enough to load-
/// balance skewed work, large enough to amortise the merge.
inline constexpr std::size_t kReduceChunk = 2048;

/// Deterministic parallel reduction over [0, n) with per-worker scratch
/// state.
///
/// The range is cut into fixed-length chunks (boundaries depend only on n,
/// never on the thread count), which workers claim in ascending order from
/// one shared cursor. Each worker builds one `make_state()` scratch object
/// the first time it obtains a chunk, constructs every chunk accumulator
/// it processes with `make_acc()`, and folds the chunk with
/// `chunk_fn(state, acc, begin, end)`. Afterwards the accumulators merge
/// into `make_acc()` in ascending chunk order. The fold shape depends only
/// on (n, chunk_len), so the result is bit-identical for every thread
/// count, including 1, and on every host.
///
/// The worker state must be pure scratch (reusable buffers, matcher
/// instances, ...): which worker processes which chunk is racy, so any
/// state that influenced the accumulators would break determinism.
/// `make_acc` must likewise be safe to call concurrently (workers invoke
/// it for the chunks they claim).
///
/// `timing`, when non-null, receives the wall-clock split between the
/// concurrent chunk phase and the fold.
template <typename MakeState, typename MakeAcc, typename ChunkFn,
          typename Merge>
auto parallel_chunked_reduce_stateful(std::size_t n, unsigned threads,
                                      MakeState&& make_state,
                                      MakeAcc&& make_acc, ChunkFn&& chunk_fn,
                                      Merge&& merge,
                                      std::size_t chunk_len = kReduceChunk,
                                      ReduceTiming* timing = nullptr) {
  using Acc = decltype(make_acc());
  using Clock = std::chrono::steady_clock;
  Acc total = make_acc();
  if (n == 0) return total;
  chunk_len = std::max<std::size_t>(1, chunk_len);
  const std::size_t chunks = (n + chunk_len - 1) / chunk_len;
  // One slot per chunk; the worker that processes a chunk emplaces its
  // accumulator.
  std::vector<std::optional<Acc>> partial(chunks);

  const unsigned t = resolve_threads(threads, chunks);
  std::atomic<std::size_t> next{0};
  const auto work_start = Clock::now();
  detail::run_workers(t, [&](unsigned) {
    // Assignment is racy; results only key off the chunk id.
    std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return;  // nothing left: skip the state construction
    auto state = make_state();
    for (; c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t begin = c * chunk_len;
      const std::size_t end = std::min(n, begin + chunk_len);
      partial[c].emplace(make_acc());
      chunk_fn(state, *partial[c], begin, end);
    }
  });
  const auto work_end = Clock::now();

  for (std::size_t c = 0; c < chunks; ++c) {
    merge(total, *partial[c]);
  }
  if (timing != nullptr) {
    const auto fold_end = Clock::now();
    timing->work_seconds =
        std::chrono::duration<double>(work_end - work_start).count();
    timing->merge_seconds =
        std::chrono::duration<double>(fold_end - work_end).count();
  }
  return total;
}

/// Deterministic parallel reduction over [0, n) — the stateless variant:
/// identical chunking/merge discipline, `chunk_fn(acc, begin, end)`.
template <typename MakeAcc, typename ChunkFn, typename Merge>
auto parallel_chunked_reduce(std::size_t n, unsigned threads,
                             MakeAcc&& make_acc, ChunkFn&& chunk_fn,
                             Merge&& merge,
                             std::size_t chunk_len = kReduceChunk) {
  using Acc = decltype(make_acc());
  return parallel_chunked_reduce_stateful(
      n, threads, [] { return 0; }, std::forward<MakeAcc>(make_acc),
      [&chunk_fn](int, Acc& acc, std::size_t begin, std::size_t end) {
        chunk_fn(acc, begin, end);
      },
      std::forward<Merge>(merge), chunk_len);
}

}  // namespace cl
