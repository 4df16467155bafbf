#include "flor/partition.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/strings.h"

namespace flor {

const char* InitModeName(InitMode m) {
  switch (m) {
    case InitMode::kStrong:
      return "strong";
    case InitMode::kWeak:
      return "weak";
    case InitMode::kAuto:
      return "auto";
  }
  return "?";
}

bool DenseCheckpoints(int64_t epochs,
                      const std::vector<int64_t>& ckpt_epochs) {
  const std::set<int64_t> ckpts(ckpt_epochs.begin(), ckpt_epochs.end());
  for (int64_t e = 0; e + 1 < epochs; ++e) {
    if (!ckpts.count(e)) return false;
  }
  return true;
}

InitMode ResolveInitMode(InitMode requested, bool weak_exact, bool dense) {
  if (requested == InitMode::kWeak) return InitMode::kWeak;
  if (weak_exact && (requested == InitMode::kAuto || !dense))
    return InitMode::kWeak;
  return InitMode::kStrong;
}

namespace {

/// Balanced contiguous grouping of segment sizes into at most `groups`
/// parts, minimizing the maximum part sum (classic linear partition; sizes
/// here are small, so O(n^2 * g) DP is fine).
std::vector<int> LinearPartition(const std::vector<int64_t>& sizes,
                                 int groups) {
  const int n = static_cast<int>(sizes.size());
  groups = std::min(groups, n);
  // prefix sums
  std::vector<int64_t> prefix(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sizes[i];
  constexpr int64_t kInf = INT64_MAX / 4;
  // dp[g][i] = min over splits of first i segments into g groups of max sum
  std::vector<std::vector<int64_t>> dp(
      static_cast<size_t>(groups) + 1,
      std::vector<int64_t>(static_cast<size_t>(n) + 1, kInf));
  std::vector<std::vector<int>> cut(
      static_cast<size_t>(groups) + 1,
      std::vector<int>(static_cast<size_t>(n) + 1, 0));
  dp[0][0] = 0;
  for (int g = 1; g <= groups; ++g) {
    for (int i = 1; i <= n; ++i) {
      for (int j = g - 1; j < i; ++j) {
        const int64_t candidate =
            std::max(dp[g - 1][j], prefix[i] - prefix[j]);
        if (candidate < dp[g][i]) {
          dp[g][i] = candidate;
          cut[g][i] = j;
        }
      }
    }
  }
  // Pick the smallest group count achieving the optimum (empty groups are
  // pointless), then recover boundaries.
  int best_g = groups;
  for (int g = 1; g <= groups; ++g) {
    if (dp[g][n] <= dp[best_g][n]) {
      best_g = g;
      break;
    }
  }
  // Recover assignment: boundaries[k] = first segment index of group k.
  std::vector<int> bounds;
  int i = n;
  for (int g = best_g; g >= 1; --g) {
    bounds.push_back(cut[g][i]);
    i = cut[g][i];
  }
  std::reverse(bounds.begin(), bounds.end());
  // bounds[k] is the start segment of group k; produce per-segment group id
  std::vector<int> assign(static_cast<size_t>(n), 0);
  for (int k = 0; k < best_g; ++k) {
    const int start = bounds[static_cast<size_t>(k)];
    const int end = (k + 1 < best_g) ? bounds[static_cast<size_t>(k) + 1] : n;
    for (int s = start; s < end; ++s) assign[static_cast<size_t>(s)] = k;
  }
  return assign;
}

}  // namespace

Result<PartitionPlan> PartitionMainLoop(
    int64_t epochs, int num_workers, InitMode mode,
    const std::vector<int64_t>& ckpt_epochs) {
  if (epochs <= 0) return Status::InvalidArgument("epochs must be positive");
  if (num_workers <= 0)
    return Status::InvalidArgument("num_workers must be positive");

  PartitionPlan plan;
  plan.mode = mode;

  // Candidate segment starts: epoch 0, plus e+1 for each checkpointed e.
  // Strong init restores every epoch before a start, so on sparse
  // checkpoints its only start is epoch 0.
  std::vector<int64_t> starts;
  starts.push_back(0);
  if (mode == InitMode::kWeak || DenseCheckpoints(epochs, ckpt_epochs)) {
    for (int64_t e : ckpt_epochs) {
      if (e + 1 < epochs) starts.push_back(e + 1);
    }
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  // Segment sizes between consecutive starts.
  std::vector<int64_t> sizes;
  for (size_t i = 0; i < starts.size(); ++i) {
    const int64_t end = i + 1 < starts.size() ? starts[i + 1] : epochs;
    sizes.push_back(end - starts[i]);
  }
  plan.segments = static_cast<int64_t>(sizes.size());

  const auto assign = LinearPartition(sizes, num_workers);
  const int groups = assign.empty() ? 0 : assign.back() + 1;

  for (int g = 0; g < groups; ++g) {
    int64_t begin = -1;
    int64_t end = 0;
    for (size_t s = 0; s < sizes.size(); ++s) {
      if (assign[s] != g) continue;
      if (begin < 0) begin = starts[s];
      end = s + 1 < starts.size() ? starts[s + 1] : epochs;
    }
    std::vector<int64_t> work(static_cast<size_t>(end - begin));
    std::iota(work.begin(), work.end(), begin);
    FLOR_ASSIGN_OR_RETURN(WorkerPlan wp,
                          PlanWorker(epochs, std::move(work), mode,
                                     ckpt_epochs));
    wp.worker_id = g;
    plan.max_worker_epochs =
        std::max(plan.max_worker_epochs, wp.work_epochs());
    plan.workers.push_back(std::move(wp));
  }
  return plan;
}

Result<WorkerPlan> PlanWorker(int64_t epochs, std::vector<int64_t> work,
                              InitMode mode,
                              const std::vector<int64_t>& ckpt_epochs) {
  if (mode == InitMode::kAuto)
    return Status::InvalidArgument("resolve an auto init mode first");
  const std::set<int64_t> ckpts(ckpt_epochs.begin(), ckpt_epochs.end());
  std::sort(work.begin(), work.end());
  work.erase(std::unique(work.begin(), work.end()), work.end());
  WorkerPlan wp;
  int64_t next = 0;  // the epoch whose start state the worker holds
  for (int64_t k : work) {
    if (k < 0 || k >= epochs)
      return Status::OutOfRange(StrCat("epoch ", k, " out of range"));
    const int64_t from =
        mode == InitMode::kWeak ? std::max(next, k - 1) : next;
    for (int64_t e = from; e < k; ++e) {
      if (!ckpts.count(e)) {
        return Status::FailedPrecondition(
            StrCat("no checkpoint at epoch ", e, " for ", InitModeName(mode),
                   " initialization of epoch ", k));
      }
      wp.iters.push_back({e, exec::IterMode::kInit});
    }
    wp.iters.push_back({k, exec::IterMode::kWork});
    next = k + 1;
  }
  if (!work.empty()) {
    wp.work_begin = work.front();
    wp.work_end = work.back() + 1;
  }
  return wp;
}

}  // namespace flor
