#include "analysis/weak_init.h"

#include <set>

namespace flor {
namespace analysis {

namespace {

using Names = std::set<std::string>;
using CheckpointNames = std::map<int32_t, std::vector<std::string>>;

/// What a statement reads: its arguments and, for a method, its receiver.
std::vector<std::string> Reads(const ir::Stmt& stmt) {
  std::vector<std::string> out = stmt.reads;
  if (!stmt.receiver.empty()) out.push_back(stmt.receiver);
  return out;
}

/// What a statement writes, on the Table 1 surface: its targets, the
/// receiver of a method, and the arguments of an opaque call.
std::vector<std::string> Writes(const ir::Stmt& stmt) {
  if (stmt.is_log()) return {};
  std::vector<std::string> out = stmt.targets;
  if (!stmt.receiver.empty()) out.push_back(stmt.receiver);
  if (stmt.pattern == ir::StmtPattern::kOpaqueCall)
    out.insert(out.end(), stmt.reads.begin(), stmt.reads.end());
  return out;
}

/// Adds every variable `block` can write to `out`, nested loops' iteration
/// variables and the checkpointed names of nested SkipBlocks included.
/// Returns false when a nested SkipBlock's names are unknown.
bool CollectWrites(const ir::Block& block, const CheckpointNames& names,
                   Names* out) {
  for (const auto& node : block.nodes) {
    if (node.is_stmt()) {
      for (const auto& v : Writes(*node.stmt)) out->insert(v);
      continue;
    }
    const ir::Loop& loop = *node.loop;
    out->insert(loop.iter().var);
    if (loop.analysis().instrumented) {
      auto it = names.find(loop.id());
      if (it == names.end()) return false;
      out->insert(it->second.begin(), it->second.end());
    }
    if (!CollectWrites(loop.body(), names, out)) return false;
  }
  return true;
}

/// Adds to `carried` each body-written variable `block` reads before
/// `written` holds it. A nested loop's writes are not counted as written
/// after it: it may run no iteration, or be restored instead.
void CollectCarried(const ir::Block& block, Names written,
                    const Names& body_writes, Names* carried) {
  auto read = [&](const std::string& v) {
    if (body_writes.count(v) && !written.count(v)) carried->insert(v);
  };
  for (const auto& node : block.nodes) {
    if (node.is_stmt()) {
      for (const auto& v : Reads(*node.stmt)) read(v);
      for (const auto& v : Writes(*node.stmt)) written.insert(v);
      continue;
    }
    const ir::Loop& loop = *node.loop;
    if (!loop.iter().count_var.empty()) read(loop.iter().count_var);
    Names inner = written;
    inner.insert(loop.iter().var);
    CollectCarried(loop.body(), std::move(inner), body_writes, carried);
  }
}

}  // namespace

WeakInitReport AnalyzeWeakInit(const ir::Loop& main_loop,
                               const CheckpointNames& checkpoint_names) {
  WeakInitReport report;
  Names body_writes;
  if (!CollectWrites(main_loop.body(), checkpoint_names, &body_writes))
    return report;
  // The loop header binds the epoch variable afresh every iteration.
  body_writes.erase(main_loop.iter().var);

  Names carried;
  CollectCarried(main_loop.body(), {main_loop.iter().var}, body_writes,
                 &carried);
  report.carried.assign(carried.begin(), carried.end());

  // The init iteration, in order.
  Names stale = body_writes;
  for (const auto& node : main_loop.body().nodes) {
    if (node.is_stmt()) {
      bool fresh_reads = true;
      for (const auto& v : Reads(*node.stmt))
        if (stale.count(v)) fresh_reads = false;
      for (const auto& v : Writes(*node.stmt)) {
        if (fresh_reads) {
          stale.erase(v);
        } else {
          stale.insert(v);
        }
      }
      continue;
    }
    const ir::Loop& loop = *node.loop;
    stale.insert(loop.iter().var);
    CollectWrites(loop.body(), checkpoint_names, &stale);
    if (loop.analysis().instrumented) {
      for (const auto& v : checkpoint_names.at(loop.id())) stale.erase(v);
    }
  }

  report.exact = true;
  for (const auto& v : report.carried)
    if (stale.count(v)) report.exact = false;
  return report;
}

}  // namespace analysis
}  // namespace flor
