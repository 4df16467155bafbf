#include "flor/query.h"

#include <cstring>

#include "checkpoint/store.h"
#include "common/strings.h"

namespace flor {

Result<std::vector<RunInfo>> ListRuns(const FileSystem* fs,
                                      const std::string& root) {
  std::vector<RunInfo> out;
  const std::string prefix = root.empty() ? "" : root + "/";
  for (const auto& path : fs->ListPrefix(prefix)) {
    if (!EndsWith(path, "/manifest.tsv")) continue;
    RunInfo info;
    info.prefix = path.substr(0, path.size() - strlen("/manifest.tsv"));
    FLOR_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(fs, info.prefix));
    info.workload = manifest.workload;
    info.record_runtime_seconds = manifest.record_runtime_seconds;
    info.checkpoints = static_cast<int64_t>(manifest.records.size());
    out.push_back(std::move(info));
  }
  return out;
}

Result<std::vector<double>> MetricSeries(const FileSystem* fs,
                                         const std::string& run_prefix,
                                         const std::string& label) {
  RunPaths paths(run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string bytes, fs->ReadFile(paths.Logs()));
  FLOR_ASSIGN_OR_RETURN(exec::LogStream logs,
                        exec::LogStream::Deserialize(bytes));
  std::vector<double> out;
  for (const auto& e : logs.entries()) {
    if (e.label != label) continue;
    double v = 0;
    if (!ParseF64(e.text, &v)) {
      return Status::InvalidArgument(
          StrCat("log '", label, "' has non-numeric text: ", e.text));
    }
    out.push_back(v);
  }
  return out;
}

Result<std::vector<RunInfo>> FindRuns(const FileSystem* fs,
                                      const std::string& root,
                                      const RunPredicate& predicate) {
  FLOR_ASSIGN_OR_RETURN(std::vector<RunInfo> runs, ListRuns(fs, root));
  std::vector<RunInfo> out;
  for (const auto& run : runs) {
    RunPaths paths(run.prefix);
    FLOR_ASSIGN_OR_RETURN(std::string bytes, fs->ReadFile(paths.Logs()));
    FLOR_ASSIGN_OR_RETURN(exec::LogStream logs,
                          exec::LogStream::Deserialize(bytes));
    FLOR_ASSIGN_OR_RETURN(bool match, predicate(run, logs.entries()));
    if (match) out.push_back(run);
  }
  return out;
}

bool ShowsExplodingVanishingPattern(const std::vector<double>& series,
                                    double explode_factor,
                                    double vanish_factor) {
  if (series.size() < 3 || series.front() <= 0) return false;
  const double start = series.front();
  double peak = start;
  size_t peak_index = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i] > peak) {
      peak = series[i];
      peak_index = i;
    }
  }
  if (peak < start * explode_factor) return false;  // never exploded
  for (size_t i = peak_index + 1; i < series.size(); ++i) {
    if (series[i] <= peak * vanish_factor) return true;  // later vanished
  }
  return false;
}

}  // namespace flor
