// Table 4 — S3 storage costs for one execution of Flor record, plus the
// sharded-store spool sweep.
//
// Each workload records with adaptive checkpointing; the table reports the
// gzip-stand-in-compressed checkpoint footprint at paper scale (nominal
// per-checkpoint size x checkpoints materialized) and its monthly S3 cost.
// The checkpoints are also really spooled (at tiny-model scale) from the
// local store to the simulated "s3/" bucket with SpoolStore, one object
// copy after another, as the paper's background spooler does.
//
// On top of the paper's single-prefix column, the bench sweeps the
// checkpoint store over shards ∈ {1, 4, 16}: the shard-1 row must
// reproduce the pre-sharding storage bytes and monthly cost exactly
// (sharding moves objects, never changes them), and every sweep point
// must land the same bytes in the bucket.
//
// A second sweep exercises the end-to-end lifecycle (rows with stage:
// "record+spool+gc"): RecordSession itself spools each checkpoint as the
// materializer lands it — no bench-side spool calls — and one RetireRun
// on the finished run retires old epochs keep-last-K per shard, timed
// with the record. Invariants checked per point:
// the spooled bucket holds every materialized checkpoint (it is the
// durable archive), retirement leaves at most K epochs per loop locally,
// and the K=0 / shard-1 point leaves the run byte-identical to a plain
// record (the lifecycle is free when disabled).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checkpoint/gc.h"
#include "checkpoint/spool.h"
#include "common/logging.h"

int main() {
  using namespace flor;

  struct Row {
    std::string name;
    uint64_t stored_bytes;
    double monthly_cost;
  };
  std::vector<Row> rows;

  const int kShardSweep[] = {1, 4, 16};

  bench::BenchJson json("table4_storage");

  std::printf("Sharded-store spool sweep (real objects, tiny scale):\n\n");
  std::printf("%-5s %7s %9s %9s %9s %12s\n", "Name", "shards", "objects",
              "batches", "retries", "spool");
  bench::Hr();

  for (const auto& base_profile : bench::BenchWorkloads()) {
    uint64_t baseline_stored = 0;   // shard-1 nominal footprint
    double baseline_cost = 0;
    uint64_t baseline_bucket = 0;   // shard-1 real spooled bytes

    for (int shards : kShardSweep) {
      workloads::WorkloadProfile profile = base_profile;
      profile.ckpt_shards = shards;
      MemFileSystem fs;
      RecordResult rec = bench::RunRecord(&fs, profile, "run");

      // Nominal (paper-scale) compressed footprint. Placement does not
      // change content: the adaptive controller sees identical costs, so
      // the record count — and with it the footprint — is shard-invariant.
      const uint64_t stored =
          profile.NominalStoredBytes() * rec.manifest.records.size();
      const double cost = S3MonthlyCost(stored);

      CheckpointStore store(&fs, "run/ckpt", shards);
      const uint64_t local_bytes = store.TotalBytes();

      // Really spool the (tiny-scale) checkpoints to the simulated bucket,
      // one destination per sweep point.
      const std::string dst = StrCat("s3/shards", shards, "/run/ckpt");
      const auto start = std::chrono::steady_clock::now();
      SpoolReport spool = SpoolStore(store, dst);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();

      FLOR_CHECK(spool.ok()) << spool.first_error;
      FLOR_CHECK_EQ(spool.objects,
                    static_cast<int64_t>(rec.manifest.records.size()));
      FLOR_CHECK_EQ(spool.bytes, local_bytes);
      FLOR_CHECK_EQ(fs.TotalBytesUnder(dst + "/"), local_bytes);

      json.Row()
          .Field("workload", profile.name)
          .Field("shards", shards)
          .Field("stored_bytes", static_cast<int64_t>(stored))
          .Field("monthly_cost_dollars", cost)
          .Field("spooled_objects", spool.objects)
          .Field("spool_batches", spool.batches)
          .Field("spool_retries", spool.retries)
          .Field("seconds", seconds);

      std::printf("%-5s %7d %9lld %9lld %9lld %12s\n", profile.name.c_str(),
                  shards, static_cast<long long>(spool.objects),
                  static_cast<long long>(spool.batches),
                  static_cast<long long>(spool.retries),
                  HumanSeconds(seconds).c_str());

      if (shards == 1) {
        baseline_stored = stored;
        baseline_cost = cost;
        baseline_bucket = local_bytes;
        rows.push_back({profile.name, stored, cost});
      } else {
        // Sharding must not move the Table 4 numbers by a single byte.
        FLOR_CHECK_EQ(stored, baseline_stored);
        FLOR_CHECK_EQ(cost, baseline_cost);
        FLOR_CHECK_EQ(local_bytes, baseline_bucket);
      }
    }
  }

  // ------------------------------------------------------------------
  // Lifecycle sweep: record + spool-as-you-materialize through
  // RecordSession, then keep-last-K GC of the finished run.
  // ------------------------------------------------------------------
  std::printf("\nBackground lifecycle sweep (record+spool+gc, automatic):"
              "\n\n");
  std::printf("%-5s %7s %7s %7s %9s %9s %9s %12s\n", "Name", "shards",
              "keepK", "ckpts", "spooled", "demoted", "local", "record");
  bench::Hr();

  const int kLifecycleShards[] = {1, 4};
  const int64_t kKeepSweep[] = {0, 2};

  for (const auto& base_profile : bench::BenchWorkloads()) {
    // Plain-record baseline at shard 1: the lifecycle with spooling on
    // and retention off must not change a byte of the run's local output.
    uint64_t plain_ckpt_bytes = 0;
    std::string plain_manifest;
    {
      workloads::WorkloadProfile profile = base_profile;
      profile.ckpt_shards = 1;
      MemFileSystem fs;
      bench::RunRecord(&fs, profile, "run");
      plain_ckpt_bytes = fs.TotalBytesUnder("run/ckpt/");
      auto m = fs.ReadFile("run/manifest.tsv");
      FLOR_CHECK(m.ok());
      plain_manifest = *m;
    }

    for (int shards : kLifecycleShards) {
      for (int64_t keep_k : kKeepSweep) {
        workloads::WorkloadProfile profile = base_profile;
        profile.ckpt_shards = shards;
        MemFileSystem fs;
        Env env(std::make_unique<SimClock>(), &fs);
        auto instance = workloads::MakeWorkloadFactory(
            profile, workloads::kProbeNone)();
        FLOR_CHECK(instance.ok()) << instance.status().ToString();
        RecordOptions opts =
            workloads::DefaultRecordOptions(profile, "run");
        opts.spool_prefix = "s3";
        GcPolicy policy;
        policy.keep_last_k = keep_k;

        const auto start = std::chrono::steady_clock::now();
        RecordSession session(&env, opts);
        exec::Frame frame;
        auto result = session.Run(instance->program.get(), &frame);
        auto gc = RetireRun(&fs, "run", policy, "s3");
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        FLOR_CHECK(result.ok()) << result.status().ToString();
        FLOR_CHECK(gc.ok()) << gc.status().ToString();

        // Every materialized checkpoint is in the bucket (the durable
        // archive), and — because the spool mirror is the run's bucket
        // tier — the GC *demoted*: the manifest stays complete while the
        // local store keeps only the newest K epochs per loop.
        const int64_t materialized =
            static_cast<int64_t>(result->manifest.records.size());
        const int64_t local_objects = materialized - gc->retired_objects;
        FLOR_CHECK(result->spool_report.ok())
            << result->spool_report.first_error;
        FLOR_CHECK_EQ(result->spool_report.objects, materialized);
        FLOR_CHECK_EQ(
            static_cast<int64_t>(fs.ListPrefix("s3/run/ckpt/").size()),
            materialized);
        FLOR_CHECK_EQ(
            static_cast<int64_t>(fs.ListPrefix("run/ckpt/").size()),
            local_objects);

        if (keep_k == 0) {
          // Retention disabled: a guaranteed no-op.
          FLOR_CHECK_EQ(gc->retired_objects, 0);
          if (shards == 1) {
            // And at shard 1 the local run output is byte-identical to a
            // plain record without the lifecycle.
            FLOR_CHECK_EQ(fs.TotalBytesUnder("run/ckpt/"),
                          plain_ckpt_bytes);
            auto m = fs.ReadFile("run/manifest.tsv");
            FLOR_CHECK(m.ok());
            FLOR_CHECK(*m == plain_manifest)
                << "lifecycle changed the shard-1 manifest bytes";
          }
        } else {
          // Demotion held keep-last-K *locally*: at most K epochs per
          // loop still have a local object; the rest are bucket-only.
          FLOR_CHECK(gc->demoted_to_bucket);
          FLOR_CHECK_EQ(gc->skipped_unspooled, 0);
          CheckpointStore local_store(&fs, "run/ckpt",
                                      result->manifest.shard_count);
          std::map<int32_t, std::set<int64_t>> local_epochs;
          for (const auto& r : result->manifest.records) {
            if (r.epoch >= 0 && local_store.Exists(r.key))
              local_epochs[r.key.loop_id].insert(r.epoch);
          }
          for (const auto& [loop_id, set] : local_epochs) {
            FLOR_CHECK_LE(static_cast<int64_t>(set.size()), keep_k)
                << "loop " << loop_id;
          }
        }

        json.Row()
            .Field("stage", "record+spool+gc")
            .Field("workload", profile.name)
            .Field("shards", shards)
            .Field("keep_last_k", keep_k)
            .Field("checkpoints", materialized)
            .Field("spooled_objects", result->spool_report.objects)
            .Field("spool_batches", result->spool_report.batches)
            .Field("demoted_objects", gc->retired_objects)
            .Field("local_objects", local_objects)
            .Field("seconds", seconds);

        std::printf("%-5s %7d %7lld %7lld %9lld %9lld %9lld %12s\n",
                    profile.name.c_str(), shards,
                    static_cast<long long>(keep_k),
                    static_cast<long long>(materialized),
                    static_cast<long long>(result->spool_report.objects),
                    static_cast<long long>(gc->retired_objects),
                    static_cast<long long>(local_objects),
                    HumanSeconds(seconds).c_str());
      }
    }
  }

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.stored_bytes < b.stored_bytes;
  });

  std::printf("\nTable 4: S3 storage costs for one execution of Flor "
              "record.\n\n");
  std::printf("%-5s %18s %20s\n", "Name", "Checkpoint Size",
              "Storage Cost / Mo.");
  bench::Hr();
  double total = 0;
  bool all_under_dollar = true;
  for (const auto& row : rows) {
    std::printf("%-5s %18s %20s\n", row.name.c_str(),
                HumanBytes(row.stored_bytes).c_str(),
                HumanDollars(row.monthly_cost).c_str());
    total += row.monthly_cost;
    all_under_dollar &= row.monthly_cost < 1.0;
  }
  bench::Hr();
  std::printf("every workload under $1.00/month: %s   (paper: yes)\n",
              all_under_dollar ? "YES" : "NO");
  std::printf("total for all eight workloads: %s\n",
              HumanDollars(total).c_str());
  std::printf("shard sweep: shard-1 footprint and cost reproduced exactly "
              "at 4 and 16 shards.\n");
  return 0;
}
