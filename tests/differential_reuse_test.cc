// Differential chaos testing: one seeded random workload is executed under
// all four combinations of {reuse ON, reuse OFF} x {faults ON, faults OFF},
// plus arms running morsel-parallel execution with tiny batches, runtime
// work sharing, and generalized (containment-based) view matching — the
// latter both clean and under the chaos fault plan. Computation reuse, the
// failure-hardening around it, parallel batch execution, and subsumption
// compensation are pure optimizations — every arm must produce
// byte-identical per-job outputs — and the workload repository each reuse
// arm accumulates must stay self-consistent under the independent signature
// auditor (which also re-verifies every subsumption hit).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/reuse_engine.h"
#include "core/view_selection.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "verify/signature_auditor.h"
#include "workload/generator.h"

namespace cloudviews {
namespace {

// Only graceful-degradation sites: these may fire arbitrarily often without
// ever failing a query (spool aborts degrade to pass-through, a lost view
// degrades to base scans), so the assertion set below holds for EVERY seed
// the CI sweep picks.
const char* kDefaultChaosSpec =
    "exec.spool.write=p:0.15;"
    "exec.spool.seal=p:0.25:aborted;"
    "storage.view.read=p:0.15:corruption;"
    "sharing.producer_abort=p:0.2;"
    "sharing.subscriber_timeout=p:0.1";

void ArmChaos() {
  fault::FaultInjector::Global().Disarm();
  // Prefer the CI-provided plan (CLOUDVIEWS_FAULTS + CLOUDVIEWS_FAULT_SEED
  // sweep); fall back to the default plan when run standalone.
  Status env = fault::FaultInjector::Global().ArmFromEnv();
  if (!env.ok() || !fault::FaultInjector::Enabled()) {
    auto plan = fault::FaultPlan::Parse(kDefaultChaosSpec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fault::FaultInjector::Global().Arm(*plan);
  }
}

WorkloadProfile SmallProfile(uint64_t seed) {
  WorkloadProfile profile;
  profile.seed = seed;
  profile.num_virtual_clusters = 2;
  profile.num_shared_datasets = 10;
  profile.num_motifs = 5;
  profile.num_templates = 12;
  profile.instances_per_template_per_day = 2;
  profile.min_rows = 60;
  profile.max_rows = 240;
  // Every arm runs the same narrowed-template mix: the generalized arms
  // must find containment hits in it, and the exact-only arms must produce
  // identical bytes on the exact same job stream.
  profile.generalized_fraction = 0.4;
  return profile;
}

std::string Render(const TablePtr& table) {
  if (table == nullptr) return "<no output>";
  std::string out;
  for (const Row& row : table->rows()) {
    for (const Value& v : row) {
      out += v.is_null() ? "<null>" : v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

struct ArmOutcome {
  std::map<int64_t, std::string> outputs_by_job;
  int views_built = 0;
  int views_matched = 0;
  int views_matched_subsumed = 0;
  int fallbacks = 0;
  // Work-sharing telemetry (zero unless the arm runs sharing windows).
  int64_t sharing_streams = 0;
  int64_t sharing_hits = 0;
  int64_t sharing_detaches = 0;
  int64_t sharing_producer_aborts = 0;
};

// What one arm turns on. Execution defaults to the engine's serial
// production setting (dop 1, 1024-row batches).
struct ArmConfig {
  bool reuse_on = true;
  bool faults_on = false;
  bool sharing_on = false;
  bool generalized_on = false;
  int exec_dop = 1;
  size_t exec_batch_rows = 1024;
};

// Runs `days` days of the seeded workload through a fresh engine. Each arm
// regenerates its own catalog + job stream; the generator is deterministic
// for a fixed profile, so job ids and plans line up across arms. With
// `sharing_on`, each day's jobs are batched through RunSharedWindow so
// concurrent duplicates stream from one producer instead of recomputing.
void RunArm(uint64_t workload_seed, const ArmConfig& arm, int days,
            ArmOutcome* outcome) {
  if (arm.faults_on) {
    ArmChaos();
  } else {
    fault::FaultInjector::Global().Disarm();
  }
  WorkloadGenerator generator(SmallProfile(workload_seed));
  DatasetCatalog catalog;
  ASSERT_TRUE(generator.Setup(&catalog).ok());

  ReuseEngineOptions options;
  options.cloudviews_enabled = arm.reuse_on;
  options.exec_dop = arm.exec_dop;
  options.exec_batch_rows = arm.exec_batch_rows;
  options.enable_sharing = arm.sharing_on;
  options.optimizer.enable_generalized_matching = arm.generalized_on;
  options.selection.schedule_aware = false;
  options.selection.per_virtual_cluster = false;
  options.selection.strategy = SelectionStrategy::kGreedyRatio;
  ReuseEngine engine(&catalog, options);
  engine.insights().controls().opt_out_model = true;  // all VCs enabled

  verify::SignatureAuditor auditor(
      engine.options().optimizer.signature_options);

  for (int day = 0; day < days; ++day) {
    if (day >= 1) {
      std::vector<std::string> updated;
      ASSERT_TRUE(generator.AdvanceDay(&catalog, day, &updated).ok());
      for (const std::string& dataset : updated) {
        engine.OnDatasetUpdated(dataset);
      }
    }
    std::vector<JobRequest> day_requests;
    for (const GeneratedJob& job : generator.JobsForDay(catalog, day)) {
      JobRequest request;
      request.job_id = job.job_id;
      request.virtual_cluster = job.virtual_cluster;
      request.plan = job.plan;
      request.submit_time = job.submit_time;
      request.day = job.day;
      request.cloudviews_enabled = job.cloudviews_enabled;
      day_requests.push_back(std::move(request));
    }
    std::vector<JobExecution> executions;
    if (arm.sharing_on) {
      // The whole day's jobs act as one in-flight window: every duplicated
      // subexpression across them must execute once and stream.
      auto window = engine.RunSharedWindow(day_requests);
      ASSERT_TRUE(window.ok())
          << "sharing window day " << day << " faults=" << arm.faults_on
          << ": " << window.status().ToString();
      executions = std::move(*window);
    } else {
      for (const JobRequest& request : day_requests) {
        auto exec = engine.RunJob(request);
        // Graceful degradation is the contract: no armed fault in the chaos
        // plan may surface as a failed job.
        ASSERT_TRUE(exec.ok())
            << "job " << request.job_id << " day " << day
            << " reuse=" << arm.reuse_on << " faults=" << arm.faults_on << ": "
            << exec.status().ToString();
        executions.push_back(std::move(*exec));
      }
    }
    for (const JobExecution& exec : executions) {
      outcome->outputs_by_job[exec.job_id] = Render(exec.output);
      outcome->views_built += exec.views_built;
      outcome->views_matched += exec.views_matched;
      outcome->views_matched_subsumed += exec.views_matched_subsumed;
      if (exec.fell_back) outcome->fallbacks += 1;
      Status audit = auditor.AuditPlan(*exec.executed_plan);
      EXPECT_TRUE(audit.ok()) << audit.ToString();
    }
    // Offline analysis between days: selection publishes annotations so the
    // next day's instances materialize and reuse.
    engine.RunViewSelection();
    engine.Maintenance((day + 1) * 86400.0);
  }

  // Repository aggregates must agree with every plan that actually executed
  // and be internally consistent (one recurring signature and subtree size
  // per strict signature).
  Status cross = auditor.CrossCheckGroups(engine.repository().AuditGroups());
  EXPECT_TRUE(cross.ok()) << cross.ToString();
  EXPECT_TRUE(engine.signature_audit().ok());
  outcome->sharing_streams = engine.sharing_stats().streams;
  outcome->sharing_hits = engine.sharing_stats().hits;
  outcome->sharing_detaches = engine.sharing_stats().detaches;
  outcome->sharing_producer_aborts = engine.sharing_stats().producer_aborts;
  fault::FaultInjector::Global().Disarm();
}

class DifferentialReuseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialReuseTest, AllArmsByteIdentical) {
  const uint64_t workload_seed = GetParam();
  constexpr int kDays = 3;

  ArmOutcome reference;   // reuse ON, faults OFF — the production default
  ArmOutcome no_reuse;    // reuse OFF, faults OFF — ground truth
  ArmOutcome chaos;       // reuse ON, faults ON  — the hardened path
  ArmOutcome chaos_bare;  // reuse OFF, faults ON — faults with nothing to hit
  ArmOutcome parallel;    // reuse ON, faults OFF, dop 4 x 3-row batches
  ArmOutcome sharing;     // reuse ON, faults OFF, daily sharing windows
  ArmOutcome sharing_chaos;  // reuse ON, faults ON, sharing windows
  ArmOutcome generalized;    // reuse ON + containment matching, faults OFF
  ArmOutcome generalized_chaos;  // reuse ON + containment matching, faults ON
  RunArm(workload_seed, {.reuse_on = true}, kDays, &reference);
  RunArm(workload_seed, {.reuse_on = false}, kDays, &no_reuse);
  RunArm(workload_seed, {.reuse_on = true, .faults_on = true}, kDays, &chaos);
  RunArm(workload_seed, {.reuse_on = false, .faults_on = true}, kDays,
         &chaos_bare);
  RunArm(workload_seed, {.reuse_on = true, .exec_dop = 4, .exec_batch_rows = 3},
         kDays, &parallel);
  RunArm(workload_seed, {.reuse_on = true, .sharing_on = true}, kDays,
         &sharing);
  RunArm(workload_seed,
         {.reuse_on = true, .faults_on = true, .sharing_on = true}, kDays,
         &sharing_chaos);
  RunArm(workload_seed, {.reuse_on = true, .generalized_on = true}, kDays,
         &generalized);
  RunArm(workload_seed,
         {.reuse_on = true, .faults_on = true, .generalized_on = true}, kDays,
         &generalized_chaos);
  if (HasFatalFailure()) return;

  // Same job stream in every arm.
  ASSERT_EQ(reference.outputs_by_job.size(), no_reuse.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(), chaos.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(),
            chaos_bare.outputs_by_job.size());

  ASSERT_EQ(reference.outputs_by_job.size(), parallel.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(), sharing.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(),
            sharing_chaos.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(),
            generalized.outputs_by_job.size());
  ASSERT_EQ(reference.outputs_by_job.size(),
            generalized_chaos.outputs_by_job.size());

  // Byte-identical outputs, job by job.
  for (const auto& [job_id, expected] : no_reuse.outputs_by_job) {
    EXPECT_EQ(reference.outputs_by_job.at(job_id), expected)
        << "reuse changed job " << job_id;
    EXPECT_EQ(chaos.outputs_by_job.at(job_id), expected)
        << "reuse+faults changed job " << job_id;
    EXPECT_EQ(chaos_bare.outputs_by_job.at(job_id), expected)
        << "faults changed job " << job_id;
    EXPECT_EQ(parallel.outputs_by_job.at(job_id), expected)
        << "dop 4 x 3-row batches changed job " << job_id;
    EXPECT_EQ(sharing.outputs_by_job.at(job_id), expected)
        << "work sharing changed job " << job_id;
    EXPECT_EQ(sharing_chaos.outputs_by_job.at(job_id), expected)
        << "work sharing under chaos changed job " << job_id;
    EXPECT_EQ(generalized.outputs_by_job.at(job_id), expected)
        << "generalized matching changed job " << job_id;
    EXPECT_EQ(generalized_chaos.outputs_by_job.at(job_id), expected)
        << "generalized matching under chaos changed job " << job_id;
  }

  // The test exercised what it claims to: the reference arm actually built
  // and reused views, and the disabled arms touched none.
  EXPECT_GT(reference.views_built, 0);
  EXPECT_GT(reference.views_matched, 0);
  // The parallel arm makes the same reuse decisions: views spooled from
  // morsel-parallel, 3-row-batch runs are interchangeable with serial ones.
  EXPECT_EQ(parallel.views_built, reference.views_built);
  EXPECT_EQ(parallel.views_matched, reference.views_matched);
  EXPECT_EQ(no_reuse.views_built, 0);
  EXPECT_EQ(no_reuse.views_matched, 0);
  EXPECT_EQ(chaos_bare.views_built, 0);
  EXPECT_EQ(reference.fallbacks, 0);

  // The generalized arm found containment hits the exact-only arms cannot
  // (the workload's narrowed templates never exact-match the shared views).
  // Totals are >= rather than strictly >: answering a narrowed subtree from
  // the wider view also removes the spool that would have fed later exact
  // hits of the narrow subtree, so composition shifts from exact to
  // subsumed (the strict-dominance claim is asserted at fig8 scale, where
  // the effect cannot cancel). Exact-only arms report zero subsumed hits by
  // construction.
  EXPECT_GT(generalized.views_matched_subsumed, 0);
  // No hit floor for the chaos variant: the fault plan aborts spool writes
  // and seals, so whether any wide view survives long enough to subsume is
  // a property of the fault seed (which CI sweeps), not of the matcher. Its
  // contract is the byte-identity + auditor assertions above, plus: faults
  // must never manufacture subsumed hits in exact-only arms.
  EXPECT_EQ(reference.views_matched_subsumed, 0);
  EXPECT_EQ(parallel.views_matched_subsumed, 0);
  EXPECT_EQ(chaos.views_matched_subsumed, 0);
  EXPECT_EQ(chaos_bare.views_matched_subsumed, 0);
  EXPECT_GE(generalized.views_matched + generalized.views_matched_subsumed,
            reference.views_matched);

  // The sharing arms actually shared: the seeded workload runs multiple
  // instances of each template per day, so every day's window elects
  // producers, and serial arms never touch the sharing path. Every wired
  // subscriber either streamed or detached to its fallback.
  EXPECT_GT(sharing.sharing_streams, 0);
  EXPECT_GT(sharing.sharing_hits, 0);
  EXPECT_EQ(sharing.sharing_producer_aborts, 0);
  EXPECT_EQ(reference.sharing_streams, 0);
  EXPECT_EQ(chaos.sharing_streams, 0);
  EXPECT_GT(sharing_chaos.sharing_streams, 0);
  EXPECT_GE(sharing_chaos.sharing_producer_aborts, 0);
}

INSTANTIATE_TEST_SUITE_P(SeededWorkloads, DifferentialReuseTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace cloudviews
