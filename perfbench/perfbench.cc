// End-to-end benchmark program for the CloudViews simulation.
//
// Runs the production-simulation day loop itself (the same sequence of calls
// ProductionExperiment::RunArm makes) so it can time every call into a
// layer's public API: WorkloadGenerator::{Setup,AdvanceDay,JobsForDay},
// ReuseEngine::{OnDatasetUpdated,Maintenance,RunViewSelection} and
// ClusterSimulator::{SubmitJob,SubmitSharedWindow}. Jobs run in a closed
// loop from this one thread: the simulated clock only drives the simulated
// telemetry, never the pacing.
//
// Usage:
//   cloudviews_perfbench --workload table1|view-rich|burst-share --seed N
//       --seconds S --trace 0|1 [--days D] [--clusters C] [--out DIR]
//
// A repetition is one pass over the workload's fleet of clusters, each with
// a fresh stack. --trace 0 repeats passes until S seconds have elapsed (at
// least one) and prints the end-to-end metrics, built from each timed
// call's median over the passes. --trace 1 alternates untraced and traced
// passes and prints the per-layer metrics, the exclusive-time table and the
// tracing overhead; with --out it also writes a Chrome trace of the first
// cluster of the last traced pass. Every job's output is hashed and
// compared against a reuse-off reference; any mismatch fails the run. The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/simulator.h"
#include "common/hash.h"
#include "core/reuse_engine.h"
#include "obs/json_writer.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "output_tap.h"
#include "span_log.h"
#include "workload/experiment.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

namespace cv = cloudviews;
namespace names = cloudviews::obs::metric_names;

// ---------------------------------------------------------------------------
// Workloads

// A workload is a fleet of independent clusters, one engine each, run one
// after the other. Cluster i draws its workload from a seed derived from
// the run's --seed and i, so a run averages over several generated
// clusters instead of resting on the few hot datasets of one.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  int clusters = 1;
  cv::ExperimentConfig config;  // per cluster; seeds set by ClusterConfig
  // table1 times both arms and its baseline arm is the digest reference;
  // the other workloads time the CloudViews arm only and take the
  // reference from one untimed reuse-off run.
  bool timed_baseline_arm = false;
};

cv::ExperimentConfig ClusterConfig(const Workload& workload, int cluster) {
  cv::ExperimentConfig config = workload.config;
  uint64_t seed = cv::Mix64(workload.seed) + static_cast<uint64_t>(cluster);
  config.workload.seed = seed;
  config.workload.cluster_name = "cluster" + std::to_string(cluster);
  config.cluster.seed = seed;
  return config;
}

// Table 1's selection settings (bench/table1_production_impact.cc).
void Table1Selection(cv::ExperimentConfig* config) {
  config->onboarding_days_per_vc = 2;
  config->engine.selection.min_occurrences = 4;
  config->engine.selection.storage_budget_bytes = 1536ull << 10;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  cv::ExperimentConfig& c = w.config;
  // Every dataset has the same row count (the middle of the range the
  // workload would otherwise draw from), so jobs/s is measured at a stated
  // input size rather than at whatever sizes a seed happens to draw.
  if (name == "table1") {
    // The paper's shape: daily bulk updates invalidate most views, so the
    // write side (build, then ~2 reads per view) dominates. No theta
    // joins: a nested-loop job costs the product of two input sizes, and
    // whether a seed draws one decides the p99 on its own.
    c.workload = cv::ProductionDeploymentProfile(0.25);
    c.workload.min_rows = c.workload.max_rows = 1400;
    c.workload.theta_join_fraction = 0.0;
    c.num_days = 5;
    w.clusters = 12;
    Table1Selection(&c);
    c.engine.exec_dop = 1;
    w.timed_baseline_arm = true;
  } else if (name == "view-rich") {
    // Read side: rare updates, small inputs, narrowed templates that need
    // containment matching; the repository and view index grow large.
    // Not in BENCHMARK.json: some of its jobs fail the output check on
    // every seed tried (a program defect, see README.md).
    c.workload = cv::ProductionDeploymentProfile(0.5);
    c.workload.generalized_fraction = 0.4;
    c.workload.daily_update_fraction = 0.1;
    c.workload.min_rows = c.workload.max_rows = 150;
    c.num_days = 30;
    w.clusters = 12;
    Table1Selection(&c);
    c.engine.selection.storage_budget_bytes = 64ull << 20;
    c.engine.optimizer.enable_generalized_matching = true;
    // Per-signature cardinality models for the optimizer; the only
    // consumer of the signature cache.
    c.engine.enable_cardinality_feedback = true;
    c.engine.exec_dop = 1;
  } else if (name == "burst-share") {
    // Overlapping bursts of duplicate work: runtime sharing windows, whose
    // producers run on their own threads. The only workload that runs the
    // executor's morsel pool. DOP 2 rather than 4: on a 4-core machine the
    // producers and a 4-thread pool oversubscribe the cores and same-seed
    // wall times spread by a third.
    c.workload = cv::ProductionDeploymentProfile(0.25);
    // Every recurring job arrives in its template's burst, so the median
    // job sits in a sharing window (only ad hoc jobs run alone), and the
    // bursts spread over ten 60 s windows, so the p99 is not the wall time
    // of the single largest window in the fleet.
    c.workload.burst_fraction = 1.0;
    c.workload.burst_window_seconds = 600.0;
    c.workload.instances_per_template_per_day = 4;
    c.workload.min_rows = c.workload.max_rows = 1400;
    c.num_days = 2;
    w.clusters = 24;
    Table1Selection(&c);
    // Every VC opts in from the first day: sharing needs no history, and
    // a two-day onboarding ramp would make the hit rate a matter of which
    // VC a seed gives the hot templates.
    c.onboarding_days_per_vc = 0;
    c.engine.enable_sharing = true;
    c.sharing_window_seconds = 60.0;
    c.engine.exec_dop = 2;
    // The simulator would otherwise scale stage latency by the parallel
    // efficiency each job measured, which makes the sim_* metrics vary.
    c.cluster.use_measured_parallel_time = false;
  } else {
    return false;
  }
  w.seed = seed;
  *out = std::move(w);
  return true;
}

// ---------------------------------------------------------------------------
// Helpers

cv::Hash128 OutputDigest(const cv::TablePtr& table) {
  cv::Hasher hasher;
  if (table == nullptr) return hasher.Update("<no output>").Finish();
  table->schema().HashInto(&hasher);
  hasher.Update(static_cast<uint64_t>(table->num_rows()));
  for (const cv::Row& row : table->rows()) {
    for (const cv::Value& value : row) value.HashInto(&hasher);
  }
  return hasher.Finish();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// Counter and histogram readings from the process-wide registry; the
// per-repetition figures are deltas between two snapshots.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  uint64_t queue_wait_count = 0;
  double queue_wait_sum_us = 0.0;

  static RegistrySnapshot Take() {
    static const char* const kCounters[] = {
        names::kExecMorsels,
        names::kExecBytesSpooled,
        names::kViewsInvalidations,
    };
    cv::obs::MetricsRegistry& registry = cv::obs::MetricsRegistry::Global();
    RegistrySnapshot s;
    for (const char* name : kCounters) {
      s.counters[name] = registry.counter(name).Value();
    }
    cv::obs::Histogram::Snapshot wait =
        registry
            .histogram(names::kThreadpoolQueueWaitUs,
                       cv::obs::LatencyBucketsUs())
            .GetSnapshot();
    s.queue_wait_count = wait.count;
    s.queue_wait_sum_us = wait.sum;
    return s;
  }

  double Delta(const RegistrySnapshot& before, const char* name) const {
    return static_cast<double>(counters.at(name) - before.counters.at(name));
  }
};

// ---------------------------------------------------------------------------
// One repetition

// Output digests of the reuse-off run (table1: its baseline arm), by job id.
// Every reuse-on job must reproduce its reuse-off output byte for byte.
using References = std::unordered_map<int64_t, cv::Hash128>;

// Everything one repetition (all of its arms) measured.
struct RepResult {
  int64_t attempted = 0;
  int64_t failed = 0;       // failed jobs plus digest mismatches
  int64_t mismatches = 0;
  // Every pass makes the same calls in the same order, so these line up
  // position by position across passes.
  std::vector<double> loop_s;   // each timed call of the day loops
  std::vector<double> setup_s;  // set-up of each arm of each cluster
  std::vector<double> job_ms;   // each job, in submission order
  // CloudViews arm.
  int64_t cv_jobs = 0;
  int64_t view_hits = 0;
  double sim_cpu_s = 0.0;
  double sim_latency_s = 0.0;
  // Traced repetitions only.
  std::map<std::string, double> layer;
};

enum class ArmKind {
  kReference,  // untimed reuse-off run that only fills the digest map
  kBaseline,   // timed reuse-off arm; also the digest reference (table1)
  kCloudViews  // timed reuse-on arm, checked against the reference
};

class ArmRunner {
 public:
  ArmRunner(const cv::ExperimentConfig& config, ArmKind kind,
            References* references, SpanLog* log, int parent_span,
            RepResult* rep)
      : config_(config),
        kind_(kind),
        references_(references),
        log_(log),
        parent_(parent_span),
        rep_(rep) {}

  cv::Status Run();

 private:
  // Times `fn`; records a span when tracing. Returns the duration in ns.
  template <typename Fn>
  int64_t Timed(const char* name, const char* layer, Fn&& fn,
                int* span_index = nullptr) {
    int64_t start = NowNs();
    fn();
    int64_t end = NowNs();
    if (log_ != nullptr) {
      int index = log_->Add(name, layer, start, end, parent_);
      if (span_index != nullptr) *span_index = index;
    }
    return end - start;
  }

  // Times a call of the day loop.
  template <typename Fn>
  int64_t LoopCall(const char* name, const char* layer, Fn&& fn,
                   int* span_index = nullptr) {
    int64_t ns = Timed(name, layer, std::forward<Fn>(fn), span_index);
    loop_s_.push_back(Seconds(ns));
    return ns;
  }

  // Digest-checks the jobs the simulator just ran and, when tracing, lays
  // their engine phases out as child spans of `span`.
  void CheckOutputs(int span);

  const cv::ExperimentConfig& config_;
  ArmKind kind_;
  References* references_;
  SpanLog* log_;
  int parent_;
  RepResult* rep_;
  std::vector<double> loop_s_;
};

cv::Status ArmRunner::Run() {
  const cv::ExperimentConfig& config = config_;
  const bool cloudviews = kind_ == ArmKind::kCloudViews;
  const bool measured = kind_ != ArmKind::kReference;
  OutputTap::Get().jobs().clear();

  cv::ReuseEngineOptions engine_options = config.engine;
  engine_options.cluster_name = config.workload.cluster_name;
  if (kind_ == ArmKind::kReference) {
    // Reuse-off and unshared. Outputs do not depend on the DOP, so the
    // reference keeps the workload's.
    engine_options.enable_sharing = false;
  }

  // --- Set-up: generator Setup + engine and simulator construction --------
  cv::DatasetCatalog catalog;
  cv::WorkloadGenerator generator(config.workload);
  std::unique_ptr<cv::ReuseEngine> engine;
  std::unique_ptr<cv::ClusterSimulator> simulator;
  cv::Status status;
  int64_t setup_ns =
      Timed("workload.setup", "workload",
            [&] { status = generator.Setup(&catalog); });
  CLOUDVIEWS_RETURN_NOT_OK(status);
  setup_ns += Timed("core.engine_init", "core", [&] {
    engine = std::make_unique<cv::ReuseEngine>(&catalog, engine_options);
  });
  setup_ns += Timed("cluster.init", "cluster", [&] {
    simulator =
        std::make_unique<cv::ClusterSimulator>(engine.get(), config.cluster);
  });
  if (measured) rep_->setup_s.push_back(Seconds(setup_ns));

  // --- Day loop ------------------------------------------------------------
  const bool sharing = cloudviews && engine_options.enable_sharing;
  double selection_ms_max = 0.0;
  int64_t candidates = 0;
  size_t live_views_peak = 0;
  size_t bytes_peak = 0;
  std::vector<double> job_ms;
  for (int day = 0; day < config.num_days; ++day) {
    if (day > 0) {
      std::vector<std::string> updated;
      LoopCall("workload.advance_day", "workload", [&] {
        status = generator.AdvanceDay(&catalog, day, &updated);
      });
      CLOUDVIEWS_RETURN_NOT_OK(status);
      LoopCall("core.on_dataset_updated", "core", [&] {
        for (const std::string& name : updated) {
          engine->OnDatasetUpdated(name);
        }
      });
    }
    LoopCall("core.maintenance", "core", [&] {
      engine->Maintenance(day * cv::kSecondsPerDay);
    });
    if (cloudviews) {
      int enabled_vcs =
          config.onboarding_days_per_vc <= 0
              ? config.workload.num_virtual_clusters
              : std::min(config.workload.num_virtual_clusters,
                         1 + day / config.onboarding_days_per_vc);
      for (int vc = 0; vc < enabled_vcs; ++vc) {
        engine->insights().controls().enabled_vcs.insert(
            "vc" + std::to_string(vc));
      }
      int64_t ns = LoopCall("view_selection.run", "view_selection", [&] {
        candidates += engine->RunViewSelection(day * cv::kSecondsPerDay)
                          .candidates_considered;
      });
      selection_ms_max = std::max(selection_ms_max, Seconds(ns) * 1e3);
    }

    std::vector<cv::GeneratedJob> jobs;
    LoopCall("workload.jobs_for_day", "workload",
             [&] { jobs = generator.JobsForDay(catalog, day); });

    if (!sharing) {
      for (const cv::GeneratedJob& job : jobs) {
        int span = -1;
        bool ok = true;
        int64_t ns = LoopCall(
            "cluster.submit_job", "cluster",
            [&] { ok = simulator->SubmitJob(job).ok(); }, &span);
        job_ms.push_back(Seconds(ns) * 1e3);
        if (!ok) rep_->failed += 1;
        CheckOutputs(span);
      }
    } else {
      // Jobs submitted within sharing_window_seconds of a window's first
      // job share that window (ProductionExperiment's grouping). Each job's
      // output exists only once the window ends, so each is charged the
      // window's wall time.
      for (size_t i = 0; i < jobs.size();) {
        size_t j = i + 1;
        while (j < jobs.size() &&
               jobs[j].submit_time - jobs[i].submit_time <=
                   config.sharing_window_seconds) {
          ++j;
        }
        std::vector<cv::GeneratedJob> window(jobs.begin() + i,
                                             jobs.begin() + j);
        int span = -1;
        int64_t failed = 0;
        int64_t ns = LoopCall(
            "cluster.submit_window", "cluster",
            [&] {
              auto telemetry = simulator->SubmitSharedWindow(window);
              if (!telemetry.ok()) {
                failed = static_cast<int64_t>(window.size());
                return;
              }
              for (const cv::JobTelemetry& t : *telemetry) {
                if (t.failed) failed += 1;
              }
            },
            &span);
        job_ms.insert(job_ms.end(), window.size(), Seconds(ns) * 1e3);
        rep_->failed += failed;
        CheckOutputs(span);
        i = j;
      }
    }
    if (cloudviews && log_ != nullptr) {
      live_views_peak =
          std::max(live_views_peak, engine->view_store().NumLive());
      bytes_peak = std::max(bytes_peak, engine->view_store().TotalBytes());
    }
  }

  if (!measured) return cv::Status::OK();
  int64_t jobs_run = static_cast<int64_t>(job_ms.size());
  rep_->attempted += jobs_run;
  rep_->loop_s.insert(rep_->loop_s.end(), loop_s_.begin(), loop_s_.end());
  rep_->job_ms.insert(rep_->job_ms.end(), job_ms.begin(), job_ms.end());
  if (!cloudviews) return cv::Status::OK();

  cv::DailyTelemetry totals = simulator->telemetry().Totals();
  rep_->cv_jobs += jobs_run;
  rep_->view_hits += engine->hits_exact() + engine->hits_subsumed();
  rep_->sim_cpu_s += totals.processing_seconds;
  rep_->sim_latency_s += totals.latency_seconds;
  if (log_ != nullptr) {
    const cv::ViewStore& store = engine->view_store();
    const cv::sharing::SharingStats& sharing_stats = engine->sharing_stats();
    // Fleet totals: counts add up across clusters, peaks take the largest
    // single engine (clusters run one after the other). Ratios are formed
    // from the summed numerators and denominators in DeriveLayerMetrics.
    std::map<std::string, double>& m = rep_->layer;
    auto add = [&m](const char* name, double value) { m[name] += value; };
    auto peak = [&m](const char* name, double value) {
      m[name] = std::max(m[name], value);
    };
    peak("view_selection.ms_per_call_max", selection_ms_max);
    add("view_selection.candidates_considered",
        static_cast<double>(candidates));
    add("core.repository_groups",
        static_cast<double>(engine->repository().num_groups()));
    add("storage.views_created",
        static_cast<double>(store.total_views_created()));
    add("storage.views_reused",
        static_cast<double>(store.total_views_reused()));
    peak("storage.live_views_peak", static_cast<double>(live_views_peak));
    peak("storage.bytes_peak", static_cast<double>(bytes_peak));
    add("sharing.windows", static_cast<double>(sharing_stats.windows));
    add("sharing.streams", static_cast<double>(sharing_stats.streams));
    add("sharing.hits", static_cast<double>(sharing_stats.hits));
    add("sharing.fanout", static_cast<double>(sharing_stats.fanout));
    add("sharing.detaches", static_cast<double>(sharing_stats.detaches));
    add("sharing.producer_aborts",
        static_cast<double>(sharing_stats.producer_aborts));
  }
  return cv::Status::OK();
}

void ArmRunner::CheckOutputs(int span) {
  std::vector<TappedJob>& tapped = OutputTap::Get().jobs();
  int64_t cursor =
      span >= 0 ? log_->spans()[static_cast<size_t>(span)].start_ns : 0;
  for (const TappedJob& job : tapped) {
    cv::Hash128 digest = OutputDigest(job.output);
    bool matches = true;
    if (kind_ != ArmKind::kCloudViews) {
      // Filled on first sight; a later repetition must reproduce it.
      auto [it, inserted] = references_->emplace(job.job_id, digest);
      matches = inserted || it->second == digest;
    } else {
      auto it = references_->find(job.job_id);
      matches = it != references_->end() && it->second == digest;
    }
    if (!matches) {
      rep_->mismatches += 1;
      rep_->failed += 1;
      std::fprintf(stderr, "output digest mismatch: job %lld\n",
                   static_cast<long long>(job.job_id));
    }
    if (span < 0) continue;
    // Phases run back to back on this thread, in this order.
    for (const cv::obs::QueryPhase& phase : job.profile.phases) {
      int64_t end = cursor + static_cast<int64_t>(phase.seconds * 1e9);
      const char* name = "core.engine_phase";
      const char* layer = "core";
      if (phase.name == "bind") {
        name = "core.bind";
      } else if (phase.name == "compile") {
        name = "optimizer.compile";
        layer = "optimizer";
      } else if (phase.name == "execute") {
        name = "exec.execute";
        layer = "exec";
      } else if (phase.name == "ingest") {
        name = "core.ingest";
      }
      log_->Add(name, layer, cursor, end, span, job.job_id);
      cursor = end;
    }
    rep_->layer["exec.rows_read"] +=
        static_cast<double>(job.profile.input_rows + job.profile.view_rows);
  }
  tapped.clear();
}

// One pass over the fleet: every timed arm of every cluster, each with a
// fresh stack.
// `first_cluster_spans` receives the number of spans recorded by the end of
// the first cluster (the part written out as a Chrome trace).
cv::Status RunRep(const Workload& workload,
                  std::vector<References>* references, SpanLog* log,
                  RepResult* rep, size_t* first_cluster_spans) {
  int root = log != nullptr ? log->Open("perfbench.rep", "perfbench") : -1;
  for (int i = 0; i < workload.clusters; ++i) {
    if (log != nullptr && i == 1) *first_cluster_spans = log->spans().size();
    cv::ExperimentConfig config = ClusterConfig(workload, i);
    References* refs = &(*references)[static_cast<size_t>(i)];
    if (workload.timed_baseline_arm) {
      CLOUDVIEWS_RETURN_NOT_OK(
          ArmRunner(config, ArmKind::kBaseline, refs, log, root, rep).Run());
    }
    CLOUDVIEWS_RETURN_NOT_OK(
        ArmRunner(config, ArmKind::kCloudViews, refs, log, root, rep).Run());
  }
  if (log != nullptr) log->Close(root);
  return cv::Status::OK();
}

// Per-layer metrics of one traced repetition.
void DeriveLayerMetrics(const SpanLog& log, const RegistrySnapshot& before,
                        const RegistrySnapshot& after, RepResult* rep) {
  std::map<std::string, double> by_name = log.TotalSecondsByName();
  std::map<std::string, double> self_by_name = log.SelfSecondsByName();
  std::map<std::string, double>& m = rep->layer;
  auto total = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second;
  };
  m["storage.reuse_per_view"] =
      Ratio(m["storage.views_reused"], m["storage.views_created"]);
  m["sharing.hit_ratio"] = Ratio(m["sharing.hits"], m["sharing.fanout"]);
  for (const char* helper :
       {"storage.views_reused", "sharing.hits", "sharing.fanout"}) {
    m.erase(helper);
  }
  m["exec.execute_s"] = total("exec.execute");
  m["exec.rows_per_s"] = Ratio(m["exec.rows_read"], m["exec.execute_s"]);
  m.erase("exec.rows_read");
  m["exec.morsels"] = after.Delta(before, names::kExecMorsels);
  m["exec.bytes_spooled"] = after.Delta(before, names::kExecBytesSpooled);
  m["threadpool.queue_wait_us"] =
      Ratio(after.queue_wait_sum_us - before.queue_wait_sum_us,
            static_cast<double>(after.queue_wait_count -
                                before.queue_wait_count));
  m["view_selection.s"] = total("view_selection.run");
  m["optimizer.compile_s"] = total("optimizer.compile");
  m["core.bind_s"] = total("core.bind");
  m["core.ingest_s"] = total("core.ingest");
  m["core.maintenance_s"] = total("core.maintenance");
  m["core.on_dataset_updated_s"] = total("core.on_dataset_updated");
  m["views.invalidations"] = after.Delta(before, names::kViewsInvalidations);
  m["cluster.self_s"] = self_by_name["cluster.submit_job"] +
                        self_by_name["cluster.submit_window"];
  m["workload.advance_day_s"] = total("workload.advance_day");
  m["workload.jobs_for_day_s"] = total("workload.jobs_for_day");
}

// Position-by-position medians of one per-pass series over several passes,
// which make the same calls in the same order. A slow spell of the machine
// that covers fewer than half of the passes leaves them unchanged. False if
// the passes do not line up.
bool PositionMedians(const std::vector<RepResult>& passes,
                     std::vector<double> RepResult::*series,
                     std::vector<double>* out) {
  const size_t n = (passes.front().*series).size();
  std::vector<double> column(passes.size());
  out->assign(n, 0.0);
  for (const RepResult& pass : passes) {
    if ((pass.*series).size() != n) return false;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < passes.size(); ++p) {
      column[p] = (passes[p].*series)[i];
    }
    (*out)[i] = Median(column);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"jobs_per_s", "1/s"},           {"job_ms_p50", "ms"},
    {"job_ms_p99", "ms"},            {"setup_s", "s"},
    {"peak_rss_mb", "MB"},           {"view_hits_per_job", "hits/job"},
    {"sim_cpu_s_per_job", "s"},      {"sim_latency_s_per_job", "s"},
};

const Metric kPerLayer[] = {
    {"exec.execute_s", "s"},
    {"exec.rows_per_s", "rows/s"},
    {"exec.morsels", "count"},
    {"exec.bytes_spooled", "bytes"},
    {"threadpool.queue_wait_us", "us"},
    {"view_selection.s", "s"},
    {"view_selection.ms_per_call_max", "ms"},
    {"view_selection.candidates_considered", "count"},
    {"optimizer.compile_s", "s"},
    {"core.bind_s", "s"},
    {"core.ingest_s", "s"},
    {"core.repository_groups", "count"},
    {"core.maintenance_s", "s"},
    {"core.on_dataset_updated_s", "s"},
    {"storage.views_created", "count"},
    {"storage.reuse_per_view", "ratio"},
    {"storage.live_views_peak", "count"},
    {"storage.bytes_peak", "bytes"},
    {"views.invalidations", "count"},
    {"sharing.windows", "count"},
    {"sharing.streams", "count"},
    {"sharing.hit_ratio", "ratio"},
    {"sharing.detaches", "count"},
    {"sharing.producer_aborts", "count"},
    {"cluster.self_s", "s"},
    {"workload.advance_day_s", "s"},
    {"workload.jobs_for_day_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_pct", "%"},
};

const char* const kLayers[] = {"workload", "core",    "view_selection",
                               "optimizer", "exec",   "cluster",
                               "perfbench"};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

#ifdef CLOUDVIEWS_VERIFY_RUNTIME
constexpr bool kVerifyCompiled = true;
#else
constexpr bool kVerifyCompiled = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int days = 0;      // 0 = the workload's fixed length
  int clusters = 0;  // 0 = the workload's fixed fleet size
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--days") {
      args->days = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--clusters") {
      args->clusters = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->days >= 0 && args->clusters >= 0;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cloudviews_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--days D] [--clusters C] "
                 "[--out DIR]\n");
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.days > 0) workload.config.num_days = args.days;
  if (args.clusters > 0) workload.clusters = args.clusters;

  // Timed repetitions run with the engine's tracer off. Traced ones turn it
  // on when the workload runs the morsel pool, since the pool only times
  // queue waits under it; elsewhere it would only record spans nothing reads.
  cv::obs::Tracer::Global().Disable();
  const bool pool_runs = workload.config.engine.exec_dop > 1;

  std::printf(
      "perfbench: workload=%s seed=%llu clusters=%d days=%d seconds=%g "
      "trace=%d\n",
      workload.name.c_str(), static_cast<unsigned long long>(args.seed),
      workload.clusters, workload.config.num_days, args.seconds,
      args.trace ? 1 : 0);
  std::printf(
      "fingerprint: nproc=%u cpu=\"%s\" build_type=%s verify_compiled=%s\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      PERFBENCH_BUILD_TYPE, kVerifyCompiled ? "yes" : "no");

  std::vector<References> references(
      static_cast<size_t>(workload.clusters));
  RepResult totals;  // attempted / failed / mismatches across repetitions
  for (int i = 0; i < workload.clusters && !workload.timed_baseline_arm;
       ++i) {
    RepResult scratch;
    cv::Status status =
        ArmRunner(ClusterConfig(workload, i), ArmKind::kReference,
                  &references[static_cast<size_t>(i)], nullptr, -1, &scratch)
            .Run();
    if (!status.ok() || scratch.failed > 0) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  double peak_rss_mb = 0.0;
  SpanLog log;
  size_t chrome_spans = 0;
  const int64_t run_start = NowNs();
  for (int rep = 0;; ++rep) {
    const bool traced_rep = args.trace && rep % 2 == 1;
    OutputTap::Get().set_keep_profiles(traced_rep);
    if (traced_rep) {
      log.Clear();
      chrome_spans = std::numeric_limits<size_t>::max();
      if (pool_runs) {
        cv::obs::Tracer::Global().Clear();
        cv::obs::Tracer::Global().Enable();
      }
    }
    RegistrySnapshot before = RegistrySnapshot::Take();
    RepResult result;
    int64_t start = NowNs();
    cv::Status status =
        RunRep(workload, &references, traced_rep ? &log : nullptr, &result,
               &chrome_spans);
    double wall = Seconds(NowNs() - start);
    if (traced_rep) cv::obs::Tracer::Global().Disable();
    if (!status.ok()) {
      std::fprintf(stderr, "repetition %d failed: %s\n", rep,
                   status.ToString().c_str());
      return 1;
    }
    totals.attempted += result.attempted;
    totals.failed += result.failed;
    totals.mismatches += result.mismatches;
    if (traced_rep) {
      DeriveLayerMetrics(log, before, RegistrySnapshot::Take(), &result);
      traced_wall.push_back(wall);
      traced.push_back(std::move(result));
    } else {
      untraced_wall.push_back(wall);
      untraced.push_back(std::move(result));
      // Later passes repeat the same work; the benchmark's own per-pass
      // records would only add to the figure.
      if (untraced.size() == 1) peak_rss_mb = PeakRssMb();
    }
    const bool enough = args.trace ? !traced.empty() : !untraced.empty();
    if (enough && Seconds(NowNs() - run_start) >= args.seconds) break;
  }
  cv::obs::Tracer::Global().Clear();

  std::vector<std::pair<std::string, double>> metrics;
  if (!args.trace) {
    // Each timed call's median over the passes.
    std::vector<double> loop_s, setup_s, job_ms;
    if (!PositionMedians(untraced, &RepResult::loop_s, &loop_s) ||
        !PositionMedians(untraced, &RepResult::setup_s, &setup_s) ||
        !PositionMedians(untraced, &RepResult::job_ms, &job_ms)) {
      std::fprintf(stderr, "passes made different calls\n");
      return 1;
    }
    const RepResult& last = untraced.back();
    metrics = {
        {"jobs_per_s",
         Ratio(static_cast<double>(last.attempted), Sum(loop_s))},
        {"job_ms_p50", Percentile(job_ms, 50.0)},
        {"job_ms_p99", Percentile(job_ms, 99.0)},
        {"setup_s", Sum(setup_s)},
        {"peak_rss_mb", peak_rss_mb},
        {"view_hits_per_job", Ratio(static_cast<double>(last.view_hits),
                                    static_cast<double>(last.cv_jobs))},
        {"sim_cpu_s_per_job",
         Ratio(last.sim_cpu_s, static_cast<double>(last.cv_jobs))},
        {"sim_latency_s_per_job",
         Ratio(last.sim_latency_s, static_cast<double>(last.cv_jobs))},
    };
    std::printf("repetitions: %zu, job samples per repetition: %zu\n",
                untraced.size(), last.job_ms.size());
  } else {
    for (const Metric& metric : kPerLayer) {
      std::vector<double> values;
      for (const RepResult& r : traced) {
        auto it = r.layer.find(metric.name);
        values.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      metrics.emplace_back(metric.name, Median(values));
    }
    double untraced_s = Median(untraced_wall);
    double traced_s = Median(traced_wall);
    for (auto& [name, value] : metrics) {
      if (name == "trace.untraced_wall_s") value = untraced_s;
      if (name == "trace.traced_wall_s") value = traced_s;
      if (name == "trace.overhead_pct") {
        value = 100.0 * (Ratio(traced_s, untraced_s) - 1.0);
      }
    }
    // Exclusive time per layer of the last traced repetition.
    std::map<std::string, double> self = log.SelfSecondsByLayer();
    double sum = 0.0;
    for (const auto& [layer, seconds] : self) sum += seconds;
    std::printf("repetitions: %zu untraced, %zu traced\n",
                untraced.size(), traced.size());
    std::printf("\nexclusive time, last traced repetition:\n");
    std::printf("  %-12s %-15s %12s %8s\n", "workload", "layer", "self_s",
                "share");
    for (const char* layer : kLayers) {
      double seconds = self.count(layer) > 0 ? self[layer] : 0.0;
      std::printf("  %-12s %-15s %12.6f %7.2f%%\n", workload.name.c_str(),
                  layer, seconds, 100.0 * Ratio(seconds, sum));
    }
    std::printf("\n");
  }

  const Metric* table = args.trace ? kPerLayer : kEndToEnd;
  size_t table_size = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  auto unit_of = [&](const std::string& name) {
    for (size_t i = 0; i < table_size; ++i) {
      if (name == table[i].name) return table[i].unit;
    }
    return "";
  };
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-38s %s %s\n", name.c_str(),
                FormatNumber(value).c_str(), unit_of(name));
  }
  size_t reuse_off_jobs = 0;
  for (const References& refs : references) {
    reuse_off_jobs += refs.size();
  }
  double failed_ratio = Ratio(static_cast<double>(totals.failed),
                              static_cast<double>(totals.attempted));
  std::printf("metric %-38s %s ratio\n", "failed_job_ratio",
              FormatNumber(failed_ratio).c_str());
  std::printf("output digests: %lld mismatches (%zu reuse-off reference jobs)\n",
              static_cast<long long>(totals.mismatches), reuse_off_jobs);

  const bool correct = totals.failed == 0 && totals.attempted > 0;
  cv::obs::JsonWriter result;
  result.BeginObject()
      .Field("correct", correct)
      .Field("attempted", totals.attempted)
      .Field("failed", totals.failed);
  result.Key("metrics").BeginObject();
  for (const auto& [name, value] : metrics) {
    result.Key(name).BeginObject();
    result.Key("value").RawValue(FormatNumber(value));
    result.Field("unit", unit_of(name)).EndObject();
  }
  result.EndObject().EndObject();

  if (!args.out_dir.empty()) {
    std::string stem = args.out_dir + "/" + workload.name + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       (args.trace ? "1" : "0");
    cv::obs::JsonWriter record;
    record.BeginObject()
        .Field("workload", workload.name)
        .Field("seed", static_cast<uint64_t>(args.seed))
        .Field("clusters", workload.clusters)
        .Field("days", workload.config.num_days);
    record.Key("fingerprint")
        .BeginObject()
        .Field("nproc",
               static_cast<uint64_t>(std::thread::hardware_concurrency()))
        .Field("cpu", CpuModel())
        .Field("build_type", PERFBENCH_BUILD_TYPE)
        .Field("verify_compiled", kVerifyCompiled)
        .EndObject();
    if (!args.trace) {
      record.Field("job_samples_per_repetition",
                   static_cast<uint64_t>(untraced.back().job_ms.size()));
    }
    record.Field("failed_job_ratio", failed_ratio);
    record.Key("result").RawValue(result.str());
    record.EndObject();
    bool written = WriteFile(stem + ".json", record.str());
    if (args.trace) {
      written = written && WriteFile(stem + ".trace.json",
                                     log.ToChromeTraceJson(chrome_spans));
    }
    if (!written) {
      std::fprintf(stderr, "cannot write results under %s\n",
                   args.out_dir.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
