#ifndef CLOUDVIEWS_PERFBENCH_OUTPUT_TAP_H_
#define CLOUDVIEWS_PERFBENCH_OUTPUT_TAP_H_

#include <cstdint>
#include <vector>

#include "obs/profile.h"
#include "storage/table.h"

namespace perfbench {

// What the tap keeps of one job the cluster simulator ran through the
// engine: its output (for the digest check) and its phase profile.
struct TappedJob {
  int64_t job_id = 0;
  cloudviews::TablePtr output;
  cloudviews::obs::QueryProfile profile;
};

// ClusterSimulator::SubmitJob and SubmitSharedWindow return telemetry only;
// the job outputs they get from ReuseEngine::RunJob / RunSharedWindow are
// dropped inside the simulator. The benchmark build links its program with
// `-Wl,--wrap` on those two engine entry points (see CMakeLists.txt), so
// the simulator's calls pass through forwarding wrappers that keep a
// reference to each output and a copy of its profile here. The engine's own
// internal calls are not wrapped, and the simulator's behaviour is
// unchanged. Keeping the reference costs one shared_ptr copy per job; the
// benchmark hashes the output after the timed call returns. Because the tap
// holds the reference, an output is freed after the timed call rather than
// inside it, so the benchmark's job times leave out output deallocation.
//
// Single-threaded: the simulator calls the engine from the benchmark's
// one thread.
class OutputTap {
 public:
  static OutputTap& Get();

  // Profiles are copied only when requested (traced repetitions).
  void set_keep_profiles(bool keep) { keep_profiles_ = keep; }

  void Record(int64_t job_id, cloudviews::TablePtr output,
              const cloudviews::obs::QueryProfile& profile);

  // Hands over everything recorded since the last call.
  std::vector<TappedJob>& jobs() { return jobs_; }

 private:
  bool keep_profiles_ = false;
  std::vector<TappedJob> jobs_;
};

}  // namespace perfbench

#endif  // CLOUDVIEWS_PERFBENCH_OUTPUT_TAP_H_
