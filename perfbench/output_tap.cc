#include "output_tap.h"

#include <utility>

#include "core/reuse_engine.h"

namespace perfbench {

OutputTap& OutputTap::Get() {
  static OutputTap tap;
  return tap;
}

void OutputTap::Record(int64_t job_id, cloudviews::TablePtr output,
                       const cloudviews::obs::QueryProfile& profile) {
  TappedJob job;
  job.job_id = job_id;
  job.output = std::move(output);
  if (keep_profiles_) job.profile = profile;
  jobs_.push_back(std::move(job));
}

}  // namespace perfbench

namespace cloudviews {

// The asm labels below are the mangled names of ReuseEngine::RunJob and
// ReuseEngine::RunSharedWindow with the linker's __real_/__wrap_ prefixes.
// Under the Itanium C++ ABI on x86-64 and AArch64, a member function is
// called exactly like a free function whose first parameter is the object
// pointer (a by-value class return goes through the same hidden result
// pointer in both cases), so these free functions stand in for the members.
// If either signature changes, the link fails instead of misbehaving.
Result<JobExecution> RealRunJob(ReuseEngine* engine, const JobRequest& request)
    __asm__("__real__ZN10cloudviews11ReuseEngine6RunJobERKNS_10JobRequestE");
Result<std::vector<JobExecution>> RealRunSharedWindow(
    ReuseEngine* engine, const std::vector<JobRequest>& requests)
    __asm__(
        "__real__ZN10cloudviews11ReuseEngine15RunSharedWindowERKSt6vectorINS_"
        "10JobRequestESaIS2_EE");

Result<JobExecution> TappedRunJob(ReuseEngine* engine,
                                  const JobRequest& request)
    __asm__("__wrap__ZN10cloudviews11ReuseEngine6RunJobERKNS_10JobRequestE");
Result<std::vector<JobExecution>> TappedRunSharedWindow(
    ReuseEngine* engine, const std::vector<JobRequest>& requests)
    __asm__(
        "__wrap__ZN10cloudviews11ReuseEngine15RunSharedWindowERKSt6vectorINS_"
        "10JobRequestESaIS2_EE");

Result<JobExecution> TappedRunJob(ReuseEngine* engine,
                                  const JobRequest& request) {
  Result<JobExecution> result = RealRunJob(engine, request);
  if (result.ok()) {
    perfbench::OutputTap::Get().Record(result->job_id, result->output,
                                       result->profile);
  }
  return result;
}

Result<std::vector<JobExecution>> TappedRunSharedWindow(
    ReuseEngine* engine, const std::vector<JobRequest>& requests) {
  Result<std::vector<JobExecution>> result =
      RealRunSharedWindow(engine, requests);
  if (result.ok()) {
    for (const JobExecution& exec : *result) {
      perfbench::OutputTap::Get().Record(exec.job_id, exec.output,
                                         exec.profile);
    }
  }
  return result;
}

}  // namespace cloudviews
