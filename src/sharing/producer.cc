#include "sharing/producer.h"

#include <utility>
#include <vector>

#include "exec/executor.h"
#include "fault/fault.h"
#include "fault/fault_sites.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace sharing {

namespace {

// The drain loop proper; the wrapper below maps its Status onto the stream's
// terminal transition.
Status ProduceBatches(const ExecContext& context, const LogicalOpPtr& plan,
                      SharedStream* stream, ProducerStats* stats) {
  ExecutionStats run;
  CLOUDVIEWS_RETURN_NOT_OK(RunBatchPlan(
      context, plan,
      [stream, stats](ColumnBatch batch) -> Status {
        // The producer is the window's single point of failure by design:
        // chaos runs kill it here and expect every subscriber to fall back.
        CLOUDVIEWS_RETURN_NOT_OK(
            fault::Inject(fault::sites::kSharingProducerAbort));
        CLOUDVIEWS_RETURN_NOT_OK(stream->Publish(std::move(batch)));
        stats->batches += 1;
        return Status::OK();
      },
      &run));
  stats->cpu_cost += run.total_cpu_cost;
  return Status::OK();
}

}  // namespace

Status RunProducer(const ExecContext& context, const LogicalOpPtr& plan,
                   SharedStream* stream, ProducerStats* stats) {
  Status status = ProduceBatches(context, plan, stream, stats);
  stats->rows = stream->rows_published();
  stats->bytes = stream->bytes_published();
  if (status.ok()) {
    stream->Complete();
    return status;
  }
  static obs::Counter& aborts = obs::MetricsRegistry::Global().counter(
      obs::metric_names::kSharingProducerAborts);
  aborts.Increment();
  stream->Abort(status);
  return status;
}

}  // namespace sharing
}  // namespace cloudviews
