/**
 * @file
 * Layer probes of the traced run: timed calls into each serving
 * layer's public functions on the workload's own inputs, each inside
 * a benchmark-side span, plus the per-op dispatch ledger the
 * per-layer metrics are read from.
 */

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>

#include "common.h"
#include "jobs.h"
#include "workloads.h"

namespace perfbench {

/** DispatchInfo fields of one op, split by cache outcome. */
struct OpLedger
{
    Dist resolveHit;
    Dist bindHit;
    Dist kernelHit;
    /** Resolve (compile) time of dispatches that missed. */
    Dist missResolve;

    void record(const Sample &s);
};

/**
 * Run every layer probe and add the per-layer metrics to `metrics`.
 * `ops` holds the traced phase's dispatch samples per op (indexed
 * like kOps); ops the workload does not serve are measured on the
 * probe jobs instead. Probe responses are checked like requests and
 * counted in `tally`.
 */
void runProbes(Workload &workload, uint64_t seed, OpLedger ops[kNumOps],
               Tally *tally, MetricMap *metrics);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H_
