/**
 * @file
 * The three seeded serving workloads. Each is a set of jobs plus a
 * deterministic request stream over them; the seed fixes every
 * structure (except sampled-cold's dataset graph and model-warm's
 * band mask, which are the same for every seed), value set, dense
 * operand and the stream order.
 *
 *  gnn-warm      one power-law graph at the reference shape (10k rows,
 *                120k nnz, feat 16) served as spmm_csr / spmm_hyb(c=4)
 *                / sddmm in round robin, values drawn per request from
 *                three fixed value sets: the cache always hits and the
 *                kernels dominate.
 *  sampled-cold  GraphSAGE-minibatch structure churn: 96 neighbour-
 *                sampled blocks (512 seed rows, fanout 25) of a fixed
 *                40k-row power-law dataset graph, drawn with Zipf(0.8)
 *                popularity and dispatched as spmm_hyb / spmm_csr /
 *                sddmm in equal shares: the default 64-entry cache hits
 *                about half the time and evicts, so the compile path
 *                dominates.
 *  model-warm    whole-model, warm, fixed structures: RGCN on a
 *                heterograph, fused attention (band mask) and GraphSAGE
 *                (sampled block) dfg pipelines, BSR and SR-BCRS
 *                pruned-weight SpMM and a 4-request batched hyb SpMM,
 *                one call each per cycle.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "jobs.h"

namespace perfbench {

struct Request
{
    int job = 0;
    int valueSet = 0;
};

struct Workload
{
    /** Stable addresses: jobs are referenced by pointer. */
    std::deque<Job> jobs;
    /**
     * Set-up requests after engine construction: the cold dispatch of
     * every fixed structure plus warm-up (for sampled-cold, a prefix
     * of the stream that brings the cache to its steady state).
     */
    std::vector<Request> setup;
    /** The timed request stream (stateful, deterministic). */
    std::function<Request()> next;
};

extern const char *const kWorkloads[3];

/** Build `name` from `seed`; throws std::invalid_argument if unknown. */
Workload makeWorkload(const std::string &name, uint64_t seed);

/**
 * The job the layer probes use for each op (indexed like kOps): the
 * workload's own first job of that op, else the model-warm job built
 * from the same seed (CSR-family ops there run on the batched-hyb
 * graph). `spare` owns the borrowed jobs.
 */
std::vector<Job *> probeJobs(Workload &workload, uint64_t seed,
                             Workload *spare);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
