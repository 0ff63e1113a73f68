/**
 * @file
 * Jobs: one Engine call kind on one fixed sparse structure, with its
 * inputs, a small set of value sets, output buffers and the two
 * correctness checks every response gets — bitwise against the
 * interpreter backend's output for the same (structure, value set),
 * and against an outside reference (a bitwise hand-written yardstick
 * where the addition order is replicated, a double-precision
 * reference within tolerance otherwise).
 */

#ifndef PERFBENCH_JOBS_H_
#define PERFBENCH_JOBS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dfg/op_graph.h"
#include "engine/engine.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/hyb.h"
#include "format/relational.h"
#include "format/srbcrs.h"
#include "runtime/ndarray.h"

namespace perfbench {

using sparsetir::runtime::NDArray;

/** What one Engine call reported. */
struct Sample
{
    bool hit = false;
    double resolveMs = 0.0;
    double bindMs = 0.0;
    double kernelMs = 0.0;
    /** Logical requests served (a batch of N counts N). */
    int logical = 1;
};

/** hyb(c=4) with the per-structure bucket cap: the serving config. */
sparsetir::engine::HybConfig hybConfig();

/** A CSR graph with per-request value sets and dense operands. */
struct CsrData
{
    /** One matrix per value set; all share one structure. */
    std::vector<sparsetir::format::Csr> mats;
    int64_t feat = 16;
    /** SpMM operand (cols x feat) and SDDMM operands X (rows x feat),
     *  Y (feat x cols). */
    std::vector<float> b, x, y;
    NDArray bArr, xArr, yArr;
    /** Batched-hyb operands: one B per in-flight request. */
    std::vector<std::vector<float>> batchB;
    std::vector<NDArray> batchArr;
    /** The engine's hyb decomposition (yardstick and byte model). */
    sparsetir::format::Hyb hyb;
};

struct BsrData
{
    /** Source weights (value set 0) and the converted matrices. */
    sparsetir::format::Csr src;
    std::vector<sparsetir::format::Bsr> mats;
    int64_t feat = 32;
    std::vector<float> b;
    NDArray bArr;
};

struct SrbcrsData
{
    std::vector<sparsetir::format::Csr> src;
    std::vector<sparsetir::format::SrBcrs> mats;
    int32_t tileHeight = 8;
    int32_t groupSize = 32;
    int64_t feat = 32;
    std::vector<float> b;
    NDArray bArr;
};

struct RgcnData
{
    std::vector<sparsetir::format::RelationalCsr> mats;
    int64_t feat = 8;
    std::vector<float> x, w;
    NDArray xArr, wArr;
};

/** One dfg pipeline (attention or GraphSAGE layer) over a pattern. */
struct GraphData
{
    sparsetir::format::Csr pattern;
    sparsetir::dfg::OpGraph graph;
    int64_t featIn = 16;
    int64_t featOut = 16;
    /** Named dense inputs ("q"/"kt"/"v" or "x"/"w"). */
    std::vector<std::pair<std::string, std::vector<float>>> inputs;
    std::vector<NDArray> inputArrs;
};

using Outs = std::vector<NDArray>;

struct Job
{
    /** Index into kOps. */
    int op = 0;
    uint64_t structureHash = 0;
    int numValueSets = 1;
    /**
     * Fill outputs with the poison NaN before a call (the op
     * overwrites every element). Cleared for accumulate-semantics
     * RGCN, whose outputs are zero-filled.
     */
    bool poison = true;
    /**
     * Count, rather than fail, output elements still holding the
     * poison where the reference is zero. Set for spmm_bsr and
     * spmm_srbcrs only: their dispatch leaves the rows of empty block
     * rows / stripes unwritten although engine.h documents that every
     * output element is overwritten. The count is reported as
     * check.unwritten_ratio so the defect stays visible.
     */
    bool countUnwritten = false;
    std::function<Outs()> makeOuts;
    std::function<Sample(sparsetir::engine::Engine &, int, Outs &)> run;
    /** Interpreter-backend outputs per value set (concatenated). */
    std::vector<std::vector<float>> oracle;
    /** Outside reference per value set. */
    std::vector<std::vector<float>> reference;
    /** The reference is a bitwise yardstick (else: tolerance). */
    bool referenceExact = false;
    /** The hand-written kernel on value set 0; empty if none. */
    std::function<void()> yardstick;
    /** Compulsory bytes the kernel moves (yardstick ops only). */
    double bytesMoved = 0.0;
    Outs outs;

    /** Typed inputs; exactly one is set. */
    std::shared_ptr<CsrData> csr;
    std::shared_ptr<BsrData> bsr;
    std::shared_ptr<SrbcrsData> srbcrs;
    std::shared_ptr<RgcnData> rgcn;
    std::shared_ptr<GraphData> graph;
};

/** Fill `outs` for a call: the poison NaN when job.poison, else zero. */
void prepareOuts(const Job &job, Outs *outs);

/** Concatenate output arrays into one float vector. */
std::vector<float> flatten(const Outs &outs);

/** The NaN prepareOuts() fills poisoned outputs with. */
float poisonValue();

/** Whether `v` holds exactly poisonValue()'s bits. */
bool isPoison(float v);

/**
 * Check one response: bitwise against the oracle (when computed)
 * and against the reference. Returns false on any mismatch. For
 * job.countUnwritten jobs, poisoned elements whose reference is zero
 * compare as zero and are counted in `*unwritten` (when given).
 */
bool checkOutputs(const Job &job, int value_set, const Outs &outs,
                  int64_t *unwritten = nullptr);

// Job factories. `op` names which call a CSR graph serves.
Job csrJob(int op, std::shared_ptr<CsrData> data);
Job bsrJob(std::shared_ptr<BsrData> data);
Job srbcrsJob(std::shared_ptr<SrbcrsData> data);
Job rgcnJob(std::shared_ptr<RgcnData> data);
Job attentionJob(std::shared_ptr<GraphData> data);
Job graphSageJob(std::shared_ptr<GraphData> data);

/**
 * Requests attempted, responses that threw or failed a check, and
 * responses that left output elements unwritten (job.countUnwritten).
 */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t unwritten = 0;
};

/**
 * Serve one Engine call: fill the outputs, time the call inside a
 * benchmark-side span named for its op, then check the response
 * outside the timed interval. Returns the call's wall time in ms;
 * `*sample` is left default-constructed when the call threw.
 */
double serve(sparsetir::engine::Engine &engine, const Job &job,
             int value_set, Outs *outs, Sample *sample, Tally *tally);

/**
 * Compute every job's interpreter-backend oracle, one interpreter
 * engine per worker thread over the (job, value set) pairs.
 */
void computeOracles(std::vector<Job *> jobs, int workers);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H_
