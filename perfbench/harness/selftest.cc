/**
 * @file
 * The benchmark's own checks, run by `perfbench --selftest`:
 *
 *  - one seed always generates identical inputs (structure hashes and
 *    request streams) and another seed different ones;
 *  - on every op the probes use, a correct response passes both
 *    checks, and a corrupted one is caught: one flipped low mantissa
 *    bit by the bitwise oracle check, a NaN by the reference check
 *    alone;
 *  - for spmm_bsr / spmm_srbcrs, whose unwritten zero elements are
 *    counted rather than failed, an unwritten element whose reference
 *    is non-zero still fails;
 *  - the hand-written yardsticks agree bitwise with the engine.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "common.h"
#include "jobs.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) {
        ++failures;
    }
}

std::vector<uint64_t>
fingerprint(Workload &w, int stream)
{
    std::vector<uint64_t> out;
    for (const Job &job : w.jobs) {
        out.push_back(job.structureHash);
    }
    for (int i = 0; i < stream; ++i) {
        Request r = w.next();
        out.push_back(static_cast<uint64_t>(r.job) * 1000 + r.valueSet);
    }
    return out;
}

void
flipLowBit(Outs *outs)
{
    float *data = static_cast<float *>((*outs)[0].rawData());
    uint32_t bits;
    std::memcpy(&bits, data, sizeof(bits));
    bits ^= 1u;
    std::memcpy(data, &bits, sizeof(bits));
}

} // namespace

int
selfTest()
{
    for (const char *name : kWorkloads) {
        Workload a = makeWorkload(name, 7);
        Workload b = makeWorkload(name, 7);
        Workload c = makeWorkload(name, 8);
        auto fa = fingerprint(a, 64);
        expect(fa == fingerprint(b, 64),
               std::string(name) + ": seed 7 twice gives identical "
                                   "structure hashes and stream");
        expect(fa != fingerprint(c, 64),
               std::string(name) + ": seeds 7 and 8 differ");
    }

    Workload model = makeWorkload("model-warm", 3);
    Workload spare;
    std::vector<Job *> jobs = probeJobs(model, 3, &spare);
    computeOracles(jobs, 4);
    sparsetir::engine::Engine eng{sparsetir::engine::EngineOptions{}};
    for (Job *job : jobs) {
        const std::string op = kOps[job->op];
        Outs outs = job->makeOuts();
        Sample s;
        Tally tally;
        serve(eng, *job, 0, &outs, &s, &tally);
        expect(tally.failed == 0 && checkOutputs(*job, 0, outs),
               op + ": engine output passes oracle and reference checks");
        if (job->referenceExact) {
            // Elements the engine left unwritten are counted separately.
            std::vector<float> got = flatten(outs);
            const std::vector<float> &want = job->reference[0];
            bool equal = got.size() == want.size();
            for (size_t i = 0; equal && i < got.size(); ++i) {
                equal = (job->countUnwritten && isPoison(got[i]) &&
                         want[i] == 0.0f) ||
                        std::memcmp(&got[i], &want[i], sizeof(float)) == 0;
            }
            expect(equal, op + ": hand-written yardstick is bitwise equal");
        }

        Outs flipped = outs;
        flipLowBit(&flipped);
        expect(!checkOutputs(*job, 0, flipped),
               op + ": one flipped mantissa bit is caught");

        Job no_oracle = *job;
        no_oracle.oracle.clear();
        Outs nan = outs;
        static_cast<float *>(nan[0].rawData())[nan[0].numel() / 2] =
            std::numeric_limits<float>::quiet_NaN();
        expect(!checkOutputs(no_oracle, 0, nan),
               op + ": a NaN is caught by the reference check alone");

        if (job->countUnwritten) {
            int64_t unwritten = 0;
            checkOutputs(*job, 0, outs, &unwritten);
            std::printf("note %s: %lld output elements left unwritten "
                        "(counted in check.unwritten_ratio)\n",
                        op.c_str(), static_cast<long long>(unwritten));
            const std::vector<float> &want = job->reference[0];
            size_t i = 0;
            while (i < want.size() && want[i] == 0.0f) {
                ++i;
            }
            bool caught = false;
            if (i < want.size()) {
                Outs one = outs;
                static_cast<float *>(one[0].rawData())[i] = poisonValue();
                caught = !checkOutputs(no_oracle, 0, one);
            }
            expect(caught, op + ": an unwritten element whose reference is "
                                "non-zero is caught");
        }
    }
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
