#include "jobs.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common.h"
#include "engine/fingerprint.h"
#include "observe/trace.h"
#include "yardstick.h"

namespace perfbench {

using sparsetir::engine::BatchDispatchInfo;
using sparsetir::engine::DispatchInfo;
using sparsetir::engine::Engine;
using sparsetir::ir::DataType;

namespace {

Sample
fromInfo(const DispatchInfo &info)
{
    Sample s;
    s.hit = info.cacheHit;
    s.resolveMs = info.compileMs;
    s.bindMs = info.bindMs;
    s.kernelMs = info.kernelMs;
    return s;
}

Sample
fromBatch(const BatchDispatchInfo &info)
{
    Sample s;
    s.hit = info.cacheHit;
    s.resolveMs = info.compileMs;
    s.bindMs = info.bindMs;
    s.kernelMs = info.kernelMs;
    s.logical = info.numRequests;
    return s;
}

std::function<Outs()>
outsOf(std::vector<int64_t> sizes)
{
    return [sizes] {
        Outs outs;
        for (int64_t n : sizes) {
            outs.emplace_back(std::vector<int64_t>{n}, DataType::float32());
        }
        return outs;
    };
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** A quiet NaN with a payload no kernel produces. */
constexpr uint32_t kPoisonBits = 0x7FC0DEADu;

} // namespace

float
poisonValue()
{
    float v;
    std::memcpy(&v, &kPoisonBits, sizeof(v));
    return v;
}

bool
isPoison(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits == kPoisonBits;
}

sparsetir::engine::HybConfig
hybConfig()
{
    sparsetir::engine::HybConfig config;
    config.partitions = 4;
    return config;
}

void
prepareOuts(const Job &job, Outs *outs)
{
    float fill = job.poison ? poisonValue() : 0.0f;
    for (NDArray &out : *outs) {
        float *data = static_cast<float *>(out.rawData());
        std::fill(data, data + out.numel(), fill);
    }
}

std::vector<float>
flatten(const Outs &outs)
{
    std::vector<float> flat;
    for (const NDArray &out : outs) {
        const float *data = static_cast<const float *>(out.rawData());
        flat.insert(flat.end(), data, data + out.numel());
    }
    return flat;
}

bool
checkOutputs(const Job &job, int value_set, const Outs &outs,
             int64_t *unwritten)
{
    std::vector<float> got = flatten(outs);
    if (!job.oracle.empty() && !sameBits(got, job.oracle[value_set])) {
        return false;
    }
    const std::vector<float> &want = job.reference[value_set];
    if (job.countUnwritten) {
        int64_t count = 0;
        for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
            if (isPoison(got[i]) && want[i] == 0.0f) {
                got[i] = want[i];
                ++count;
            }
        }
        if (unwritten != nullptr) {
            *unwritten = count;
        }
    }
    return job.referenceExact ? sameBits(got, want)
                              : withinTolerance(got, want);
}

Job
csrJob(int op, std::shared_ptr<CsrData> d)
{
    Job job;
    job.op = op;
    job.csr = d;
    job.numValueSets = static_cast<int>(d->mats.size());
    job.structureHash = sparsetir::engine::structureHash(d->mats[0]);
    job.referenceExact = true;
    const sparsetir::format::Csr &a = d->mats[0];
    const int64_t feat = d->feat;
    CsrData *p = d.get();
    std::string name = kOps[op];
    if (name == "spmm_csr") {
        job.makeOuts = outsOf({a.rows * feat});
        job.run = [p](Engine &e, int v, Outs &outs) {
            return fromInfo(
                e.spmmCsr(p->mats[v], p->feat, &p->bArr, &outs[0]));
        };
        for (const auto &m : d->mats) {
            std::vector<float> ref(a.rows * feat);
            handSpmmCsr(m, d->b.data(), feat, ref.data());
            job.reference.push_back(std::move(ref));
        }
        job.yardstick = [p] {
            std::vector<float> c(p->mats[0].rows * p->feat);
            handSpmmCsr(p->mats[0], p->b.data(), p->feat, c.data());
        };
        job.bytesMoved = bytesSpmmCsr(a, feat);
    } else if (name == "spmm_hyb") {
        job.makeOuts = outsOf({a.rows * feat});
        job.run = [p](Engine &e, int v, Outs &outs) {
            return fromInfo(e.spmmHyb(p->mats[v], p->feat, &p->bArr,
                                      &outs[0], hybConfig()));
        };
        for (const auto &m : d->mats) {
            std::vector<float> ref(a.rows * feat);
            handSpmmHyb(d->hyb, m.values, d->b.data(), feat, ref.data());
            job.reference.push_back(std::move(ref));
        }
        job.yardstick = [p] {
            std::vector<float> c(p->mats[0].rows * p->feat);
            handSpmmHyb(p->hyb, p->mats[0].values, p->b.data(), p->feat,
                        c.data());
        };
        job.bytesMoved = bytesSpmmHyb(d->hyb, feat);
    } else if (name == "sddmm") {
        job.makeOuts = outsOf({a.nnz()});
        job.run = [p](Engine &e, int v, Outs &outs) {
            return fromInfo(e.sddmm(p->mats[v], p->feat, &p->xArr,
                                    &p->yArr, &outs[0]));
        };
        for (const auto &m : d->mats) {
            std::vector<float> ref(a.nnz());
            handSddmm(m, d->x.data(), d->y.data(), feat, ref.data());
            job.reference.push_back(std::move(ref));
        }
        job.yardstick = [p] {
            std::vector<float> out(p->mats[0].nnz());
            handSddmm(p->mats[0], p->x.data(), p->y.data(), p->feat,
                      out.data());
        };
        job.bytesMoved = bytesSddmm(a, feat);
    } else {  // spmm_hyb_batch
        std::vector<int64_t> sizes(d->batchB.size(), a.rows * feat);
        job.makeOuts = outsOf(sizes);
        job.run = [p](Engine &e, int v, Outs &outs) {
            std::vector<sparsetir::engine::SpmmRequest> requests;
            for (size_t i = 0; i < outs.size(); ++i) {
                requests.push_back({&p->batchArr[i], &outs[i]});
            }
            return fromBatch(
                e.spmmHybBatch(p->mats[v], p->feat, requests, hybConfig()));
        };
        for (const auto &m : d->mats) {
            std::vector<float> ref;
            for (const std::vector<float> &b : d->batchB) {
                std::vector<float> one(a.rows * feat);
                handSpmmHyb(d->hyb, m.values, b.data(), feat, one.data());
                ref.insert(ref.end(), one.begin(), one.end());
            }
            job.reference.push_back(std::move(ref));
        }
    }
    return job;
}

Job
bsrJob(std::shared_ptr<BsrData> d)
{
    Job job;
    job.op = opIndex("spmm_bsr");
    job.bsr = d;
    job.countUnwritten = true;
    job.numValueSets = static_cast<int>(d->mats.size());
    job.structureHash = sparsetir::engine::structureHash(d->mats[0]);
    job.referenceExact = true;
    const sparsetir::format::Bsr &a = d->mats[0];
    BsrData *p = d.get();
    job.makeOuts = outsOf({a.blockRows * a.blockSize * d->feat});
    job.run = [p](Engine &e, int v, Outs &outs) {
        return fromInfo(e.spmmBsr(p->mats[v], p->feat, &p->bArr, &outs[0]));
    };
    for (const auto &m : d->mats) {
        std::vector<float> ref(a.blockRows * a.blockSize * d->feat);
        handSpmmBsr(m, d->b.data(), d->feat, ref.data());
        job.reference.push_back(std::move(ref));
    }
    job.yardstick = [p] {
        const sparsetir::format::Bsr &m = p->mats[0];
        std::vector<float> c(m.blockRows * m.blockSize * p->feat);
        handSpmmBsr(m, p->b.data(), p->feat, c.data());
    };
    job.bytesMoved = bytesSpmmBsr(a, d->feat);
    return job;
}

Job
srbcrsJob(std::shared_ptr<SrbcrsData> d)
{
    Job job;
    job.op = opIndex("spmm_srbcrs");
    job.srbcrs = d;
    job.countUnwritten = true;
    job.numValueSets = static_cast<int>(d->mats.size());
    job.structureHash = sparsetir::engine::structureHash(d->mats[0]);
    const int64_t out_rows = d->mats[0].stripes * d->tileHeight;
    SrbcrsData *p = d.get();
    job.makeOuts = outsOf({out_rows * d->feat});
    job.run = [p](Engine &e, int v, Outs &outs) {
        return fromInfo(
            e.spmmSrbcrs(p->mats[v], p->feat, &p->bArr, &outs[0]));
    };
    for (const auto &src : d->src) {
        job.reference.push_back(refSpmm(src, d->b, d->feat, out_rows));
    }
    return job;
}

Job
rgcnJob(std::shared_ptr<RgcnData> d)
{
    Job job;
    job.op = opIndex("rgcn");
    job.rgcn = d;
    job.poison = false;
    job.numValueSets = static_cast<int>(d->mats.size());
    job.structureHash = sparsetir::engine::structureHash(d->mats[0]);
    RgcnData *p = d.get();
    job.makeOuts = outsOf({d->mats[0].rows * d->feat});
    job.run = [p](Engine &e, int v, Outs &outs) {
        return fromInfo(
            e.rgcn(p->mats[v], p->feat, &p->xArr, &p->wArr, &outs[0]));
    };
    for (const auto &m : d->mats) {
        job.reference.push_back(refRgcn(m, d->x, d->w, d->feat));
    }
    return job;
}

namespace {

Job
graphJob(int op, std::shared_ptr<GraphData> d)
{
    Job job;
    job.op = op;
    job.graph = d;
    job.structureHash = sparsetir::engine::structureHash(d->pattern);
    GraphData *p = d.get();
    job.makeOuts = outsOf({d->pattern.rows * d->featOut});
    job.run = [p](Engine &e, int, Outs &outs) {
        std::map<std::string, NDArray *> io;
        for (size_t i = 0; i < p->inputs.size(); ++i) {
            io[p->inputs[i].first] = &p->inputArrs[i];
        }
        io["out"] = &outs[0];
        return fromInfo(e.dispatchGraph(p->graph, io));
    };
    return job;
}

} // namespace

Job
attentionJob(std::shared_ptr<GraphData> d)
{
    Job job = graphJob(opIndex("attention"), d);
    job.reference.push_back(refAttention(d->pattern, d->inputs[0].second,
                                         d->inputs[1].second,
                                         d->inputs[2].second, d->featIn));
    return job;
}

Job
graphSageJob(std::shared_ptr<GraphData> d)
{
    Job job = graphJob(opIndex("graphsage"), d);
    job.reference.push_back(refGraphSage(d->pattern, d->inputs[0].second,
                                         d->inputs[1].second, d->featIn,
                                         d->featOut));
    return job;
}

double
serve(Engine &engine, const Job &job, int value_set, Outs *outs,
      Sample *sample, Tally *tally)
{
    prepareOuts(job, outs);
    *sample = Sample();
    std::string error;
    double start = nowMs();
    try {
        sparsetir::observe::TraceScope span("bench",
                                            requestSpanName(job.op));
        *sample = job.run(engine, value_set, *outs);
    } catch (const std::exception &e) {
        error = e.what();
    }
    double ms = nowMs() - start;
    tally->attempted += 1;
    int64_t unwritten = 0;
    if (error.empty() && !checkOutputs(job, value_set, *outs, &unwritten)) {
        error = "output mismatch";
    }
    if (unwritten > 0) {
        tally->unwritten += 1;
        if (tally->unwritten == 1) {
            std::fprintf(stderr, "KNOWN DEFECT %s (structure %016llx): "
                                 "%lld output elements left unwritten\n",
                         kOps[job.op],
                         static_cast<unsigned long long>(job.structureHash),
                         static_cast<long long>(unwritten));
        }
    }
    if (!error.empty()) {
        tally->failed += 1;
        if (tally->failed <= 5) {
            std::fprintf(stderr, "FAILED %s (structure %016llx, value set "
                                 "%d): %s\n",
                         kOps[job.op],
                         static_cast<unsigned long long>(job.structureHash),
                         value_set, error.c_str());
        }
    }
    return ms;
}

void
computeOracles(std::vector<Job *> jobs, int workers)
{
    std::vector<std::pair<Job *, int>> pairs;
    for (Job *job : jobs) {
        job->oracle.assign(job->numValueSets, {});
        for (int v = 0; v < job->numValueSets; ++v) {
            pairs.emplace_back(job, v);
        }
    }
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto worker = [&] {
        try {
            sparsetir::engine::EngineOptions options;
            options.numThreads = 1;
            options.backend = sparsetir::runtime::Backend::kInterpreter;
            Engine interp(options);
            for (size_t i = next++; i < pairs.size(); i = next++) {
                Job *job = pairs[i].first;
                Outs outs = job->makeOuts();
                prepareOuts(*job, &outs);
                job->run(interp, pairs[i].second, outs);
                job->oracle[pairs[i].second] = flatten(outs);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            error = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
        threads.emplace_back(worker);
    }
    for (std::thread &t : threads) {
        t.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

} // namespace perfbench
