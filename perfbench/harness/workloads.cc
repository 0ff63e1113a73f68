#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "dfg/op_graph.h"
#include "graph/attention_masks.h"
#include "graph/generator.h"
#include "graph/hetero.h"
#include "graph/pruned_weights.h"
#include "model/attention.h"
#include "model/graphsage.h"
#include "support/rng.h"

namespace perfbench {

using sparsetir::Rng;
using sparsetir::format::Csr;

const char *const kWorkloads[3] = {"gnn-warm", "sampled-cold",
                                   "model-warm"};

namespace {

/** Independent generator seeds for each input of one workload. */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

std::vector<float>
uniformVec(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(n);
    for (float &v : out) {
        v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
    }
    return out;
}

/** `count` copies of `m`, each with its own random values. */
std::vector<Csr>
valueSets(const Csr &m, int count, uint64_t seed)
{
    std::vector<Csr> sets;
    for (int v = 0; v < count; ++v) {
        Csr copy = m;
        copy.values = uniformVec(m.nnz(), subSeed(seed, v));
        sets.push_back(std::move(copy));
    }
    return sets;
}

std::shared_ptr<CsrData>
csrData(std::vector<Csr> mats, int64_t feat, int batch, uint64_t seed)
{
    auto d = std::make_shared<CsrData>();
    d->mats = std::move(mats);
    d->feat = feat;
    const Csr &a = d->mats[0];
    d->b = uniformVec(a.cols * feat, subSeed(seed, 1));
    d->x = uniformVec(a.rows * feat, subSeed(seed, 2));
    d->y = uniformVec(feat * a.cols, subSeed(seed, 3));
    d->bArr = NDArray::fromFloat(d->b);
    d->xArr = NDArray::fromFloat(d->x);
    d->yArr = NDArray::fromFloat(d->y);
    for (int i = 0; i < batch; ++i) {
        d->batchB.push_back(uniformVec(a.cols * feat, subSeed(seed, 10 + i)));
        d->batchArr.push_back(NDArray::fromFloat(d->batchB.back()));
    }
    d->hyb = sparsetir::format::hybFromCsr(a, hybConfig().partitions,
                                           hybConfig().bucketCapLog2);
    return d;
}

/**
 * A GraphSAGE minibatch block: `seeds` distinct destination rows of
 * `base`, each keeping at most `fanout` of its neighbours (sampled
 * without replacement); columns are the relabelled source nodes.
 * Values are the mean-aggregation weights 1/deg.
 */
Csr
sampleBlock(const Csr &base, int seeds, int fanout, Rng &rng)
{
    std::vector<int32_t> dst;
    std::unordered_set<int32_t> chosen;
    while (static_cast<int>(dst.size()) < seeds) {
        int32_t node = static_cast<int32_t>(rng.uniformInt(base.rows));
        if (chosen.insert(node).second) {
            dst.push_back(node);
        }
    }
    std::unordered_map<int32_t, int32_t> local;
    int32_t next_id = 0;
    for (int32_t node : dst) {
        local.emplace(node, next_id++);
    }
    Csr block;
    block.rows = seeds;
    block.indptr.push_back(0);
    for (int32_t node : dst) {
        std::vector<int32_t> nbrs(base.indices.begin() + base.indptr[node],
                                  base.indices.begin() +
                                      base.indptr[node + 1]);
        int keep = std::min<int>(fanout, static_cast<int>(nbrs.size()));
        for (int i = 0; i < keep; ++i) {
            std::swap(nbrs[i], nbrs[i + rng.uniformInt(nbrs.size() - i)]);
        }
        std::vector<int32_t> cols;
        for (int i = 0; i < keep; ++i) {
            auto it = local.emplace(nbrs[i], next_id);
            if (it.second) {
                ++next_id;
            }
            cols.push_back(it.first->second);
        }
        std::sort(cols.begin(), cols.end());
        for (int32_t c : cols) {
            block.indices.push_back(c);
            block.values.push_back(1.0f / static_cast<float>(cols.size()));
        }
        block.indptr.push_back(static_cast<int32_t>(block.indices.size()));
    }
    block.cols = next_id;
    return block;
}

Workload
gnnWarm(uint64_t seed)
{
    Workload w;
    constexpr int kValueSets = 3;
    Csr g = sparsetir::graph::powerLawGraph(10000, 120000, 1.8,
                                            subSeed(seed, 1));
    auto d = csrData(valueSets(g, kValueSets, subSeed(seed, 2)), 16, 0,
                     subSeed(seed, 3));
    for (const char *op : {"spmm_csr", "spmm_hyb", "sddmm"}) {
        w.jobs.push_back(csrJob(opIndex(op), d));
    }
    for (int j = 0; j < 3; ++j) {
        w.setup.push_back({j, 0});
    }
    for (int v = 0; v < kValueSets; ++v) {
        for (int j = 0; j < 3; ++j) {
            w.setup.push_back({j, v});
        }
    }
    auto rng = std::make_shared<Rng>(subSeed(seed, 4));
    auto count = std::make_shared<uint64_t>(0);
    w.next = [rng, count] {
        Request r;
        r.job = static_cast<int>((*count)++ % 3);
        r.valueSet = static_cast<int>(rng->uniformInt(kValueSets));
        return r;
    };
    return w;
}

Workload
sampledCold(uint64_t seed)
{
    Workload w;
    constexpr int kPool = 96;
    constexpr double kZipf = 0.8;
    constexpr int kWarmup = 128;
    // The base graph plays the dataset and is the same for every
    // seed; the seed draws the minibatch blocks and the request stream,
    // as one training run's sampler would.
    constexpr uint64_t kDatasetSeed = 40000;
    Csr base = sparsetir::graph::powerLawGraph(40000, 800000, 1.8,
                                               kDatasetSeed);
    Rng sampler(subSeed(seed, 2));
    for (int z = 0; z < kPool; ++z) {
        Csr block = sampleBlock(base, 512, 25, sampler);
        auto d = csrData({block}, 16, 0, subSeed(seed, 100 + z));
        // Job index z*3 + {0: hyb, 1: csr, 2: sddmm}.
        for (const char *op : {"spmm_hyb", "spmm_csr", "sddmm"}) {
            w.jobs.push_back(csrJob(opIndex(op), d));
        }
    }
    auto cdf = std::make_shared<std::vector<double>>();
    double total = 0.0;
    for (int z = 0; z < kPool; ++z) {
        total += 1.0 / std::pow(z + 1.0, kZipf);
        cdf->push_back(total);
    }
    for (double &c : *cdf) {
        c /= total;
    }
    auto rng = std::make_shared<Rng>(subSeed(seed, 3));
    w.next = [rng, cdf] {
        double u = rng->uniformReal();
        int z = static_cast<int>(
            std::lower_bound(cdf->begin(), cdf->end(), u) - cdf->begin());
        z = std::min(z, kPool - 1);
        int op = static_cast<int>(rng->uniformInt(3));
        return Request{z * 3 + op, 0};
    };
    for (int i = 0; i < kWarmup; ++i) {
        w.setup.push_back(w.next());
    }
    return w;
}

/**
 * model-warm's jobs; with `csr_family` also spmm_csr / spmm_hyb /
 * sddmm jobs over the batched-hyb graph (probe use only).
 */
Workload
modelWarm(uint64_t seed, bool csr_family)
{
    Workload w;
    constexpr int kValueSets = 2;

    auto rg = std::make_shared<RgcnData>();
    sparsetir::graph::HeteroSpec spec{"perfbench", 0, 0, 8, 2000, 16000,
                                      0.0};
    auto hetero = sparsetir::graph::generateHetero(spec, subSeed(seed, 1));
    for (int v = 0; v < kValueSets; ++v) {
        auto copy = hetero;
        for (size_t r = 0; r < copy.relations.size(); ++r) {
            Csr &rel = copy.relations[r];
            rel.values = uniformVec(rel.nnz(), subSeed(seed, 200 + 16 * v + r));
        }
        rg->mats.push_back(std::move(copy));
    }
    rg->feat = 8;
    rg->x = uniformVec(hetero.cols * rg->feat, subSeed(seed, 2));
    rg->w = uniformVec(rg->feat * rg->feat, subSeed(seed, 3));
    rg->xArr = NDArray::fromFloat(rg->x);
    rg->wArr = NDArray::fromFloat(rg->w);
    w.jobs.push_back(rgcnJob(rg));

    auto att = std::make_shared<GraphData>();
    // The dfg kernels pad every row to the widest one, so their cost
    // follows the maximum row length: a Longformer band mask and a
    // fanout-capped sampled block keep it fixed across seeds.
    att->pattern = sparsetir::graph::bandMask(2048, 32);
    att->featIn = att->featOut = 16;
    {
        const Csr &m = att->pattern;
        att->inputs = {{"q", uniformVec(m.rows * 16, subSeed(seed, 5))},
                       {"kt", uniformVec(16 * m.cols, subSeed(seed, 6))},
                       {"v", uniformVec(m.cols * 16, subSeed(seed, 7))}};
        att->graph = sparsetir::model::buildAttentionGraph(
            sparsetir::dfg::SparsityPattern::fromCsr(m), 16);
    }
    for (const auto &in : att->inputs) {
        att->inputArrs.push_back(NDArray::fromFloat(in.second));
    }
    w.jobs.push_back(attentionJob(att));

    auto sage = std::make_shared<GraphData>();
    {
        Csr base = sparsetir::graph::powerLawGraph(8192, 131072, 1.8,
                                                   subSeed(seed, 4));
        Rng sampler(subSeed(seed, 8));
        sage->pattern = sampleBlock(base, 4096, 10, sampler);
    }
    sage->featIn = sage->featOut = 16;
    {
        const Csr &m = sage->pattern;
        sage->inputs = {{"x", uniformVec(m.cols * 16, subSeed(seed, 9))},
                        {"w", uniformVec(16 * 16, subSeed(seed, 10))}};
        sage->graph = sparsetir::model::buildGraphSageLayerGraph(
            sparsetir::dfg::SparsityPattern::fromCsr(m), 16, 16);
    }
    for (const auto &in : sage->inputs) {
        sage->inputArrs.push_back(NDArray::fromFloat(in.second));
    }
    w.jobs.push_back(graphSageJob(sage));

    auto bsr = std::make_shared<BsrData>();
    bsr->src = sparsetir::graph::blockPrunedWeight(512, 512, 16, 0.1, 0.5,
                                                   subSeed(seed, 11));
    for (const Csr &m : valueSets(bsr->src, kValueSets, subSeed(seed, 12))) {
        bsr->mats.push_back(sparsetir::format::bsrFromCsr(m, 16));
    }
    bsr->feat = 32;
    bsr->b = uniformVec(bsr->mats[0].blockCols * 16 * bsr->feat,
                        subSeed(seed, 13));
    bsr->bArr = NDArray::fromFloat(bsr->b);
    w.jobs.push_back(bsrJob(bsr));

    auto sr = std::make_shared<SrbcrsData>();
    Csr sr_src = sparsetir::graph::unstructuredPrunedWeight(
        512, 512, 0.1, subSeed(seed, 14));
    sr->src = valueSets(sr_src, kValueSets, subSeed(seed, 15));
    for (const Csr &m : sr->src) {
        sr->mats.push_back(
            sparsetir::format::srbcrsFromCsr(m, sr->tileHeight, sr->groupSize));
    }
    sr->feat = 16;
    sr->b = uniformVec(sr_src.cols * sr->feat, subSeed(seed, 16));
    sr->bArr = NDArray::fromFloat(sr->b);
    w.jobs.push_back(srbcrsJob(sr));

    Csr batch_graph = sparsetir::graph::powerLawGraph(2048, 16384, 1.8,
                                                      subSeed(seed, 17));
    auto batch = csrData(valueSets(batch_graph, kValueSets,
                                   subSeed(seed, 18)),
                         16, 4, subSeed(seed, 19));
    w.jobs.push_back(csrJob(opIndex("spmm_hyb_batch"), batch));
    const int model_jobs = static_cast<int>(w.jobs.size());
    if (csr_family) {
        for (const char *op : {"spmm_csr", "spmm_hyb", "sddmm"}) {
            w.jobs.push_back(csrJob(opIndex(op), batch));
        }
    }

    auto sets = std::make_shared<std::vector<int>>();
    for (int j = 0; j < model_jobs; ++j) {
        w.setup.push_back({j, 0});
        sets->push_back(w.jobs[j].numValueSets);
    }
    for (int v = 0; v < kValueSets; ++v) {
        for (int j = 0; j < model_jobs; ++j) {
            if (v < (*sets)[j]) {
                w.setup.push_back({j, v});
            }
        }
    }
    // One call of every served model per cycle: no measured traffic
    // exists to weight them otherwise.
    auto rng = std::make_shared<Rng>(subSeed(seed, 20));
    auto count = std::make_shared<uint64_t>(0);
    w.next = [rng, count, sets, model_jobs] {
        Request r;
        r.job = static_cast<int>((*count)++ % model_jobs);
        r.valueSet = static_cast<int>(rng->uniformInt((*sets)[r.job]));
        return r;
    };
    return w;
}

} // namespace

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "gnn-warm") {
        return gnnWarm(seed);
    }
    if (name == "sampled-cold") {
        return sampledCold(seed);
    }
    if (name == "model-warm") {
        return modelWarm(seed, false);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Job *>
probeJobs(Workload &workload, uint64_t seed, Workload *spare)
{
    std::vector<Job *> out(kNumOps, nullptr);
    for (Job &job : workload.jobs) {
        if (out[job.op] == nullptr) {
            out[job.op] = &job;
        }
    }
    for (int op = 0; op < kNumOps; ++op) {
        if (out[op] != nullptr) {
            continue;
        }
        if (spare->jobs.empty()) {
            *spare = modelWarm(seed, true);
        }
        for (Job &job : spare->jobs) {
            if (job.op == op) {
                out[op] = &job;
                break;
            }
        }
    }
    return out;
}

} // namespace perfbench
