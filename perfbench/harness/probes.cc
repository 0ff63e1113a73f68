#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "dfg/lower.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "observe/trace.h"
#include "verify/verifier.h"
#include "yardstick.h"

namespace perfbench {

namespace engine = sparsetir::engine;
namespace core = sparsetir::core;
using sparsetir::observe::TraceScope;

void
OpLedger::record(const Sample &s)
{
    if (s.hit) {
        resolveHit.add(s.resolveMs);
        bindHit.add(s.bindMs);
        kernelHit.add(s.kernelMs);
    } else {
        missResolve.add(s.resolveMs);
    }
}

namespace {

constexpr int kReps = 3;

void
put(MetricMap *metrics, const std::string &name, double value,
    const std::string &unit, size_t samples = 0)
{
    (*metrics)[name] = Metric{value, unit, samples};
}

/** Verifier facts of a CSR-backed kernel's concrete structure. */
sparsetir::verify::VerifyContext
csrContext(const sparsetir::format::Csr &a, int64_t feat)
{
    sparsetir::verify::VerifyContext ctx;
    ctx.scalar("m", a.rows);
    ctx.scalar("n", a.cols);
    ctx.scalar("nnz", a.nnz());
    ctx.scalar("feat_size", feat);
    ctx.int32Array("J_indptr", a.indptr);
    ctx.int32Array("J_indices", a.indices);
    return ctx;
}

/** Times `fn` kReps times inside a span called `span`. */
template <typename Fn>
void
probe(const char *span, Fn &&fn)
{
    for (int rep = 0; rep < kReps; ++rep) {
        TraceScope scope("bench", span);
        fn();
    }
}

/**
 * Per-op probes: a cold and kReps warm dispatches on a fresh
 * default engine and on a 1-thread engine, and the hand-written
 * yardstick on the same inputs.
 */
void
probeOps(const std::vector<Job *> &jobs, OpLedger ops[kNumOps], double triad,
         Tally *tally, MetricMap *metrics)
{
    engine::Engine parallel{engine::EngineOptions{}};
    engine::EngineOptions serial_options;
    serial_options.numThreads = 1;
    engine::Engine serial(serial_options);
    for (int op = 0; op < kNumOps; ++op) {
        const Job &job = *jobs[op];
        const std::string prefix = kOps[op];
        Outs outs = job.makeOuts();
        OpLedger probed;
        Dist wall_n, wall_1, kernel_1;
        Sample s;
        for (int i = 0; i <= kReps; ++i) {
            double ms = serve(parallel, job, 0, &outs, &s, tally);
            probed.record(s);
            if (i > 0) {
                wall_n.add(ms);
            }
        }
        for (int i = 0; i <= kReps; ++i) {
            double ms = serve(serial, job, 0, &outs, &s, tally);
            if (i > 0) {
                wall_1.add(ms);
                kernel_1.add(s.kernelMs);
            }
        }
        // Ops the workload's own traffic did not exercise (or never
        // missed on) are read from the probe dispatches.
        const OpLedger &hits = ops[op].kernelHit.empty() ? probed : ops[op];
        const Dist &misses = ops[op].missResolve.empty() ? probed.missResolve
                                                         : ops[op].missResolve;
        put(metrics, "dispatch." + prefix + ".resolve_ms",
            hits.resolveHit.median(), "ms", hits.resolveHit.size());
        put(metrics, "dispatch." + prefix + ".bind_ms", hits.bindHit.median(),
            "ms", hits.bindHit.size());
        put(metrics, "dispatch." + prefix + ".kernel_ms",
            hits.kernelHit.median(), "ms", hits.kernelHit.size());
        put(metrics, "cache." + prefix + ".miss_ms", misses.median(), "ms",
            misses.size());
        if (prefix == "spmm_hyb" || prefix == "rgcn" ||
            prefix == "spmm_hyb_batch") {
            put(metrics, "executor." + prefix + ".parallel_speedup",
                wall_1.median() / wall_n.median(), "x", wall_n.size());
        }
        if (job.yardstick) {
            Dist hand;
            for (int rep = 0; rep < kReps; ++rep) {
                double start = nowMs();
                {
                    TraceScope scope("bench", "bench.probe.yardstick");
                    job.yardstick();
                }
                hand.add(nowMs() - start);
            }
            double engine_ms = kernel_1.median();
            put(metrics, "kernel." + prefix + ".vs_handwritten",
                engine_ms / hand.median(), "x", hand.size());
            put(metrics, "kernel." + prefix + ".bw_fraction",
                job.bytesMoved / (engine_ms / 1e3) / (triad * 1e9), "ratio",
                kernel_1.size());
        }
    }
}

/** Median duration of a probe span, divided by `per`. */
double
spanMs(const SpanLedger &spans, const char *name, double per = 1.0)
{
    return spans.durations(name).median() / per;
}

} // namespace

void
runProbes(Workload &workload, uint64_t seed, OpLedger ops[kNumOps], Tally *tally,
          MetricMap *metrics)
{
    Workload spare;
    std::vector<Job *> jobs = probeJobs(workload, seed, &spare);
    // Borrowed jobs get their interpreter oracles too, so every probe
    // response is checked bitwise as well as against its reference.
    std::vector<Job *> borrowed;
    for (Job &job : spare.jobs) {
        if (std::find(jobs.begin(), jobs.end(), &job) != jobs.end()) {
            borrowed.push_back(&job);
        }
    }
    computeOracles(borrowed,
                   static_cast<int>(std::max(
                       1u, std::thread::hardware_concurrency())));
    SpanLedger spans;
    spans.drain();

    double triad = 0.0;
    {
        TraceScope scope("bench", "bench.probe.triad");
        triad = triadGbps(5);
    }
    put(metrics, "yardstick.triad_gbps", triad, "GB/s");
    std::printf("note: kernel.<op>.bw_fraction divides bytes computed from "
                "tensor sizes (not measured traffic) by the 1-thread kernel "
                "time and the single-thread triad bandwidth\n");
    std::printf("note: rgcn, spmm_srbcrs, attention and graphsage are "
                "checked against double references within |got-want| <= "
                "%g*|want| + %g*max(1, max|want|); the other ops bitwise\n",
                kRelTol, kAbsTol);
    probeOps(jobs, ops, triad, tally, metrics);

    // format: the conversions a miss pays before lowering.
    const CsrData &graph = *jobs[opIndex("spmm_csr")]->csr;
    const BsrData &bsr = *jobs[opIndex("spmm_bsr")]->bsr;
    const SrbcrsData &sr = *jobs[opIndex("spmm_srbcrs")]->srbcrs;
    const engine::HybConfig hc = hybConfig();
    probe("bench.probe.format.hyb", [&] {
        sparsetir::format::hybFromCsr(graph.mats[0], hc.partitions,
                                      hc.bucketCapLog2);
    });
    probe("bench.probe.format.bsr", [&] {
        sparsetir::format::bsrFromCsr(bsr.src, bsr.mats[0].blockSize);
    });
    probe("bench.probe.format.srbcrs", [&] {
        sparsetir::format::srbcrsFromCsr(sr.src[0], sr.tileHeight,
                                         sr.groupSize);
    });

    // core / transform: Stage I -> III lowering.
    std::vector<sparsetir::ir::PrimFunc> funcs;
    std::vector<core::HybKernelPlan> plans;
    probe("bench.probe.lower.spmm_csr", [&] {
        funcs.assign(1, core::compileSpmmCsrFunc(graph.feat,
                                                 core::SpmmSchedule()));
    });
    probe("bench.probe.lower.spmm_hyb", [&] {
        plans = core::compileSpmmHybFuncs(graph.hyb, graph.feat, hc.threadX);
    });
    sparsetir::ir::PrimFunc sddmm_func;
    probe("bench.probe.lower.sddmm", [&] {
        sddmm_func = core::compileSddmmFunc(graph.feat, core::SddmmSchedule());
    });

    // runtime/bytecode and verify over every lowered kernel, with the
    // concrete structure facts the engine's miss path would declare.
    std::vector<sparsetir::verify::VerifyContext> contexts;
    const sparsetir::format::Csr &a = graph.mats[0];
    contexts.push_back(csrContext(a, graph.feat));
    for (const core::HybKernelPlan &plan : plans) {
        funcs.push_back(plan.func);
        const sparsetir::format::Ell &ell =
            graph.hyb.buckets[plan.partition][plan.bucket];
        sparsetir::verify::VerifyContext ctx = csrContext(a, graph.feat);
        ctx.int32Array(core::ellRowIndicesParam(plan.suffix), ell.rowIndices);
        ctx.int32Array(core::ellColIndicesParam(plan.suffix), ell.colIndices);
        contexts.push_back(std::move(ctx));
    }
    funcs.push_back(sddmm_func);
    contexts.push_back(csrContext(a, graph.feat));
    const double kernels = static_cast<double>(funcs.size());
    // The bytecode compiler memoizes programs per function object, so
    // every repetition compiles a freshly lowered copy.
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<sparsetir::ir::PrimFunc> fresh = {
            core::compileSpmmCsrFunc(graph.feat, core::SpmmSchedule())};
        for (const core::HybKernelPlan &plan :
             core::compileSpmmHybFuncs(graph.hyb, graph.feat, hc.threadX)) {
            fresh.push_back(plan.func);
        }
        fresh.push_back(
            core::compileSddmmFunc(graph.feat, core::SddmmSchedule()));
        TraceScope scope("bench", "bench.probe.bytecode.compile");
        for (const auto &func : fresh) {
            engine::compileKernel(func);
        }
    }
    int unverified = 0;
    probe("bench.probe.verify", [&] {
        unverified = 0;
        for (size_t i = 0; i < funcs.size(); ++i) {
            if (!sparsetir::verify::verifyFunc(funcs[i], contexts[i]).ok) {
                ++unverified;
            }
        }
    });
    if (unverified > 0) {
        std::printf("note: verifyFunc rejected %d of %zu probe kernels\n",
                    unverified, funcs.size());
    }

    // dfg: whole-graph lowering of the two fused pipelines.
    size_t att_kernels = 0, sage_kernels = 0;
    const GraphData &att = *jobs[opIndex("attention")]->graph;
    const GraphData &sage = *jobs[opIndex("graphsage")]->graph;
    probe("bench.probe.dfg.attention", [&] {
        att_kernels = sparsetir::dfg::lowerGraph(att.graph, true).funcs.size();
    });
    probe("bench.probe.dfg.graphsage", [&] {
        sage_kernels =
            sparsetir::dfg::lowerGraph(sage.graph, true).funcs.size();
    });

    // runtime/native: one synchronous promotion of the CSR kernel.
    engine::EngineOptions native_options;
    native_options.backend = sparsetir::runtime::Backend::kNative;
    native_options.nativePromoteAfter = 0;
    engine::NativeStats native;
    double native_ms = 0.0;
    {
        engine::Engine native_engine(native_options);
        const Job &csr_job = *jobs[opIndex("spmm_csr")];
        Outs outs = csr_job.makeOuts();
        Sample s;
        {
            TraceScope scope("bench", "bench.probe.native");
            serve(native_engine, csr_job, 0, &outs, &s, tally);
        }
        native = native_engine.nativeStats();
        auto snap = native_engine.metricsSnapshot();
        auto it = snap.histograms.find("native.compile_ms");
        if (it != snap.histograms.end() && it->second.count > 0) {
            native_ms = it->second.sumMs / it->second.count;
        }
    }

    spans.drain();
    put(metrics, "format.hyb_ms", spanMs(spans, "bench.probe.format.hyb"),
        "ms", kReps);
    put(metrics, "format.bsr_ms", spanMs(spans, "bench.probe.format.bsr"),
        "ms", kReps);
    put(metrics, "format.srbcrs_ms",
        spanMs(spans, "bench.probe.format.srbcrs"), "ms", kReps);
    put(metrics, "lower.spmm_csr.ms",
        spanMs(spans, "bench.probe.lower.spmm_csr"), "ms", kReps);
    put(metrics, "lower.spmm_hyb.ms",
        spanMs(spans, "bench.probe.lower.spmm_hyb"), "ms", kReps);
    put(metrics, "lower.sddmm.ms", spanMs(spans, "bench.probe.lower.sddmm"),
        "ms", kReps);
    put(metrics, "lower.spmm_hyb.kernels", static_cast<double>(plans.size()),
        "count");
    put(metrics, "bytecode.compile_ms_per_kernel",
        spanMs(spans, "bench.probe.bytecode.compile", kernels), "ms", kReps);
    put(metrics, "verify.ms_per_kernel",
        spanMs(spans, "bench.probe.verify", kernels), "ms", kReps);
    put(metrics, "dfg.attention.lower_ms",
        spanMs(spans, "bench.probe.dfg.attention"), "ms", kReps);
    put(metrics, "dfg.graphsage.lower_ms",
        spanMs(spans, "bench.probe.dfg.graphsage"), "ms", kReps);
    put(metrics, "dfg.attention.kernels", static_cast<double>(att_kernels),
        "count");
    put(metrics, "dfg.graphsage.kernels", static_cast<double>(sage_kernels),
        "count");
    put(metrics, "native.compile_ms", native_ms, "ms", native.compiles);
    put(metrics, "native.fallbacks", static_cast<double>(native.fallbacks),
        "count");
}

} // namespace perfbench
