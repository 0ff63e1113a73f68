/**
 * @file
 * The serving-ledger benchmark: one seeded, closed-loop workload per
 * process, driven through the public engine::Engine API with the
 * shipped defaults (EngineOptions{}: bytecode tier, a pool of one
 * thread per hardware thread, 64-entry compile cache) by one client
 * thread that waits for each reply.
 *
 *   perfbench --workload <gnn-warm|sampled-cold|model-warm>
 *             --seed <n> --seconds <s> --trace <0|1>
 *   perfbench --selftest
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the same
 * traffic with the span recorder switched on for alternate blocks of
 * requests and prints the per-layer metrics (DispatchInfo fields of
 * the traced requests, cache and scratch counters, and the layer
 * probes of probes.h). Every response is checked outside the timed
 * interval; the last stdout line is the JSON result.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "jobs.h"
#include "observe/trace.h"
#include "probes.h"
#include "runtime/native/native_compiler.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace engine = sparsetir::engine;
using sparsetir::observe::TraceRecorder;

/** Engine constructions per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Requests per block of the traced run's traced/untraced alternation. */
constexpr int kTraceBlock = 8;
/**
 * Calls the timed phase needs at least, so that 10 lie beyond p95; on
 * a slow host it runs past --seconds until it has them.
 */
constexpr size_t kMinSamples = 200;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool selftest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + flag);
        }
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
            have_seconds = true;
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!args.selftest &&
        !(have_workload && have_seed && have_seconds && args.seconds > 0)) {
        throw std::invalid_argument(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> | --selftest");
    }
    return args;
}

int
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Counters of the timed phase, per tracing mode. */
struct Phase
{
    double measuredMs = 0.0;
    uint64_t logical = 0;

    double
    rps() const
    {
        return measuredMs > 0.0 ? logical / (measuredMs / 1e3) : 0.0;
    }
};

int
runWorkload(const Args &args)
{
    std::printf("config: workload %s seed %llu seconds %.0f trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("config: backend %s, verify %s, threads %d\n",
                sparsetir::runtime::native::nativeEnabledByEnv() ? "native"
                                                                 : "bytecode",
                sparsetir::core::verifyEnabledByDefault() ? "on" : "off",
                hardwareThreads());

    double start = nowMs();
    Workload w = makeWorkload(args.workload, args.seed);
    std::vector<Job *> all;
    for (Job &job : w.jobs) {
        job.outs = job.makeOuts();
        all.push_back(&job);
    }
    std::printf("inputs: %zu jobs built in %.0f ms\n", w.jobs.size(),
                nowMs() - start);
    start = nowMs();
    computeOracles(all, hardwareThreads());
    std::printf("oracles: interpreter outputs in %.0f ms (peak rss %.1f MB)\n",
                nowMs() - start, peakRssMb());
    // peak_rss_mb covers engine set-up and serving only: the high-water
    // mark restarts from the current resident set (binary, inputs,
    // oracles and references, which the checks need) here.
    const bool rss_reset = resetPeakRss();
    std::printf("rss: high-water mark reset after oracles: %s (rss %.1f MB)\n",
                rss_reset ? "yes" : "no (peak includes input and oracle "
                                    "phases)",
                peakRssMb());

    Tally tally;
    Dist setup_s, setup_miss_ms;
    OpLedger setup_ops[kNumOps];
    std::unique_ptr<engine::Engine> eng;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        eng.reset();
        double t0 = nowMs();
        eng = std::make_unique<engine::Engine>(engine::EngineOptions{});
        double total_ms = nowMs() - t0;
        for (const Request &r : w.setup) {
            Job &job = w.jobs[r.job];
            Sample s;
            double ms = serve(*eng, job, r.valueSet, &job.outs, &s, &tally);
            total_ms += ms;
            if (!s.hit) {
                setup_miss_ms.add(ms);
                setup_ops[job.op].missResolve.add(s.resolveMs);
            }
        }
        setup_s.add(total_ms / 1e3);
    }
    std::printf("engine: %d pool threads (peak rss %.1f MB)\n",
                eng->numThreads(), peakRssMb());

    // Timed phase: closed loop, one request in flight.
    eng->resetScratchPeak();
    const engine::CacheStats cache0 = eng->cacheStats();
    Dist latency, miss_ms, op_latency[kNumOps];
    Phase phases[2];  // [0] untraced, [1] traced
    OpLedger ops[kNumOps];
    SpanLedger spans;
    TraceRecorder &recorder = TraceRecorder::global();
    const double budget_ms = args.seconds * 1e3;
    const double wall_cap_ms = 2.0 * budget_ms + 5e3;
    const double wall0 = nowMs();
    for (uint64_t block = 0;; ++block) {
        const bool traced = args.trace && block % 2 == 1;
        recorder.setEnabled(traced);
        Phase &phase = phases[traced ? 1 : 0];
        for (int i = 0; i < kTraceBlock; ++i) {
            Request r = w.next();
            Job &job = w.jobs[r.job];
            Sample s;
            double ms = serve(*eng, job, r.valueSet, &job.outs, &s, &tally);
            phase.measuredMs += ms;
            phase.logical += s.logical;
            latency.add(ms);
            op_latency[job.op].add(ms);
            if (!s.hit) {
                miss_ms.add(ms);
            }
            if (traced) {
                ops[job.op].record(s);
            }
        }
        recorder.setEnabled(false);
        if (traced) {
            spans.drain();
        }
        double measured = phases[0].measuredMs + phases[1].measuredMs;
        if ((measured >= budget_ms && latency.size() >= kMinSamples) ||
            nowMs() - wall0 >= wall_cap_ms) {
            break;
        }
    }

    for (int op = 0; op < kNumOps; ++op) {
        if (!op_latency[op].empty()) {
            std::printf("latency %-16s n=%-6zu p50 %9.3f ms  p95 %9.3f ms\n",
                        kOps[op], op_latency[op].size(),
                        op_latency[op].quantile(0.5),
                        op_latency[op].quantile(0.95));
        }
    }
    MetricMap metrics;
    if (!args.trace) {
        const Phase &p = phases[0];
        const Dist &misses = miss_ms.empty() ? setup_miss_ms : miss_ms;
        metrics["throughput_rps"] = {p.rps(), "1/s", latency.size()};
        metrics["latency_p50_ms"] = {latency.quantile(0.50), "ms",
                                     latency.size()};
        metrics["latency_p95_ms"] = {latency.quantile(0.95), "ms",
                                     latency.size()};
        metrics["miss_latency_p50_ms"] = {misses.median(), "ms",
                                          misses.size()};
        metrics["setup_s"] = {setup_s.median(), "s", setup_s.size()};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    } else {
        const engine::CacheStats cache1 = eng->cacheStats();
        const double hits = static_cast<double>(cache1.hits - cache0.hits);
        const double misses =
            static_cast<double>(cache1.misses - cache0.misses);
        metrics["cache.hit_ratio"] = {hits / (hits + misses), "ratio",
                                      static_cast<size_t>(hits + misses)};
        metrics["cache.evictions"] = {
            static_cast<double>(cache1.evictions - cache0.evictions),
            "count"};
        const engine::ScratchStats scratch = eng->scratchStats();
        metrics["scratch.peak_bytes"] = {
            static_cast<double>(scratch.peakLeasedBytes), "bytes"};
        metrics["scratch.alloc_ratio"] = {
            scratch.leases > 0 ? static_cast<double>(scratch.allocations) /
                                     static_cast<double>(scratch.leases)
                               : 0.0,
            "ratio", static_cast<size_t>(scratch.leases)};
        metrics["trace.overhead_ratio"] = {phases[1].rps() / phases[0].rps(),
                                           "ratio"};
        eng.reset();
        for (int op = 0; op < kNumOps; ++op) {
            if (ops[op].missResolve.empty()) {
                ops[op].missResolve = setup_ops[op].missResolve;
            }
        }
        recorder.setEnabled(true);
        runProbes(w, args.seed, ops, &tally, &metrics);
        recorder.setEnabled(false);
        metrics["check.unwritten_ratio"] = {
            static_cast<double>(tally.unwritten) /
                static_cast<double>(tally.attempted),
            "ratio", tally.attempted};
        std::printf("spans (self time, traced blocks; %llu dropped):\n",
                    static_cast<unsigned long long>(spans.dropped()));
        for (const auto &[name, t] : spans.totals()) {
            std::printf("  %-36s %10.2f ms self %10.2f ms total %8llu\n",
                        name.c_str(), t.selfMs, t.totalMs,
                        static_cast<unsigned long long>(t.count));
        }
    }
    const double failure = static_cast<double>(tally.failed) /
                           static_cast<double>(tally.attempted);
    std::printf("check: %llu of %llu responses left output elements "
                "unwritten (spmm_bsr / spmm_srbcrs, known defect; counted "
                "in check.unwritten_ratio, not in failures)\n",
                static_cast<unsigned long long>(tally.unwritten),
                static_cast<unsigned long long>(tally.attempted));
    if (args.trace) {
        metrics["failure_ratio"] = {failure, "ratio", tally.attempted};
    } else {
        // The end-to-end form: end-to-end metrics must never read 0.
        metrics["success_ratio"] = {1.0 - failure, "ratio", tally.attempted};
    }
    printResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

} // namespace

/** The benchmark's own checks (selftest.cc); 0 when all pass. */
int selfTest();

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        perfbench::Args args = perfbench::parseArgs(argc, argv);
        return args.selftest ? perfbench::selfTest()
                             : perfbench::runWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
