#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "observe/trace.h"

namespace perfbench {

namespace observe = sparsetir::observe;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
Dist::quantile(double q) const
{
    if (values_.empty()) {
        return 0.0;
    }
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

const char *const kOps[kNumOps] = {
    "spmm_csr",  "spmm_hyb", "sddmm",       "rgcn",          "attention",
    "graphsage", "spmm_bsr", "spmm_srbcrs", "spmm_hyb_batch"};

int
opIndex(const std::string &op)
{
    for (int i = 0; i < kNumOps; ++i) {
        if (op == kOps[i]) {
            return i;
        }
    }
    return -1;
}

const char *
requestSpanName(int op_index)
{
    static const char *const kNames[kNumOps] = {
        "bench.request.spmm_csr",    "bench.request.spmm_hyb",
        "bench.request.sddmm",       "bench.request.rgcn",
        "bench.request.attention",   "bench.request.graphsage",
        "bench.request.spmm_bsr",    "bench.request.spmm_srbcrs",
        "bench.request.spmm_hyb_batch"};
    return kNames[op_index];
}

void
SpanLedger::drain()
{
    observe::TraceRecorder &rec = observe::TraceRecorder::global();
    dropped_ += rec.droppedCount();
    std::vector<observe::CollectedEvent> events = rec.collect();
    rec.clear();
    std::stable_sort(events.begin(), events.end(),
                     [](const observe::CollectedEvent &a,
                        const observe::CollectedEvent &b) {
                         if (a.tid != b.tid) {
                             return a.tid < b.tid;
                         }
                         if (a.event.startNs != b.event.startNs) {
                             return a.event.startNs < b.event.startNs;
                         }
                         return a.event.durNs > b.event.durNs;
                     });
    // Per thread, a span's self time is its duration minus the spans
    // it directly encloses: walk in start order with a stack of open
    // ancestors.
    struct Open
    {
        const observe::TraceEvent *event;
        int64_t childNs;
        int tid;
    };
    std::vector<Open> stack;
    auto close = [&](const Open &open) {
        SpanTotals &t = totals_[open.event->name];
        double dur_ms = static_cast<double>(open.event->durNs) / 1e6;
        t.totalMs += dur_ms;
        t.selfMs +=
            static_cast<double>(open.event->durNs - open.childNs) / 1e6;
        t.count += 1;
        durations_[open.event->name].add(dur_ms);
    };
    for (const observe::CollectedEvent &ce : events) {
        const observe::TraceEvent &e = ce.event;
        while (!stack.empty() &&
               (stack.back().tid != ce.tid ||
                stack.back().event->startNs + stack.back().event->durNs <=
                    e.startNs)) {
            close(stack.back());
            stack.pop_back();
        }
        if (!stack.empty()) {
            stack.back().childNs += e.durNs;
        }
        stack.push_back(Open{&e, 0, ce.tid});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
}

const Dist &
SpanLedger::durations(const std::string &name) const
{
    static const Dist kEmpty;
    auto it = durations_.find(name);
    return it == durations_.end() ? kEmpty : it->second;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const MetricMap &metrics)
{
    for (const auto &[name, m] : metrics) {
        if (m.samples > 0) {
            std::printf("metric %-44s %16.6f %-6s (n=%zu)\n",
                        name.c_str(), m.value, m.unit.c_str(),
                        m.samples);
        } else {
            std::printf("metric %-44s %16.6f %s\n", name.c_str(),
                        m.value, m.unit.c_str());
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, m] : metrics) {
        double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
