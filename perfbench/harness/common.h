/**
 * @file
 * Shared plumbing of the serving-ledger benchmark: clocks, sample
 * distributions, benchmark-side trace spans and the result line.
 */

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in milliseconds. */
double nowMs();

/** A bag of samples with linearly interpolated quantiles. */
class Dist
{
  public:
    void add(double v) { values_.push_back(v); }
    size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double quantile(double q) const;
    double median() const { return quantile(0.5); }

  private:
    std::vector<double> values_;
};

/**
 * The operations the benchmark dispatches, in ledger order. Every
 * per-op metric name uses these strings.
 */
constexpr int kNumOps = 9;
extern const char *const kOps[kNumOps];
int opIndex(const std::string &op);

/**
 * Benchmark-side span names are string literals (the recorder stores
 * the pointers): one per op for Engine calls, plus the fixed probe
 * names below.
 */
const char *requestSpanName(int op_index);

/** Self time and count of one span name over a traced phase. */
struct SpanTotals
{
    double selfMs = 0.0;
    double totalMs = 0.0;
    uint64_t count = 0;
};

/**
 * Drains the global trace recorder into per-name totals. The ring
 * buffers are bounded, so the traced phases call drain() between
 * request blocks, outside the timed intervals.
 */
class SpanLedger
{
  public:
    /** Fold the buffered events into the totals and clear them. */
    void drain();
    const std::map<std::string, SpanTotals> &totals() const
    {
        return totals_;
    }
    /** Durations of every drained span called `name` (ms). */
    const Dist &durations(const std::string &name) const;
    uint64_t dropped() const { return dropped_; }

  private:
    std::map<std::string, SpanTotals> totals_;
    std::map<std::string, Dist> durations_;
    uint64_t dropped_ = 0;
};

/** A named metric of the result line. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0: a single measurement). */
    size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

/**
 * Peak resident set size of this process since the last
 * resetPeakRss(), in MB: VmHWM of /proc/self/status, or getrusage's
 * ru_maxrss (never reset) where that file is unreadable.
 */
double peakRssMb();

/**
 * Reset the kernel's high-water mark to the current resident set size
 * (writes 5 to /proc/self/clear_refs). Returns false if it could not.
 */
bool resetPeakRss();

/**
 * Print one human-readable line per metric, then the result object
 * as the last line of stdout.
 */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricMap &metrics);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
