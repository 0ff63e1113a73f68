/**
 * @file
 * Outside yardsticks: hand-written scalar kernels that follow the
 * SparseTIR IR's arithmetic exactly — operands widened to double,
 * every store rounded to float, and the per-element addition order
 * of the lowered Stage III loops — so the engine's outputs can be
 * checked against them bitwise. Dense references for the ops whose
 * order is not replicated (RGCN, SR-BCRS, the dfg pipelines) compute
 * in double and are compared within kRelTol / kAbsTol.
 *
 * Also a STREAM-style triad for the machine's memory bandwidth and
 * the compulsory bytes each kernel moves, computed from tensor sizes
 * (not measured with counters).
 */

#ifndef PERFBENCH_YARDSTICK_H_
#define PERFBENCH_YARDSTICK_H_

#include <cstdint>
#include <vector>

#include "format/bsr.h"
#include "format/csr.h"
#include "format/hyb.h"
#include "format/relational.h"
#include "format/srbcrs.h"

namespace perfbench {

/** Tolerance of the reference check where bitwise order differs. */
constexpr double kRelTol = 1e-4;
constexpr double kAbsTol = 1e-5;

/** C (rows x feat) = A @ B, the CSR SpMM kernel's order. */
void handSpmmCsr(const sparsetir::format::Csr &a,
                 const float *b, int64_t feat, float *c);

/**
 * C = A @ B through a hyb decomposition: C zeroed, then every
 * (partition, bucket) in order, each ELL row's slots summed into a
 * local and added to its output row — the serial schedule's order.
 * `values` are the request's CSR values, gathered per slot through
 * the buckets' provenance (padding slots are zero).
 */
void handSpmmHyb(const sparsetir::format::Hyb &hyb,
                 const std::vector<float> &values, const float *b,
                 int64_t feat, float *c);

/**
 * out (nnz) = A ⊙ (X @ Y), X rows x feat, Y feat x cols: 16 lanes
 * each accumulate a strided slice of the dot product, then the lanes
 * are folded in lane order (the rfactor schedule).
 */
void handSddmm(const sparsetir::format::Csr &a, const float *x,
               const float *y, int64_t feat, float *out);

/** C (blockRows*bs x feat) = A @ B over BSR blocks. */
void handSpmmBsr(const sparsetir::format::Bsr &a, const float *b,
                 int64_t feat, float *c);

/** Double-precision dense references (tolerance-checked). */
std::vector<float> refSpmm(const sparsetir::format::Csr &a,
                           const std::vector<float> &b, int64_t feat,
                           int64_t out_rows);
std::vector<float> refRgcn(const sparsetir::format::RelationalCsr &g,
                           const std::vector<float> &x,
                           const std::vector<float> &w, int64_t feat);
std::vector<float> refAttention(const sparsetir::format::Csr &mask,
                                const std::vector<float> &q,
                                const std::vector<float> &kt,
                                const std::vector<float> &v,
                                int64_t dim);
std::vector<float> refGraphSage(const sparsetir::format::Csr &adj,
                                const std::vector<float> &x,
                                const std::vector<float> &w,
                                int64_t feat_in, int64_t feat_out);

/** Whether |got - want| <= kRelTol*|want| + kAbsTol*max(1, max|want|)
 *  elementwise (and the sizes agree). */
bool withinTolerance(const std::vector<float> &got,
                     const std::vector<float> &want);

/**
 * Single-thread STREAM triad a = b + s*c over double arrays larger
 * than the last-level cache; returns the best of `reps` in GB/s
 * (3 arrays x 8 bytes per element moved).
 */
double triadGbps(int reps);

/** Compulsory bytes moved per kernel, from tensor sizes. */
double bytesSpmmCsr(const sparsetir::format::Csr &a, int64_t feat);
double bytesSpmmHyb(const sparsetir::format::Hyb &hyb, int64_t feat);
double bytesSddmm(const sparsetir::format::Csr &a, int64_t feat);
double bytesSpmmBsr(const sparsetir::format::Bsr &a, int64_t feat);

} // namespace perfbench

#endif // PERFBENCH_YARDSTICK_H_
