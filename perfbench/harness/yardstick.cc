#include "yardstick.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

using sparsetir::format::Bsr;
using sparsetir::format::Csr;
using sparsetir::format::Ell;
using sparsetir::format::Hyb;
using sparsetir::format::RelationalCsr;

namespace {

/** One IR update `acc = acc + a * b`: widened, rounded on store. */
inline float
madd(float acc, float a, float b)
{
    return static_cast<float>(static_cast<double>(acc) +
                              static_cast<double>(a) *
                                  static_cast<double>(b));
}

constexpr int kSddmmLanes = 16;

} // namespace

void
handSpmmCsr(const Csr &a, const float *b, int64_t feat, float *c)
{
    std::vector<float> acc(feat);
    for (int64_t r = 0; r < a.rows; ++r) {
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
            float v = a.values[p];
            const float *brow = b + static_cast<int64_t>(a.indices[p]) * feat;
            for (int64_t k = 0; k < feat; ++k) {
                acc[k] = madd(acc[k], v, brow[k]);
            }
        }
        std::copy(acc.begin(), acc.end(), c + r * feat);
    }
}

void
handSpmmHyb(const Hyb &hyb, const std::vector<float> &values,
            const float *b, int64_t feat, float *c)
{
    std::fill(c, c + hyb.rows * feat, 0.0f);
    std::vector<float> acc(feat);
    for (const std::vector<Ell> &partition : hyb.buckets) {
        for (const Ell &ell : partition) {
            for (int64_t i = 0; i < ell.numRows(); ++i) {
                std::fill(acc.begin(), acc.end(), 0.0f);
                for (int32_t j = 0; j < ell.width; ++j) {
                    int64_t slot = i * ell.width + j;
                    int32_t src = ell.sourcePos[slot];
                    float v = src >= 0 ? values[src] : 0.0f;
                    const float *brow =
                        b + static_cast<int64_t>(ell.colIndices[slot]) * feat;
                    for (int64_t k = 0; k < feat; ++k) {
                        acc[k] = madd(acc[k], v, brow[k]);
                    }
                }
                float *crow =
                    c + static_cast<int64_t>(ell.rowIndices[i]) * feat;
                for (int64_t k = 0; k < feat; ++k) {
                    crow[k] = static_cast<float>(
                        static_cast<double>(crow[k]) +
                        static_cast<double>(acc[k]));
                }
            }
        }
    }
}

void
handSddmm(const Csr &a, const float *x, const float *y, int64_t feat,
          float *out)
{
    for (int64_t r = 0; r < a.rows; ++r) {
        const float *xrow = x + r * feat;
        for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
            int64_t col = a.indices[p];
            double av = a.values[p];
            float lanes[kSddmmLanes] = {};
            for (int64_t k = 0; k < feat; ++k) {
                float &lane = lanes[k % kSddmmLanes];
                lane = static_cast<float>(
                    static_cast<double>(lane) +
                    av * static_cast<double>(xrow[k]) *
                        static_cast<double>(y[k * a.cols + col]));
            }
            float sum = 0.0f;
            for (float lane : lanes) {
                sum = static_cast<float>(static_cast<double>(sum) +
                                         static_cast<double>(lane));
            }
            out[p] = sum;
        }
    }
}

void
handSpmmBsr(const Bsr &a, const float *b, int64_t feat, float *c)
{
    const int64_t bs = a.blockSize;
    std::fill(c, c + a.blockRows * bs * feat, 0.0f);
    for (int64_t io = 0; io < a.blockRows; ++io) {
        for (int32_t blk = a.indptr[io]; blk < a.indptr[io + 1]; ++blk) {
            int64_t col = a.indices[blk];
            for (int64_t ii = 0; ii < bs; ++ii) {
                float *crow = c + (io * bs + ii) * feat;
                for (int64_t ji = 0; ji < bs; ++ji) {
                    float v = a.values[(blk * bs + ii) * bs + ji];
                    const float *brow = b + (col * bs + ji) * feat;
                    for (int64_t k = 0; k < feat; ++k) {
                        crow[k] = madd(crow[k], v, brow[k]);
                    }
                }
            }
        }
    }
}

std::vector<float>
refSpmm(const Csr &a, const std::vector<float> &b, int64_t feat,
        int64_t out_rows)
{
    std::vector<float> out(out_rows * feat, 0.0f);
    std::vector<double> acc(feat);
    for (int64_t r = 0; r < a.rows; ++r) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (int32_t p = a.indptr[r]; p < a.indptr[r + 1]; ++p) {
            const float *brow = &b[static_cast<int64_t>(a.indices[p]) * feat];
            for (int64_t k = 0; k < feat; ++k) {
                acc[k] += static_cast<double>(a.values[p]) * brow[k];
            }
        }
        for (int64_t k = 0; k < feat; ++k) {
            out[r * feat + k] = static_cast<float>(acc[k]);
        }
    }
    return out;
}

std::vector<float>
refRgcn(const RelationalCsr &g, const std::vector<float> &x,
        const std::vector<float> &w, int64_t feat)
{
    std::vector<double> xw(g.cols * feat, 0.0);
    for (int64_t j = 0; j < g.cols; ++j) {
        for (int64_t k = 0; k < feat; ++k) {
            for (int64_t l = 0; l < feat; ++l) {
                xw[j * feat + l] += static_cast<double>(x[j * feat + k]) *
                                    w[k * feat + l];
            }
        }
    }
    std::vector<double> y(g.rows * feat, 0.0);
    for (const Csr &rel : g.relations) {
        for (int64_t r = 0; r < rel.rows; ++r) {
            for (int32_t p = rel.indptr[r]; p < rel.indptr[r + 1]; ++p) {
                for (int64_t l = 0; l < feat; ++l) {
                    y[r * feat + l] += static_cast<double>(rel.values[p]) *
                                       xw[rel.indices[p] * feat + l];
                }
            }
        }
    }
    return std::vector<float>(y.begin(), y.end());
}

std::vector<float>
refAttention(const Csr &mask, const std::vector<float> &q,
             const std::vector<float> &kt, const std::vector<float> &v,
             int64_t dim)
{
    std::vector<float> out(mask.rows * dim, 0.0f);
    double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    for (int64_t r = 0; r < mask.rows; ++r) {
        int32_t begin = mask.indptr[r];
        int32_t end = mask.indptr[r + 1];
        if (begin == end) {
            continue;
        }
        std::vector<double> s(end - begin);
        double mx = -INFINITY;
        for (int32_t p = begin; p < end; ++p) {
            double dot = 0.0;
            for (int64_t k = 0; k < dim; ++k) {
                dot += static_cast<double>(q[r * dim + k]) *
                       kt[k * mask.cols + mask.indices[p]];
            }
            s[p - begin] = dot * scale;
            mx = std::max(mx, s[p - begin]);
        }
        double denom = 0.0;
        for (double &e : s) {
            e = std::exp(e - mx);
            denom += e;
        }
        for (int64_t k = 0; k < dim; ++k) {
            double acc = 0.0;
            for (int32_t p = begin; p < end; ++p) {
                acc += s[p - begin] / denom * v[mask.indices[p] * dim + k];
            }
            out[r * dim + k] = static_cast<float>(acc);
        }
    }
    return out;
}

std::vector<float>
refGraphSage(const Csr &adj, const std::vector<float> &x,
             const std::vector<float> &w, int64_t feat_in,
             int64_t feat_out)
{
    std::vector<float> out(adj.rows * feat_out, 0.0f);
    std::vector<double> h(feat_in);
    for (int64_t r = 0; r < adj.rows; ++r) {
        std::fill(h.begin(), h.end(), 0.0);
        int32_t deg = adj.indptr[r + 1] - adj.indptr[r];
        for (int32_t p = adj.indptr[r]; p < adj.indptr[r + 1]; ++p) {
            for (int64_t k = 0; k < feat_in; ++k) {
                h[k] += x[adj.indices[p] * feat_in + k];
            }
        }
        for (int64_t l = 0; l < feat_out; ++l) {
            double acc = 0.0;
            for (int64_t k = 0; k < feat_in; ++k) {
                acc += (deg > 0 ? h[k] / deg : 0.0) * w[k * feat_out + l];
            }
            out[r * feat_out + l] = static_cast<float>(acc);
        }
    }
    return out;
}

bool
withinTolerance(const std::vector<float> &got,
                const std::vector<float> &want)
{
    if (got.size() != want.size()) {
        return false;
    }
    double scale = 1.0;
    for (float v : want) {
        scale = std::max(scale, static_cast<double>(std::fabs(v)));
    }
    for (size_t i = 0; i < got.size(); ++i) {
        double diff = std::fabs(static_cast<double>(got[i]) - want[i]);
        // Written so that a NaN in `got` fails the check.
        if (!(diff <= kRelTol * std::fabs(want[i]) + kAbsTol * scale)) {
            return false;
        }
    }
    return true;
}

double
triadGbps(int reps)
{
    // 3 x 48 MB: larger than the last-level cache of the machines
    // this runs on, so the triad streams from memory.
    const size_t n = 6u << 20;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    double best_s = INFINITY;
    for (int rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n; ++i) {
            a[i] = b[i] + s * c[i];
        }
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        best_s = std::min(best_s, secs);
        // Keep the stores observable.
        b[rep % n] = a[(rep * 7919) % n];
    }
    return 3.0 * 8.0 * static_cast<double>(n) / best_s / 1e9;
}

double
bytesSpmmCsr(const Csr &a, int64_t feat)
{
    return 4.0 * (a.rows + 1) + 8.0 * a.nnz() + 4.0 * a.cols * feat +
           4.0 * a.rows * feat;
}

double
bytesSpmmHyb(const Hyb &hyb, int64_t feat)
{
    double bytes = 4.0 * hyb.cols * feat + 4.0 * hyb.rows * feat;
    for (const std::vector<Ell> &partition : hyb.buckets) {
        for (const Ell &ell : partition) {
            bytes += 4.0 * ell.numRows() + 8.0 * ell.numRows() * ell.width;
        }
    }
    return bytes;
}

double
bytesSddmm(const Csr &a, int64_t feat)
{
    return 4.0 * (a.rows + 1) + 12.0 * a.nnz() + 4.0 * a.rows * feat +
           4.0 * feat * a.cols;
}

double
bytesSpmmBsr(const Bsr &a, int64_t feat)
{
    const double bs = a.blockSize;
    return 4.0 * (a.blockRows + 1) + 4.0 * a.nnzBlocks() +
           4.0 * a.nnzBlocks() * bs * bs + 4.0 * a.blockCols * bs * feat +
           4.0 * a.blockRows * bs * feat;
}

} // namespace perfbench
