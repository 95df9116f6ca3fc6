// Metric arithmetic of the benchmark, kept apart from the workloads so
// self_test() can check it on synthetic samples before every run:
//
//   * supported_percentile(): the highest percentile on a fixed ladder
//     that still has at least kMinBeyond samples above it, with the
//     sample count — a p99 of 200 samples would rest on two values;
//   * failed_share(): failures over attempts, where a refused frame is a
//     failure and a RETRY_LATER that later succeeded is not;
//   * build_ledger(): per-layer costs as the median over frames of the
//     difference between adjacent rows, and the residual against the
//     client-observed total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace stackbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  bool ok = false;        ///< false when no ladder rung has kMinBeyond above it
  double pct = 0.0;       ///< the rung chosen, e.g. 99.0
  double value = 0.0;     ///< nearest-rank sample at that rung
  std::size_t count = 0;  ///< samples the percentile was taken over
  std::size_t beyond = 0; ///< samples strictly above the rung's rank
};

double median(std::vector<double> v);

/// The highest of {99, 98, 95, 90, 75, 50} with at least kMinBeyond
/// samples beyond it.
Percentile supported_percentile(std::vector<double> samples);

/// (failed + refused + wrong) / attempted; 0 when nothing was attempted.
double failed_share(std::uint64_t attempted, std::uint64_t failed,
                    std::uint64_t refused, std::uint64_t wrong);

/// A timed window cut into equal slices.  Each completed request adds its
/// latency and its work (queries, figures) to the slice it completed in;
/// the reported figures are medians over slices, so one slice disturbed
/// by a neighbour on the machine cannot move them.
class Slices {
 public:
  Slices(std::size_t count, double slice_s)
      : slice_s_(slice_s), latency_(count), work_(count, 0.0) {}
  /// `t` is seconds since the window opened; samples outside it are dropped.
  void add(double t, double latency, double work);
  void merge(const Slices& other);

  struct Summary {
    bool ok = false;            ///< every slice supports a p99
    double rate = 0.0;          ///< median over slices of work per second
    double p50 = 0.0;           ///< median over slices of the slice median
    double p99 = 0.0;           ///< median over slices of the slice p99
    std::size_t samples = 0;    ///< latency samples in all slices
    std::size_t min_beyond = 0; ///< fewest samples beyond p99 in any slice
  };
  Summary summarize() const;

 private:
  double slice_s_;
  std::vector<std::vector<double>> latency_;
  std::vector<double> work_;
};

/// One ledger row: the time each replayed frame took through the stack up
/// to and including this layer, in microseconds, index-aligned with every
/// other row (frame f of each row is the same frame).
struct LedgerRow {
  std::string name;
  std::vector<double> us;
};

struct Ledger {
  std::vector<double> layer_us;  ///< median per-frame difference, row i - row i-1
  double layers_sum_us = 0.0;    ///< Σ layer costs on the client's path
  double client_us = 0.0;        ///< median client-observed total
  double residual_share = 0.0;   ///< |client - Σ| / client
};

/// Layers of `rows` (in path order) against the client total `client_us`
/// (per frame, same alignment).  `counted_twice` lists layer indices the
/// client path crosses a second time (a front server hop), added again
/// to the sum.
Ledger build_ledger(const std::vector<LedgerRow>& rows,
                    const std::vector<double>& client_us,
                    const std::vector<std::size_t>& counted_twice = {});

/// Checks the pieces above on synthetic samples; false with the
/// first failed expectation in `*why`.
bool self_test(std::string* why);

}  // namespace stackbench
