#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace stackbench {

namespace {

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double nearest_rank(const std::vector<double>& sorted, double pct) {
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile supported_percentile(std::vector<double> samples) {
  static constexpr double kLadder[] = {99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  for (const double pct : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    const std::size_t beyond = samples.size() - std::min(rank, samples.size());
    if (beyond < kMinBeyond) continue;
    p.ok = true;
    p.pct = pct;
    p.value = nearest_rank(samples, pct);
    p.beyond = beyond;
    return p;
  }
  return p;
}

double failed_share(std::uint64_t attempted, std::uint64_t failed,
                    std::uint64_t refused, std::uint64_t wrong) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed + refused + wrong) /
         static_cast<double>(attempted);
}

void Slices::add(double t, double latency, double work) {
  if (!(t >= 0.0 && t < slice_s_ * static_cast<double>(work_.size()))) return;
  const auto i = std::min(static_cast<std::size_t>(t / slice_s_), work_.size() - 1);
  latency_[i].push_back(latency);
  work_[i] += work;
}

void Slices::merge(const Slices& other) {
  for (std::size_t i = 0; i < work_.size() && i < other.work_.size(); ++i) {
    latency_[i].insert(latency_[i].end(), other.latency_[i].begin(),
                       other.latency_[i].end());
    work_[i] += other.work_[i];
  }
}

Slices::Summary Slices::summarize() const {
  Summary s;
  std::vector<double> rates, p50s, p99s;
  s.ok = !work_.empty();
  s.min_beyond = ~std::size_t{0};
  for (std::size_t i = 0; i < work_.size(); ++i) {
    const Percentile p99 = supported_percentile(latency_[i]);
    s.ok = s.ok && p99.ok && p99.pct == 99.0;
    s.samples += p99.count;
    s.min_beyond = std::min(s.min_beyond, p99.beyond);
    rates.push_back(work_[i] / slice_s_);
    p50s.push_back(median(latency_[i]));
    p99s.push_back(p99.value);
  }
  s.rate = median(rates);
  s.p50 = median(p50s);
  s.p99 = median(p99s);
  return s;
}

Ledger build_ledger(const std::vector<LedgerRow>& rows,
                    const std::vector<double>& client_us,
                    const std::vector<std::size_t>& counted_twice) {
  Ledger ledger;
  std::vector<double> diff;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double>& cur = rows[r].us;
    diff.assign(cur.begin(), cur.end());
    if (r > 0) {
      const std::vector<double>& below = rows[r - 1].us;
      const std::size_t n = std::min(cur.size(), below.size());
      diff.resize(n);
      for (std::size_t f = 0; f < n; ++f) diff[f] = cur[f] - below[f];
    }
    ledger.layer_us.push_back(median(diff));
    ledger.layers_sum_us += ledger.layer_us.back();
  }
  for (const std::size_t i : counted_twice) {
    if (i < ledger.layer_us.size()) ledger.layers_sum_us += ledger.layer_us[i];
  }
  ledger.client_us = median(client_us);
  if (ledger.client_us > 0.0) {
    ledger.residual_share = std::fabs(ledger.client_us - ledger.layers_sum_us) /
                            ledger.client_us;
  }
  return ledger;
}

namespace {

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

}  // namespace

bool self_test(std::string* why) {
  auto fail = [&](const char* what) {
    if (why) *why = what;
    return false;
  };
  // 1000 samples 1..1000: p99 has exactly 10 above it (991..1000).
  std::vector<double> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(s.size() - i);
  Percentile p = supported_percentile(s);
  if (!p.ok || p.pct != 99.0 || p.value != 990.0 || p.count != 1000 || p.beyond != 10) {
    return fail("p99 of 1..1000 should be 990 with 10 beyond");
  }
  // 500 samples: p99 has only 5 above it, so the ladder drops to p98.
  s.resize(500);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i + 1);
  p = supported_percentile(s);
  if (!p.ok || p.pct != 98.0 || p.value != 490.0 || p.beyond != 10) {
    return fail("500 samples should fall back to p98 = 490");
  }
  // 15 samples: even the median has only 7 above it, so no rung fits.
  s.resize(15);
  if (supported_percentile(s).ok) return fail("15 samples support no rung");
  if (median({3, 1, 2, 10}) != 2.5) return fail("median of an even count");

  // Slices: medians over slices, so the disturbed middle slice (work 90,
  // latencies 1000+) moves nothing; samples outside the window drop.
  Slices sl(3, 2.0);
  for (int i = 1; i <= 1000; ++i) {
    sl.add(0.5, i, 0.01);
    sl.add(2.5, 1000 + i, 0.09);
    sl.add(4.5, i + 1, 0.01);
  }
  sl.add(6.0, 1e9, 1e9);
  const Slices::Summary sum = sl.summarize();
  if (!sum.ok || !near(sum.rate, 5.0) || !near(sum.p50, 501.5) ||
      !near(sum.p99, 991.0) || sum.samples != 3000 || sum.min_beyond != 10) {
    return fail("slice medians");
  }

  // A refused frame is a failure; a retried-then-answered one is not
  // (it never reaches the failed/refused counters at all).
  if (!near(failed_share(200, 1, 2, 1), 0.02)) return fail("failed_share 4/200");
  if (failed_share(0, 0, 0, 0) != 0.0) return fail("failed_share of nothing");

  // Rows telescope: layers 2, 3, 5 per frame; client 10.5 -> residual
  // |10.5 - 10| / 10.5.  The front hop counts layer 1 twice.
  const std::vector<LedgerRow> rows = {
      {"engine", {2, 2, 2, 2}}, {"codec", {5, 5, 6, 4}}, {"server", {10, 10, 11, 9}}};
  const Ledger l = build_ledger(rows, {10, 11, 10.5, 10.5});
  if (l.layer_us.size() != 3 || !near(l.layer_us[0], 2) || !near(l.layer_us[1], 3) ||
      !near(l.layer_us[2], 5)) {
    return fail("ledger layer subtraction");
  }
  if (!near(l.layers_sum_us, 10) || !near(l.client_us, 10.5) ||
      !near(l.residual_share, 0.5 / 10.5)) {
    return fail("ledger residual");
  }
  if (!near(build_ledger(rows, {13}, {1}).layers_sum_us, 13)) {
    return fail("ledger counted_twice");
  }
  return true;
}

}  // namespace stackbench
