#include "core/stats.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace ibsim::core {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  IBSIM_ASSERT(hi > lo && bins > 0, "histogram needs a positive range and bins");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge
    ++counts_[idx];
  }
}

double Histogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t cum = underflow_;
  if (cum > target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Strict inequality: empty bins are skipped, the target falls in the
    // first bin whose cumulative count exceeds it.
    if (cum + counts_[i] > target) {
      const double frac =
          static_cast<double>(target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum += counts_[i];
  }
  return hi_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  underflow_ = overflow_ = total_ = 0;
}

void Histogram::absorb(const Histogram& other) {
  IBSIM_ASSERT(lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size(),
               "can only absorb a histogram with identical shape");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double jain_fairness(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace ibsim::core
