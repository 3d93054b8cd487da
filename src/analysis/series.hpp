#pragma once

#include <string>
#include <vector>

namespace ibsim::analysis {

/// A named (x, y) data series — one line of a paper figure.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;

  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
  [[nodiscard]] std::size_t size() const { return x.size(); }

  /// Maximum y and its x position.
  [[nodiscard]] double max_y() const;
  [[nodiscard]] double x_of_max_y() const;
};

/// Element-wise ratio of two series sharing the same x grid (e.g. the
/// "Y times improvement by enabling CC" curves of figures 5-8c).
[[nodiscard]] Series ratio_series(const std::string& name, const Series& numerator,
                                  const Series& denominator);

/// Write one or more series sharing an x grid as CSV: header
/// `x,<name1>,<name2>,...`, one row per x value.
void write_csv(const std::string& path, const std::string& x_label,
               const std::vector<const Series*>& series);

/// Render aligned columns to stdout (x followed by each series' y),
/// mirroring the CSV layout for terminal reading.
void print_series(const std::string& x_label, const std::vector<const Series*>& series);

}  // namespace ibsim::analysis
