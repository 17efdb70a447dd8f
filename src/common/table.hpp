#pragma once
// Table/CSV emitter used by the benchmark harnesses to print rows in the
// same layout the paper's tables and figures use, plus machine-readable
// CSV for plotting.

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace sparsenn {

/// A table cell: text, integer, or floating point with per-cell precision.
class Cell {
 public:
  Cell(std::string text) : value_(std::move(text)) {}
  Cell(const char* text) : value_(std::string{text}) {}
  Cell(std::int64_t v) : value_(v) {}
  Cell(int v) : value_(std::int64_t{v}) {}
  Cell(std::size_t v) : value_(static_cast<std::int64_t>(v)) {}
  Cell(double v, int precision = 3) : value_(v), precision_(precision) {}

  std::string str() const;

 private:
  std::variant<std::string, std::int64_t, double> value_;
  int precision_ = 3;
};

/// Fixed-column table with pretty-printing and CSV export.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<Cell> cells);

  /// Pretty prints with aligned columns and a rule under the header.
  void print(std::ostream& out) const;

  /// Writes RFC-4180-ish CSV (quotes only where needed).
  void write_csv(std::ostream& out) const;
  void save_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner around a table, used by the bench binaries so
/// the console output reads like the paper ("Table I", "Fig. 7 (top)").
void print_section(std::ostream& out, const std::string& title);

}  // namespace sparsenn
