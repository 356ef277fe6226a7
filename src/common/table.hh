/**
 * @file
 * Small text table emitter used by the benchmark harnesses to print
 * paper-figure series in a uniform, aligned format.
 */

#ifndef DEJAVU_COMMON_TABLE_HH
#define DEJAVU_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace dejavu {

/**
 * Column-oriented table: set a header once, append rows of doubles or
 * strings, render as aligned text.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append a row of already-formatted cells. */
    void addRow(std::vector<std::string> cells);

    /** Append a row of numbers formatted with @p precision digits. */
    void addNumericRow(const std::vector<double> &values,
                       int precision = 3);

    std::size_t rows() const { return _rows.size(); }
    std::size_t columns() const { return _header.size(); }
    const std::vector<std::string> &header() const { return _header; }

    /** Render with aligned columns for human consumption. */
    void printText(std::ostream &os) const;

    /** Format a double with fixed precision (helper for callers). */
    static std::string num(double v, int precision = 3);

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * Print a figure/table banner so bench output is self-describing:
 * "=== Figure 6(b): ... ===".
 */
void printBanner(std::ostream &os, const std::string &title);

} // namespace dejavu

#endif // DEJAVU_COMMON_TABLE_HH
