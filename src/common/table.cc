#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

#include "common/logging.hh"

namespace dejavu {

Table::Table(std::vector<std::string> header)
    : _header(std::move(header))
{
    DEJAVU_ASSERT(!_header.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    DEJAVU_ASSERT(cells.size() == _header.size(),
                  "row width ", cells.size(), " != header width ",
                  _header.size());
    _rows.push_back(std::move(cells));
}

void
Table::addNumericRow(const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values)
        cells.push_back(num(v, precision));
    addRow(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
Table::printText(std::ostream &os) const
{
    std::vector<std::size_t> width(_header.size());
    for (std::size_t c = 0; c < _header.size(); ++c)
        width[c] = _header[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(width[c]) + 2)
               << cells[c];
        }
        os << '\n';
    };
    emit(_header);
    for (const auto &row : _rows)
        emit(row);
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << "\n=== " << title << " ===\n";
}

} // namespace dejavu
