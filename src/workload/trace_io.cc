#include "workload/trace_io.hh"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace dejavu {

LoadTrace
readTraceCsv(std::istream &in, const std::string &name)
{
    std::vector<double> load;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        // Trim whitespace and skip blanks/comments.
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const auto last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);
        if (line.empty() || line[0] == '#')
            continue;
        // Header line.
        if (lineNo == 1 && line.find("hour") != std::string::npos)
            continue;

        std::istringstream cells(line);
        std::string hourCell, loadCell;
        if (!std::getline(cells, hourCell, ',') ||
            !std::getline(cells, loadCell, ','))
            fatal("trace CSV line ", lineNo,
                  ": expected 'hour,load', got: ", line);
        try {
            const double value = std::stod(loadCell);
            if (value < 0.0)
                fatal("trace CSV line ", lineNo,
                      ": negative load ", value);
            load.push_back(value);
        } catch (const std::exception &) {
            fatal("trace CSV line ", lineNo,
                  ": unparsable load value: ", loadCell);
        }
    }
    if (load.empty())
        fatal("trace CSV '", name, "' contains no samples");
    return LoadTrace(name, std::move(load));
}

LoadTrace
readTraceCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: ", path);
    return readTraceCsv(in, path);
}

void
writeTraceCsv(std::ostream &out, const LoadTrace &trace)
{
    out << "hour,load\n";
    out << std::setprecision(
        std::numeric_limits<double>::max_digits10);
    for (std::size_t h = 0; h < trace.hours(); ++h)
        out << h << ',' << trace.at(h) << '\n';
}

} // namespace dejavu
