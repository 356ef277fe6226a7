/**
 * @file
 * Load-trace serialization: read/write the hourly load series as CSV
 * so users can feed their own production traces (the format the
 * paper's HotMail/Messenger traces would arrive in: one sample per
 * hour, aggregated and normalized).
 *
 * Format: an optional "hour,load" header, then one `index,value` pair
 * per line. Values are re-normalized to a unit peak on load.
 */

#ifndef DEJAVU_WORKLOAD_TRACE_IO_HH
#define DEJAVU_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/trace.hh"

namespace dejavu {

/** Parse a trace from a CSV stream. fatal() on malformed input. */
LoadTrace readTraceCsv(std::istream &in, const std::string &name);

/** Parse a trace from a CSV file. fatal() if unreadable. */
LoadTrace readTraceCsv(const std::string &path);

/** Write a trace as CSV (with header). */
void writeTraceCsv(std::ostream &out, const LoadTrace &trace);

} // namespace dejavu

#endif // DEJAVU_WORKLOAD_TRACE_IO_HH
