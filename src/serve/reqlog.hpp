/// \file reqlog.hpp
/// \brief `cim-reqlog-v1`: crash-safe JSONL export of a serving run's
///        per-request lifecycle records, and its parser.
///
/// The reqlog is the serving layer's post-hoc analysis substrate: one JSON
/// object per line — a versioned header, then every completion (timing
/// triple + exact latency decomposition, no result payloads) and every
/// rejection, both sorted by request id. Doubles are exact (DESIGN.md
/// "Text formats"), so a parse -> dump round trip is byte-identical (the
/// fixpoint the format tests gate); the file itself is written via
/// `obs::write_file_atomic`, so an interrupted run never leaves a
/// truncated log. `tools/cim_reqlog`
/// turns a reqlog into decomposition tables and top-k slow-request
/// attribution.
///
/// Caveat: request ids round-trip through the JSON number domain and are
/// therefore exact only below 2^53 — far beyond any simulated stream, but
/// a contract worth stating.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "serve/controller.hpp"
#include "serve/request.hpp"

namespace cim::serve {

/// Parsed reqlog: completions carry every dumped field (results are not
/// logged, so `result` is empty and `batch_size`/`replica` are as dumped).
struct ReqLog {
  std::vector<Completion> completions;  ///< sorted by id
  std::vector<Rejection> rejections;    ///< sorted by id
};

/// Streams the cim-reqlog-v1 text for `report` (header + one line per
/// completion, then per rejection, both in id order).
void write_reqlog(std::ostream& os, const ServeReport& report);

/// Crash-safe file export (temp + rename). Returns false on I/O failure.
bool write_reqlog_file(const std::string& path, const ServeReport& report);

/// Parses a cim-reqlog-v1 stream. Tolerates CRLF line endings, trailing
/// whitespace and blank lines; throws util::record_io::ParseError on
/// malformed input.
ReqLog read_reqlog(std::istream& is);
ReqLog read_reqlog_file(const std::string& path);

/// Re-dumps a parsed reqlog (the fixpoint side: dump(parse(x)) == x for
/// any dump-produced x).
void write_reqlog(std::ostream& os, const ReqLog& log);

/// Env hook: writes the reqlog to CIM_OBS_REQLOG_FILE when set and
/// telemetry is enabled (CIM_OBS). Called at the end of Controller::run.
void export_reqlog_if_requested(const ServeReport& report);

}  // namespace cim::serve
