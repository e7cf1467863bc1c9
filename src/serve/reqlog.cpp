#include "serve/reqlog.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "util/record_io.hpp"

namespace cim::serve {

namespace {

constexpr const char* kHeaderFormat = "cim-reqlog-v1";

namespace rio = util::record_io;

void write_completion_line(std::ostream& os, const Completion& c) {
  os << "{\"event\":\"done\",\"id\":" << c.id << ",\"kind\":\""
     << kind_name(c.kind) << "\",\"tier\":\"" << crossbar::tier_name(c.tier)
     << "\",\"escalated\":" << (c.escalated ? "true" : "false")
     << ",\"replica\":" << c.replica << ",\"batch\":" << c.batch_size
     << ",\"label\":" << c.label;
  const std::pair<const char*, double> fields[] = {
      {"arrival_ns", c.arrival_ns},       {"dispatch_ns", c.dispatch_ns},
      {"done_ns", c.done_ns},             {"batch_wait_ns", c.batch_wait_ns},
      {"queue_wait_ns", c.queue_wait_ns}, {"issue_wait_ns", c.issue_wait_ns},
      {"bitserial_ns", c.bitserial_ns},   {"reduce_ns", c.reduce_ns}};
  for (const auto& [k, v] : fields) os << ",\"" << k << "\":" << rio::g17(v);
  os << "}\n";
}

void write_rejection_line(std::ostream& os, const Rejection& r) {
  os << "{\"event\":\"rejected\",\"id\":" << r.id << ",\"kind\":\""
     << kind_name(r.kind) << "\",\"arrival_ns\":" << rio::g17(r.arrival_ns)
     << "}\n";
}

void write_lines(std::ostream& os, const std::vector<Completion>& completions,
                 const std::vector<Rejection>& rejections) {
  os << "{\"format\":\"" << kHeaderFormat
     << "\",\"completions\":" << completions.size()
     << ",\"rejections\":" << rejections.size() << "}\n";
  for (const Completion& c : completions) write_completion_line(os, c);
  for (const Rejection& r : rejections) write_rejection_line(os, r);
}

// Record decoding throws plain std::runtime_error messages (as the JSON
// layer does); read_reqlog attaches the line number.

/// An integral field that must fit `T` exactly (ids, counts, labels).
template <typename T>
T integer(const obs::json::Value& v, const char* key) {
  return obs::json::integer<T>(v.at(key), key);
}

/// An enum field; `parse` is the inverse of the enum's *_name function.
template <typename Parse>
auto named(const obs::json::Value& v, const char* key, Parse parse) {
  const std::string& s = v.at(key).as_string();
  if (const auto e = parse(s)) return *e;
  throw std::runtime_error(std::string("unknown ") + key + " '" + s + "'");
}

void read_record(const obs::json::Value& v, ReqLog& log) {
  if (!v.is_object()) throw std::runtime_error("expected a JSON object");
  if (!v.contains("event")) throw std::runtime_error("missing 'event'");
  const std::string& event = v.at("event").as_string();
  if (event == "done") {
    Completion c;
    c.id = integer<std::uint64_t>(v, "id");
    c.kind = named(v, "kind", parse_kind);
    c.tier = named(v, "tier", crossbar::parse_tier);
    c.escalated = v.contains("escalated") && v.at("escalated").as_bool();
    c.replica = integer<std::size_t>(v, "replica");
    c.batch_size = integer<std::size_t>(v, "batch");
    c.label = integer<int>(v, "label");
    c.arrival_ns = v.at("arrival_ns").as_number();
    c.dispatch_ns = v.at("dispatch_ns").as_number();
    c.done_ns = v.at("done_ns").as_number();
    c.batch_wait_ns = v.at("batch_wait_ns").as_number();
    c.queue_wait_ns = v.at("queue_wait_ns").as_number();
    c.issue_wait_ns = v.at("issue_wait_ns").as_number();
    c.bitserial_ns = v.at("bitserial_ns").as_number();
    c.reduce_ns = v.at("reduce_ns").as_number();
    log.completions.push_back(std::move(c));
  } else if (event == "rejected") {
    Rejection r;
    r.id = integer<std::uint64_t>(v, "id");
    r.kind = named(v, "kind", parse_kind);
    r.arrival_ns = v.at("arrival_ns").as_number();
    log.rejections.push_back(r);
  } else {
    throw std::runtime_error("unknown event '" + event + "'");
  }
}

}  // namespace

void write_reqlog(std::ostream& os, const ServeReport& report) {
  write_lines(os, report.completions, report.rejections);
}

void write_reqlog(std::ostream& os, const ReqLog& log) {
  write_lines(os, log.completions, log.rejections);
}

bool write_reqlog_file(const std::string& path, const ServeReport& report) {
  return obs::write_file_atomic(
      path, [&](std::ostream& os) { write_reqlog(os, report); });
}

ReqLog read_reqlog(std::istream& is) {
  ReqLog log;
  rio::LineReader in(kHeaderFormat, is);
  std::string_view line;
  bool seen_header = false;
  while (in.next(line)) {
    if (line.empty()) continue;
    try {
      const obs::json::Value v = obs::json::parse(line);
      if (!seen_header) {
        if (!v.contains("format") ||
            v.at("format").as_string() != kHeaderFormat)
          throw std::runtime_error(
              std::string("expected header {\"format\":\"") + kHeaderFormat +
              "\"}");
        seen_header = true;
      } else {
        read_record(v, log);
      }
    } catch (const std::runtime_error& e) {
      in.fail(e.what());
    }
  }
  if (!seen_header) in.fail("empty reqlog (no header)");
  return log;
}

ReqLog read_reqlog_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("cim-reqlog-v1: cannot open '" + path + "'");
  return read_reqlog(f);
}

void export_reqlog_if_requested(const ServeReport& report) {
  if (!obs::enabled()) return;
  if (const char* path = std::getenv("CIM_OBS_REQLOG_FILE");
      path != nullptr && *path != '\0')
    write_reqlog_file(path, report);
}

}  // namespace cim::serve
