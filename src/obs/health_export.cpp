/// \file health_export.cpp
/// \brief Spatial heatmap exporters (CSV + flat JSON) over the
///        HealthRegistry. Schemas documented in DESIGN.md §8.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "util/record_io.hpp"

namespace cim::obs {

namespace {

namespace rio = util::record_io;

/// Heatmap policy: exact doubles, non-finite values written as 0.
void json_num(std::ostream& os, double v) {
  if (std::isfinite(v))
    os << rio::g17(v);
  else
    os << '0';
}

template <typename T>
void json_array(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ",";
    if constexpr (std::is_floating_point_v<T>)
      json_num(os, v[i]);
    else
      os << static_cast<std::uint64_t>(v[i]);
  }
  os << "]";
}

void csv_cell_metric(std::ostream& os, const std::string& array,
                     const char* metric, std::size_t rows, std::size_t cols,
                     const auto& values) {
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      os << array << ',' << metric << ',' << r << ',' << c << ',';
      const auto v = values[r * cols + c];
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>)
        json_num(os, v);
      else
        os << static_cast<std::uint64_t>(v);
      os << '\n';
    }
}

void csv_col_metric(std::ostream& os, const std::string& array,
                    const char* metric, std::size_t cols, const auto& values) {
  for (std::size_t c = 0; c < cols; ++c) {
    os << array << ',' << metric << ",-1," << c << ',';
    const auto v = values[c];
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>)
      json_num(os, v);
    else
      os << static_cast<std::uint64_t>(v);
    os << '\n';
  }
}

}  // namespace

void write_health_heatmap_csv(std::ostream& os) {
  os << "array,metric,row,col,value\n";
  for (const auto& mon : HealthRegistry::global().monitors()) {
    const HealthMonitor::Snapshot s = mon->snapshot();
    csv_cell_metric(os, s.name, "wear", s.rows, s.cols, s.wear);
    csv_cell_metric(os, s.name, "disturbs", s.rows, s.cols, s.disturbs);
    csv_cell_metric(os, s.name, "drift_us", s.rows, s.cols, s.drift_us);
    csv_cell_metric(os, s.name, "worn", s.rows, s.cols, s.worn);
    csv_col_metric(os, s.name, "adc_samples", s.cols, s.adc_samples);
    csv_col_metric(os, s.name, "adc_clips", s.cols, s.adc_clips);
    csv_col_metric(os, s.name, "sneak_ua", s.cols, s.sneak_ua);
  }
}

void write_health_json(std::ostream& os) {
  const BuildInfo info = build_info();
  os << "{\"meta\":{\"git_sha\":\"" << rio::json_escape(info.git_sha)
     << "\",\"build_type\":\"" << rio::json_escape(info.build_type)
     << "\",\"schema\":\"cim-health-heatmap-v1\"},\"arrays\":[";
  bool first = true;
  for (const auto& mon : HealthRegistry::global().monitors()) {
    const HealthMonitor::Snapshot s = mon->snapshot();
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << rio::json_escape(s.name) << '"';
    os << ",\"rows\":" << s.rows << ",\"cols\":" << s.cols;
    os << ",\"wear\":";
    json_array(os, s.wear);
    os << ",\"disturbs\":";
    json_array(os, s.disturbs);
    os << ",\"drift_us\":";
    json_array(os, s.drift_us);
    os << ",\"worn\":";
    json_array(os, s.worn);
    os << ",\"adc_samples\":";
    json_array(os, s.adc_samples);
    os << ",\"adc_clips\":";
    json_array(os, s.adc_clips);
    os << ",\"sneak_ua\":";
    json_array(os, s.sneak_ua);
    os << ",\"summary\":{";
    os << "\"total_writes\":" << s.total_writes;
    os << ",\"total_disturbs\":" << s.total_disturbs;
    os << ",\"max_wear\":" << s.max_wear;
    os << ",\"worn_cells\":" << s.worn_cells;
    os << ",\"total_adc_samples\":" << s.total_adc_samples;
    os << ",\"total_adc_clips\":" << s.total_adc_clips;
    os << ",\"mean_abs_drift_us\":";
    json_num(os, s.mean_abs_drift_us);
    os << ",\"max_abs_drift_us\":";
    json_num(os, s.max_abs_drift_us);
    os << ",\"total_sneak_ua\":";
    json_num(os, s.total_sneak_ua);
    os << "}}";
  }
  os << "]}\n";
}

bool export_health_heatmap_if_requested() {
  const char* path = std::getenv("CIM_OBS_HEATMAP_FILE");
  if (path == nullptr || *path == '\0') return false;
  if (!health_enabled()) return false;
  if (HealthRegistry::global().size() == 0) return false;
  const std::string_view p(path);
  const bool csv = p.size() >= 4 && p.substr(p.size() - 4) == ".csv";
  return write_file_atomic(path, [&](std::ostream& os) {
    if (csv)
      write_health_heatmap_csv(os);
    else
      write_health_json(os);
  });
}

}  // namespace cim::obs
