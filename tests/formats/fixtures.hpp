/// \file fixtures.hpp
/// \brief The checked-in text-format fixtures and a format-dispatching
///        parse -> dump helper shared by the fixture and mutation tests.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "eda/verify/program_io.hpp"
#include "exp/checkpoint.hpp"
#include "serve/reqlog.hpp"

namespace cim::formats_test {

/// Every checked-in fixture of a living text format.
inline constexpr const char* kFixtures[] = {
    "mixed_poisson.cimreqlog", "ci_demo.cimcampaign",
    "ci_demo_shard.cimcampaign", "rca2_imply.cimprog",
    "rca2_magic.cimprog",      "rca2_revamp.cimprog",
};

inline std::string read_fixture(const std::string& name) {
  std::ifstream f(std::string(CIM_TEST_DATA_DIR) + "/" + name,
                  std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// dump(parse(text)) in the format named by the fixture's extension.
inline std::string redump(std::string_view name, const std::string& text) {
  std::istringstream is(text);
  std::ostringstream os;
  if (name.ends_with(".cimreqlog")) {
    serve::write_reqlog(os, serve::read_reqlog(is));
  } else if (name.ends_with(".cimcampaign")) {
    exp::dump_manifest(os, exp::parse_manifest(text));
  } else {
    const auto p = eda::verify::parse_program(is);
    switch (p.family) {
      case eda::verify::ProgramFamily::kImply:
        eda::verify::dump_program(os, p.imply);
        break;
      case eda::verify::ProgramFamily::kMagic:
        eda::verify::dump_program(os, p.magic);
        break;
      case eda::verify::ProgramFamily::kRevamp:
        eda::verify::dump_program(os, p.revamp);
        break;
    }
  }
  return os.str();
}

}  // namespace cim::formats_test
