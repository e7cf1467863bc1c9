#include "exp/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/obs.hpp"
#include "util/record_io.hpp"

namespace cim::exp {

namespace {

namespace rio = util::record_io;

constexpr std::string_view kMagic = "cim-campaign-v1";

/// One record's tokens — a head keyword, bare arguments and `<kw> <value>`
/// pairs — consumed strictly in order. The grammar is rigid so
/// the dump -> parse -> dump fixpoint is trivially checkable.
class Fields {
 public:
  Fields(const rio::LineReader& in, std::string_view line)
      : in_(in), t_(rio::split(line)) {}

  std::string_view arg(const char* what) {
    if (i_ >= t_.size()) in_.fail(std::string("missing ") + what);
    return t_[i_++];
  }
  std::string_view value(const char* kw) {
    const std::string_view got = i_ < t_.size() ? t_[i_] : std::string_view{};
    if (got != kw)
      in_.fail("expected '" + std::string(kw) + "', got '" +
               std::string(got) + "'");
    ++i_;
    return arg(kw);
  }
  std::uint64_t u64(const char* kw, int base = 10) {
    return in_.u64(value(kw), kw, base);
  }
  double f64(const char* kw) { return in_.f64(value(kw), kw); }
  bool flag(const char* kw) {
    const std::string_view v = value(kw);
    if (v != "0" && v != "1")
      in_.fail(std::string("bad ") + kw + " flag '" + std::string(v) + "'");
    return v == "1";
  }
  void end() const {
    if (i_ != t_.size()) in_.fail("trailing tokens");
  }

 private:
  const rio::LineReader& in_;
  std::vector<std::string_view> t_;
  std::size_t i_ = 0;
};

}  // namespace

std::uint64_t campaign_fingerprint(std::string_view name, std::uint64_t seed,
                                   std::size_t cells, std::uint64_t block) {
  std::string key;
  key.reserve(name.size() + 64);
  key.append(name);
  key.push_back('|');
  key.append(std::to_string(seed));
  key.push_back('|');
  key.append(std::to_string(cells));
  key.push_back('|');
  key.append(std::to_string(block));
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

void dump_manifest(std::ostream& os, const CampaignManifest& m) {
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, m.fingerprint);
  os << kMagic << '\n';
  os << "campaign " << m.name << " seed " << m.seed << " cells " << m.cells
     << " block " << m.block << " fingerprint " << fp << '\n';
  os << "state rounds " << m.rounds << " trials " << m.total_trials << '\n';
  for (std::size_t i = 0; i < m.cell_state.size(); ++i) {
    const CellCheckpoint& c = m.cell_state[i];
    os << "cell " << i << " count " << c.stat.n << " mean "
       << rio::g17(c.stat.mean) << " m2 " << rio::g17(c.stat.m2) << " min "
       << rio::g17(c.stat.min) << " max " << rio::g17(c.stat.max)
       << " cursor " << c.cursor << " frozen " << (c.frozen ? 1 : 0)
       << " capped " << (c.capped ? 1 : 0) << '\n';
  }
  os << "end\n";
}

std::string manifest_to_string(const CampaignManifest& m) {
  std::ostringstream os;
  dump_manifest(os, m);
  return os.str();
}

CampaignManifest parse_manifest(std::string_view text) {
  rio::LineReader in(std::string(kMagic), text);
  std::string_view line;
  if (!in.next(line)) in.fail("empty input");
  if (line != kMagic) in.fail("bad magic '" + std::string(line) + "'");

  CampaignManifest m;
  bool saw_campaign = false;
  bool saw_state = false;
  bool saw_end = false;
  while (in.next(line)) {
    if (line.empty()) continue;
    if (saw_end) in.fail("content after 'end'");
    Fields f(in, line);
    const std::string_view kw = f.arg("record");
    if (kw == "campaign") {
      if (saw_campaign) in.fail("duplicate 'campaign' line");
      m.name = std::string(f.arg("campaign name"));
      m.seed = f.u64("seed");
      m.cells = f.u64("cells");
      m.block = f.u64("block");
      m.fingerprint = f.u64("fingerprint", 16);
      f.end();
      if (m.fingerprint !=
          campaign_fingerprint(m.name, m.seed, m.cells, m.block))
        in.fail("fingerprint does not match campaign identity");
      saw_campaign = true;
    } else if (kw == "state") {
      if (!saw_campaign) in.fail("'state' before 'campaign'");
      if (saw_state) in.fail("duplicate 'state' line");
      m.rounds = f.u64("rounds");
      m.total_trials = f.u64("trials");
      f.end();
      saw_state = true;
    } else if (kw == "cell") {
      if (!saw_state) in.fail("'cell' before 'state'");
      const std::uint64_t idx = in.u64(f.arg("cell index"), "cell index");
      if (idx != m.cell_state.size())
        in.fail("cell index " + std::to_string(idx) + ", expected " +
                std::to_string(m.cell_state.size()));
      if (idx >= m.cells) in.fail("cell index out of range");
      CellCheckpoint c;
      c.stat.n = f.u64("count");
      c.stat.mean = f.f64("mean");
      c.stat.m2 = f.f64("m2");
      c.stat.min = f.f64("min");
      c.stat.max = f.f64("max");
      c.cursor = f.u64("cursor");
      c.frozen = f.flag("frozen");
      c.capped = f.flag("capped");
      f.end();
      if (c.cursor < c.stat.n) in.fail("cursor behind trial count");
      m.cell_state.push_back(c);
    } else if (kw == "end") {
      if (!saw_state) in.fail("'end' before 'state'");
      f.end();
      saw_end = true;
    } else {
      in.fail("unknown record '" + std::string(kw) + "'");
    }
  }

  if (!saw_campaign) in.fail("missing 'campaign' line");
  if (!saw_end) in.fail("missing 'end' trailer");
  if (m.cell_state.size() != m.cells)
    in.fail("have " + std::to_string(m.cell_state.size()) +
            " cell lines, campaign declares " + std::to_string(m.cells));
  return m;
}

bool save_manifest(const std::string& path, const CampaignManifest& m) {
  return obs::write_file_atomic(path,
                                [&](std::ostream& os) { dump_manifest(os, m); });
}

bool load_manifest(const std::string& path, CampaignManifest& out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    out = parse_manifest(buf.str());
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace cim::exp
