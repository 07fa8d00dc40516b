#include "src/checkpoint/snapshot.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/model/registry.hpp"
#include "src/model/separation.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace sops::checkpoint {

namespace {

constexpr std::string_view kMagic = "sops-checkpoint";

[[noreturn]] void bad(std::size_t line_no, std::string_view msg) {
  std::ostringstream os;
  os << "checkpoint: line " << line_no << ": " << msg;
  throw SnapshotError(os.str());
}

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
}

// A valid model-state line: one or more single-space-separated tokens,
// exactly as save_state() emits them. The codec stores these verbatim
// under an "s " prefix, so the line itself must obey the document's
// token grammar.
bool is_state_line(std::string_view s) {
  if (s.empty() || s.front() == ' ' || s.back() == ' ') return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\t' || c == '\n' || c == '\r') return false;
    if (c == ' ' && s[i - 1] == ' ') return false;
  }
  return true;
}

// ---- hashing ------------------------------------------------------------

// FNV-1a over a byte string: stable, dependency-free, and plenty for
// tamper evidence and spec identity (this is an integrity check against
// accidental corruption/drift, not an adversary).
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- encoding -----------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, ptr);
}

void put_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, ptr);
}

// C99 hexfloat, exactly as the shard wire writes doubles.
void put_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

void put_hex16(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

// ---- decoding -----------------------------------------------------------

// Line/token cursor, same grammar rules as the shard wire: single-space
// separators, no empty tokens, one spelling per document.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  bool next(std::vector<std::string_view>& tokens) {
    tokens.clear();
    if (rest_.empty()) return false;
    ++line_no_;
    const auto nl = rest_.find('\n');
    std::string_view line = rest_.substr(0, nl);
    rest_ = (nl == std::string_view::npos) ? std::string_view{}
                                           : rest_.substr(nl + 1);
    if (line.empty() && rest_.empty()) return false;  // trailing newline
    std::size_t start = 0;
    while (true) {
      const auto sp = line.find(' ', start);
      const std::string_view tok = line.substr(start, sp - start);
      if (!is_token(tok)) bad(line_no_, "empty or malformed token");
      tokens.push_back(tok);
      if (sp == std::string_view::npos) break;
      start = sp + 1;
    }
    return true;
  }

  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

 private:
  std::string_view rest_;
  std::size_t line_no_ = 0;
};

std::uint64_t get_u64(std::string_view tok, std::size_t line_no) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    bad(line_no, "expected unsigned integer");
  }
  return out;
}

std::int64_t get_i64(std::string_view tok, std::size_t line_no) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    bad(line_no, "expected integer");
  }
  return out;
}

double get_double(std::string_view tok, std::size_t line_no) {
  const std::string copy(tok);
  char* end = nullptr;
  const double out = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    bad(line_no, "expected hexfloat value");
  }
  return out;
}

std::uint64_t get_hex16(std::string_view tok, std::size_t line_no) {
  if (tok.size() != 16) bad(line_no, "expected 16-digit hex value");
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out, 16);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    bad(line_no, "expected 16-digit hex value");
  }
  return out;
}

std::vector<std::string_view> expect_line(Lines& lines,
                                          std::string_view keyword,
                                          std::size_t n_tokens) {
  std::vector<std::string_view> tokens;
  if (!lines.next(tokens)) {
    bad(lines.line_no() + 1, std::string("unexpected end of input (wanted '") +
                                 std::string(keyword) + "')");
  }
  if (tokens[0] != keyword) {
    bad(lines.line_no(), std::string("expected '") + std::string(keyword) +
                             "' line, got '" + std::string(tokens[0]) + "'");
  }
  if (tokens.size() != n_tokens) {
    bad(lines.line_no(), std::string("wrong token count for '") +
                             std::string(keyword) + "' line");
  }
  return tokens;
}

// The measurement series block.
void decode_series(Lines& lines, Snapshot& snap) {
  const auto tokens = expect_line(lines, "series", 2);
  const std::uint64_t count = get_u64(tokens[1], lines.line_no());
  snap.series.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto m = expect_line(lines, "m", 7);
    core::Measurement meas;
    meas.iteration = get_u64(m[1], lines.line_no());
    meas.perimeter = get_i64(m[2], lines.line_no());
    meas.edges = get_i64(m[3], lines.line_no());
    meas.hetero_edges = get_i64(m[4], lines.line_no());
    meas.perimeter_ratio = get_double(m[5], lines.line_no());
    meas.hetero_fraction = get_double(m[6], lines.line_no());
    snap.series.push_back(meas);
  }
}

void decode_aux(Lines& lines, Snapshot& snap) {
  std::vector<std::string_view> tokens;
  if (!lines.next(tokens) || tokens[0] != "aux") {
    bad(lines.line_no(), "expected 'aux' line");
  }
  if (tokens.size() < 2) bad(lines.line_no(), "missing aux count");
  const std::uint64_t count = get_u64(tokens[1], lines.line_no());
  if (tokens.size() != 2 + count) {
    bad(lines.line_no(), "aux count does not match declared count");
  }
  snap.aux.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    snap.aux.push_back(get_double(tokens[2 + i], lines.line_no()));
  }
  if (!snap.aux.empty() && !snap.complete) {
    bad(lines.line_no(), "partial snapshots must not carry aux values");
  }
}

void decode_v2_body(Lines& lines, Snapshot& snap) {
  decode_series(lines, snap);
  decode_aux(lines, snap);
  {
    const auto tokens = expect_line(lines, "state", 2);
    const std::uint64_t count = get_u64(tokens[1], lines.line_no());
    snap.state.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::vector<std::string_view> s;
      if (!lines.next(s)) {
        bad(lines.line_no() + 1, "unexpected end of input (wanted 's')");
      }
      if (s[0] != "s" || s.size() < 2) {
        bad(lines.line_no(), "expected 's' state line");
      }
      // Rejoin the tokens: the grammar admits only single spaces, so
      // this reconstructs the model's line byte-for-byte.
      std::string line(s[1]);
      for (std::size_t t = 2; t < s.size(); ++t) {
        line += ' ';
        line += s[t];
      }
      snap.state.push_back(std::move(line));
    }
  }
  if (!snap.complete && snap.state.empty()) {
    bad(lines.line_no(), "partial snapshots must carry model state");
  }
}

}  // namespace

std::uint64_t spec_hash(const shard::JobSpec& job) {
  // Hash the job's own wire encoding with no results: every field a
  // merge's check_same_job compares (model, grid, protocol, params, the
  // dense task table) is covered, and the hash changes exactly when the
  // wire would consider the spec a different job.
  return fnv1a(shard::encode(job, {}));
}

std::string task_filename(std::string_view job, std::uint64_t task_index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "-task%06llu.sopsckpt",
                static_cast<unsigned long long>(task_index));
  return std::string(job) + buf;
}

std::string encode(const Snapshot& snap) {
  if (!is_token(snap.job)) {
    throw std::invalid_argument(
        "checkpoint: job name must be one nonempty token");
  }
  if (!is_token(snap.model)) {
    throw std::invalid_argument(
        "checkpoint: model tag must be one nonempty token");
  }
  if (!snap.complete && snap.state.empty()) {
    throw std::invalid_argument(
        "checkpoint: partial snapshots must carry model state");
  }
  for (const std::string& line : snap.state) {
    if (!is_state_line(line)) {
      throw std::invalid_argument(
          "checkpoint: model state lines must be single-space token lines");
    }
  }
  std::string out;
  out.reserve(256 + 96 * snap.series.size() + 24 * snap.state.size());

  out += kMagic;
  out += " v";
  put_u64(out, kSnapshotVersion);
  out += "\njob ";
  out += snap.job;
  out += "\nmodel ";
  out += snap.model;
  out += "\nspec ";
  put_hex16(out, snap.spec_hash);
  out += "\ntask ";
  put_u64(out, snap.task_index);
  out += ' ';
  put_u64(out, snap.task_seed);
  out += "\nstatus ";
  out += snap.complete ? "complete" : "partial";
  out += "\nseries ";
  put_u64(out, snap.series.size());
  for (const core::Measurement& m : snap.series) {
    out += "\nm ";
    put_u64(out, m.iteration);
    out += ' ';
    put_i64(out, m.perimeter);
    out += ' ';
    put_i64(out, m.edges);
    out += ' ';
    put_i64(out, m.hetero_edges);
    out += ' ';
    put_double(out, m.perimeter_ratio);
    out += ' ';
    put_double(out, m.hetero_fraction);
  }
  out += "\naux ";
  put_u64(out, snap.aux.size());
  for (const double v : snap.aux) {
    out += ' ';
    put_double(out, v);
  }
  out += "\nstate ";
  put_u64(out, snap.state.size());
  for (const std::string& line : snap.state) {
    out += "\ns ";
    out += line;
  }
  out += '\n';
  // The checksum covers every byte written so far — including the final
  // newline before the checksum line, so truncation at any line boundary
  // is also detected.
  out += "checksum ";
  put_hex16(out, fnv1a(out.substr(0, out.size() - 9)));
  out += "\nend\n";
  return out;
}

Snapshot decode(std::string_view text) {
  // Integrity first: locate the checksum line from the back and verify
  // it over the byte prefix before trusting any field. This turns every
  // flavor of corruption — bit flips, truncation, hand edits — into one
  // unambiguous "checksum mismatch" instead of a downstream grammar
  // error that might accidentally parse.
  {
    const auto pos = text.rfind("\nchecksum ");
    if (pos == std::string_view::npos) {
      throw SnapshotError("checkpoint: missing checksum line");
    }
    const std::string_view rest = text.substr(pos + 10);
    const auto nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      throw SnapshotError("checkpoint: malformed checksum line");
    }
    std::uint64_t declared = 0;
    const std::string_view tok = rest.substr(0, nl);
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), declared, 16);
    if (tok.size() != 16 || ec != std::errc{} ||
        ptr != tok.data() + tok.size()) {
      throw SnapshotError("checkpoint: malformed checksum line");
    }
    const std::uint64_t actual = fnv1a(text.substr(0, pos + 1));
    if (actual != declared) {
      std::ostringstream os;
      os << "checkpoint: checksum mismatch (file says ";
      os << tok << ", content hashes to ";
      char buf[17];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(actual));
      os << buf << ") — snapshot is corrupt or truncated";
      throw SnapshotError(os.str());
    }
  }

  Lines lines(text);
  Snapshot snap;
  std::uint64_t version = 0;

  {
    std::vector<std::string_view> tokens;
    if (!lines.next(tokens)) bad(1, "empty input");
    if (tokens.size() != 2 || tokens[0] != kMagic) {
      bad(lines.line_no(), "not a sops checkpoint file (bad magic line)");
    }
    if (tokens[1].size() < 2 || tokens[1][0] != 'v') {
      bad(lines.line_no(), "malformed version token");
    }
    version = get_u64(tokens[1].substr(1), lines.line_no());
    if (version < kSnapshotVersionMin || version > kSnapshotVersion) {
      std::ostringstream os;
      os << "unsupported checkpoint version v" << version
         << " (reader speaks v" << kSnapshotVersionMin << "-v"
         << kSnapshotVersion << ")";
      bad(lines.line_no(), os.str());
    }
  }
  {
    const auto tokens = expect_line(lines, "job", 2);
    snap.job = std::string(tokens[1]);
  }
  {
    const auto tokens = expect_line(lines, "model", 2);
    snap.model = std::string(tokens[1]);
  }
  {
    const auto tokens = expect_line(lines, "spec", 2);
    snap.spec_hash = get_hex16(tokens[1], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "task", 3);
    snap.task_index = get_u64(tokens[1], lines.line_no());
    snap.task_seed = get_u64(tokens[2], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "status", 2);
    if (tokens[1] == "complete") {
      snap.complete = true;
    } else if (tokens[1] == "partial") {
      snap.complete = false;
    } else {
      bad(lines.line_no(), "status must be 'partial' or 'complete'");
    }
  }
  decode_v2_body(lines, snap);
  expect_line(lines, "checksum", 2);  // verified above; consume in sequence
  {
    const auto tokens = expect_line(lines, "end", 1);
    (void)tokens;
    std::vector<std::string_view> extra;
    if (lines.next(extra)) {
      bad(lines.line_no(), "trailing content after 'end'");
    }
  }
  return snap;
}

void write_snapshot(const std::string& path, const Snapshot& snap) {
  const std::string text = encode(snap);
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("checkpoint: cannot open '" + tmp +
                             "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  bool ok = (written == text.size()) && (std::fflush(out) == 0);
#if !defined(_WIN32)
  // Durability before visibility: the data must be on disk before the
  // rename makes the snapshot the one a resume will trust.
  ok = ok && (::fsync(::fileno(out)) == 0);
#endif
  ok = (std::fclose(out) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename '" + tmp + "' to '" +
                             path + "': " + std::strerror(err));
  }
}

Snapshot read_snapshot(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    throw std::runtime_error("checkpoint: cannot open '" + path +
                             "' for reading");
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    throw std::runtime_error("checkpoint: read error on '" + path + "'");
  }
  try {
    return decode(text);
  } catch (const SnapshotError& e) {
    throw SnapshotError(std::string(e.what()) + " (in " + path + ")");
  }
}

Snapshot capture(const model::ChainModel& m, std::string job,
                 std::uint64_t spec_hash, const engine::Task& task,
                 bool complete, std::vector<core::Measurement> series,
                 std::vector<double> aux) {
  Snapshot snap;
  snap.job = std::move(job);
  snap.model = std::string(m.tag());
  snap.spec_hash = spec_hash;
  snap.task_index = task.index;
  snap.task_seed = task.seed;
  snap.complete = complete;
  snap.series = std::move(series);
  snap.aux = std::move(aux);
  snap.state = m.save_state();
  return snap;
}

Snapshot capture_stateless(std::string job, std::string model,
                           std::uint64_t spec_hash, const engine::Task& task,
                           std::vector<core::Measurement> series,
                           std::vector<double> aux) {
  Snapshot snap;
  snap.job = std::move(job);
  snap.model = std::move(model);
  snap.spec_hash = spec_hash;
  snap.task_index = task.index;
  snap.task_seed = task.seed;
  snap.complete = true;
  snap.series = std::move(series);
  snap.aux = std::move(aux);
  return snap;
}

std::unique_ptr<model::ChainModel> restore_model(const Snapshot& snap) {
  const model::Factory* factory = model::find_model(snap.model);
  if (factory == nullptr) {
    std::string names;
    for (const std::string& n : model::registered_models()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw SnapshotError("checkpoint: model '" + snap.model +
                        "' not registered (registered: " + names + ")");
  }
  if (snap.state.empty()) {
    throw SnapshotError(
        "checkpoint: snapshot carries no model state (stateless completion "
        "snapshot)");
  }
  try {
    return factory->restore(snap.state);
  } catch (const model::ModelError& e) {
    throw SnapshotError(std::string("checkpoint: ") + e.what());
  }
}

}  // namespace sops::checkpoint
