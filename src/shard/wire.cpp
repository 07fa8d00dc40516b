#include "src/shard/wire.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sops::shard {

namespace {

constexpr std::string_view kMagic = "sops-shard-wire";

[[noreturn]] void bad(std::size_t line_no, std::string_view msg) {
  std::ostringstream os;
  os << "wire: line " << line_no << ": " << msg;
  throw WireError(os.str());
}

bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
  }
  return true;
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

// C99 hexfloat: exact round-trip for every finite double (sign, denormals,
// -0.0 included); nan/inf print as "nan"/"inf"/"-nan"/"-inf".
void put_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

// ---- decoding -----------------------------------------------------------

/// Cursor over the document's lines, splitting each into space-separated
/// tokens. Double spaces produce empty tokens and are rejected, so the
/// grammar has exactly one spelling per document.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// Next line split into tokens. Returns false at end of input. A
  /// trailing newline on the final line is accepted; any other blank
  /// line is an error.
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
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    bad(line_no, "expected unsigned integer");
  }
  return out;
}

std::int64_t get_i64(std::string_view tok, std::size_t line_no) {
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    bad(line_no, "expected integer");
  }
  return out;
}

double get_double(std::string_view tok, std::size_t line_no) {
  // strtod parses hexfloats, nan, and ±inf; require the whole token.
  const std::string copy(tok);
  char* end = nullptr;
  const double out = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    bad(line_no, "expected hexfloat value");
  }
  return out;
}

/// One parsed line whose first token (the keyword) and arity are fixed.
std::vector<std::string_view> expect_line(Lines& lines,
                                          std::string_view keyword,
                                          std::size_t min_tokens,
                                          std::size_t max_tokens) {
  std::vector<std::string_view> tokens;
  if (!lines.next(tokens)) {
    bad(lines.line_no() + 1, std::string("unexpected end of input (wanted '") +
                                 std::string(keyword) + "')");
  }
  if (tokens[0] != keyword) {
    bad(lines.line_no(), std::string("expected '") + std::string(keyword) +
                             "' line, got '" + std::string(tokens[0]) + "'");
  }
  if (tokens.size() < min_tokens || tokens.size() > max_tokens) {
    bad(lines.line_no(), std::string("wrong token count for '") +
                             std::string(keyword) + "' line");
  }
  return tokens;
}

/// `keyword <count> <v>...` where all values sit on the one line.
std::vector<double> get_counted_doubles(Lines& lines,
                                        std::string_view keyword) {
  std::vector<std::string_view> tokens;
  if (!lines.next(tokens) || tokens[0] != keyword) {
    bad(lines.line_no(), std::string("expected '") + std::string(keyword) + "' line");
  }
  if (tokens.size() < 2) bad(lines.line_no(), "missing count");
  const std::uint64_t count = get_u64(tokens[1], lines.line_no());
  if (tokens.size() != 2 + count) {
    bad(lines.line_no(), "value count does not match declared count");
  }
  std::vector<double> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(get_double(tokens[2 + i], lines.line_no()));
  }
  return out;
}

std::vector<std::uint64_t> get_counted_u64s(Lines& lines,
                                            std::string_view keyword) {
  std::vector<std::string_view> tokens;
  if (!lines.next(tokens) || tokens[0] != keyword) {
    bad(lines.line_no(), std::string("expected '") + std::string(keyword) + "' line");
  }
  if (tokens.size() < 2) bad(lines.line_no(), "missing count");
  const std::uint64_t count = get_u64(tokens[1], lines.line_no());
  if (tokens.size() != 2 + count) {
    bad(lines.line_no(), "value count does not match declared count");
  }
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(get_u64(tokens[2 + i], lines.line_no()));
  }
  return out;
}

void check_encodable(const JobSpec& job,
                     std::span<const engine::TaskResult> results,
                     const Manifest& manifest) {
  if (!is_token(job.name)) {
    throw std::invalid_argument("wire: job name must be one nonempty token");
  }
  if (!is_token(job.model)) {
    throw std::invalid_argument("wire: model tag must be one nonempty token");
  }
  for (const std::string& p : job.params) {
    if (!is_token(p)) {
      throw std::invalid_argument("wire: params must be nonempty tokens: '" +
                                  p + "'");
    }
  }
  for (std::size_t i = 0; i < job.tasks.size(); ++i) {
    if (job.tasks[i].index != i) {
      throw std::invalid_argument(
          "wire: task table must be dense (tasks[i].index == i)");
    }
  }
  if (manifest.begin > manifest.end || manifest.end > job.tasks.size()) {
    throw std::invalid_argument(
        "wire: manifest range must satisfy begin <= end <= tasks");
  }
  std::uint64_t prev = 0;
  bool first = true;
  for (const engine::TaskResult& r : results) {
    if (r.task.index >= job.tasks.size()) {
      throw std::invalid_argument("wire: result task index outside the table");
    }
    if (r.task.index < manifest.begin || r.task.index >= manifest.end) {
      throw std::invalid_argument(
          "wire: result task index outside the manifest range");
    }
    if (!first && r.task.index <= prev) {
      throw std::invalid_argument(
          "wire: results must be in strictly increasing task order");
    }
    prev = r.task.index;
    first = false;
  }
}

}  // namespace

std::string encode(const JobSpec& job,
                   std::span<const engine::TaskResult> results,
                   const std::optional<Manifest>& manifest) {
  const Manifest mf =
      manifest.value_or(Manifest{1, 0, job.tasks.size()});
  check_encodable(job, results, mf);
  std::string out;
  out.reserve(256 + 96 * job.tasks.size() + 96 * results.size());

  out += kMagic;
  out += " v";
  put_u64(out, kWireVersion);
  out += "\njob ";
  out += job.name;
  out += "\nmodel ";
  out += job.model;
  out += "\nmanifest ";
  put_u64(out, mf.n_shards);
  out += ' ';
  put_u64(out, mf.begin);
  out += ' ';
  put_u64(out, mf.end);

  const auto put_axis = [&out](std::string_view key,
                               std::span<const double> values) {
    out += '\n';
    out += key;
    out += ' ';
    put_u64(out, values.size());
    for (const double v : values) {
      out += ' ';
      put_double(out, v);
    }
  };
  put_axis("grid.lambdas", job.grid.lambdas);
  put_axis("grid.gammas", job.grid.gammas);
  out += "\ngrid.replicas ";
  put_u64(out, job.grid.replicas);
  out += "\ngrid.base_seed ";
  put_u64(out, job.grid.base_seed);
  out += "\ngrid.derive_seeds ";
  out += job.grid.derive_seeds ? '1' : '0';

  out += "\nproto.checkpoints ";
  put_u64(out, job.checkpoints.size());
  for (const std::uint64_t c : job.checkpoints) {
    out += ' ';
    put_u64(out, c);
  }
  out += "\nproto.burn_in ";
  put_u64(out, job.burn_in);
  out += "\nproto.interval ";
  put_u64(out, job.interval);
  out += "\nproto.samples ";
  put_u64(out, job.samples);

  out += "\nparams ";
  put_u64(out, job.params.size());
  for (const std::string& p : job.params) {
    out += "\np ";
    out += p;
  }

  out += "\ntasks ";
  put_u64(out, job.tasks.size());
  for (const engine::Task& t : job.tasks) {
    out += "\nt ";
    put_u64(out, t.index);
    out += ' ';
    put_u64(out, t.lambda_index);
    out += ' ';
    put_u64(out, t.gamma_index);
    out += ' ';
    put_u64(out, t.replica);
    out += ' ';
    put_double(out, t.lambda);
    out += ' ';
    put_double(out, t.gamma);
    out += ' ';
    put_u64(out, t.seed);
  }

  out += "\nresults ";
  put_u64(out, results.size());
  for (const engine::TaskResult& r : results) {
    out += "\nr ";
    put_u64(out, r.task.index);
    out += ' ';
    put_u64(out, r.steps);
    out += ' ';
    put_u64(out, r.series.size());
    out += ' ';
    put_u64(out, r.aux.size());
    for (const core::Measurement& m : r.series) {
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
    if (!r.aux.empty()) {
      out += "\na";
      for (const double v : r.aux) {
        out += ' ';
        put_double(out, v);
      }
    }
  }
  out += "\nend\n";
  return out;
}

ShardFile decode(std::string_view text) {
  Lines lines(text);
  ShardFile file;
  JobSpec& job = file.job;

  std::uint64_t version = 0;
  {
    std::vector<std::string_view> tokens;
    if (!lines.next(tokens)) bad(1, "empty input");
    if (tokens.size() != 2 || tokens[0] != kMagic) {
      bad(lines.line_no(), "not a sops shard file (bad magic line)");
    }
    if (tokens[1].size() < 2 || tokens[1][0] != 'v') {
      bad(lines.line_no(), "malformed version token");
    }
    version = get_u64(tokens[1].substr(1), lines.line_no());
    if (version < kWireVersionMin || version > kWireVersion) {
      std::ostringstream os;
      os << "unsupported wire version v" << version << " (reader speaks v"
         << kWireVersionMin << "-v" << kWireVersion << ")";
      bad(lines.line_no(), os.str());
    }
  }

  {
    const auto tokens = expect_line(lines, "job", 2, 2);
    job.name = std::string(tokens[1]);
  }
  {
    const auto tokens = expect_line(lines, "model", 2, 2);
    job.model = std::string(tokens[1]);
  }
  {
    const auto tokens = expect_line(lines, "manifest", 4, 4);
    file.manifest.n_shards = get_u64(tokens[1], lines.line_no());
    file.manifest.begin = get_u64(tokens[2], lines.line_no());
    file.manifest.end = get_u64(tokens[3], lines.line_no());
    if (file.manifest.begin > file.manifest.end) {
      bad(lines.line_no(), "manifest range must satisfy begin <= end");
    }
  }
  job.grid.lambdas = get_counted_doubles(lines, "grid.lambdas");
  job.grid.gammas = get_counted_doubles(lines, "grid.gammas");
  {
    const auto tokens = expect_line(lines, "grid.replicas", 2, 2);
    job.grid.replicas =
        static_cast<std::size_t>(get_u64(tokens[1], lines.line_no()));
  }
  {
    const auto tokens = expect_line(lines, "grid.base_seed", 2, 2);
    job.grid.base_seed = get_u64(tokens[1], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "grid.derive_seeds", 2, 2);
    if (tokens[1] == "1") {
      job.grid.derive_seeds = true;
    } else if (tokens[1] == "0") {
      job.grid.derive_seeds = false;
    } else {
      bad(lines.line_no(), "derive_seeds must be 0 or 1");
    }
  }
  job.checkpoints = get_counted_u64s(lines, "proto.checkpoints");
  {
    const auto tokens = expect_line(lines, "proto.burn_in", 2, 2);
    job.burn_in = get_u64(tokens[1], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "proto.interval", 2, 2);
    job.interval = get_u64(tokens[1], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "proto.samples", 2, 2);
    job.samples = get_u64(tokens[1], lines.line_no());
  }
  {
    const auto tokens = expect_line(lines, "params", 2, 2);
    const std::uint64_t count = get_u64(tokens[1], lines.line_no());
    job.params.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto p = expect_line(lines, "p", 2, 2);
      job.params.emplace_back(p[1]);
    }
  }
  {
    const auto tokens = expect_line(lines, "tasks", 2, 2);
    const std::uint64_t count = get_u64(tokens[1], lines.line_no());
    if (file.manifest.end > count) {
      bad(lines.line_no(), "manifest range extends past the task table");
    }
    job.tasks.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto t = expect_line(lines, "t", 8, 8);
      engine::Task task;
      task.index = static_cast<std::size_t>(get_u64(t[1], lines.line_no()));
      if (task.index != i) {
        bad(lines.line_no(), "task table must be dense and in order");
      }
      task.lambda_index =
          static_cast<std::size_t>(get_u64(t[2], lines.line_no()));
      task.gamma_index =
          static_cast<std::size_t>(get_u64(t[3], lines.line_no()));
      task.replica = static_cast<std::size_t>(get_u64(t[4], lines.line_no()));
      task.lambda = get_double(t[5], lines.line_no());
      task.gamma = get_double(t[6], lines.line_no());
      task.seed = get_u64(t[7], lines.line_no());
      job.tasks.push_back(task);
    }
  }
  {
    const auto tokens = expect_line(lines, "results", 2, 2);
    const std::uint64_t count = get_u64(tokens[1], lines.line_no());
    file.results.reserve(count);
    std::uint64_t prev_index = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto r = expect_line(lines, "r", 5, 5);
      engine::TaskResult result;
      const std::uint64_t index = get_u64(r[1], lines.line_no());
      if (index >= job.tasks.size()) {
        bad(lines.line_no(), "result task index outside the task table");
      }
      if (index < file.manifest.begin || index >= file.manifest.end) {
        bad(lines.line_no(), "result task index outside the manifest range");
      }
      if (i > 0 && index <= prev_index) {
        bad(lines.line_no(),
            "result records must be in strictly increasing task order");
      }
      prev_index = index;
      result.task = job.tasks[static_cast<std::size_t>(index)];
      result.steps = get_u64(r[2], lines.line_no());
      const std::uint64_t nseries = get_u64(r[3], lines.line_no());
      const std::uint64_t naux = get_u64(r[4], lines.line_no());
      result.series.reserve(nseries);
      for (std::uint64_t s = 0; s < nseries; ++s) {
        const auto m = expect_line(lines, "m", 7, 7);
        core::Measurement meas;
        meas.iteration = get_u64(m[1], lines.line_no());
        meas.perimeter = get_i64(m[2], lines.line_no());
        meas.edges = get_i64(m[3], lines.line_no());
        meas.hetero_edges = get_i64(m[4], lines.line_no());
        meas.perimeter_ratio = get_double(m[5], lines.line_no());
        meas.hetero_fraction = get_double(m[6], lines.line_no());
        result.series.push_back(meas);
      }
      if (naux > 0) {
        const auto a = expect_line(lines, "a", 1 + naux, 1 + naux);
        result.aux.reserve(naux);
        for (std::uint64_t v = 0; v < naux; ++v) {
          result.aux.push_back(get_double(a[1 + v], lines.line_no()));
        }
      }
      file.results.push_back(std::move(result));
    }
  }
  {
    const auto tokens = expect_line(lines, "end", 1, 1);
    (void)tokens;
    std::vector<std::string_view> extra;
    if (lines.next(extra)) {
      bad(lines.line_no(), "trailing content after 'end'");
    }
  }
  return file;
}

void write_shard_file(const std::string& path, const JobSpec& job,
                      std::span<const engine::TaskResult> results,
                      const std::optional<Manifest>& manifest) {
  const std::string text = encode(job, results, manifest);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("wire: cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool ok = (written == text.size()) && (std::fclose(out) == 0);
  if (!ok) {
    throw std::runtime_error("wire: short write to '" + path + "'");
  }
}

ShardFile read_shard_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    throw std::runtime_error("wire: cannot open '" + path + "' for reading");
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
    throw std::runtime_error("wire: read error on '" + path + "'");
  }
  try {
    return decode(text);
  } catch (const WireError& e) {
    throw WireError(std::string(e.what()) + " (in " + path + ")");
  }
}

}  // namespace sops::shard
