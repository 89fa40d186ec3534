#include "serve/jobs_io.hpp"

#include <cctype>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace rocqr::serve {

namespace {

/// Cursor over the batch text. The grammar is tiny (an array of flat
/// objects with string/number/boolean values), so a hand-rolled scanner
/// keeps the service free of a JSON dependency.
struct Cursor {
  const std::string& text;
  size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }

  char peek() {
    skip_ws();
    if (pos >= text.size()) {
      throw InvalidArgument("jobs JSON: unexpected end of input");
    }
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      throw InvalidArgument(std::string("jobs JSON: expected '") + c +
                            "' at offset " + std::to_string(pos) + ", got '" +
                            text[pos] + "'");
    }
    ++pos;
  }

  bool consume_if(char c) {
    if (!at_end() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }

  /// The four hex digits of a "u" escape, whose 'u' is already consumed.
  std::uint32_t parse_hex4() {
    if (pos + 4 > text.size()) {
      throw InvalidArgument("jobs JSON: short \\u escape at offset " +
                            std::to_string(pos));
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text[pos++];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<std::uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<std::uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<std::uint32_t>(h - 'A' + 10);
      } else {
        throw InvalidArgument(std::string("jobs JSON: non-hex digit '") + h +
                              "' in \\u escape");
      }
    }
    return v;
  }

  /// A "u" escape as one code point: a high surrogate must be followed by
  /// a "u" escape of a low surrogate, and a low surrogate may not come
  /// first.
  std::uint32_t parse_code_point() {
    const std::uint32_t hi = parse_hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) {
      throw InvalidArgument("jobs JSON: unpaired low surrogate \\u" +
                            text.substr(pos - 4, 4));
    }
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (text.compare(pos, 2, "\\u") != 0) {
      throw InvalidArgument("jobs JSON: unpaired high surrogate \\u" +
                            text.substr(pos - 4, 4));
    }
    pos += 2;
    const std::uint32_t lo = parse_hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) {
      throw InvalidArgument("jobs JSON: high surrogate \\u" +
                            text.substr(pos - 10, 4) +
                            " not followed by a low surrogate");
    }
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// A JSON string with the standard escapes, "u" escapes written out as
  /// UTF-8. Raw control bytes are kept as they are.
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) break;
        char esc = text[pos++];
        switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'u': append_utf8(out, parse_code_point()); break;
        default:
          throw InvalidArgument(
              std::string("jobs JSON: unsupported escape \\") + esc);
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos >= text.size()) {
      throw InvalidArgument("jobs JSON: unterminated string");
    }
    ++pos; // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) {
      throw InvalidArgument("jobs JSON: expected a number at offset " +
                            std::to_string(start));
    }
    const std::string span = text.substr(start, pos - start);
    try {
      // stod parses a prefix; the whole consumed span must be the number,
      // or junk like "1.2.3" / "1e2e3" would silently pass as 1.2 / 100.
      size_t parsed = 0;
      const double v = std::stod(span, &parsed);
      if (parsed != span.size()) {
        throw std::invalid_argument("trailing characters");
      }
      return v;
    } catch (const std::exception&) {
      throw InvalidArgument("jobs JSON: malformed number '" + span + "'");
    }
  }

  bool parse_bool() {
    skip_ws();
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      return false;
    }
    throw InvalidArgument("jobs JSON: expected true/false at offset " +
                          std::to_string(pos));
  }
};

index_t to_index(double v, const std::string& key) {
  // Range-check before the cast: float-to-integer conversion of an
  // out-of-range value (say 1e30) is undefined behavior, so the cast may
  // only run once v is known to fit. double(int64 max) rounds *up* to
  // 2^63, itself out of range, hence the exclusive comparison.
  const double max_index =
      static_cast<double>(std::numeric_limits<index_t>::max());
  if (!(v >= 0) || v >= max_index ||
      v != static_cast<double>(static_cast<index_t>(v))) {
    throw InvalidArgument("jobs JSON: \"" + key +
                          "\" must be a non-negative integer");
  }
  return static_cast<index_t>(v);
}

JobSpec parse_job_object(Cursor& cur, size_t job_index) {
  JobSpec job;
  bool have_m = false;
  bool have_n = false;
  bool have_deadline = false;
  cur.expect('{');
  if (!cur.consume_if('}')) {
    do {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "name") {
        job.name = cur.parse_string();
      } else if (key == "algorithm" || key == "algo") {
        job.algorithm = cur.parse_string();
      } else if (key == "precision") {
        const std::string p = cur.parse_string();
        if (p == "fp16") {
          job.precision = blas::GemmPrecision::FP16_FP32;
        } else if (p == "fp32") {
          job.precision = blas::GemmPrecision::FP32;
        } else {
          throw InvalidArgument("jobs JSON: unknown precision \"" + p +
                                "\" (expected fp16 or fp32)");
        }
      } else if (key == "m") {
        job.m = to_index(cur.parse_number(), key);
        have_m = true;
      } else if (key == "n") {
        job.n = to_index(cur.parse_number(), key);
        have_n = true;
      } else if (key == "blocksize") {
        job.blocksize = to_index(cur.parse_number(), key);
      } else if (key == "priority") {
        job.priority = static_cast<int>(cur.parse_number());
      } else if (key == "deadline") {
        job.deadline_seconds = cur.parse_number();
        have_deadline = true;
      } else if (key == "arrival_after_units") {
        job.arrival_after_units = to_index(cur.parse_number(), key);
      } else {
        throw InvalidArgument("jobs JSON: unknown key \"" + key + "\"");
      }
    } while (cur.consume_if(','));
    cur.expect('}');
  }
  if (!have_m || !have_n) {
    throw InvalidArgument("jobs JSON: job " + std::to_string(job_index) +
                          " is missing required key \"" +
                          std::string(have_m ? "n" : "m") + "\"");
  }
  if (job.name.empty()) job.name = "job" + std::to_string(job_index);
  // Shape and deadline sanity at parse time, naming the offender: a zero
  // dimension or a non-positive explicit deadline would otherwise surface
  // much later as an opaque admission rejection (or worse, be admitted —
  // deadline 0 means "none" internally).
  if (job.m <= 0 || job.n <= 0) {
    throw InvalidArgument("jobs JSON: job \"" + job.name +
                          "\" has non-positive \"" +
                          (job.m <= 0 ? "m" : "n") + "\" (m and n must be >= 1)");
  }
  if (have_deadline && job.deadline_seconds <= 0) {
    throw InvalidArgument(
        "jobs JSON: job \"" + job.name +
        "\" has a non-positive \"deadline\" (omit the key for no deadline)");
  }
  return job;
}

/// Shortest-round-trip double formatting. Streaming a double at the
/// default ostream precision keeps only 6 significant digits — enough to
/// corrupt every reloaded metric in the 7th digit — so every double in the
/// report goes through here with max_digits10 (17) significant digits,
/// which round-trips bit-exactly through strtod.
std::string json_double(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void write_stats(std::ostream& os, const qr::QrStats& s,
                 const std::string& indent) {
  os << "{\n";
  os << indent << "  \"total_seconds\": " << json_double(s.total_seconds)
     << ",\n";
  os << indent << "  \"h2d_seconds\": " << json_double(s.h2d_seconds)
     << ",\n";
  os << indent << "  \"d2h_seconds\": " << json_double(s.d2h_seconds)
     << ",\n";
  os << indent << "  \"compute_seconds\": " << json_double(s.compute_seconds)
     << ",\n";
  os << indent << "  \"bytes_h2d\": " << s.bytes_h2d << ",\n";
  os << indent << "  \"bytes_d2h\": " << s.bytes_d2h << ",\n";
  os << indent << "  \"flops\": " << s.flops << ",\n";
  os << indent << "  \"peak_device_bytes\": " << s.peak_device_bytes << ",\n";
  os << indent << "  \"panels\": " << s.panels << ",\n";
  os << indent << "  \"events\": " << s.events << "\n";
  os << indent << "}";
}

} // namespace

std::vector<JobSpec> parse_jobs_json(const std::string& text) {
  Cursor cur{text};
  std::vector<JobSpec> jobs;
  bool have_jobs = false;

  auto parse_array = [&] {
    cur.expect('[');
    if (!cur.consume_if(']')) {
      do {
        jobs.push_back(parse_job_object(cur, jobs.size()));
      } while (cur.consume_if(','));
      cur.expect(']');
    }
    have_jobs = true;
  };

  if (cur.peek() == '[') {
    // v1: a bare job array, implicitly schema_version 1.
    parse_array();
  } else {
    // v2+: {"schema_version": N, "jobs": [...]}. Reject majors newer than
    // this build understands — silently dropping their keys would corrupt
    // the batch.
    cur.expect('{');
    if (!cur.consume_if('}')) {
      do {
        const std::string key = cur.parse_string();
        cur.expect(':');
        if (key == "schema_version") {
          const double v = cur.parse_number();
          const int major = static_cast<int>(v);
          if (major < 1 || major > kJobsSchemaVersion) {
            throw InvalidArgument(
                "jobs JSON: unsupported schema_version " +
                std::to_string(major) + " (this build reads versions 1.." +
                std::to_string(kJobsSchemaVersion) + ")");
          }
        } else if (key == "jobs") {
          parse_array();
        } else {
          throw InvalidArgument("jobs JSON: unknown top-level key \"" + key +
                                "\"");
        }
      } while (cur.consume_if(','));
      cur.expect('}');
    }
    if (!have_jobs) {
      throw InvalidArgument("jobs JSON: envelope is missing \"jobs\"");
    }
  }
  if (!cur.at_end()) {
    throw InvalidArgument("jobs JSON: trailing content after the batch");
  }
  // Duplicate job ids would make the report ambiguous (per-job rows are
  // keyed by name downstream); reject the batch naming the duplicate.
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (size_t j = i + 1; j < jobs.size(); ++j) {
      if (jobs[i].name == jobs[j].name) {
        throw InvalidArgument("jobs JSON: duplicate job name \"" +
                              jobs[i].name + "\" (jobs " + std::to_string(i) +
                              " and " + std::to_string(j) + ")");
      }
    }
  }
  return jobs;
}

void write_fleet_report_json(std::ostream& os, const FleetReport& rep) {
  os << "{\n";
  os << "  \"schema_version\": " << kJobsSchemaVersion << ",\n";
  os << "  \"devices\": " << rep.devices << ",\n";
  os << "  \"makespan_seconds\": " << json_double(rep.makespan_seconds)
     << ",\n";
  os << "  \"jobs_admitted\": " << rep.jobs_admitted << ",\n";
  os << "  \"jobs_rejected\": " << rep.jobs_rejected << ",\n";
  os << "  \"jobs_completed\": " << rep.jobs_completed << ",\n";
  os << "  \"jobs_failed\": " << rep.jobs_failed << ",\n";
  os << "  \"jobs_preempted\": " << rep.jobs_preempted << ",\n";
  os << "  \"job_retries\": " << rep.job_retries << ",\n";
  os << "  \"units_completed\": " << rep.units_completed << ",\n";
  os << "  \"devices_lost\": " << rep.devices_lost << ",\n";
  os << "  \"jobs_migrated\": " << rep.jobs_migrated << ",\n";
  os << "  \"jobs_shed\": " << rep.jobs_shed << ",\n";
  os << "  \"queue_wait_p50_seconds\": " << json_double(rep.queue_wait_p50)
     << ",\n";
  os << "  \"queue_wait_p95_seconds\": " << json_double(rep.queue_wait_p95)
     << ",\n";
  os << "  \"queue_wait_p99_seconds\": " << json_double(rep.queue_wait_p99)
     << ",\n";
  os << "  \"queue_waits_seconds\": [";
  for (size_t i = 0; i < rep.queue_waits.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_double(rep.queue_waits[i]);
  }
  os << "],\n";
  os << "  \"device_health\": [";
  for (size_t i = 0; i < rep.device_health.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << escape_json(rep.device_health[i])
       << "\"";
  }
  os << "],\n";
  os << "  \"jobs\": [";
  for (size_t i = 0; i < rep.jobs.size(); ++i) {
    const JobReport& j = rep.jobs[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"id\": " << j.id << ",\n";
    os << "      \"name\": \"" << escape_json(j.name) << "\",\n";
    os << "      \"state\": \"" << to_string(j.state) << "\",\n";
    os << "      \"priority\": " << j.priority << ",\n";
    os << "      \"algorithm\": \"" << escape_json(j.algorithm) << "\",\n";
    os << "      \"m\": " << j.m << ",\n";
    os << "      \"n\": " << j.n << ",\n";
    os << "      \"blocksize\": " << j.blocksize << ",\n";
    os << "      \"predicted_seconds\": " << json_double(j.predicted_seconds)
       << ",\n";
    os << "      \"predicted_peak_bytes\": " << j.predicted_peak_bytes
       << ",\n";
    os << "      \"attempts\": " << j.attempts << ",\n";
    os << "      \"preemptions\": " << j.preemptions << ",\n";
    os << "      \"retries\": " << j.retries << ",\n";
    os << "      \"migrations\": " << j.migrations << ",\n";
    os << "      \"last_device\": " << j.last_device << ",\n";
    os << "      \"queue_wait_seconds\": "
       << json_double(j.queue_wait_seconds) << ",\n";
    os << "      \"deadline_met\": " << (j.deadline_met ? "true" : "false")
       << ",\n";
    os << "      \"failure\": \"" << escape_json(j.failure) << "\",\n";
    os << "      \"stats\": ";
    write_stats(os, j.stats, "      ");
    os << "\n    }";
  }
  os << (rep.jobs.empty() ? "],\n" : "\n  ],\n");
  os << "  \"per_device\": [";
  for (size_t i = 0; i < rep.per_device.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    ";
    write_stats(os, rep.per_device[i], "    ");
  }
  os << (rep.per_device.empty() ? "],\n" : "\n  ],\n");
  os << "  \"fleet\": ";
  write_stats(os, rep.fleet, "  ");
  os << "\n}\n";
}

} // namespace rocqr::serve
