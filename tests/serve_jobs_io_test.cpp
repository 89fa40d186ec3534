// Jobs-JSON parser hardening: numbers must be consumed whole (no silent
// prefix parsing), out-of-range values must be rejected before any cast
// (the old code hit undefined behavior casting 1e30 to index_t), the
// documented job fields round-trip, the schema_version envelope is
// enforced (legacy bare arrays parse; newer majors are rejected), and
// strings take the standard JSON escapes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "serve/job.hpp"
#include "serve/jobs_io.hpp"

namespace rocqr {
namespace {

using serve::JobSpec;
using serve::parse_jobs_json;

TEST(JobsJson, ParsesDocumentedFields) {
  const std::vector<JobSpec> jobs = parse_jobs_json(R"([
    {"name": "big", "algorithm": "tsqr", "m": 262144, "n": 16384,
     "blocksize": 8192, "priority": 3, "deadline": 2.5,
     "arrival_after_units": 4},
    {"m": 100, "n": 50}
  ])");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "big");
  EXPECT_EQ(jobs[0].algorithm, "tsqr");
  EXPECT_EQ(jobs[0].m, 262144);
  EXPECT_EQ(jobs[0].n, 16384);
  EXPECT_EQ(jobs[0].blocksize, 8192);
  EXPECT_EQ(jobs[0].priority, 3);
  EXPECT_DOUBLE_EQ(jobs[0].deadline_seconds, 2.5);
  EXPECT_EQ(jobs[0].arrival_after_units, 4);
  EXPECT_EQ(jobs[1].name, "job1"); // defaulted
}

TEST(JobsJson, AcceptsExponentAndSignForms) {
  const std::vector<JobSpec> jobs = parse_jobs_json(
      R"([{"m": 1e2, "n": 5E1, "deadline": 1.5e-1, "priority": -2}])");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].m, 100);
  EXPECT_EQ(jobs[0].n, 50);
  EXPECT_DOUBLE_EQ(jobs[0].deadline_seconds, 0.15);
  EXPECT_EQ(jobs[0].priority, -2);
}

TEST(JobsJson, RejectsNumbersWithTrailingGarbage) {
  // std::stod parses a prefix; the parser must reject when the consumed
  // span was not parsed whole ("1.2.3" used to pass silently as 1.2).
  for (const char* bad :
       {"1.2.3", "1e2e3", "1..5", "--3", "3-", "1.2e", "e5", "+-1"}) {
    const std::string text =
        std::string(R"([{"m": 100, "n": 50, "deadline": )") + bad + "}]";
    EXPECT_THROW(parse_jobs_json(text), InvalidArgument) << bad;
  }
}

TEST(JobsJson, RejectsHugeDimensionBeforeCasting) {
  // Regression: 1e30 does not fit index_t; the old code cast first (UB)
  // and range-checked after. Must now throw cleanly.
  EXPECT_THROW(parse_jobs_json(R"([{"m": 1e30, "n": 50}])"), InvalidArgument);
  EXPECT_THROW(parse_jobs_json(R"([{"m": 100, "n": 9.3e18}])"),
               InvalidArgument);
  EXPECT_THROW(parse_jobs_json(R"([{"m": -1, "n": 50}])"), InvalidArgument);
  EXPECT_THROW(parse_jobs_json(R"([{"m": 2.5, "n": 50}])"), InvalidArgument);
}

TEST(JobsJson, ParsesVersionedEnvelope) {
  const std::vector<JobSpec> jobs = parse_jobs_json(
      R"({"schema_version": 2, "jobs": [{"m": 128, "n": 64,
          "algorithm": "tiled"}]})");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].m, 128);
  EXPECT_EQ(jobs[0].algorithm, "tiled");
  // Older majors still parse; key order does not matter.
  EXPECT_EQ(parse_jobs_json(
                R"({"jobs": [{"m": 8, "n": 4}], "schema_version": 1})")
                .size(),
            1u);
}

TEST(JobsJson, RejectsUnknownSchemaMajorAndBadEnvelope) {
  EXPECT_THROW(
      parse_jobs_json(
          R"({"schema_version": 3, "jobs": [{"m": 8, "n": 4}]})"),
      InvalidArgument);
  EXPECT_THROW(
      parse_jobs_json(
          R"({"schema_version": 0, "jobs": [{"m": 8, "n": 4}]})"),
      InvalidArgument);
  // An envelope without "jobs", or with an unknown top-level key.
  EXPECT_THROW(parse_jobs_json(R"({"schema_version": 2})"), InvalidArgument);
  EXPECT_THROW(
      parse_jobs_json(R"({"tasks": [{"m": 8, "n": 4}]})"), InvalidArgument);
}

TEST(JobsJson, ReportCarriesSchemaVersion) {
  serve::FleetReport rep;
  std::ostringstream os;
  serve::write_fleet_report_json(os, rep);
  EXPECT_NE(os.str().find("\"schema_version\": " +
                          std::to_string(serve::kJobsSchemaVersion)),
            std::string::npos);
}

TEST(JobsJson, RejectsNonPositiveDimensionsAndDeadline) {
  // m/n of 0 used to be admitted and fail deep inside admission; a
  // "deadline": 0 silently meant "no deadline" while looking like an
  // impossible one. All three now fail at parse, naming the job.
  for (const char* bad :
       {R"([{"name": "z", "m": 0, "n": 50}])",
        R"([{"name": "z", "m": 100, "n": 0}])",
        R"([{"name": "z", "m": 100, "n": 50, "deadline": 0}])",
        R"([{"name": "z", "m": 100, "n": 50, "deadline": -2.5}])"}) {
    try {
      parse_jobs_json(bad);
      FAIL() << bad;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("non-positive"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("\"z\""), std::string::npos)
          << e.what();
    }
  }
}

TEST(JobsJson, RejectsDuplicateJobNames) {
  // Two jobs named "dup": reports and checkpoint paths key on the name.
  try {
    parse_jobs_json(R"([{"name": "dup", "m": 8, "n": 4},
                        {"m": 16, "n": 8},
                        {"name": "dup", "m": 32, "n": 16}])");
    FAIL() << "duplicate names were accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate job name \"dup\""),
              std::string::npos)
        << e.what();
  }
  // Defaulted names (job0, job1, ...) never collide with each other but do
  // collide with an explicit job named the same way.
  EXPECT_THROW(parse_jobs_json(R"([{"name": "job1", "m": 8, "n": 4},
                                   {"m": 8, "n": 4}])"),
               InvalidArgument);
}

TEST(JobsJson, ReportCarriesFleetHealthFields) {
  serve::FleetReport rep;
  rep.devices = 2;
  rep.devices_lost = 1;
  rep.jobs_migrated = 3;
  rep.jobs_shed = 2;
  rep.device_health = {"dead", "suspect"};
  serve::JobReport jr;
  jr.id = 0;
  jr.name = "moved";
  jr.migrations = 4;
  rep.jobs.push_back(jr);
  std::ostringstream os;
  serve::write_fleet_report_json(os, rep);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"devices_lost\": 1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"jobs_migrated\": 3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"jobs_shed\": 2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"device_health\": [\"dead\", \"suspect\"]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"migrations\": 4"), std::string::npos) << out;
}

TEST(JobsJson, ReportEscapesControlCharactersInNames) {
  // The jobs parser keeps raw control bytes inside a name; JSON forbids
  // them unescaped, so the report writes them as \u00XX.
  const std::vector<JobSpec> jobs =
      parse_jobs_json("[{\"name\": \"cr\rjob\x01\", \"m\": 8, \"n\": 4}]");
  ASSERT_EQ(jobs.size(), 1u);
  serve::FleetReport rep;
  serve::JobReport jr;
  jr.name = jobs[0].name;
  rep.jobs.push_back(jr);
  std::ostringstream os;
  serve::write_fleet_report_json(os, rep);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\": \"cr\\u000djob\\u0001\""), std::string::npos)
      << out;
  for (const char c : out) {
    if (c != '\n') {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << out;
    }
  }
}

TEST(JobsJson, EscapedNamesRoundTripThroughTheParser) {
  // A name written with escape_json (control bytes as u-escapes, UTF-8 as
  // raw bytes) into a jobs document parses back to the same bytes.
  const std::string name =
      "cr\r bs\b ff\f caf\xC3\xA9 smile\xF0\x9F\x98\x80";
  const std::vector<JobSpec> jobs = parse_jobs_json(
      "[{\"name\": \"" + escape_json(name) + "\", \"m\": 8, \"n\": 4}]");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, name);
}

TEST(JobsJson, ParsesStandardEscapes) {
  // The two-character escapes, and u-escapes written out as UTF-8 with a
  // surrogate pair combined into one code point.
  const std::vector<JobSpec> jobs = parse_jobs_json(
      R"([{"name": "a\rb\bc\fd\u00e9\ud83d\ude00\u0041", "m": 8, "n": 4}])");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].name, "a\rb\bc\fd\xC3\xA9\xF0\x9F\x98\x80"
                          "A");
}

TEST(JobsJson, RejectsMalformedUnicodeEscapes) {
  // A lone or reversed surrogate, a high surrogate followed by a non-low
  // one, a non-hex digit, and a u-escape cut short by the end of input.
  for (const char* bad : {R"(\ud83d)", R"(\ud83dx)", R"(\ude00\ud83d)",
                          R"(\ud83d\u0041)", R"(\u00g9)", R"(\u00e)"}) {
    const std::string doc =
        std::string(R"([{"name": "x)") + bad + R"(", "m": 8, "n": 4}])";
    EXPECT_THROW(parse_jobs_json(doc), InvalidArgument) << bad;
  }
  EXPECT_THROW(parse_jobs_json(R"([{"name": "\u00)"), InvalidArgument);
}

TEST(JobsJson, ReportDoublesRoundTripBitExact) {
  // Regression: ostream's default 6 significant digits corrupted every
  // double in the report (0.30000000000000004 went out as "0.3", 1/3 as
  // "0.333333"), so archived reports silently disagreed with the run that
  // produced them. All doubles now print with max_digits10: reparsing the
  // JSON text recovers the original value bit for bit.
  serve::FleetReport rep;
  rep.makespan_seconds = 0.1 + 0.2; // 0.30000000000000004, not 0.3
  rep.queue_wait_p50 = 1.0 / 3.0;
  rep.queue_wait_p95 = 9.866e-5;
  rep.queue_wait_p99 = 123456.78901234567;
  rep.queue_waits = {0.0, 1.0 / 3.0, 2.0 / 7.0};
  serve::JobReport jr;
  jr.id = 0;
  jr.name = "rt";
  jr.queue_wait_seconds = 0.1 + 0.7; // 0.7999999999999999
  jr.stats.total_seconds = 2.0 / 3e7;
  rep.jobs.push_back(jr);

  std::ostringstream os;
  serve::write_fleet_report_json(os, rep);
  const std::string out = os.str();

  const auto reparse = [&out](const std::string& key) {
    const size_t at = out.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    return std::stod(out.substr(at + key.size() + 4));
  };
  EXPECT_EQ(reparse("makespan_seconds"), rep.makespan_seconds);
  EXPECT_EQ(reparse("queue_wait_p50_seconds"), rep.queue_wait_p50);
  EXPECT_EQ(reparse("queue_wait_p95_seconds"), rep.queue_wait_p95);
  EXPECT_EQ(reparse("queue_wait_p99_seconds"), rep.queue_wait_p99);
  EXPECT_EQ(reparse("queue_wait_seconds"), jr.queue_wait_seconds);
  EXPECT_EQ(reparse("total_seconds"), jr.stats.total_seconds);

  const size_t arr = out.find("\"queue_waits_seconds\": [");
  ASSERT_NE(arr, std::string::npos) << out;
  std::istringstream is(out.substr(arr + 24));
  for (size_t i = 0; i < rep.queue_waits.size(); ++i) {
    double v = 0;
    char sep = 0;
    is >> v;
    EXPECT_EQ(v, rep.queue_waits[i]) << "entry " << i;
    is >> sep;
  }
}

TEST(JobsJson, RejectsStructuralGarbage) {
  EXPECT_THROW(parse_jobs_json("[{]"), InvalidArgument);
  EXPECT_THROW(parse_jobs_json(R"([{"m": 4, "n": 2}] trailing)"),
               InvalidArgument);
  EXPECT_THROW(parse_jobs_json(R"([{"n": 2}])"), InvalidArgument); // no m
  EXPECT_THROW(parse_jobs_json(R"([{"m": 4, "n": 2, "wat": 1}])"),
               InvalidArgument);
}

} // namespace
} // namespace rocqr
