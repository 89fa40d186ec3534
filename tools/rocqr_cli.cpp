// rocqr — command-line driver for the simulator and the OOC factorizations.
//
// Usage:
//   rocqr_cli qr    [--algo recursive|blocking|left|tiled] [--m N] [--n N]
//                   [--blocksize B] [--device NAME] [--capacity-gib G]
//                   [--pageable] [--no-qr-opt] [--no-staging] [--ramp]
//                   [--fp32] [--timeline] [--explain-plan[=dot]]
//                   [--csv FILE] [--chrome FILE]
//   rocqr_cli lu    (same flags; square matrices)
//   rocqr_cli chol  (same flags; square SPD)
//   rocqr_cli tsqr  [--devices N] [--shared-link] [--m N] [--n N] ...
//   rocqr_cli tune  [--algo ...] [--m N] [--n N] [--device NAME]
//   rocqr_cli specs                  # list device presets
//
// Devices: v100-32 (default), v100-16, a100, rtx3080, nvme-cpu, disk-1996.
// All runs are Phantom mode (schedule only), so any size works anywhere.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "lu/ooc_cholesky.hpp"
#include "lu/ooc_lu.hpp"
#include "ooc/gemm_engines.hpp"
#include "qr/autotune.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tsqr_ooc.hpp"
#include "report/table.hpp"
#include "serve/jobs_io.hpp"
#include "serve/scheduler.hpp"
#include "sim/device.hpp"
#include "sim/faults.hpp"
#include "sim/trace_export.hpp"

namespace {

using namespace rocqr;

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::vector<std::string> flags;

  bool has_flag(const std::string& name) const {
    for (const auto& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
  std::string value(const std::string& name, const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  index_t number(const std::string& name, index_t fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << token << "\n";
      std::exit(2);
    }
    token = token.substr(2);
    // --opt=value form: split before the value-option lookup.
    std::string inline_value;
    bool has_inline = false;
    if (const size_t eq = token.find('='); eq != std::string::npos) {
      inline_value = token.substr(eq + 1);
      token = token.substr(0, eq);
      has_inline = true;
    }
    // Value options take the next argv entry; everything else is a flag.
    static const char* value_opts[] = {"algo", "m",  "n",       "blocksize",
                                       "device", "capacity-gib", "csv",
                                       "chrome", "trace-json", "metrics-json",
                                       "faults", "checkpoint", "resume",
                                       "checkpoint-every", "jobs", "devices",
                                       "report", "watchdog",
                                       "failure-threshold", "max-fused"};
    bool takes_value = false;
    for (const char* v : value_opts) takes_value |= token == v;
    // --explain-plan is a flag with an optional =dot mode.
    if (token == "explain-plan") {
      if (has_inline && inline_value != "dot") {
        std::cerr << "--explain-plan only accepts the 'dot' mode\n";
        std::exit(2);
      }
      if (has_inline) {
        args.values[token] = inline_value;
      } else {
        args.flags.push_back(token);
      }
      continue;
    }
    if (takes_value) {
      if (has_inline) {
        args.values[token] = inline_value;
      } else if (i + 1 < argc) {
        args.values[token] = argv[++i];
      } else {
        std::cerr << "--" << token << " needs a value\n";
        std::exit(2);
      }
    } else if (has_inline) {
      std::cerr << "--" << token << " does not take a value\n";
      std::exit(2);
    } else {
      args.flags.push_back(token);
    }
  }
  return args;
}

sim::DeviceSpec spec_by_name(const std::string& name) {
  if (name == "v100-32") return sim::DeviceSpec::v100_32gb();
  if (name == "v100-16") return sim::DeviceSpec::v100_16gb();
  if (name == "a100") return sim::DeviceSpec::a100_40gb();
  if (name == "rtx3080") return sim::DeviceSpec::rtx3080_10gb();
  if (name == "nvme-cpu") return sim::DeviceSpec::nvme_cpu_node();
  if (name == "disk-1996") return sim::DeviceSpec::disk_cpu_1996();
  std::cerr << "unknown device '" << name
            << "' (try: v100-32, v100-16, a100, rtx3080, nvme-cpu, "
               "disk-1996)\n";
  std::exit(2);
}

void dump_traces(const sim::Device& dev, const Args& args) {
  if (args.has_flag("timeline")) {
    std::cout << "\n" << dev.trace().render_gantt(110);
  }
  if (const auto it = args.values.find("csv"); it != args.values.end()) {
    std::ofstream os(it->second);
    dev.trace().write_csv(os);
    std::cout << "trace csv written to " << it->second << "\n";
  }
  if (const auto it = args.values.find("chrome"); it != args.values.end()) {
    std::ofstream os(it->second);
    dev.trace().write_chrome_json(os);
    std::cout << "chrome trace written to " << it->second
              << " (load in chrome://tracing)\n";
  }
  if (const auto it = args.values.find("trace-json"); it != args.values.end()) {
    std::ofstream os(it->second);
    sim::write_chrome_trace(os, dev.trace(), &telemetry::SpanLog::global());
    std::cout << "chrome trace (with phase spans) written to " << it->second
              << " (load in chrome://tracing or Perfetto)\n";
  }
  if (const auto it = args.values.find("metrics-json");
      it != args.values.end()) {
    std::ofstream os(it->second);
    telemetry::MetricsRegistry::global().write_json(os);
    std::cout << "metrics snapshot written to " << it->second << "\n";
  }
}

void print_stats(const char* what, const qr::QrStats& stats) {
  std::cout << what << ": " << format_seconds(stats.total_seconds)
            << " simulated\n"
            << "  panel " << format_seconds(stats.panel_seconds) << ", gemm "
            << format_seconds(stats.gemm_seconds) << ", H2D "
            << format_bytes(stats.bytes_h2d) << " ("
            << format_seconds(stats.h2d_seconds) << "), D2H "
            << format_bytes(stats.bytes_d2h) << " ("
            << format_seconds(stats.d2h_seconds) << ")\n"
            << "  sustained " << format_flops_rate(stats.sustained_flops_per_s())
            << ", peak device memory " << format_bytes(stats.peak_device_bytes)
            << "\n";
}

int run_factorization(const Args& args) {
  const bool recursive = args.value("algo", "recursive") == "recursive";
  const index_t n = args.number("n", 131072);
  const index_t m = args.number("m", args.command == "qr" ? n : n);
  const index_t blocksize = args.number("blocksize", 16384);

  sim::DeviceSpec spec = spec_by_name(args.value("device", "v100-32"));
  if (args.values.count("capacity-gib") != 0) {
    spec.memory_capacity = args.number("capacity-gib", 32) * (1LL << 30);
  }
  sim::Device dev(spec, sim::ExecutionMode::Phantom);
  dev.model().install_paper_calibration();
  dev.set_host_memory_pinned(!args.has_flag("pageable"));
  if (const auto it = args.values.find("faults"); it != args.values.end()) {
    dev.install_faults(sim::FaultPlan::parse(it->second));
  }

  std::cout << args.command << " " << format_shape(m, n) << " on " << spec.name
            << " (" << format_bytes(spec.memory_capacity) << "), "
            << args.value("algo", "recursive") << ", b=" << blocksize << "\n";

  if (args.command == "qr") {
    const bool explain = args.has_flag("explain-plan") ||
                         args.values.count("explain-plan") != 0;
    const bool explain_dot = args.value("explain-plan", "") == "dot";
    ooc::PlanLog plan_log;
    qr::QrOptions opts;
    opts.blocksize = blocksize;
    if (explain) opts.plan_log = &plan_log;
    opts.qr_level_opt = !args.has_flag("no-qr-opt");
    opts.staging_buffer = !args.has_flag("no-staging");
    opts.ramp_up = args.has_flag("ramp");
    if (args.has_flag("fp32")) opts.precision = blas::GemmPrecision::FP32;
    opts.abft = args.has_flag("abft");
    opts.check_finite = args.has_flag("check-finite");
    opts.checkpoint_every = args.number("checkpoint-every", 1);
    std::unique_ptr<qr::FileCheckpointSink> sink;
    if (const auto it = args.values.find("checkpoint");
        it != args.values.end()) {
      sink = std::make_unique<qr::FileCheckpointSink>(it->second);
      opts.checkpoint_sink = sink.get();
    }
    auto a = sim::HostMutRef::phantom(m, n);
    auto r = sim::HostMutRef::phantom(n, n);
    const std::string algo = args.value("algo", "recursive");
    const std::optional<qr::Algorithm> alg = qr::parse_algorithm(algo);
    if (!alg || *alg == qr::Algorithm::Tsqr) {
      std::cerr << "unknown --algo '" << algo
                << "' (expected recursive, blocking, left or tiled)\n";
      return 2;
    }
    const qr::QrProblem problem{{&dev}, a, r, *alg, opts};
    qr::QrStats stats;
    if (const auto it = args.values.find("resume"); it != args.values.end()) {
      const qr::Checkpoint cp = qr::load_checkpoint_file(it->second);
      std::cout << "resuming " << cp.driver << " QR from unit "
                << cp.units_done << " (" << cp.columns_done
                << " columns done)\n";
      stats = qr::resume(problem, cp);
    } else {
      stats = qr::factorize(problem);
    }
    print_stats("QR", stats);
    if (explain) {
      std::cout << "\nLowered task graphs (--explain-plan"
                << (explain_dot ? "=dot" : "") << "):\n"
                << (explain_dot ? plan_log.dot : plan_log.text);
    }
  } else {
    lu::FactorOptions opts;
    opts.blocksize = blocksize;
    opts.staging_buffer = !args.has_flag("no-staging");
    opts.ramp_up = args.has_flag("ramp");
    if (args.has_flag("fp32")) opts.precision = blas::GemmPrecision::FP32;
    auto a = sim::HostMutRef::phantom(m, n);
    const lu::FactorStats stats =
        args.command == "lu"
            ? (recursive ? lu::recursive_ooc_lu(dev, a, opts)
                         : lu::blocking_ooc_lu(dev, a, opts))
            : (recursive ? lu::recursive_ooc_cholesky(dev, a, opts)
                         : lu::blocking_ooc_cholesky(dev, a, opts));
    print_stats(args.command == "lu" ? "LU" : "Cholesky", stats);
  }
  dump_traces(dev, args);
  return 0;
}

int run_tsqr(const Args& args) {
  const index_t n = args.number("n", 16384);
  const index_t m = args.number("m", 8 * n);
  const index_t blocksize = args.number("blocksize", 16384);
  const int ndev = static_cast<int>(args.number("devices", 4));
  if (ndev < 1) {
    std::cerr << "--devices must be >= 1\n";
    return 2;
  }

  sim::DeviceSpec spec = spec_by_name(args.value("device", "v100-32"));
  if (args.values.count("capacity-gib") != 0) {
    spec.memory_capacity = args.number("capacity-gib", 32) * (1LL << 30);
  }
  auto link = args.has_flag("shared-link")
                  ? std::make_shared<sim::SharedHostLink>()
                  : std::shared_ptr<sim::SharedHostLink>();
  std::vector<std::unique_ptr<sim::Device>> fleet;
  std::vector<sim::Device*> ptrs;
  for (int i = 0; i < ndev; ++i) {
    fleet.push_back(std::make_unique<sim::Device>(
        spec, sim::ExecutionMode::Phantom, link));
    fleet.back()->model().install_paper_calibration();
    fleet.back()->set_host_memory_pinned(!args.has_flag("pageable"));
    ptrs.push_back(fleet.back().get());
  }

  qr::QrOptions opts;
  opts.blocksize = blocksize;
  opts.qr_level_opt = !args.has_flag("no-qr-opt");
  opts.staging_buffer = !args.has_flag("no-staging");
  opts.ramp_up = args.has_flag("ramp");
  if (args.has_flag("fp32")) opts.precision = blas::GemmPrecision::FP32;
  opts.checkpoint_every = args.number("checkpoint-every", 1);
  std::unique_ptr<qr::FileCheckpointSink> sink;
  if (const auto it = args.values.find("checkpoint");
      it != args.values.end()) {
    sink = std::make_unique<qr::FileCheckpointSink>(it->second);
    opts.checkpoint_sink = sink.get();
  }

  const index_t leaves =
      qr::detail::tsqr_leaf_count(m, n, static_cast<size_t>(ndev));
  std::cout << "tsqr " << format_shape(m, n) << " over " << ndev << " x "
            << spec.name << " (" << format_bytes(spec.memory_capacity)
            << " each" << (link ? ", shared host link" : "") << "), "
            << leaves << " leaves, b=" << blocksize << "\n";

  auto a = sim::HostMutRef::phantom(m, n);
  auto r = sim::HostMutRef::phantom(n, n);
  qr::QrStats stats;
  if (const auto it = args.values.find("resume"); it != args.values.end()) {
    const qr::Checkpoint cp = qr::load_checkpoint_file(it->second);
    std::cout << "resuming " << cp.driver << " QR from unit " << cp.units_done
              << "\n";
    stats = qr::resume(qr::QrProblem{ptrs, a, r, qr::Algorithm::Tsqr, opts},
                       cp);
  } else {
    stats =
        qr::factorize(qr::QrProblem{ptrs, a, r, qr::Algorithm::Tsqr, opts});
  }
  print_stats("TSQR", stats);
  dump_traces(*fleet.front(), args);
  return 0;
}

int run_tune(const Args& args) {
  const bool recursive = args.value("algo", "recursive") == "recursive";
  const index_t n = args.number("n", 131072);
  const index_t m = args.number("m", n);
  sim::DeviceSpec spec = spec_by_name(args.value("device", "v100-32"));
  if (args.values.count("capacity-gib") != 0) {
    spec.memory_capacity = args.number("capacity-gib", 32) * (1LL << 30);
  }
  const qr::TuneResult result = qr::tune_blocksize(spec, m, n, recursive);
  report::Table t("blocksize sweep for " + std::string(recursive
                                                           ? "recursive"
                                                           : "blocking") +
                      " QR of " + format_shape(m, n) + " on " + spec.name +
                      ":",
                  {"blocksize", "simulated time", "peak memory"});
  for (const qr::TunePoint& p : result.sweep) {
    t.add_row({std::to_string(p.blocksize),
               p.fits ? format_seconds(p.seconds) : "OOM",
               format_bytes(p.peak_bytes)});
  }
  std::cout << t.render();
  std::cout << "recommended blocksize: " << result.best_blocksize << " ("
            << format_seconds(result.best_seconds) << ")\n";
  return 0;
}

int run_serve(const Args& args) {
  const auto jobs_it = args.values.find("jobs");
  if (jobs_it == args.values.end()) {
    std::cerr << "serve needs --jobs FILE (a JSON array of job objects)\n";
    return 2;
  }
  std::ifstream is(jobs_it->second);
  if (!is) {
    std::cerr << "cannot read jobs file '" << jobs_it->second << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::vector<serve::JobSpec> specs =
      serve::parse_jobs_json(buffer.str());

  serve::ServeConfig cfg;
  cfg.spec = spec_by_name(args.value("device", "v100-32"));
  if (args.values.count("capacity-gib") != 0) {
    cfg.spec.memory_capacity = args.number("capacity-gib", 32) * (1LL << 30);
  }
  cfg.devices = static_cast<int>(args.number("devices", 1));
  cfg.mode = args.has_flag("real") ? sim::ExecutionMode::Real
                                   : sim::ExecutionMode::Phantom;
  cfg.shared_link = args.has_flag("shared-link");
  cfg.preemption = !args.has_flag("no-preempt");
  cfg.checkpoint_every = args.number("checkpoint-every", 1);
  if (const auto it = args.values.find("watchdog"); it != args.values.end()) {
    cfg.watchdog_timeout = std::atof(it->second.c_str());
  }
  cfg.device_failure_threshold =
      static_cast<int>(args.number("failure-threshold", 3));
  cfg.max_fused_jobs = static_cast<int>(args.number("max-fused", 1));
  if (const auto it = args.values.find("faults"); it != args.values.end()) {
    cfg.device_faults.assign(static_cast<size_t>(cfg.devices), it->second);
  }

  serve::Scheduler sched(cfg);
  // Real mode needs live host buffers for the fleet's lifetime; one pair
  // per job, seeded by submission index for reproducibility.
  std::vector<std::unique_ptr<la::Matrix>> storage;
  for (size_t i = 0; i < specs.size(); ++i) {
    serve::JobSpec job = specs[i];
    if (cfg.mode == sim::ExecutionMode::Real) {
      storage.push_back(std::make_unique<la::Matrix>(
          la::random_normal(job.m, job.n, 1000 + i)));
      storage.push_back(std::make_unique<la::Matrix>(job.n, job.n));
      job.a = storage[storage.size() - 2]->view();
      job.r = storage[storage.size() - 1]->view();
    }
    const serve::AdmissionDecision d = sched.submit(job);
    std::cout << (d.admitted ? "admitted" : "REJECTED") << " " << job.name
              << " " << format_shape(job.m, job.n);
    if (d.admitted) {
      std::cout << " b=" << d.blocksize << " predicted "
                << format_seconds(d.predicted_seconds) << ", peak "
                << format_bytes(d.predicted_peak_bytes);
    } else {
      std::cout << ": " << d.reason;
    }
    std::cout << "\n";
  }

  const serve::FleetReport rep = sched.run();

  report::Table t("fleet of " + std::to_string(rep.devices) + " x " +
                      cfg.spec.name + ":",
                  {"job", "state", "prio", "b", "attempts", "preempt",
                   "retries", "migr", "device time", "predicted"});
  for (const serve::JobReport& j : rep.jobs) {
    t.add_row({j.name, to_string(j.state), std::to_string(j.priority),
               std::to_string(j.blocksize), std::to_string(j.attempts),
               std::to_string(j.preemptions), std::to_string(j.retries),
               std::to_string(j.migrations),
               format_seconds(j.stats.total_seconds),
               format_seconds(j.predicted_seconds)});
  }
  std::cout << t.render();
  std::cout << "makespan " << format_seconds(rep.makespan_seconds) << ", "
            << rep.jobs_completed << "/" << rep.jobs_admitted
            << " jobs completed, " << rep.jobs_rejected << " rejected, "
            << rep.jobs_preempted << " preemptions, " << rep.job_retries
            << " retries, " << rep.units_completed << " units\n";
  if (!rep.queue_waits.empty()) {
    // Exact simulated queue-wait tail from the per-dispatch record (the
    // telemetry histogram's power-of-two buckets are up to 2x coarser).
    std::cout << "queue wait p50 " << format_seconds(rep.queue_wait_p50)
              << ", p95 " << format_seconds(rep.queue_wait_p95) << ", p99 "
              << format_seconds(rep.queue_wait_p99) << " over "
              << rep.queue_waits.size() << " dispatch(es)\n";
  }
  if (rep.devices_lost > 0 || rep.jobs_shed > 0) {
    std::cout << "fleet degraded: " << rep.devices_lost
              << " device(s) lost, " << rep.jobs_migrated << " migration(s), "
              << rep.jobs_shed << " job(s) shed (health:";
    for (const std::string& h : rep.device_health) std::cout << " " << h;
    std::cout << ")\n";
  }

  if (const auto it = args.values.find("report"); it != args.values.end()) {
    std::ofstream os(it->second);
    serve::write_fleet_report_json(os, rep);
    std::cout << "fleet report written to " << it->second << "\n";
  }
  if (rep.jobs_failed > 0) return 5;
  return rep.jobs_shed > 0 ? 7 : 0;
}

int run_specs() {
  report::Table t("device presets:",
                  {"name", "memory", "TC peak", "fp32 peak", "link"});
  for (const auto& spec :
       {sim::DeviceSpec::v100_32gb(), sim::DeviceSpec::v100_16gb(),
        sim::DeviceSpec::a100_40gb(), sim::DeviceSpec::rtx3080_10gb(),
        sim::DeviceSpec::nvme_cpu_node(), sim::DeviceSpec::disk_cpu_1996()}) {
    t.add_row({spec.name, format_bytes(spec.memory_capacity),
               format_flops_rate(spec.tc_peak_flops),
               format_flops_rate(spec.fp32_peak_flops),
               format_bytes(static_cast<bytes_t>(spec.h2d_bytes_per_s)) +
                   "/s"});
  }
  std::cout << t.render();
  return 0;
}

void usage() {
  std::cout <<
      R"(rocqr_cli — drive the out-of-core factorization simulator

commands:
  qr | lu | chol   simulate one factorization at paper scale
  tsqr             fleet-wide out-of-core TSQR: one huge factorization
                   split across --devices N (supports --shared-link,
                   --checkpoint/--resume; capacity scales with the fleet)
  tune             sweep blocksizes, recommend the fastest
  serve            schedule a batch of QR jobs over a device fleet
  specs            list device presets

common options:
  --algo recursive|blocking|left|tiled
                              (default recursive; left/tiled = QR only)
  --m N --n N                 matrix size (default 131072)
  --blocksize B               panel width (default 16384)
  --device NAME               v100-32 | v100-16 | a100 | rtx3080
  --capacity-gib G            override device memory
  --pageable                  pageable host buffers (half link rate)
  --no-qr-opt --no-staging --ramp --fp32
  --timeline                  print the per-engine Gantt chart
  --explain-plan              print every task graph the driver lowered
                              (node/edge/fence counts); --explain-plan=dot
                              dumps them as Graphviz digraphs (QR only)
  --csv FILE --chrome FILE    export the trace
  --trace-json FILE           Chrome/Perfetto trace with engine, stream and
                              nested phase-span tracks (also --trace-json=FILE)
  --metrics-json FILE         JSON snapshot of the global metrics registry

fault tolerance (QR; see docs/FAULTS.md):
  --faults SPEC               install a seeded fault plan on the device, e.g.
                              "h2d:transient:p=0.01;alloc:oom:after=3;seed=7"
  --abft                      checksum-verify the OOC GEMMs
  --check-finite              scan the host R and Q for non-finite values
                              after the factorization (exit 6 on a hit)
  --checkpoint FILE           write panel-level checkpoints to FILE
  --checkpoint-every K        checkpoint every K panel units (default 1)
  --resume FILE               restart from the checkpoint in FILE

serving (see docs/SERVING.md):
  --jobs FILE                 JSON array of job objects (required; a job with
                              "algorithm": "tsqr" is gang-scheduled across
                              the whole fleet)
  --devices N                 fleet size (default 1)
  --real                      execute numerics (default: phantom schedules)
  --shared-link               one PCIe root complex for the whole fleet
  --no-preempt                disable checkpoint-boundary preemption
  --faults SPEC               install the fault plan on every fleet device
                              ("site:fatal" kills the device permanently —
                              the scheduler migrates its jobs)
  --watchdog SEC              per-op simulated watchdog: an op longer than
                              SEC strikes its device (default off)
  --failure-threshold N       consecutive failed attempts before a device
                              is declared dead (default 3)
  --max-fused K               fuse up to K same-shape deadline-free
                              "blocking" jobs into one batched node program
                              per device (default 1 = off)
  --report FILE               write the JSON fleet report
  exit 0 when every admitted job completes, 5 when any job failed,
  7 when none failed but load-shedding dropped deadline jobs

exit codes:
  0 success            2 usage error          3 invalid configuration
  4 device out of memory                      5 fault budget exhausted
  6 numerical check failed                    7 jobs load-shed (serve)
  1 other error
)";
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "qr" || args.command == "lu" ||
        args.command == "chol") {
      return run_factorization(args);
    }
    if (args.command == "tsqr") return run_tsqr(args);
    if (args.command == "tune") return run_tune(args);
    if (args.command == "serve") return run_serve(args);
    if (args.command == "specs") return run_specs();
    usage();
    return args.command.empty() ? 2 : (args.command == "help" ? 0 : 2);
  } catch (const rocqr::InvalidArgument& e) {
    std::cerr << "error: invalid configuration: " << e.what() << "\n";
    return 3;
  } catch (const rocqr::DeviceOutOfMemory& e) {
    std::cerr << "error: device out of memory: " << e.what() << "\n";
    return 4;
  } catch (const rocqr::FaultBudgetExhausted& e) {
    std::cerr << "error: fault budget exhausted: " << e.what() << "\n";
    return 5;
  } catch (const rocqr::DeviceLost& e) {
    std::cerr << "error: device lost: " << e.what() << "\n";
    return 5;
  } catch (const rocqr::TransferError& e) {
    std::cerr << "error: unrecovered transfer failure: " << e.what() << "\n";
    return 5;
  } catch (const rocqr::NumericalError& e) {
    std::cerr << "error: numerical check failed: " << e.what() << "\n";
    return 6;
  } catch (const rocqr::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
