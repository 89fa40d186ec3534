// Schedule-identity golden checks for the OOC engines and drivers.
//
// Each case runs a fixed configuration through one engine (Phantom mode),
// canonicalizes the resulting trace window — operation name, kind, engine,
// exact start/end times, bytes, flops; stream ids are dropped so the check
// is invariant to stream numbering — and diffs it against a committed
// golden. The goldens were generated once at the pre-pipeline-executor
// commit, so any refactor of the streaming orchestration that shifts an
// event, a byte, or a prefetch counter fails here immediately.
//
// Regenerate (only when a schedule change is *intended*) with:
//   ROCQR_UPDATE_GOLDENS=1 ./tests/schedule_golden_test
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.hpp"
#include "lu/ooc_cholesky.hpp"
#include "lu/ooc_lu.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "ooc/trsm_engine.hpp"
#include "qr/checkpoint.hpp"
#include "qr/factorize.hpp"
#include "qr/tiled_qr.hpp"
#include "sim/device.hpp"

#ifndef ROCQR_GOLDEN_DIR
#define ROCQR_GOLDEN_DIR "."
#endif

namespace {

using rocqr::index_t;
using rocqr::ooc::OocGemmOptions;
using rocqr::ooc::Operand;
using rocqr::sim::Device;
using rocqr::sim::ExecutionMode;
using rocqr::sim::HostConstRef;
using rocqr::sim::HostMutRef;

rocqr::sim::DeviceSpec golden_spec(rocqr::bytes_t capacity = 256LL << 20) {
  rocqr::sim::DeviceSpec s = rocqr::sim::DeviceSpec::v100_32gb();
  s.memory_capacity = capacity;
  return s;
}

/// name|kind|engine|start|end|bytes|flops per event, times in hexfloat so
/// the comparison is bit-exact yet the file stays human-diffable.
std::string canonical_trace(const Device& dev) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const rocqr::sim::TraceEvent& e : dev.trace().events()) {
    os << e.name << '|' << rocqr::sim::to_string(e.kind) << '|'
       << rocqr::sim::to_string(e.resource) << '|' << e.start << '|' << e.end
       << '|' << e.bytes << '|' << e.flops << '\n';
  }
  return os.str();
}

std::int64_t counter_value(const char* name) {
  return rocqr::telemetry::MetricsRegistry::global().counter(name).value();
}

/// Compares `actual` against goldens/<name>.trace, or rewrites the golden
/// when ROCQR_UPDATE_GOLDENS is set.
void compare_or_update(const std::string& name, const std::string& actual) {
  const std::string path = std::string(ROCQR_GOLDEN_DIR) + "/" + name +
                           ".trace";
  if (std::getenv("ROCQR_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with ROCQR_UPDATE_GOLDENS=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected != actual) {
    // Locate the first differing line for a readable failure.
    std::istringstream ea(expected);
    std::istringstream aa(actual);
    std::string el;
    std::string al;
    int line = 0;
    while (true) {
      ++line;
      const bool eok = static_cast<bool>(std::getline(ea, el));
      const bool aok = static_cast<bool>(std::getline(aa, al));
      if (!eok && !aok) break;
      if (el != al || eok != aok) {
        FAIL() << name << ": schedule diverges from golden at line " << line
               << "\n  golden: " << (eok ? el : "<eof>")
               << "\n  actual: " << (aok ? al : "<eof>");
      }
      el.clear();
      al.clear();
    }
    FAIL() << name << ": trace differs from golden (same lines, different "
                      "layout?)";
  }
}

/// Runs `body` on a fresh phantom device and compares the canonical trace
/// plus the slab-prefetch counter deltas against goldens/<name>.trace.
void check_golden(const std::string& name, rocqr::bytes_t capacity,
                  const std::function<void(Device&)>& body) {
  Device dev(golden_spec(capacity), ExecutionMode::Phantom);
  const std::int64_t hits0 = counter_value("ooc.slab_prefetch_hits");
  const std::int64_t miss0 = counter_value("ooc.slab_prefetch_misses");
  body(dev);
  dev.synchronize();
  std::ostringstream os;
  os << canonical_trace(dev);
  os << "counter|ooc.slab_prefetch_hits|"
     << counter_value("ooc.slab_prefetch_hits") - hits0 << '\n';
  os << "counter|ooc.slab_prefetch_misses|"
     << counter_value("ooc.slab_prefetch_misses") - miss0 << '\n';
  compare_or_update(name, os.str());
}

/// Fleet variant: runs `body` over `ndev` fresh phantom devices and pins
/// the concatenation of their canonical traces under one "device|i" header
/// per device. The cross-device reduction-tree order — which device merges
/// which R factor, and when — is part of the golden.
void check_fleet_golden(
    const std::string& name, rocqr::bytes_t capacity, int ndev,
    const std::function<void(std::vector<Device*>&)>& body) {
  std::vector<std::unique_ptr<Device>> fleet;
  std::vector<Device*> ptrs;
  for (int i = 0; i < ndev; ++i) {
    fleet.push_back(std::make_unique<Device>(golden_spec(capacity),
                                             ExecutionMode::Phantom));
    ptrs.push_back(fleet.back().get());
  }
  body(ptrs);
  std::ostringstream os;
  for (int i = 0; i < ndev; ++i) {
    ptrs[i]->synchronize();
    os << "device|" << i << '\n' << canonical_trace(*ptrs[i]);
  }
  compare_or_update(name, os.str());
}

OocGemmOptions small_opts(index_t blocksize) {
  OocGemmOptions o;
  o.blocksize = blocksize;
  return o;
}

TEST(ScheduleGolden, InnerRecursive) {
  check_golden("inner_recursive", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(512);
    o.pipeline_depth = 2;
    rocqr::ooc::inner_product_recursive(
        dev, Operand::on_host(HostConstRef::phantom(3000, 256)),
        Operand::on_host(HostConstRef::phantom(3000, 300)),
        HostMutRef::phantom(256, 300), o);
  });
}

TEST(ScheduleGolden, InnerRecursiveSplitRamp) {
  check_golden("inner_recursive_split_ramp", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(512);
    o.c_panel_cols = 128; // two accumulator slots + per-panel move-outs
    o.ramp_up = true;
    o.ramp_start = 128;
    o.pipeline_depth = 3;
    rocqr::ooc::inner_product_recursive(
        dev, Operand::on_host(HostConstRef::phantom(4000, 192)),
        Operand::on_host(HostConstRef::phantom(4000, 384)),
        HostMutRef::phantom(192, 384), o);
  });
}

TEST(ScheduleGolden, InnerBlocking) {
  check_golden("inner_blocking", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(256);
    o.pipeline_depth = 3;
    rocqr::ooc::inner_product_blocking(
        dev, Operand::on_host(HostConstRef::phantom(2000, 128)),
        Operand::on_host(HostConstRef::phantom(2000, 700)),
        HostMutRef::phantom(128, 700), o);
  });
}

TEST(ScheduleGolden, OuterRecursive) {
  check_golden("outer_recursive", 256LL << 20, [](Device& dev) {
    const OocGemmOptions o = small_opts(512);
    rocqr::ooc::outer_product_recursive(
        dev, Operand::on_host(HostConstRef::phantom(2000, 128)),
        Operand::on_host(HostConstRef::phantom(128, 300)),
        HostConstRef::phantom(2000, 300), HostMutRef::phantom(2000, 300), o);
  });
}

TEST(ScheduleGolden, OuterRecursiveTrapezoidNoStaging) {
  check_golden("outer_recursive_trapezoid", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(256);
    o.outer_opa = rocqr::blas::Op::Trans;
    o.upper_trapezoid_slabs = true;
    o.staging_buffer = false;
    rocqr::ooc::outer_product_recursive(
        dev, Operand::on_host(HostConstRef::phantom(96, 1024)),
        Operand::on_host(HostConstRef::phantom(96, 1024)),
        HostConstRef::phantom(1024, 1024), HostMutRef::phantom(1024, 1024),
        o);
  });
}

TEST(ScheduleGolden, OuterColwise) {
  check_golden("outer_colwise", 256LL << 20, [](Device& dev) {
    const OocGemmOptions o = small_opts(512);
    rocqr::ooc::outer_product_colwise(
        dev, Operand::on_host(HostConstRef::phantom(300, 128)),
        Operand::on_host(HostConstRef::phantom(128, 2000)),
        HostConstRef::phantom(300, 2000), HostMutRef::phantom(300, 2000), o);
  });
}

TEST(ScheduleGolden, OuterBlockingTriangular) {
  check_golden("outer_blocking_triangular", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(512);
    o.tile_cols = 256;
    o.outer_opa = rocqr::blas::Op::Trans;
    o.upper_triangle_tiles_only = true;
    rocqr::ooc::outer_product_blocking(
        dev, Operand::on_host(HostConstRef::phantom(96, 1500)),
        Operand::on_host(HostConstRef::phantom(96, 1500)),
        HostConstRef::phantom(1500, 1500), HostMutRef::phantom(1500, 1500),
        o);
  });
}

TEST(ScheduleGolden, OuterBlockingSynchronous) {
  check_golden("outer_blocking_synchronous", 256LL << 20, [](Device& dev) {
    OocGemmOptions o = small_opts(512);
    o.tile_cols = 512;
    o.synchronous = true;
    o.staging_buffer = false;
    rocqr::ooc::outer_product_blocking(
        dev, Operand::on_host(HostConstRef::phantom(1200, 96)),
        Operand::on_host(HostConstRef::phantom(96, 1024)),
        HostConstRef::phantom(1200, 1024), HostMutRef::phantom(1200, 1024),
        o);
  });
}

TEST(ScheduleGolden, Trsm) {
  check_golden("trsm", 256LL << 20, [](Device& dev) {
    const OocGemmOptions o = small_opts(256);
    rocqr::ooc::ooc_trsm(dev, rocqr::ooc::TriSolveKind::LowerUnit,
                         HostConstRef::phantom(600, 600),
                         HostConstRef::phantom(600, 800),
                         HostMutRef::phantom(600, 800), o);
  });
}

TEST(ScheduleGolden, TrsmUpperBackSubst) {
  check_golden("trsm_upper", 256LL << 20, [](Device& dev) {
    const OocGemmOptions o = small_opts(256);
    rocqr::ooc::ooc_trsm(dev, rocqr::ooc::TriSolveKind::Upper,
                         HostConstRef::phantom(700, 700),
                         HostConstRef::phantom(700, 500),
                         HostMutRef::phantom(700, 500), o);
  });
}

TEST(ScheduleGolden, BlockingQr) {
  check_golden("blocking_qr", 256LL << 20, [](Device& dev) {
    rocqr::qr::QrOptions o;
    o.blocksize = 256;
    rocqr::qr::factorize(
        rocqr::qr::QrProblem{{&dev},
                             HostMutRef::phantom(2048, 1024),
                             HostMutRef::phantom(1024, 1024),
                             rocqr::qr::Algorithm::Blocking, o});
  });
}

TEST(ScheduleGolden, RecursiveQr) {
  check_golden("recursive_qr", 256LL << 20, [](Device& dev) {
    rocqr::qr::QrOptions o;
    o.blocksize = 256;
    rocqr::qr::factorize(
        rocqr::qr::QrProblem{{&dev},
                             HostMutRef::phantom(2048, 1024),
                             HostMutRef::phantom(1024, 1024),
                             rocqr::qr::Algorithm::Recursive, o});
  });
}

TEST(ScheduleGolden, RecursiveQrSmallMemory) {
  check_golden("recursive_qr_small_memory", 24LL << 20, [](Device& dev) {
    rocqr::qr::QrOptions o;
    o.blocksize = 256;
    rocqr::qr::factorize(
        rocqr::qr::QrProblem{{&dev},
                             HostMutRef::phantom(2048, 1024),
                             HostMutRef::phantom(1024, 1024),
                             rocqr::qr::Algorithm::Recursive, o});
  });
}

TEST(ScheduleGolden, LeftLookingQr) {
  check_golden("left_looking_qr", 256LL << 20, [](Device& dev) {
    rocqr::qr::QrOptions o;
    o.blocksize = 256;
    rocqr::qr::factorize(
        rocqr::qr::QrProblem{{&dev},
                             HostMutRef::phantom(1024, 768),
                             HostMutRef::phantom(768, 768),
                             rocqr::qr::Algorithm::LeftLooking, o});
  });
}

TEST(ScheduleGolden, TiledQrTaskGraph) {
  // Tiled CGS expressed on the TaskGraph executor: panel k+1 factors while
  // panel k's trailing updates drain, and that interleaving is pinned here.
  check_golden("tiled_qr", 256LL << 20, [](Device& dev) {
    rocqr::qr::QrOptions o;
    o.blocksize = 256;
    rocqr::qr::factorize(
        rocqr::qr::QrProblem{{&dev},
                             HostMutRef::phantom(2048, 1024),
                             HostMutRef::phantom(1024, 1024),
                             rocqr::qr::Algorithm::Tiled, o});
  });
}

/// Keeps no snapshot. Installing it at checkpoint_every = 1 makes the batch
/// drivers run round by round, so each round's graph.run() and checkpoint
/// synchronize are part of the pinned schedule.
struct DiscardCheckpoints : rocqr::qr::CheckpointSink {
  void write(const rocqr::qr::Checkpoint& /*cp*/) override {}
};

rocqr::qr::QrOptions round_by_round_options(rocqr::qr::CheckpointSink* sink) {
  rocqr::qr::QrOptions o;
  o.blocksize = 64;
  o.checkpoint_sink = sink;
  o.checkpoint_every = 1;
  return o;
}

TEST(ScheduleGolden, FusedBlockingBatch) {
  // Three same-shape blocking jobs fused into one node program: every node
  // issues one batched op over the three jobs' buffers.
  check_golden("fused_blocking_x3", 256LL << 20, [](Device& dev) {
    DiscardCheckpoints sink;
    const rocqr::qr::QrOptions o = round_by_round_options(&sink);
    std::vector<rocqr::qr::detail::BatchJob> jobs;
    for (const char* label : {"j0.", "j1.", "j2."}) {
      jobs.push_back(rocqr::qr::detail::BatchJob{
          "blocking", HostMutRef::phantom(1024, 256),
          HostMutRef::phantom(256, 256), o, label});
    }
    rocqr::qr::detail::run_fused_batch(dev, jobs);
  });
}

TEST(ScheduleGolden, ColocatedTiledAndLeftLooking) {
  // A tiled and a left-looking job colocated in one task graph: their
  // rounds interleave on the shared engines between checkpoint syncs.
  check_golden("colocated_tiled_left", 256LL << 20, [](Device& dev) {
    DiscardCheckpoints sink;
    const rocqr::qr::QrOptions o = round_by_round_options(&sink);
    rocqr::qr::detail::run_batch(
        dev, {rocqr::qr::detail::BatchJob{"tiled",
                                          HostMutRef::phantom(1024, 256),
                                          HostMutRef::phantom(256, 256), o,
                                          "j0."},
              rocqr::qr::detail::BatchJob{"left",
                                          HostMutRef::phantom(1024, 256),
                                          HostMutRef::phantom(256, 256), o,
                                          "j1."}});
  });
}

TEST(ScheduleGolden, ColocatedBlockingPair) {
  // Two blocking jobs colocated as two one-lane programs: their panel
  // rounds interleave on the shared engines between checkpoint syncs.
  check_golden("colocated_blocking_x2", 256LL << 20, [](Device& dev) {
    DiscardCheckpoints sink;
    const rocqr::qr::QrOptions o = round_by_round_options(&sink);
    std::vector<rocqr::qr::detail::BatchJob> jobs;
    for (const char* label : {"j0.", "j1."}) {
      jobs.push_back(rocqr::qr::detail::BatchJob{
          "blocking", HostMutRef::phantom(1024, 256),
          HostMutRef::phantom(256, 256), o, label});
    }
    rocqr::qr::detail::run_batch(dev, jobs);
  });
}

TEST(ScheduleGolden, ColocatedResumedAtUnitTwo) {
  // A tiled, a left-looking and a blocking job resumed at unit 2: tiled
  // re-stages Q_1 before its step-1 updates, and the panel programs start
  // at panel 2.
  check_golden("colocated_resumed_u2", 256LL << 20, [](Device& dev) {
    DiscardCheckpoints sink;
    rocqr::qr::QrOptions o = round_by_round_options(&sink);
    o.resume_units = 2;
    std::vector<rocqr::qr::detail::BatchJob> jobs;
    const char* algorithms[] = {"tiled", "left", "blocking"};
    const char* labels[] = {"j0.", "j1.", "j2."};
    for (int k = 0; k < 3; ++k) {
      jobs.push_back(rocqr::qr::detail::BatchJob{
          algorithms[k], HostMutRef::phantom(1024, 256),
          HostMutRef::phantom(256, 256), o, labels[k]});
    }
    rocqr::qr::detail::run_batch(dev, jobs);
  });
}

TEST(ScheduleGolden, TsqrFleetReductionTree) {
  // DAG-overlapped TSQR: a reduction-tree node fires as soon as both child
  // R factors exist instead of waiting on a full-fleet barrier, so the
  // merge order across devices is part of the pinned schedule.
  check_fleet_golden("tsqr_fleet", 256LL << 20, 4,
                     [](std::vector<Device*>& fleet) {
                       rocqr::qr::QrOptions o;
                       o.blocksize = 256;
                       rocqr::qr::factorize(
                           rocqr::qr::QrProblem{fleet,
                                                HostMutRef::phantom(8192, 512),
                                                HostMutRef::phantom(512, 512),
                                                rocqr::qr::Algorithm::Tsqr, o});
                     });
}

TEST(ScheduleGolden, RecursiveLu) {
  check_golden("recursive_lu", 256LL << 20, [](Device& dev) {
    rocqr::lu::FactorOptions o;
    o.blocksize = 256;
    rocqr::lu::recursive_ooc_lu(dev, HostMutRef::phantom(1024, 768), o);
  });
}

TEST(ScheduleGolden, BlockingLu) {
  check_golden("blocking_lu", 256LL << 20, [](Device& dev) {
    rocqr::lu::FactorOptions o;
    o.blocksize = 256;
    rocqr::lu::blocking_ooc_lu(dev, HostMutRef::phantom(1024, 768), o);
  });
}

TEST(ScheduleGolden, BlockingCholesky) {
  check_golden("blocking_cholesky", 256LL << 20, [](Device& dev) {
    rocqr::lu::FactorOptions o;
    o.blocksize = 256;
    rocqr::lu::blocking_ooc_cholesky(dev, HostMutRef::phantom(1024, 1024), o);
  });
}

TEST(ScheduleGolden, RecursiveCholesky) {
  check_golden("recursive_cholesky", 256LL << 20, [](Device& dev) {
    rocqr::lu::FactorOptions o;
    o.blocksize = 256;
    rocqr::lu::recursive_ooc_cholesky(dev, HostMutRef::phantom(1024, 1024),
                                      o);
  });
}

} // namespace
