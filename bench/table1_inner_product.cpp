// Reproduces Table 1: out-of-core inner product (C = AᵀB) behaviour,
// recursive tiling (65536 x 131072 x 65536, k-slab 16384) vs blocking
// tiling (16384 x 131072 x 114688, n-slab 16384), synchronous vs pipelined.
//
// --explain-plan appends the plan each engine built, then its task-graph
// form (node counts per stage, edge and fence-edge counts);
// --explain-plan=dot appends the lowered graphs as Graphviz digraphs.
#include <iostream>
#include <string>

#include "bench/bench_util.hpp"
#include "ooc/gemm_engines.hpp"
#include "ooc/operand.hpp"
#include "report/paper.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) {
  using namespace rocqr;
  using bench::paper_device;
  namespace paper = report::paper;
  bool explain = false;
  bool explain_dot = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--explain-plan") explain = true;
    if (arg == "--explain-plan=dot") explain = explain_dot = true;
  }

  bench::section("Table 1 — inner product (R12 = Q1'A2) OOC GEMM behaviour");

  struct Run {
    ooc::OocGemmStats stats;
    ooc::PlanLog plan_log;
    double total_s = 0;
    double rate = 0;
  };

  const auto run_recursive = [&](bool synchronous) {
    auto dev = paper_device();
    ooc::OocGemmOptions opts;
    opts.blocksize = 16384;
    opts.synchronous = synchronous;
    Run r;
    opts.plan_log = &r.plan_log;
    r.stats = ooc::inner_product_recursive(
        dev, ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        sim::HostMutRef::phantom(65536, 65536), opts);
    dev.synchronize();
    r.total_s = dev.makespan();
    const sim::TraceSummary window =
        sim::summarize(dev.trace(), r.stats.trace_begin, r.stats.trace_end);
    r.rate = static_cast<double>(window.flops) / r.total_s;
    return r;
  };

  const auto run_blocking = [&](bool synchronous) {
    auto dev = paper_device();
    // The 131072 x 16384 panel Q is already resident (left there by the
    // panel factorization), as in the paper's blocking QR.
    auto q = dev.allocate(131072, 16384, sim::StoragePrecision::FP16);
    ooc::OocGemmOptions opts;
    opts.blocksize = 16384;
    opts.synchronous = synchronous;
    Run r;
    opts.plan_log = &r.plan_log;
    r.stats = ooc::inner_product_blocking(
        dev, ooc::Operand::on_device(q),
        ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 114688)),
        sim::HostMutRef::phantom(16384, 114688), opts);
    dev.synchronize();
    r.total_s = dev.makespan();
    const sim::TraceSummary window =
        sim::summarize(dev.trace(), r.stats.trace_begin, r.stats.trace_end);
    r.rate = static_cast<double>(window.flops) / r.total_s;
    dev.free(q);
    return r;
  };

  const Run rec_sync = run_recursive(true);
  const Run rec_async = run_recursive(false);
  const Run blk_sync = run_blocking(true);
  const Run blk_async = run_blocking(false);

  using P = paper::InnerProduct;
  report::Table t("Single-block and total costs, measured vs paper:",
                  {"quantity", "recursive", "blocking"});
  t.add_row({"host to device (per block)",
             bench::vs_paper_ms(rec_async.stats.slab_h2d_seconds, P::recursive_h2d_s),
             bench::vs_paper_ms(blk_async.stats.slab_h2d_seconds, P::blocking_h2d_s)});
  t.add_row({"GEMM (per block)",
             bench::vs_paper_ms(rec_async.stats.slab_gemm_seconds, P::recursive_gemm_s),
             bench::vs_paper_ms(blk_async.stats.slab_gemm_seconds, P::blocking_gemm_s)});
  t.add_row({"device to host",
             bench::vs_paper_ms(rec_async.stats.slab_d2h_seconds, P::recursive_d2h_s),
             bench::vs_paper_ms(blk_async.stats.slab_d2h_seconds, P::blocking_d2h_s)});
  t.add_row({"in-core rate",
             bench::vs_paper_tf(rec_async.stats.steady_gemm_rate, P::recursive_incore_flops),
             bench::vs_paper_tf(blk_async.stats.steady_gemm_rate, P::blocking_incore_flops)});
  t.add_rule();
  t.add_row({"synchronous total",
             bench::vs_paper_s(rec_sync.total_s, P::recursive_sync_s),
             bench::vs_paper_s(blk_sync.total_s, P::blocking_sync_s)});
  t.add_row({"synchronous rate",
             bench::vs_paper_tf(rec_sync.rate, P::recursive_sync_flops),
             bench::vs_paper_tf(blk_sync.rate, P::blocking_sync_flops)});
  t.add_row({"asynchronous total",
             bench::vs_paper_s(rec_async.total_s, P::recursive_async_s),
             bench::vs_paper_s(blk_async.total_s, P::blocking_async_s)});
  t.add_row({"asynchronous rate",
             bench::vs_paper_tf(rec_async.rate, P::recursive_async_flops),
             bench::vs_paper_tf(blk_async.rate, P::blocking_async_flops)});
  std::cout << t.render();

  std::cout << "\nKey observation (paper §5.1.1): the blocking in-core GEMM is the\n"
               "tall-skinny 16384x16384x131072 shape and runs far below peak\n"
               "(~52 TFLOP/s) while the recursive GEMM runs near peak (~100).\n";

  if (explain && explain_dot) {
    bench::section("Lowered task graphs (--explain-plan=dot)");
    std::cout << rec_sync.plan_log.dot << rec_async.plan_log.dot
              << blk_sync.plan_log.dot << blk_async.plan_log.dot;
  } else if (explain) {
    bench::section("Pipeline plans (--explain-plan)");
    std::cout << "recursive sync:\n" << rec_sync.plan_log.text
              << "recursive async:\n" << rec_async.plan_log.text
              << "blocking sync:\n" << blk_sync.plan_log.text
              << "blocking async:\n" << blk_async.plan_log.text;
  }
  return 0;
}
