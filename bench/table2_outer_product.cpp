// Reproduces Table 2: out-of-core outer product (C -= A·B) behaviour,
// recursive tiling (131072 x 65536 x 65536, row slab 8192) vs blocking
// tiling (131072 x 16384 x 114688, 16384^2 C tiles), plus the §4.1.2
// ablation (extra C working space on/off) and the §5.1.2 ideal bound.
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

  bench::section("Table 2 — outer product (A2 -= Q1*R12) OOC GEMM behaviour");

  struct Run {
    ooc::OocGemmStats stats;
    ooc::PlanLog plan_log;
    double total_s = 0;
    double rate = 0;
  };

  const auto run_recursive = [&](bool synchronous, bool staging) {
    auto dev = paper_device();
    // B = R12 (65536^2) is resident, produced by the preceding inner product.
    auto b = dev.allocate(65536, 65536, sim::StoragePrecision::FP16);
    ooc::OocGemmOptions opts;
    opts.blocksize = 8192;
    opts.synchronous = synchronous;
    opts.staging_buffer = staging;
    Run r;
    opts.plan_log = &r.plan_log;
    r.stats = ooc::outer_product_recursive(
        dev, ooc::Operand::on_host(sim::HostConstRef::phantom(131072, 65536)),
        ooc::Operand::on_device(b),
        sim::HostConstRef::phantom(131072, 65536),
        sim::HostMutRef::phantom(131072, 65536), opts);
    dev.synchronize();
    r.total_s = dev.makespan();
    const sim::TraceSummary window =
        sim::summarize(dev.trace(), r.stats.trace_begin, r.stats.trace_end);
    r.rate = static_cast<double>(window.flops) / r.total_s;
    dev.free(b);
    return r;
  };

  const auto run_blocking = [&](bool synchronous) {
    auto dev = paper_device();
    // Both tall-skinny factors resident (paper §3.3.2).
    auto a = dev.allocate(131072, 16384, sim::StoragePrecision::FP16);
    auto b = dev.allocate(16384, 114688, sim::StoragePrecision::FP16);
    ooc::OocGemmOptions opts;
    opts.blocksize = 16384;
    opts.tile_cols = 16384;
    opts.synchronous = synchronous;
    opts.staging_buffer = false; // conventional baseline: single C tile buffer
    Run r;
    opts.plan_log = &r.plan_log;
    r.stats = ooc::outer_product_blocking(
        dev, ooc::Operand::on_device(a), ooc::Operand::on_device(b),
        sim::HostConstRef::phantom(131072, 114688),
        sim::HostMutRef::phantom(131072, 114688), opts);
    dev.synchronize();
    r.total_s = dev.makespan();
    const sim::TraceSummary window =
        sim::summarize(dev.trace(), r.stats.trace_begin, r.stats.trace_end);
    r.rate = static_cast<double>(window.flops) / r.total_s;
    dev.free(a);
    dev.free(b);
    return r;
  };

  const Run rec_sync = run_recursive(true, true);
  const Run rec_async = run_recursive(false, true);
  const Run rec_nostage = run_recursive(false, false);
  const Run blk_sync = run_blocking(true);
  const Run blk_async = run_blocking(false);

  using P = paper::OuterProduct;
  report::Table t("Single-block and total costs, measured vs paper:",
                  {"quantity", "recursive", "blocking"});
  t.add_row({"host to device (per block)",
             bench::vs_paper_ms(rec_async.stats.slab_h2d_seconds, P::recursive_h2d_s),
             bench::vs_paper_ms(blk_async.stats.slab_h2d_seconds, P::blocking_h2d_s)});
  t.add_row({"GEMM (per block)",
             bench::vs_paper_ms(rec_async.stats.slab_gemm_seconds, P::recursive_gemm_s),
             bench::vs_paper_ms(blk_async.stats.slab_gemm_seconds, P::blocking_gemm_s)});
  t.add_row({"device to host (per block)",
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
             bench::tflops(blk_sync.rate) + "  (paper 34.7 TF)"});
  t.add_row({"asynchronous total",
             bench::vs_paper_s(rec_async.total_s, P::recursive_async_s),
             bench::secs(blk_async.total_s) + "  (paper 11.3 s*)"});
  t.add_row({"asynchronous rate",
             bench::vs_paper_tf(rec_async.rate, P::recursive_async_flops),
             bench::tflops(blk_async.rate)});
  std::cout << t.render();

  std::cout << "\n(*) The paper prints blocking async 11286 ms — larger than its own\n"
               "synchronous 5119 ms and identical to Table 1's entry; almost\n"
               "certainly a copy-paste slip. Our self-consistent value is shown.\n";

  // §5.1.2 ideal-bound check: async ≈ first move-in + sum(gemm) + last
  // move-out for the recursive outer product.
  const double ideal = rec_async.stats.slab_h2d_seconds +
                       16.0 * rec_async.stats.slab_gemm_seconds +
                       rec_async.stats.slab_d2h_seconds;
  std::cout << "\nIdeal bound (first move-in + GEMMs + last move-out): "
            << bench::vs_paper_s(ideal, paper::OuterProduct::recursive_ideal_s)
            << "\nmeasured async " << bench::secs(rec_async.total_s)
            << " — gap " << bench::ms(rec_async.total_s - ideal) << "\n";

  bench::section("Ablation — §4.1.2 extra C working space (recursive outer)");
  report::Table t2("", {"variant", "total", "vs optimized"});
  t2.add_row({"extra working space (4.1.2)", bench::secs(rec_async.total_s),
              "1.00x"});
  t2.add_row({"single C buffer", bench::secs(rec_nostage.total_s),
              format_fixed(rec_nostage.total_s / rec_async.total_s, 2) + "x"});
  std::cout << t2.render();

  if (explain && explain_dot) {
    bench::section("Lowered task graphs (--explain-plan=dot)");
    std::cout << rec_sync.plan_log.dot << rec_async.plan_log.dot
              << rec_nostage.plan_log.dot << blk_sync.plan_log.dot
              << blk_async.plan_log.dot;
  } else if (explain) {
    bench::section("Pipeline plans (--explain-plan)");
    std::cout << "recursive sync:\n" << rec_sync.plan_log.text
              << "recursive async:\n" << rec_async.plan_log.text
              << "recursive no-stage:\n" << rec_nostage.plan_log.text
              << "blocking sync:\n" << blk_sync.plan_log.text
              << "blocking async:\n" << blk_async.plan_log.text;
  }
  return 0;
}
