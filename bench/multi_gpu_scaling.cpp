// Multi-GPU scaling of the out-of-core outer product — the §2.2 context
// (cuBLASXt / BLASX are multi-GPU OOC BLAS3 libraries). C row-blocks are
// partitioned across devices; the decisive variable is whether the devices
// share one PCIe root (transfers serialize) or own dedicated lanes.
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "ooc/multi_gpu.hpp"
#include "report/table.hpp"

namespace {

using namespace rocqr;

double run(int gpus, bool shared_link) {
  auto link = shared_link ? std::make_shared<sim::SharedHostLink>() : nullptr;
  std::vector<std::unique_ptr<sim::Device>> owned;
  std::vector<sim::Device*> devices;
  for (int i = 0; i < gpus; ++i) {
    owned.push_back(std::make_unique<sim::Device>(
        sim::DeviceSpec::v100_32gb(), sim::ExecutionMode::Phantom, link));
    owned.back()->model().install_paper_calibration();
    devices.push_back(owned.back().get());
  }
  ooc::OocGemmOptions opts;
  opts.blocksize = 8192;
  return ooc::multi_gpu_outer_product(
             devices, sim::HostConstRef::phantom(131072, 65536),
             sim::HostConstRef::phantom(65536, 65536),
             sim::HostConstRef::phantom(131072, 65536),
             sim::HostMutRef::phantom(131072, 65536), opts)
      .makespan;
}

} // namespace

int main() {
  bench::section(
      "Multi-GPU scaling — outer product 131072x65536x65536, V100s");

  const double base = run(1, false);
  report::Table t("", {"GPUs", "dedicated links", "speedup", "shared link",
                       "speedup"});
  for (const int g : {1, 2, 4}) {
    const double dedicated = run(g, false);
    const double shared = run(g, true);
    t.add_row({std::to_string(g), bench::secs(dedicated),
               format_fixed(base / dedicated, 2) + "x", bench::secs(shared),
               format_fixed(base / shared, 2) + "x"});
  }
  std::cout << t.render();

  std::cout
      << "\nWith dedicated PCIe lanes the row-partitioned GEMM scales almost\n"
         "linearly (each device keeps its own compute-bound pipeline). On a\n"
         "single shared link the serialized transfers — including a\n"
         "replicated B per device — swallow the gain: the regime that makes\n"
         "multi-GPU OOC scheduling (BLASX, cuBLASXt) genuinely hard, and a\n"
         "second, orthogonal argument for the paper's movement-frugal\n"
         "recursive formulations.\n";
  return 0;
}
