/// Reproduces Table 4: the industrial-scale experiment — 64 A100 GPUs
/// (8 NVLink nodes over 100 Gb InfiniBand) training the 10-billion-parameter
/// BERT-xHuge and ViT-xHuge under 16 GB and 32 GB budgets.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "util/table_printer.h"

namespace galvatron {
namespace {

void RunBudget(int64_t budget_gb) {
  const ClusterSpec cluster = MakeA100Cluster64(budget_gb * kGB);
  const std::vector<ModelId> models = {ModelId::kBertXHuge,
                                       ModelId::kViTXHuge};
  std::vector<std::string> header = {"Strategy"};
  for (ModelId id : models) header.emplace_back(ModelIdToString(id));
  TablePrinter table(header);
  for (BaselineKind kind : AllBaselineKinds()) {
    std::vector<std::string> row = {std::string(BaselineKindToString(kind))};
    for (ModelId id : models) {
      ModelSpec model = BuildModel(id);
      // Coarser search knobs at this scale (Sec 3.3's complexity note).
      OptimizerOptions options;
      options.memory_granularity = int64_t{64} * 1024 * 1024;
      options.batch_step = 8;
      row.push_back(bench::MeasuredCell(kind, model, cluster, options));
    }
    table.AddRow(std::move(row));
  }
  std::printf("Memory budget %lldG:\n%s\n",
              static_cast<long long>(budget_gb), table.ToString().c_str());
}

}  // namespace
}  // namespace galvatron

int main() {
  std::printf("Table 4: comparison with 64 A100 GPUs on 10B-parameter "
              "models\n\n");
  for (int64_t budget : {16, 32}) {
    galvatron::RunBudget(budget);
  }
  return 0;
}
