// E13 — design ablations: (a) the deletion discipline (the paper's FIFO
// vs LIFO vs uniform-random service) and (b) the acceptance order (the
// paper's oldest-first preference vs the youngest-first inversion).
//
// Expected shape: the pool size is invariant under both axes (they
// permute which balls survive/serve, not how many), while the *maximum*
// waiting time degrades sharply for LIFO service and youngest-first
// acceptance — demonstrating that the paper's age preference is exactly
// what buys the log log n tail.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/capped.hpp"

namespace {

// A Scenario runs the paper's disciplines only, so the ablations run on
// run_experiment.
iba::sim::RunResult run_variant(const iba::bench::BenchOptions& options,
                                const iba::scenario::Scenario& cell,
                                iba::core::DeletionDiscipline deletion,
                                iba::core::AcceptanceOrder acceptance) {
  using namespace iba;
  core::CappedConfig config = bench::capped_cell(options, cell);
  config.deletion = deletion;
  config.acceptance = acceptance;
  std::fprintf(stderr, "[cell] %s del=%s acc=%s ...\n", cell.name.c_str(),
               std::string(core::to_string(deletion)).c_str(),
               std::string(core::to_string(acceptance)).c_str());
  core::Capped process(config, core::Engine(options.seed));
  return sim::run_experiment(process, bench::run_spec(cell));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iba;
  io::ArgParser parser(
      "bench_disciplines",
      "deletion-discipline and acceptance-order ablations of CAPPED");
  bench::add_standard_flags(parser);
  if (!parser.parse_or_exit(argc, argv)) return 0;
  const auto options = bench::read_standard_flags(parser);

  const std::uint32_t i = 6;  // λ = 1 − 2^−6: enough pressure to separate
  const std::uint32_t c = 3;
  const auto cell =
      bench::make_cell(options, c, bench::paper_lambda_n(options.n, i));

  struct Variant {
    const char* name;
    core::DeletionDiscipline deletion;
    core::AcceptanceOrder acceptance;
  };
  const std::vector<Variant> variants = {
      {"paper (fifo, oldest-first)", core::DeletionDiscipline::kFifo,
       core::AcceptanceOrder::kOldestFirst},
      {"lifo service", core::DeletionDiscipline::kLifo,
       core::AcceptanceOrder::kOldestFirst},
      {"uniform service", core::DeletionDiscipline::kUniform,
       core::AcceptanceOrder::kOldestFirst},
      {"youngest-first acceptance", core::DeletionDiscipline::kFifo,
       core::AcceptanceOrder::kYoungestFirst},
      {"both inverted", core::DeletionDiscipline::kLifo,
       core::AcceptanceOrder::kYoungestFirst},
  };

  io::Table table({"variant", "pool/n", "wait_avg", "wait_p99<=",
                   "wait_max", "starve_age"});
  table.set_title("Service/acceptance ablations, lambda=1-2^-6, c=3");
  std::vector<std::vector<double>> csv_rows;
  double variant_id = 0;
  for (const Variant& variant : variants) {
    // Starvation depth: the worst oldest-pool-age over a fresh window
    // (measures how long the unluckiest *unallocated* ball lingered).
    core::CappedConfig config = bench::capped_cell(options, cell);
    config.deletion = variant.deletion;
    config.acceptance = variant.acceptance;
    core::Capped probe(config, core::Engine(options.seed + 1));
    for (std::uint64_t round = 0; round < cell.burn_in; ++round) {
      (void)probe.step();
    }
    std::uint64_t starve_age = 0;
    for (std::uint64_t round = 0; round < cell.rounds; ++round) {
      starve_age = std::max(starve_age, probe.step().oldest_pool_age);
    }

    const auto result =
        run_variant(options, cell, variant.deletion, variant.acceptance);
    table.add_row({variant.name,
                   io::Table::format_number(result.normalized_pool.mean()),
                   io::Table::format_number(result.wait_mean),
                   io::Table::format_number(result.wait_p99_upper),
                   io::Table::format_number(
                       static_cast<double>(result.wait_max)),
                   io::Table::format_number(
                       static_cast<double>(starve_age))});
    csv_rows.push_back({variant_id++, result.normalized_pool.mean(),
                        result.wait_mean, result.wait_p99_upper,
                        static_cast<double>(result.wait_max),
                        static_cast<double>(starve_age)});
  }

  bench::emit(table, options, "disciplines",
              {"variant", "pool_over_n", "wait_avg", "wait_p99_upper",
               "wait_max", "starve_age"},
              csv_rows);
  return 0;
}
