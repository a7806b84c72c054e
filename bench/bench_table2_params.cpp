// Table II — experimental parameters. Instantiates the default configuration,
// validates it, and prints both the paper's tabulated values and the derived
// constants this reproduction adds (documented in DESIGN.md §3).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace tradefl;

int main(int argc, char** argv) {
  const Config config = bench::parse_args(argc, argv);
  bench::banner("Table II", "experimental parameters of the Sec. VI simulations");

  game::ExperimentSpec spec;
  if (auto status = spec.params.validate(); !status.ok()) {
    std::fprintf(stderr, "invalid default parameters: %s\n",
                 status.error().to_string().c_str());
    return 1;
  }

  AsciiTable table({"parameter", "paper", "this repo"}, {Align::kLeft, Align::kLeft, Align::kLeft});
  table.add_row({"|N|", "10", std::to_string(spec.org_count)});
  table.add_row({"D_min", "0.01", format_double(spec.params.d_min)});
  table.add_row({"s_i (bits)", "[15, 25] * 1e9",
                 "[" + format_double(spec.data_bits_lo) + ", " + format_double(spec.data_bits_hi) + "]"});
  table.add_row({"|S_i|", "[1000, 2000]",
                 "[" + std::to_string(spec.samples_lo) + ", " + std::to_string(spec.samples_hi) + "]"});
  table.add_row({"p_i", "[500, 2500]",
                 "[" + format_double(spec.profitability_lo) + ", " +
                     format_double(spec.profitability_hi) + "]"});
  table.add_row({"kappa", "1e-27", format_double(spec.params.kappa)});
  table.add_row({"F_i^(m)", "3-5 GHz",
                 "[" + format_double(spec.fmax_lo / 1e9) + ", " + format_double(spec.fmax_hi / 1e9) +
                     "] GHz, m=" + std::to_string(spec.freq_levels) +
                     " levels from " + format_double(spec.freq_base / 1e9) + " GHz"});
  table.add_row({"gamma (default)", "5.12e-9 (gamma*)", format_double(spec.params.gamma)});
  table.add_row({"lambda", "(unstated)", format_double(spec.params.lambda)});
  table.add_row({"omega_e", "(unstated)", format_double(spec.params.omega_e)});
  table.add_row({"tau", "(unstated)", format_double(spec.params.tau) + " s"});
  table.add_row({"eta_i (cycles/bit)", "(unstated)",
                 "[" + format_double(spec.cycles_per_bit_lo) + ", " +
                     format_double(spec.cycles_per_bit_hi) + "]"});
  table.add_row({"T^(1), T^(3)", "(unstated)",
                 "[" + format_double(spec.comm_time_lo) + ", " + format_double(spec.comm_time_hi) +
                     "] s"});
  table.add_row({"A(0)", "(unstated)", format_double(spec.params.a0)});
  table.add_row({"G (epochs)", "(unstated)", format_double(spec.params.epochs_g)});
  table.add_row({"rho mean", "(swept in Figs. 10-11)", format_double(spec.rho_mean)});
  bench::emit(config, "table2_params", table);

  // Derived sanity numbers for the default instance.
  const auto game = game::make_experiment_game(spec, 42);
  AsciiTable derived({"derived quantity", "value"}, {Align::kLeft, Align::kRight});
  derived.add_row({"min z_i (Theorem 1 guard)",
                   format_double(*std::min_element(game.weights_z().begin(),
                                                   game.weights_z().end()))});
  derived.add_row({"rho guard scale", format_double(game.rho_guard_scale())});
  derived.add_row({"P(Omega) at all-D_min",
                   format_double(game.performance(game.minimal_profile()))});
  bench::emit(config, "table2_derived", derived);
  return 0;
}
