/**
 * @file
 * Table 1: qualitative comparison of provisioning configurations, with concrete prices.
 *
 * Usage: bench_table1_strategy_matrix [loadScale] [seed] [threads]
 *                                     [--json <path>] [--trace <path>]
 *                                     [--timeline <path>] [--metrics-port <port>]
 *
 * The shared bench command line is documented in exp/cli.hpp. Output is
 * bit-identical at any thread count. The table is static: loadScale and seed
 * are accepted but unused.
 */

#include "exp/cli.hpp"
#include "exp/figures.hpp"

int
main(int argc, char** argv)
{
    return hcloud::exp::benchMain(
        argc, argv, "table1_strategy_matrix",
        [](hcloud::exp::Runner&) { hcloud::exp::table1StrategyMatrix(); });
}
