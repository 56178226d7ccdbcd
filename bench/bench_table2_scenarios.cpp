/**
 * @file
 * Table 2 / Figure 3: workload scenario characteristics and target load curves.
 *
 * Usage: bench_table2_scenarios [loadScale] [seed] [threads]
 *                               [--json <path>] [--trace <path>]
 *                               [--timeline <path>] [--metrics-port <port>]
 *
 * The shared bench command line is documented in exp/cli.hpp. Output is
 * bit-identical at any thread count.
 */

#include "exp/cli.hpp"
#include "exp/figures.hpp"

int
main(int argc, char** argv)
{
    return hcloud::exp::benchMain(
        argc, argv, "table2_scenarios",
        [](hcloud::exp::Runner& runner) {
            hcloud::exp::table2Scenarios(runner.options());
        });
}
