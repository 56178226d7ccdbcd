/**
 * @file
 * Figures 19-20: per-instance utilization over time for all five strategies.
 *
 * Usage: bench_fig19_20_utilization [loadScale] [seed] [threads]
 *                                   [--json <path>] [--trace <path>]
 *                                   [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig19_20_utilization",
        hcloud::exp::fig19And20Utilization);
}
