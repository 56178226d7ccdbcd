/**
 * @file
 * Figure 5: cost of fully reserved and fully on-demand systems.
 *
 * Usage: bench_fig05_baseline_cost [loadScale] [seed] [threads]
 *                                  [--json <path>] [--trace <path>]
 *                                  [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig05_baseline_cost",
        hcloud::exp::fig05BaselineCost);
}
