/**
 * @file
 * Figure 7: reserved utilization and cost across mapping policies.
 *
 * Usage: bench_fig07_policy_util_cost [loadScale] [seed] [threads]
 *                                     [--json <path>] [--trace <path>]
 *                                     [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig07_policy_util_cost",
        hcloud::exp::fig07PolicyUtilCost);
}
