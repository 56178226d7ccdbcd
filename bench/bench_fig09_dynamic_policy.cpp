/**
 * @file
 * Figure 9: adaptive soft limit over time and queueing-time estimator validation.
 *
 * Usage: bench_fig09_dynamic_policy [loadScale] [seed] [threads]
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
        argc, argv, "fig09_dynamic_policy",
        hcloud::exp::fig09DynamicPolicy);
}
