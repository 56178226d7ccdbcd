/**
 * @file
 * Figure 18: resource-allocation timelines for all five strategies.
 *
 * Usage: bench_fig18_allocation [loadScale] [seed] [threads]
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
        argc, argv, "fig18_allocation",
        hcloud::exp::fig18Allocation);
}
