/**
 * @file
 * Figure 13: absolute cost versus workload scenario duration.
 *
 * Usage: bench_fig13_duration [loadScale] [seed] [threads]
 *                             [--json <path>] [--trace <path>]
 *                             [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig13_duration",
        hcloud::exp::fig13Duration);
}
