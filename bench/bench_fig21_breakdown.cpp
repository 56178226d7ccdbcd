/**
 * @file
 * Figure 21: allocation breakdown per application type under HM.
 *
 * Usage: bench_fig21_breakdown [loadScale] [seed] [threads]
 *                              [--json <path>] [--trace <path>]
 *                              [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig21_breakdown",
        hcloud::exp::fig21Breakdown);
}
