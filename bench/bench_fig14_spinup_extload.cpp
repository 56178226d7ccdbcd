/**
 * @file
 * Figure 14: performance sensitivity to spin-up time and external load.
 *
 * Usage: bench_fig14_spinup_extload [loadScale] [seed] [threads]
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
        argc, argv, "fig14_spinup_extload",
        hcloud::exp::fig14SpinUpAndExternalLoad);
}
