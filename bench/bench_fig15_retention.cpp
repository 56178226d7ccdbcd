/**
 * @file
 * Figure 15: performance and cost sensitivity to idle-instance retention time.
 *
 * Usage: bench_fig15_retention [loadScale] [seed] [threads]
 *                              [--json <path>] [--trace <path>]
 *                              [--timeline <path>] [--metrics-port <port>]
 *                              [--seeds <n>] [--ci]
 *
 * The shared bench command line is documented in exp/cli.hpp. Output is
 * bit-identical at any thread count. --seeds / --ci replace the single-seed
 * figure with a multi-seed sweep: mean +/- 95% CI per cell on stdout and
 * in the --json report's `sweeps` array.
 */

#include "exp/cli.hpp"
#include "exp/figures.hpp"
#include "exp/sweep.hpp"

int
main(int argc, char** argv)
{
    return hcloud::exp::benchMain(
        argc, argv, "fig15_retention",
        hcloud::exp::fig15Retention,
        hcloud::exp::fig15SweepGrid);
}
