/**
 * @file
 * Figure 12: cost sensitivity to the on-demand:reserved price ratio.
 *
 * Usage: bench_fig12_price_ratio [loadScale] [seed] [threads]
 *                                [--json <path>] [--trace <path>]
 *                                [--timeline <path>] [--metrics-port <port>]
 *                                [--seeds <n>] [--ci]
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
        argc, argv, "fig12_price_ratio",
        hcloud::exp::fig12PriceRatio,
        hcloud::exp::fig12SweepGrid);
}
