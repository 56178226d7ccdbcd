/**
 * @file
 * Figure 16: sensitivity to the fraction of interference-sensitive applications.
 *
 * Usage: bench_fig16_sensitive_apps [loadScale] [seed] [threads]
 *                                   [--json <path>] [--trace <path>]
 *                                   [--timeline <path>] [--metrics-port <port>]
 *                                   [--seeds <n>] [--ci]
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
        argc, argv, "fig16_sensitive_apps",
        hcloud::exp::fig16SensitiveApps,
        hcloud::exp::fig16SweepGrid);
}
