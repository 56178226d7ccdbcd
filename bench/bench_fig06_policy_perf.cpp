/**
 * @file
 * Figure 6: sensitivity to the application-mapping policy (P1-P8), performance view.
 *
 * Usage: bench_fig06_policy_perf [loadScale] [seed] [threads]
 *                                [--json <path>] [--trace <path>]
 *                                [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig06_policy_perf",
        hcloud::exp::fig06PolicyPerf);
}
