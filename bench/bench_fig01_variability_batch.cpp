/**
 * @file
 * Figure 1: Hadoop completion-time variability across instance types on EC2 and GCE.
 *
 * Usage: bench_fig01_variability_batch [loadScale] [seed] [threads]
 *                                      [--json <path>] [--trace <path>]
 *                                      [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig01_variability_batch",
        [](hcloud::exp::Runner& runner) {
            hcloud::exp::fig01VariabilityBatch(runner.options());
        });
}
