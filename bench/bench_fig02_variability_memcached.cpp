/**
 * @file
 * Figure 2: memcached tail-latency variability across instance types on EC2 and GCE.
 *
 * Usage: bench_fig02_variability_memcached [loadScale] [seed] [threads]
 *                                          [--json <path>] [--trace <path>]
 *                                          [--timeline <path>] [--metrics-port <port>]
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
        argc, argv, "fig02_variability_memcached",
        [](hcloud::exp::Runner& runner) {
            hcloud::exp::fig02VariabilityMemcached(runner.options());
        });
}
