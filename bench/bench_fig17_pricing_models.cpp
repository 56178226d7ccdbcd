/**
 * @file
 * Figure 17: cost under AWS, Azure and GCE sustained-use pricing models.
 *
 * Usage: bench_fig17_pricing_models [loadScale] [seed] [threads]
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
        argc, argv, "fig17_pricing_models",
        hcloud::exp::fig17PricingModels);
}
