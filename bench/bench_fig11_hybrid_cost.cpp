/**
 * @file
 * Figure 11: cost comparison between SR, HF and HM.
 *
 * Usage: bench_fig11_hybrid_cost [loadScale] [seed] [threads]
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
        argc, argv, "fig11_hybrid_cost",
        hcloud::exp::fig11HybridCost);
}
