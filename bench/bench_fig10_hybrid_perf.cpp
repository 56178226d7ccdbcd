/**
 * @file
 * Figure 10: performance of SR/HF/HM with and without profiling information.
 *
 * Usage: bench_fig10_hybrid_perf [loadScale] [seed] [threads]
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
        argc, argv, "fig10_hybrid_perf",
        hcloud::exp::fig10HybridPerf);
}
