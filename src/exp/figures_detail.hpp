/**
 * @file
 * Helpers shared between the figure-driver translation units.
 */

#ifndef HCLOUD_EXP_FIGURES_DETAIL_HPP
#define HCLOUD_EXP_FIGURES_DETAIL_HPP

#include <iterator>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/types.hpp"
#include "exp/runner.hpp"

namespace hcloud::exp::detail {

/**
 * Matrix keys of every scenario x @p strategies, profiled, plus the
 * unprofiled twin of each when @p withUnprofiled is set — what a figure
 * driver hands to Runner::fill before reading its cells.
 */
std::vector<Runner::CellKey> matrixCells(
    const std::vector<core::StrategyKind>& strategies =
        {std::begin(core::kAllStrategies), std::end(core::kAllStrategies)},
    bool withUnprofiled = false);

/** Normalized-cost denominator: the static scenario under SR. */
double staticSrCost(Runner& runner, const cloud::PricingModel& pricing);

/** p5 of the per-job normalized-performance distribution ("tail perf"). */
double tailPerf(const core::RunResult& r);

/** Shared body for the Figure 4 / Figure 10 performance panels. */
void perfPanel(Runner& runner,
               const std::vector<core::StrategyKind>& strategies);

/** Shared body for the Figure 5 / Figure 11 cost panels. */
void costPanel(Runner& runner,
               const std::vector<core::StrategyKind>& strategies);

} // namespace hcloud::exp::detail

#endif // HCLOUD_EXP_FIGURES_DETAIL_HPP
