/**
 * @file
 * The paper's result tables, rendered from the runs of a
 * nosq-sweep-v2 report (`nosq_sim --render TABLE:FILE`). Runs are
 * looked up by (benchmark, config) name, so any report holding the
 * runs a table needs renders it. docs/cli.md names the sweep that
 * feeds each table; a report does not record its machine size, so
 * fig2 and fig3 read the same configurations.
 */

#ifndef NOSQ_SIM_PAPER_TABLES_HH
#define NOSQ_SIM_PAPER_TABLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace nosq {

struct JsonValue;

/** The renderable table names: "fig2 | fig3 | ... | memsys". */
std::string paperTableList();

/**
 * Render table @p table over @p runs.
 * @param insts the report's measured instructions per run, printed
 *        in the Fig. 2 and Table 5 titles
 * @throws std::invalid_argument for an unknown table, an empty run
 *         set, or a (benchmark, config) run the table needs that
 *         @p runs lacks or holds only as an invalid run; the message
 *         names it
 */
std::string renderPaperTable(const std::string &table,
                             const std::vector<RunResult> &runs,
                             std::uint64_t insts);

/**
 * The runs of a parsed nosq-sweep-v2 report: schema check, then
 * every run rebuilt with runResultFromJson().
 * @param insts set to the report's measured instructions per run
 * @throws std::invalid_argument explaining the first problem
 */
std::vector<RunResult> loadSweepReport(const JsonValue &doc,
                                       std::uint64_t &insts);

} // namespace nosq

#endif // NOSQ_SIM_PAPER_TABLES_HH
