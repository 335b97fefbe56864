// cmd_swarm — one content swarm's simulation-vs-theory outcome
// (one dot of the paper's Fig. 2).
#include <iostream>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "trace/filter.h"

namespace cl::cli {

int cmd_swarm(const Args& args) {
  const Trace trace = load_or_generate(args);
  const Metro& metro = resolve_metro(args, trace.metro_name);
  const auto content = static_cast<std::uint32_t>(args.get_int("content", 0));
  const auto isp = static_cast<std::uint32_t>(args.get_int("isp", 0));
  if (isp >= metro.isp_count()) {
    throw ParseError("--isp out of range (0.." +
                     std::to_string(metro.isp_count() - 1) + ")");
  }
  const Trace swarm = filter_by_isp(filter_by_content(trace, content), isp);
  if (swarm.empty()) {
    std::cout << "no sessions for content " << content << " on "
              << metro.isp(isp).name() << "\n";
    return 1;
  }
  std::cout << "\ncontent " << content << " on " << metro.isp(isp).name()
            << ":\n";
  const Analyzer analyzer(metro, sim_config_from(args));
  print_swarm_experiment(
      std::cout,
      analyzer.analyze_swarm(
          TraceView::from_trace(swarm, analyzer.sim_config().threads), isp));
  return 0;
}

}  // namespace cl::cli
