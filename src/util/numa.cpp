#include "util/numa.h"

#include <fstream>
#include <sstream>

namespace cl {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  return line;
}

NumaTopology discover() {
  NumaTopology topo;
  // /sys/devices/system/node/online lists the online node ids as a range
  // list ("0" or "0-1,4"); each node exposes its CPU set in
  // node<N>/cpulist. Any parse failure falls through to a single node.
  const std::vector<int> nodes =
      parse_cpu_list(read_first_line("/sys/devices/system/node/online"));
  for (const int node : nodes) {
    topo.node_cpus.push_back(parse_cpu_list(read_first_line(
        "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist")));
  }
  if (topo.node_cpus.empty()) topo.node_cpus.emplace_back();
  return topo;
}

}  // namespace

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) return {};
    const std::size_t dash = token.find('-');
    try {
      if (dash == std::string::npos) {
        std::size_t used = 0;
        const int cpu = std::stoi(token, &used);
        if (used != token.size() || cpu < 0) return {};
        cpus.push_back(cpu);
      } else {
        std::size_t used = 0;
        const int lo = std::stoi(token.substr(0, dash), &used);
        if (used != dash || lo < 0) return {};
        const std::string hi_text = token.substr(dash + 1);
        const int hi = std::stoi(hi_text, &used);
        if (used != hi_text.size() || hi < lo) return {};
        for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
      }
    } catch (...) {
      return {};
    }
  }
  return cpus;
}

const NumaTopology& numa_topology() {
  static const NumaTopology topo = discover();
  return topo;
}

}  // namespace cl
