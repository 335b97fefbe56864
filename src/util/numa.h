// numa.h — best-effort NUMA topology discovery.
//
// Reports how many NUMA nodes the machine has and which CPUs each holds
// (sysfs on Linux; one node everywhere else). It is descriptive only:
// nothing in the simulator pins threads or shapes a reduction by node
// count, so results never depend on it. Benchmark tooling records the
// node count in its machine fingerprint.
#pragma once

#include <string>
#include <vector>

namespace cl {

/// CPU ids per NUMA node, ascending node id. Always at least one node;
/// node_cpus[i] may be empty for CPU-less (memory-only) nodes.
struct NumaTopology {
  std::vector<std::vector<int>> node_cpus;

  [[nodiscard]] unsigned nodes() const {
    return static_cast<unsigned>(node_cpus.size());
  }
};

/// Parses a kernel cpulist string ("0-3,8,10-11") into ascending CPU ids.
/// Returns an empty vector on malformed input.
[[nodiscard]] std::vector<int> parse_cpu_list(const std::string& text);

/// The machine's NUMA topology, parsed once from
/// /sys/devices/system/node/ (Linux). Falls back to a single node holding
/// no explicit CPU list when sysfs is unavailable.
[[nodiscard]] const NumaTopology& numa_topology();

}  // namespace cl
