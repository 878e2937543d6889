// Workloads of the open-loop serving benchmark: deployments, seeded inputs
// and the per-command output checks.
//
// Every input is a pure function of (seed, workload name, phase name), so
// the same seed replays the same arrival times and the same commands.
// Commands are generated as compact Op descriptors before any timing
// starts; marshaling into wire parameters happens at submit time, because
// that is client work a real caller pays on every command.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "smr/client.h"
#include "smr/runtime.h"
#include "util/bytes.h"

namespace perfbench {

enum class Service { kKv, kFs };

enum class OpKind : std::uint8_t {
  kKvRead,
  kKvUpdate,
  kKvInsert,
  kKvDelete,
  kFsRead,
  kFsWrite,
};

/// One command of a schedule.  `key` is the KV key or the NetFS file index;
/// `value` is the KV value written, or the index of the block written.
struct Op {
  OpKind kind = OpKind::kKvRead;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// One arrival of an open-loop schedule, due `due_ns` after the phase
/// starts.
struct Arrival {
  std::int64_t due_ns = 0;
  Op op;
};

/// Operation mix in percent (sums to 100).
struct Mix {
  int read = 100;
  int update = 0;
  int insert = 0;
  int remove = 0;
};

struct WorkloadSpec {
  std::string_view name;
  Service service = Service::kKv;
  psmr::smr::Mode mode = psmr::smr::Mode::kPsmr;
  std::size_t mpl = 1;
  Mix mix;
  bool zipf = false;
  /// Nominal offered rate, commands per second.  Each nominal rate is a
  /// step of the max-rate ladder (1.25 Kcps * 2^n).
  double nominal_cps = 0;
};

/// The workload named `name`; nullptr when there is none.
const WorkloadSpec* find_workload(std::string_view name);

/// Keys preloaded into every KV replica (the paper's 10 M), each mapped to
/// itself.
inline constexpr std::uint64_t kKvKeys = 10'000'000;
/// NetFS files preloaded, each with one 1 KB block.
inline constexpr std::size_t kFsFiles = 256;
inline constexpr std::size_t kFsBlockBytes = 1024;
/// Distinct blocks the NetFS writers draw from.
inline constexpr std::size_t kFsWriteBlocks = 64;

/// Seeded inputs of one run: arrival schedules, NetFS blocks, and the set
/// of values a read may legally return.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, std::uint64_t seed);

  /// Poisson arrivals at `rate_cps` for `seconds`.  `phase` names the
  /// phase, so every phase draws from its own stream of the seed.
  /// `phase_id` keeps inserted keys and written values distinct across
  /// phases.  Updates are registered as legal read results.
  std::vector<Arrival> schedule(std::string_view phase, std::uint32_t phase_id,
                                double rate_cps, double seconds);

  /// Marshals an op's command id and wire parameters.
  [[nodiscard]] psmr::smr::CommandId command_of(const Op& op) const;
  [[nodiscard]] psmr::util::Buffer params_of(const Op& op) const;

  /// Checks a completion's payload against what the op may return.  Fills
  /// `why` on a mismatch.
  bool check(const Op& op, const psmr::util::Buffer& payload,
             std::string& why) const;

  [[nodiscard]] const std::vector<psmr::util::Buffer>& preload_blocks() const {
    return preload_blocks_;
  }
  [[nodiscard]] const std::vector<psmr::util::Buffer>& write_blocks() const {
    return write_blocks_;
  }
  [[nodiscard]] const std::string& path(std::size_t file) const {
    return paths_[file];
  }

 private:
  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<std::string> paths_;
  std::vector<psmr::util::Buffer> preload_blocks_;
  std::vector<psmr::util::Buffer> write_blocks_;
  /// KV: values written to a preloaded key by any update of the run.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> kv_written_;
  /// NetFS: hashes of the blocks written to each file by any write of the
  /// run.
  std::vector<std::unordered_set<std::uint64_t>> fs_written_;
};

/// Library-default deployment for a workload (only mode, mpl, service and
/// C-G function are set).
psmr::smr::DeploymentConfig deployment_config(const WorkloadSpec& spec);

/// Brings the service to its preloaded state through `proxy` (NetFS files;
/// the KV tree is preloaded by the service constructor).  False on a
/// failed command.
bool preload(const WorkloadSpec& spec, const Inputs& inputs,
             psmr::smr::ClientProxy& proxy);

}  // namespace perfbench
