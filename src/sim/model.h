// Simulation models of the five architectures the paper evaluates.
//
// Each model reproduces the component graph of its real counterpart:
//   SMR     — ordered stream → one executor thread
//   sP-SMR  — ordered stream → scheduler thread → worker pool, with
//             drain-assign-drain serialization for dependent commands
//   P-SMR   — k ordered streams (+ shared stream) → k delivering workers,
//             signal barriers for dependent commands (Algorithm 1)
//   no-rep  — client sockets → scheduler thread → worker pool
//   BDB     — client sockets → handler threads over a lock-based store
// driven by closed-loop clients with a bounded window (paper: 50
// outstanding commands per client, Section VI-B).
//
// Costs come from sim/calibration.h; the *shapes* (who wins, crossovers,
// scaling curves, latency ordering) emerge from the architecture, not from
// per-figure tuning.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/calibration.h"
#include "util/histogram.h"

namespace psmr::sim {

enum class Tech { kSmr, kSpsmr, kPsmr, kNoRep, kLock };

[[nodiscard]] constexpr const char* tech_name(Tech t) {
  switch (t) {
    case Tech::kSmr: return "SMR";
    case Tech::kSpsmr: return "sP-SMR";
    case Tech::kPsmr: return "P-SMR";
    case Tech::kNoRep: return "no-rep";
    case Tech::kLock: return "BDB";
  }
  return "?";
}

struct SimConfig {
  Tech tech = Tech::kPsmr;
  /// Worker threads (multiprogramming level); handler threads for BDB.
  int workers = 8;
  int clients = 60;
  int window = 50;  // outstanding commands per client (paper: up to 50)
  double warmup_us = 20'000;
  double duration_us = 220'000;
  /// Fraction of commands that are dependent-on-all (inserts/deletes in the
  /// key-value store; structural commands in NetFS).
  double frac_dependent = 0.0;
  /// Key selection: uniform or Zipf(s) over `keys` (Section VII-G).
  bool zipf = false;
  double zipf_s = 1.0;
  /// Load-aware C-G (paper §IV-D): the hottest `hot_aware` Zipf ranks are
  /// pinned round-robin across groups instead of hashed, rebalancing the
  /// skewed load.  0 disables.
  std::uint64_t hot_aware = 0;
  std::uint64_t keys = 10'000'000;
  std::uint64_t seed = 1;
  /// NetFS mode: per-command costs from NetFsCosts; `netfs_reads` selects
  /// the 1KB-read or 1KB-write workload of Section VII-H.
  bool netfs = false;
  bool netfs_reads = true;

  KvCosts kv;
  NetFsCosts fs;
  NetCosts net;
};

struct SimResult {
  double kcps = 0;             // thousands of commands per second
  double cpu_pct = 0;          // total busy core time / wall, x100
  double avg_latency_us = 0;
  util::Histogram latency;     // per-command latency (us)
  std::uint64_t completed = 0;
  /// Share of commands executed by the busiest worker (1/k = balanced).
  double max_worker_share = 0;
};

/// Runs one closed-loop simulation.  Deterministic for a fixed config.
SimResult simulate(const SimConfig& cfg);

}  // namespace psmr::sim
