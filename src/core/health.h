// Fail-slow health monitoring: straggler detection with hysteresis and quarantine.
//
// Gray failures (thermal throttles, sick NICs) never fire a GPU-loss event — the
// hardware keeps serving, just slower — so nothing in the fail-stop recovery path can
// see them. The HealthMonitor closes that gap from the serving side: every control
// tick the serving layer reports, per server, how much busy time its stages actually
// consumed (observed) versus what the healthy cost-model profile predicted (base).
// The observed/base ratio is EWMA-smoothed per server; a server whose smoothed ratio
// stays beyond the straggler threshold for K consecutive windows is *flagged* (the
// hysteresis kills single-window flaps), and a flagged repeat offender is
// *quarantined*: its id enters a byte mask the placer treats as a hard exclusion, and
// the serving layer proactively migrates the stages standing on it. Quarantined
// servers are re-probed on a fixed cadence (modeling an out-of-band canary kernel +
// loopback transfer, which reads the cluster's ground-truth perf/link factors) and
// readmitted after consecutive healthy probes.
//
// Determinism: the monitor draws no randomness and schedules no events — it is pure
// arithmetic over busy-time counters inside the existing control tick, so enabling
// detection on a healthy fleet leaves the simulation trajectory bit-identical. On a
// healthy fleet observed == base exactly (the runtime stretches busy time only when a
// server is degraded), the ratio is exactly 1.0, and the monitor provably never
// flags: the zero-false-positive baseline is deterministic, not statistical.
#ifndef FLEXPIPE_SRC_CORE_HEALTH_H_
#define FLEXPIPE_SRC_CORE_HEALTH_H_

#include <cstdint>
#include <vector>

#include "src/cluster/topology.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flexpipe {

struct HealthConfig {
  // Master switch: disabled builds no per-server state and samples nothing, keeping
  // the control tick byte-for-byte on its historical path.
  bool enabled = false;
  // EWMA smoothing of the per-window observed/base busy ratio.
  double ewma_alpha = 0.4;
  // Smoothed ratio beyond which a window counts as "bad" (1.25 = 25% slower than the
  // healthy profile; a 0.6x throttle shows a ratio of ~1.67).
  double straggler_ratio = 1.25;
  // Hysteresis: K consecutive bad windows before a server is flagged. One outlier
  // window (a transient batch spike) never flags.
  int hysteresis_windows = 3;
  // Flag events before the server is quarantined out of the placer's candidate set
  // (1 = first confirmed flag quarantines).
  int quarantine_strikes = 1;
  // Re-probe cadence for quarantined servers and the number of consecutive healthy
  // probes required to readmit.
  TimeNs reprobe_interval = FromSeconds(30);
  int readmit_probes = 2;
  // false = detect-only ("ignore" baseline): flags and detection latency are still
  // tracked, but nothing is quarantined and the serving layer is never asked to
  // migrate — the fleet keeps limping on degraded hardware.
  bool mitigate = true;
  // Capacity guard: cap the quarantine set at this fraction of GPU-bearing servers.
  // Quarantining removes capacity that the healthy remainder must absorb; past the
  // cap, a wide gray-failure wave would cost more in evacuations than the slowdown
  // itself, so additional stragglers stay flagged-but-serving (limping at reduced
  // speed) until a readmission frees a slot.
  double max_quarantine_fraction = 0.15;
};

class FLEXPIPE_THREAD_HOSTILE HealthMonitor {
 public:
  HealthMonitor(const Cluster* cluster, const HealthConfig& config);

  // One sampling contribution: `observed`/`base` busy-time deltas a stage on `server`
  // accumulated since the last control tick. Multiple stages per server add up.
  void Observe(ServerId server, TimeNs observed, TimeNs base);

  // Closes the sampling window at virtual time `now`: folds the window ratios into
  // the EWMAs, advances hysteresis, raises flags, quarantines repeat offenders (when
  // config.mitigate), and runs due re-probes. Returns the servers *newly flagged*
  // this window — the serving layer's cue to migrate their stages away.
  std::vector<ServerId> EndWindow(TimeNs now);

  bool IsQuarantined(ServerId id) const {
    return quarantine_mask_[static_cast<size_t>(id)] != 0;
  }
  // Servers under quarantine: evacuated and hard-excluded until readmission. The
  // audit layer enforces this set (placing here after quarantine began is a bug).
  const std::vector<uint8_t>& quarantine_mask() const { return quarantine_mask_; }
  // Byte mask handed to TopologyAwarePlacer::set_excluded_servers; updated in
  // place. Superset of quarantine_mask(): every *currently flagged* straggler is
  // in it too, so replacements for evacuated instances never land on a server the
  // monitor already knows is sick — even when the capacity guard kept it out of
  // quarantine. Flagged-only entries clear as soon as the server's streak breaks.
  const std::vector<uint8_t>& exclusion_mask() const { return exclusion_mask_; }

  // -- Introspection / metrics ----------------------------------------------------------
  int flags_raised() const { return flags_raised_; }
  int quarantine_count() const { return quarantine_count_; }
  int readmissions() const { return readmissions_; }
  int quarantined_now() const { return quarantined_now_; }
  // Absolute quarantine-set ceiling derived from max_quarantine_fraction (≥ 1).
  int quarantine_cap() const { return quarantine_cap_; }
  // Virtual time of the first flag ever raised (-1 = never): detection latency is
  // first_flag_time() minus the first degrade injection time.
  TimeNs first_flag_time() const { return first_flag_time_; }
  TimeNs quarantined_since(ServerId id) const {
    return state_[static_cast<size_t>(id)].quarantined_since;
  }
  double SmoothedRatio(ServerId id) const {
    const ServerState& st = state_[static_cast<size_t>(id)];
    return st.ewma_valid ? st.ewma : 1.0;
  }

  const HealthConfig& config() const { return config_; }

 private:
  struct ServerState {
    TimeNs window_observed = 0;
    TimeNs window_base = 0;
    double ewma = 1.0;
    bool ewma_valid = false;
    int bad_streak = 0;
    int strikes = 0;
    bool flagged = false;
    TimeNs quarantined_since = -1;
    TimeNs last_probe = -1;
    int healthy_probes = 0;
  };

  void Quarantine(ServerId id, TimeNs now);
  void Readmit(ServerId id);

  const Cluster* cluster_;
  HealthConfig config_;
  std::vector<ServerState> state_;
  std::vector<uint8_t> quarantine_mask_;
  std::vector<uint8_t> exclusion_mask_;  // flagged ∪ quarantined
  int flags_raised_ = 0;
  int quarantine_count_ = 0;
  int readmissions_ = 0;
  int quarantined_now_ = 0;
  int quarantine_cap_ = 1;
  TimeNs first_flag_time_ = -1;
};

}  // namespace flexpipe

#endif  // FLEXPIPE_SRC_CORE_HEALTH_H_
