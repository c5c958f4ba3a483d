#include "src/core/health.h"

#include <algorithm>

#include "src/common/macros.h"

namespace flexpipe {

HealthMonitor::HealthMonitor(const Cluster* cluster, const HealthConfig& config)
    : cluster_(cluster), config_(config) {
  FLEXPIPE_CHECK(cluster != nullptr);
  FLEXPIPE_CHECK(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0);
  FLEXPIPE_CHECK(config_.straggler_ratio > 1.0);
  FLEXPIPE_CHECK(config_.hysteresis_windows >= 1);
  FLEXPIPE_CHECK(config_.quarantine_strikes >= 1);
  FLEXPIPE_CHECK(config_.readmit_probes >= 1);
  FLEXPIPE_CHECK(config_.max_quarantine_fraction > 0.0 &&
                 config_.max_quarantine_fraction <= 1.0);
  state_.resize(static_cast<size_t>(cluster->server_count()));
  quarantine_mask_.assign(static_cast<size_t>(cluster->server_count()), 0);
  exclusion_mask_.assign(static_cast<size_t>(cluster->server_count()), 0);
  int gpu_servers = 0;
  for (ServerId s = 0; s < cluster->server_count(); ++s) {
    if (!cluster->server(s).gpus.empty()) {
      ++gpu_servers;
    }
  }
  quarantine_cap_ = std::max(
      1, static_cast<int>(config_.max_quarantine_fraction *
                          static_cast<double>(gpu_servers)));
}

void HealthMonitor::Observe(ServerId server, TimeNs observed, TimeNs base) {
  ServerState& st = state_[static_cast<size_t>(server)];
  st.window_observed += observed;
  st.window_base += base;
}

std::vector<ServerId> HealthMonitor::EndWindow(TimeNs now) {
  std::vector<ServerId> newly_flagged;
  // Ascending server-id walk: every flag/quarantine/readmit decision is made in a
  // deterministic order regardless of how samples arrived.
  for (ServerId s = 0; s < static_cast<ServerId>(state_.size()); ++s) {
    ServerState& st = state_[static_cast<size_t>(s)];

    if (st.quarantined_since >= 0) {
      // Quarantined: no serving traffic reaches this server, so the EWMA would
      // starve. Re-probe instead — a canary measurement reading the ground-truth
      // perf/link state — and readmit after enough consecutive clean probes.
      st.window_observed = 0;
      st.window_base = 0;
      if (st.last_probe < 0 || now - st.last_probe >= config_.reprobe_interval) {
        st.last_probe = now;
        if (cluster_->ServerDegraded(s)) {
          st.healthy_probes = 0;
        } else if (++st.healthy_probes >= config_.readmit_probes) {
          Readmit(s);
        }
      }
      continue;
    }

    if (st.window_base <= 0) {
      // No serving evidence this window (idle server): hysteresis holds its state
      // rather than decaying — absence of data is not evidence of health.
      st.window_observed = 0;
      continue;
    }
    double ratio =
        static_cast<double>(st.window_observed) / static_cast<double>(st.window_base);
    st.window_observed = 0;
    st.window_base = 0;
    if (st.ewma_valid) {
      st.ewma = config_.ewma_alpha * ratio + (1.0 - config_.ewma_alpha) * st.ewma;
    } else {
      st.ewma = ratio;
      st.ewma_valid = true;
    }

    if (st.ewma > config_.straggler_ratio) {
      ++st.bad_streak;
    } else {
      st.bad_streak = 0;
      st.flagged = false;  // recovered on its own; future trouble re-flags from scratch
      exclusion_mask_[static_cast<size_t>(s)] = 0;
    }
    if (st.bad_streak >= config_.hysteresis_windows && !st.flagged) {
      st.flagged = true;
      if (config_.mitigate) {
        // Even below the quarantine cap, a confirmed straggler takes no *new*
        // placements — evacuating one instance onto another known-sick server
        // would pay the migration outage and keep limping.
        exclusion_mask_[static_cast<size_t>(s)] = 1;
      }
      ++st.strikes;
      ++flags_raised_;
      if (first_flag_time_ < 0) {
        first_flag_time_ = now;
      }
      newly_flagged.push_back(s);
      // The capacity guard: quarantining removes serving capacity the healthy
      // remainder must absorb, so a wide wave stops quarantining at the cap and
      // the overflow keeps limping (flagged, but still in the placer's pool).
      if (config_.mitigate && st.strikes >= config_.quarantine_strikes &&
          quarantined_now_ < quarantine_cap_) {
        Quarantine(s, now);
      }
    }
  }
  return newly_flagged;
}

void HealthMonitor::Quarantine(ServerId id, TimeNs now) {
  ServerState& st = state_[static_cast<size_t>(id)];
  FLEXPIPE_CHECK(st.quarantined_since < 0);
  st.quarantined_since = now;
  st.last_probe = now;  // first re-probe one full interval from quarantine
  st.healthy_probes = 0;
  quarantine_mask_[static_cast<size_t>(id)] = 1;
  exclusion_mask_[static_cast<size_t>(id)] = 1;
  ++quarantine_count_;
  ++quarantined_now_;
}

void HealthMonitor::Readmit(ServerId id) {
  ServerState& st = state_[static_cast<size_t>(id)];
  st.quarantined_since = -1;
  st.last_probe = -1;
  st.healthy_probes = 0;
  st.flagged = false;
  st.bad_streak = 0;
  st.ewma = 1.0;
  st.ewma_valid = false;  // fresh start: old degraded history must not haunt it
  quarantine_mask_[static_cast<size_t>(id)] = 0;
  exclusion_mask_[static_cast<size_t>(id)] = 0;
  ++readmissions_;
  --quarantined_now_;
}

}  // namespace flexpipe
