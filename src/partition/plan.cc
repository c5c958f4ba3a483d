#include "src/partition/plan.h"

#include <algorithm>
#include <cstdio>

#include "src/common/macros.h"

namespace flexpipe {

Bytes PipelinePlan::MaxStageParams() const {
  Bytes best = 0;
  for (const auto& s : stages) {
    best = std::max(best, s.param_bytes);
  }
  return best;
}

TimeNs PipelinePlan::BottleneckCompute() const {
  TimeNs best = 0;
  for (const auto& s : stages) {
    best = std::max(best, s.compute_time);
  }
  return best;
}

TimeNs PipelinePlan::TotalCompute() const {
  TimeNs total = 0;
  for (const auto& s : stages) {
    total += s.compute_time;
  }
  return total;
}

std::string PipelinePlan::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %d stages, max %.1f GiB/stage, bottleneck %.2f ms",
                spec.name.c_str(), num_stages(), ToGiB(MaxStageParams()),
                ToMillis(BottleneckCompute()));
  return buf;
}

const PipelinePlan& GranularityLadder::plan(int stages) const {
  auto it = plans.find(stages);
  FLEXPIPE_CHECK_MSG(it != plans.end(), "no plan at requested granularity");
  return it->second;
}

bool GranularityLadder::IsNested() const {
  // Every plan's stage boundaries (in fine-stage coordinates) must be a subset of the
  // finest plan's boundaries — which is automatic if fine ranges tile [0, finest).
  for (const auto& [g, p] : plans) {
    int expect = 0;
    for (const auto& s : p.stages) {
      if (s.fine_begin != expect || s.fine_end <= s.fine_begin) {
        return false;
      }
      expect = s.fine_end;
    }
    if (expect != finest()) {
      return false;
    }
  }
  return true;
}

}  // namespace flexpipe
