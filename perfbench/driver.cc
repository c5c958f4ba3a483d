// Benchmark driver: one benchmark run per process, printed as one JSON object.
//
//   perfbench_driver --workload steady_mix --seed 1 --trace 0
//
// Runs the workload's kReplicas replicas one after another (or the range
// [first, last) given by --replicas first:last) and prints every measured number of
// each, plus the simulated metrics pooled over them. perfbench/run.py calls it repeatedly, takes medians and prints the
// benchmark's result line; see perfbench/README.md. A traced run also times an
// engine-only storm sized from the first replica's event count and arena.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace {

using perfbench::Named;

// A sanitizer or audit build distorts host time (the auditor also adds engine
// events), so the benchmark refuses to time one.
const char* UntimeableBuild() {
#if defined(FLEXPIPE_AUDIT)
  return "FLEXPIPE_AUDIT";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer";
#else
  return nullptr;
#endif
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintNamed(const char* key, const Named& values) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", values[i].first.c_str(),
                values[i].second);
  }
  std::printf("}");
}

// JSON strings here are metric names and check messages: escape quotes and backslashes.
std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void PrintReplica(const perfbench::RunResult& r, uint64_t seed, double calibration_before,
                  double calibration_after) {
  std::printf("{\"seed\": %" PRIu64 ", ", seed);
  PrintNamed("host", {{"calibration_before_s", calibration_before},
                      {"calibration_after_s", calibration_after},
                      {"setup_s", r.setup_s},
                      {"run_s", r.run_s},
                      {"env_s", r.env_s},
                      {"system_s", r.system_s},
                      {"deploy_s", r.deploy_s},
                      {"run_wall_s", r.run_wall_s},
                      {"harness_wall_s", r.harness_wall_s}});
  std::printf(", ");
  PrintNamed("signature", r.Signature());
  std::printf(", ");
  PrintNamed("traced", r.traced);
  std::printf(", \"failures\": [");
  for (size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", Quoted(r.failures[i]).c_str());
  }
  std::printf("]}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <steady_mix|bursty_mix|fault_storm> "
               "--seed <n> --trace <0|1> [--replicas <first>:<last>]\n"
               "       perfbench_driver --stamp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  bool have_seed = false;
  int trace = -1;
  int first = 0;
  int last = perfbench::kReplicas;
  bool stamp = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--replicas" && has_value) {
      if (std::sscanf(argv[++i], "%d:%d", &first, &last) != 2) {
        return Usage();
      }
    } else if (arg == "--stamp") {
      stamp = true;
    } else {
      return Usage();
    }
  }
  const char* untimeable = UntimeableBuild();
  if (stamp) {
    std::printf("{\"compiler\": %s, \"build_type\": %s, \"untimeable\": %s, \"replicas\": %d}\n",
                Quoted(PERFBENCH_COMPILER).c_str(), Quoted(PERFBENCH_BUILD_TYPE).c_str(),
                Quoted(untimeable ? untimeable : "").c_str(), perfbench::kReplicas);
    return 0;
  }
  perfbench::Workload workload;
  if (!perfbench::ParseWorkload(workload_name, &workload) || !have_seed ||
      (trace != 0 && trace != 1) || first < 0 || last > perfbench::kReplicas || first >= last) {
    return Usage();
  }
  if (untimeable != nullptr) {
    std::fprintf(stderr, "perfbench_driver: refusing to time a %s build\n", untimeable);
    return 3;
  }

  const bool traced = trace == 1;
  std::vector<perfbench::RunResult> results;
  std::vector<uint64_t> seeds;
  bool failed = false;
  // Calibration runs before each replica and once after the last, so every replica
  // is bracketed by two measurements of the machine's current speed.
  std::vector<double> calibration = {perfbench::CalibrationSeconds()};
  for (int i = first; i < last; ++i) {
    seeds.push_back(perfbench::ReplicaSeed(seed, i));
    results.push_back(perfbench::RunOnce(workload, seeds.back(), traced));
    calibration.push_back(perfbench::CalibrationSeconds());
    failed = failed || !results.back().failures.empty();
  }
  const double rss = PeakRssMib();

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, ",
              perfbench::WorkloadName(workload), seed, traced ? "true" : "false");
  std::printf("\"peak_rss_mib\": %.17g, ", rss);
  if (traced) {
    // Sized like the first replica's own run: its event count and peak arena.
    double events = 0.0, slots = 0.0;
    for (const auto& [name, value] : results.front().Signature()) {
      events = name == "sim.events" ? value : events;
    }
    for (const auto& [name, value] : results.front().traced) {
      slots = name == "sim.arena_slots" ? value : slots;
    }
    std::printf("\"engine_ns_per_event\": %.17g, ",
                perfbench::EngineNsPerEvent(static_cast<uint64_t>(events),
                                            static_cast<uint64_t>(slots)));
  }
  PrintNamed("pooled", perfbench::PooledSimMetrics(results));
  std::printf(", ");
  std::printf("\"replicas\": [");
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    PrintReplica(results[i], seeds[i], calibration[i], calibration[i + 1]);
  }
  std::printf("]}\n");
  return failed ? 1 : 0;
}
