// toma_perfbench — the repository benchmark.
//
//   toma_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--commit SHA]
//
// Workloads: device_churn, device_pressure, device_contended (gpusim
// kernels calling GpuAllocator::malloc/free) and host_tenants (the toma_*
// C API from one host thread). --trace 0 measures the end-to-end metrics
// with tracing off; --trace 1 runs the per-layer ledger (counter deltas
// plus the benchmark's own spans around every allocator call).
//
// The last line of stdout is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A correctness violation prints its diagnostics to stderr, reports no
// metrics and exits 1. A build other than Release is refused (exit 3).
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: toma_perfbench --workload "
               "device_churn|device_pressure|device_contended|host_tenants\n"
               "                      --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--commit SHA]\n");
}

bool known_workload(const std::string& w) {
  return w == "device_churn" || w == "device_pressure" ||
         w == "device_contended" || w == "host_tenants";
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

/// Build type, compile-time gates, host parallelism and run identity.
std::string provenance(const Options& opt, const std::string& commit) {
  const std::uint32_t workers =
      opt.workload == "host_tenants" ? 1 : device_workers(opt.workload);
  std::string p = "{";
  p += "\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
#ifdef NDEBUG
  p += ",\"ndebug\":true";
#else
  p += ",\"ndebug\":false";
#endif
  p += ",\"gates\":{";
  p += "\"TOMA_TELEMETRY\":" + std::to_string(TOMA_TELEMETRY);
  p += ",\"TOMA_FIXED_LANE\":" + std::to_string(TOMA_FIXED_LANE);
  p += ",\"TOMA_VMM\":" + std::to_string(TOMA_VMM);
  p += ",\"TOMA_UALLOC_MAGAZINES\":" + std::to_string(TOMA_UALLOC_MAGAZINES);
  p += ",\"TOMA_TBUDDY_QUICKLIST\":" + std::to_string(TOMA_TBUDDY_QUICKLIST);
  p += ",\"TOMA_TBUDDY_CAS_CLAIM\":" + std::to_string(TOMA_TBUDDY_CAS_CLAIM);
  p += ",\"TOMA_STREAM_ASYNC\":" + std::to_string(TOMA_STREAM_ASYNC);
  p += ",\"TOMA_HEAPSAN\":" + std::to_string(TOMA_HEAPSAN);
  p += "}";
  p += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  p += ",\"hardware_concurrency\":" +
       std::to_string(std::thread::hardware_concurrency());
  p += ",\"workload\":\"" + json_escape(opt.workload) + "\"";
  p += ",\"workers\":" + std::to_string(workers);
  p += ",\"seed\":" + std::to_string(opt.seed);
  p += ",\"seconds\":" + num(opt.seconds);
  p += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  p += ",\"commit\":\"" + json_escape(commit) + "\"";
  p += "}";
  return p;
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

int run(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = opt.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!known_workload(opt.workload) || !have_trace || !(opt.seconds > 0) ||
      opt.seconds > 600) {
    usage();
    return 2;
  }
  if (!release_build()) {
    std::fprintf(stderr,
                 "toma_perfbench: refusing to measure a %s build; numbers "
                 "from a non-Release build are not results\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!opt.out_dir.empty()) ::mkdir(opt.out_dir.c_str(), 0755);

  const std::string prov = provenance(opt, commit);
  std::printf("{\"provenance\": %s}\n", prov.c_str());
  std::fflush(stdout);

  Outcome out;
  if (opt.workload == "host_tenants") {
    run_host(opt, &out);
  } else {
    run_device(opt, &out);
  }

  // The traced run reports exactly the schema: a layer the workload leaves
  // idle reads 0.
  if (opt.trace) {
    Metrics listed;
    for (const auto& [name, unit] : per_layer_schema()) {
      auto it = out.per_layer.find(name);
      listed[name] = {it == out.per_layer.end() ? 0.0 : it->second.value, unit};
    }
    out.per_layer = std::move(listed);
  }
  const Metrics& reported = opt.trace ? out.per_layer : out.end_to_end;

  const bool correct = out.violation_count == 0;
  if (!correct) {
    std::fprintf(stderr, "toma_perfbench: %" PRIu64
                         " correctness violation(s):\n",
                 out.violation_count);
    for (const std::string& v : out.violations) {
      std::fprintf(stderr, "  %s\n", v.c_str());
    }
  }

  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"provenance\": %s,\n \"correct\": %s,\n",
                   prov.c_str(), correct ? "true" : "false");
      std::fprintf(f, " \"metrics\": %s", metrics_json(reported).c_str());
      for (const auto& [k, v] : out.ledger) {
        std::fprintf(f, ",\n \"%s\": %s", k.c_str(), v.c_str());
      }
      std::fprintf(f, "\n}\n");
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              correct ? metrics_json(reported).c_str() : "{}");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
